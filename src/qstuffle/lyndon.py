"""Lyndon words and the standard-sequence calculus.

A Lyndon word (for the order with y_1 largest) is a nonempty word strictly
smaller than every proper suffix.  Duval's Chen-Fox-Lyndon factorization
makes every Lyndon decision: the predicate, graded generation and the
standard factorization read it.  The rest is the rises and legal rises of
standard sequences and the converse derivation map: every sequence that
derives to (l) by merge (lambda) and swap (rho) moves at its smallest
legal rise, with its number of derivation paths.

All sequence indices are 0-based.
"""

from .words import codes_of_weight, decode_word, word_less, word_leq


def is_lyndon(w):
    """True iff w is nonempty and smaller than all its proper suffixes."""
    return bool(w) and len(cfl_factorization(w)) == 1


def lyndon_of_weight(n):
    """Lyndon words of weight n, ascending by word_less; each word is
    decoded uncached, so no cache keeps a word the listing rejects."""
    return tuple(w for w in map(decode_word.__wrapped__, codes_of_weight(n))
                 if is_lyndon(w))


def lyndon_up_to(n):
    out = []
    for k in range(1, n + 1):
        out.extend(lyndon_of_weight(k))
    return out


def cfl_factorization(w):
    """The unique weakly decreasing sequence of Lyndon factors of w, by
    Duval's linear-time algorithm (J. Algorithms 4, 1983), y_1 largest."""
    if not w:
        raise ValueError("empty word has no factorization")
    out = []
    i = 0
    while i < len(w):
        j, k = i + 1, i
        while j < len(w) and w[j] <= w[k]:
            k = i if w[j] < w[k] else k + 1
            j += 1
        while i <= k:
            out.append(w[i:i + j - k])
            i += j - k
    if not all(word_leq(out[t + 1], out[t]) for t in range(len(out) - 1)):
        raise RuntimeError("CFL factors of %r are not weakly decreasing: %r"
                           % (w, out))
    return tuple(out)


def standard_factorization(l):
    """Split a Lyndon word of length >= 2 at its smallest proper suffix,
    the last CFL factor of the word without its first letter.

    Returns (left, right); both factors are Lyndon and l < right.
    """
    if len(l) < 2:
        raise ValueError("standard factorization needs length >= 2")
    if not is_lyndon(l):
        raise ValueError("not a Lyndon word: %r" % (l,))
    right = cfl_factorization(l[1:])[-1]
    left = l[:len(l) - len(right)]
    if not (is_lyndon(left) and is_lyndon(right) and word_less(l, right)):
        raise RuntimeError("standard factorization of %r failed its check: "
                           "%r, %r" % (l, left, right))
    return left, right


def rises(seq):
    return [i for i in range(len(seq) - 1) if word_less(seq[i], seq[i + 1])]


def legal_rises(seq):
    """Rises i whose successor dominates every entry after position i+1."""
    out = []
    for i in rises(seq):
        if all(word_leq(seq[j], seq[i + 1]) for j in range(i + 2, len(seq))):
            out.append(i)
    return out


def converse_tree(seq):
    """The sequences that derive to `seq` by smallest-rise steps, each
    mapped to its number of derivation paths (`seq` itself to 1).

    One step back from a sequence s gives every t whose move at its
    smallest legal rise i yields s: s with entries i, i+1 swapped (rho), or
    with entry i split by its standard factorization (lambda).  Each
    distinct sequence is expanded once, and the path counts are summed in
    one pass over a topological order, every sequence before its steps back
    (a step back lengthens the sequence or adds an ascending pair, so
    there is no cycle)."""
    seq = tuple(tuple(w) for w in seq)
    back = {}
    order = []  # every sequence after all of its steps back

    def expand(s):
        back[s] = steps = []
        candidates = [(i, s[:i] + (s[i + 1], s[i]) + s[i + 2:])
                      for i in range(len(s) - 1)]
        candidates += [(i, s[:i] + standard_factorization(w) + s[i + 1:])
                       for i, w in enumerate(s) if len(w) >= 2]
        for i, t in candidates:
            lr = legal_rises(t)
            if lr and min(lr) == i:
                steps.append(t)
                if t not in back:
                    expand(t)
        order.append(s)

    expand(seq)
    paths = dict.fromkeys(back, 0)
    paths[seq] = 1
    for s in reversed(order):
        for t in back[s]:
            paths[t] += paths[s]
    return paths
