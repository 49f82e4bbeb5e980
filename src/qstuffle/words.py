"""Words over the infinite alphabet {y_s : s >= 1} and their order.

A word is a tuple of positive integer letter indices; () is the empty word.
The alphabet carries the total order y_1 > y_2 > ..., so a LARGER index is a
SMALLER letter.  Words are compared lexicographically with the convention
that a proper prefix is smaller than its extensions; `word_key` realizes
this as an ordinary Python tuple comparison on negated indices, built once
per distinct word and cached (at most about 2^N words up to weight N).
"""

from functools import lru_cache


def weight(w):
    """Sum of letter indices; 0 for the empty word."""
    return sum(w)


def letter_less(a, b):
    """True iff y_a < y_b, i.e. iff a > b."""
    if a < 1 or b < 1:
        raise ValueError("letter indices must be >= 1")
    return a > b


@lru_cache(maxsize=None)
def word_key(w):
    return tuple(-s for s in w)


def word_less(u, v):
    return word_key(u) < word_key(v)


def word_leq(u, v):
    return word_key(u) <= word_key(v)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def words_of_weight(n):
    """All 2^(n-1) compositions of n, ascending by word_less."""
    if n < 1:
        raise ValueError("weight must be >= 1")
    out = sorted(_compositions(n), key=word_key)
    return tuple(out)


def all_words_up_to(n, include_empty=False):
    """Words of weight 1..n (plus optionally the empty word), ascending weight."""
    out = [()] if include_empty else []
    for k in range(1, n + 1):
        out.extend(words_of_weight(k))
    return out


def word_to_str(w):
    """Comma-separated letter indices; "e" for the empty word."""
    return ",".join(str(s) for s in w) if w else "e"


def word_from_str(s):
    s = s.strip()
    if s == "e" or s == "":
        return ()
    try:
        w = tuple(int(part) for part in s.split(","))
    except ValueError:
        raise ValueError("malformed word %r (expected e.g. \"3,1,2\" or \"e\")" % s)
    if any(x < 1 for x in w):
        raise ValueError("letter indices must be >= 1, got %r" % s)
    return w


def word_latex(w):
    """Render e.g. (3,1,1) as y_3y_1^{2}; the empty word as 1."""
    if not w:
        return "1"
    out = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        out.append("y_%d" % w[i] if run == 1 else "y_%d^{%d}" % (w[i], run))
        i = j
    return "".join(out)
