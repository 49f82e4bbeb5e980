"""Lyndon words and the standard-sequence calculus.

A Lyndon word (for the order with y_1 largest) is a nonempty word strictly
smaller than every proper suffix.  This module provides the predicate,
graded generation, the Chen-Fox-Lyndon and standard factorizations, and the
rewriting machinery on standard sequences: rises, legal rises, the merge
(lambda) and swap (rho) moves, their inverses at falls and landmarks, and
the resulting derivation / converse-derivation trees.

All sequence indices are 0-based.
"""

from functools import lru_cache

from .words import word_key, word_less, word_leq, words_of_weight


def is_lyndon(w):
    """True iff w is nonempty and smaller than all its proper suffixes."""
    if not w:
        return False
    k = word_key(w)
    return all(k < word_key(w[i:]) for i in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_of_weight(n):
    """Lyndon words of weight n, ascending by word_less."""
    return tuple(w for w in words_of_weight(n) if is_lyndon(w))


def lyndon_up_to(n):
    out = []
    for k in range(1, n + 1):
        out.extend(lyndon_of_weight(k))
    return out


def cfl_factorization(w):
    """The unique weakly decreasing sequence of Lyndon factors of w.

    Duval's linear-time algorithm (J. Algorithms 4, 1983), with the letter
    order of word_key.
    """
    if not w:
        raise ValueError("empty word has no factorization")
    key = word_key(w)
    out = []
    i = 0
    while i < len(w):
        j, k = i + 1, i
        while j < len(w) and key[k] <= key[j]:
            k = i if key[k] < key[j] else k + 1
            j += 1
        while i <= k:
            out.append(w[i:i + j - k])
            i += j - k
    assert all(word_leq(out[t + 1], out[t]) for t in range(len(out) - 1))
    return tuple(out)


def cfl_grouped(w):
    """CFL factors grouped as (factor, multiplicity) pairs, decreasing."""
    out = []
    for f in cfl_factorization(w):
        if out and out[-1][0] == f:
            out[-1][1] += 1
        else:
            out.append([f, 1])
    return [(f, m) for f, m in out]


def standard_factorization(l):
    """Split a Lyndon word of length >= 2 at its smallest proper suffix.

    Returns (left, right); both factors are Lyndon and l < right.
    """
    if len(l) < 2:
        raise ValueError("standard factorization needs length >= 2")
    if not is_lyndon(l):
        raise ValueError("not a Lyndon word: %r" % (l,))
    cut = min(range(1, len(l)), key=lambda i: word_key(l[i:]))
    left, right = l[:cut], l[cut:]
    assert is_lyndon(left) and is_lyndon(right) and word_less(l, right)
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


def merge_at_rise(seq, i):
    """Replace entries i, i+1 by their concatenation (a Lyndon word)."""
    if i not in legal_rises(seq):
        raise ValueError("index %d is not a legal rise of %r" % (i, seq))
    merged = seq[i] + seq[i + 1]
    assert is_lyndon(merged)
    return seq[:i] + (merged,) + seq[i + 2:]


def swap_at_rise(seq, i):
    if i not in legal_rises(seq):
        raise ValueError("index %d is not a legal rise of %r" % (i, seq))
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]


def falls(seq):
    """Indices i with entries 0..i all letters and entry i > entry i+1."""
    out = []
    for i in range(len(seq) - 1):
        if any(len(seq[j]) != 1 for j in range(i + 1)):
            break
        if word_less(seq[i + 1], seq[i]):
            out.append(i)
    return out


def landmarks(seq):
    """Indices i with entries 0..i-1 letters and entry i of length >= 2.

    At most one index qualifies: the first non-letter position.
    """
    for i in range(len(seq)):
        if len(seq[i]) >= 2:
            return [i]
    return []


def swap_at_fall(seq, i):
    if i not in falls(seq):
        raise ValueError("index %d is not a fall of %r" % (i, seq))
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]


def split_at_landmark(seq, i):
    if i not in landmarks(seq):
        raise ValueError("index %d is not a landmark of %r" % (i, seq))
    left, right = standard_factorization(seq[i])
    return seq[:i] + (left, right) + seq[i + 1:]


def smallest_rise_policy(indices):
    return min(indices)


class TreeNode:
    """Node of a derivation or converse-derivation tree.

    `op` labels the move that produced the node from its parent
    (None at the root, else "lambda" / "rho" with the index used).
    """

    __slots__ = ("seq", "op", "index", "children")

    def __init__(self, seq, op=None, index=None, children=()):
        self.seq = seq
        self.op = op
        self.index = index
        self.children = tuple(children)

    def is_leaf(self):
        return not self.children

    def leaves(self):
        if self.is_leaf():
            yield self
        else:
            for ch in self.children:
                yield from ch.leaves()

    def nodes(self):
        yield self
        for ch in self.children:
            yield from ch.nodes()

    def to_json(self):
        return {
            "label": ";".join(",".join(str(s) for s in w) for w in self.seq),
            "op": self.op,
            "children": [ch.to_json() for ch in self.children],
        }

    def __repr__(self):
        return "TreeNode(%r, op=%r)" % (self.seq, self.op)


def derivation_tree(seq, policy=smallest_rise_policy, _op=None, _index=None):
    """Expand a standard sequence at policy-chosen legal rises until every
    leaf is a decreasing sequence.  Termination: the merge move shortens
    the sequence, the swap move removes an ascending adjacent pair."""
    seq = tuple(tuple(w) for w in seq)
    lr = legal_rises(seq)
    if not lr:
        return TreeNode(seq, _op, _index)
    i = policy(lr)
    children = (
        derivation_tree(merge_at_rise(seq, i), policy, "lambda", i),
        derivation_tree(swap_at_rise(seq, i), policy, "rho", i),
    )
    return TreeNode(seq, _op, _index, children)


def converse_tree(seq, _op=None, _index=None):
    """Expand a sequence by the inverse moves: a swap at every fall and a
    split at every landmark.  Node occurrences count derivation paths, so
    the same sequence may label several nodes."""
    seq = tuple(tuple(w) for w in seq)
    children = []
    for i in falls(seq):
        children.append(converse_tree(swap_at_fall(seq, i), "rho", i))
    for i in landmarks(seq):
        children.append(converse_tree(split_at_landmark(seq, i), "lambda", i))
    return TreeNode(seq, _op, _index, children)
