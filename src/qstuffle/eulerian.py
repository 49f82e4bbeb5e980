"""The primitive projector, the diagonal series and the reconstruction of
a word from projected words.

The projector sends a word w to

    w + sum_{k>=2} ((-1)^(k-1)/k) sum <w | u_1 * ... * u_k> u_1 ... u_k

(* the q-stuffle, concatenation on the right), the degree-preserving
logarithm-of-the-identity map whose image consists of primitives.  By the
duality of the q-stuffle with the coproduct, the inner sum is conc o
(reduced coproduct)^(k-1) (w); `primitive_projector` computes it that way
from one memoized fold per (word, depth), letters included, and keeps no
memo of its own.  The closed formula on letters and the defining sum over
tuples of words live in tests/oracles.py as the independent references;
their agreement with the fold is a standing test.  The adjoint projector,
the log of the diagonal series (and its closed forms) and the adjoint and
letter forms of the reconstruction are test routes there too.
"""

from functools import lru_cache
from math import factorial

from .ncpoly import NCPoly, Tensor2, _product, _weighted_sum, word_poly
from .ops import stuffle_coproduct, stuffle_poly
from .words import encode_word, weight, words_of_weight


@lru_cache(maxsize=None)
def _fold(w, k):
    """conc o (reduced coproduct)^(k-1) of the word code w, as a flat term
    dict (word code, e) -> int: the sum of u_1 ... u_k over the terms
    u_1 ox ... ox u_k of the iterated reduced coproduct.  Every coefficient
    of the coproduct is a positive int, so no sum cancels.  Shared, read
    only."""
    if k == 1:
        return {(w, 0): 1}
    acc = {}
    get = acc.get
    for (u, v, e), c in stuffle_coproduct(w)._terms.items():
        if u and v:
            u <<= v.bit_length()  # the fold keeps the weight of v
            for (x, f), b in _fold(v, k - 1).items():
                key = (u | x, e + f)
                acc[key] = get(key, 0) + c * b
    return acc


def primitive_projector(w):
    """Convolution logarithm: sum over k of ((-1)^(k-1)/k) conc o (reduced
    coproduct)^(k-1) (w), with k up to the weight of w (the coproduct
    splits letters, so a word of weight n has n-fold reduced terms)."""
    if not w:
        raise ValueError("the projector is defined on nonempty words")
    c = encode_word(w)
    return _weighted_sum(NCPoly, (
        ((-1) ** (k - 1), k, 0, _fold(c, k).items())
        for k in range(1, weight(w) + 1)))


def primitive_projector_letter(s):
    """The projected letter y_s: `primitive_projector` on the word (s,)."""
    return primitive_projector((s,))


def diagonal_series(n):
    """Sum of w ox w over all words of weight <= n, including the empty word."""
    data = {(w, w, 0): 1 for w in range(1 << n)}  # the codes of weight <= n
    return Tensor2._raw(data)


@lru_cache(maxsize=None)
def _word_tuples(n):
    """Ordered tuples of nonempty words with total weight n, each paired
    with its iterated q-stuffle."""
    out = []
    for a in range(1, n + 1):
        for u in words_of_weight(a):
            if a == n:
                out.append(((u,), word_poly(u)))
            else:
                for tup, prod in _word_tuples(n - a):
                    out.append(((u,) + tup, stuffle_poly(word_poly(u), prod)))
    return tuple(out)


def reconstruct(w):
    """Rebuild w as sum_k (1/k!) sum <w|u_1*...*u_k> P(u_1)...P(u_k) where P
    is the projector.  Contract: the result equals w."""
    w = tuple(w)
    if not w:
        return NCPoly.one()
    parts = []
    code = encode_word(w)
    for tup, prod in _word_tuples(weight(w)):
        c = [(e, a) for (x, e), a in prod._terms.items() if x == code]
        if not c:
            continue
        term = _product(None, [primitive_projector(u) for u in tup],
                        factorial(len(tup)))
        parts += [(a, prod._den * term._den, e, term._terms.items())
                  for e, a in c]
    return _weighted_sum(NCPoly, parts)
