"""Products, coproducts and series operations of the q-stuffle algebra.

The q-stuffle of two words follows the recursion

    y_s u * y_t v = y_s (u * y_t v) + y_t (y_s u * v) + q y_{s+t} (u * v)

with the empty word as unit; q is the formal generator of the coefficient
ring.  Dropping the contraction term gives the plain shuffle, kept as a
separate implementation so the q=0 specialization is a genuine check.
The concatenation bialgebra carries the dual coproduct (on letters:
y_s ox 1 + 1 ox y_s + q sum y_{s1} ox y_{s2} over s1+s2=s), with the
deconcatenation coproduct on the stuffle side.
"""

from functools import lru_cache, partial
from math import factorial

from .coeff import QPoly
from .ncpoly import (NCPoly, Tensor2, _accumulate, _bilinear, _divided,
                     _integral, _product_into, exp_coefficients,
                     log_coefficients, truncated_series, word_poly)
from .words import all_words_up_to, weight, words_of_weight
from .report import Report


def stuffle(u, v):
    """q-stuffle of two words, as an NCPoly."""
    u, v = tuple(u), tuple(v)
    if v < u:  # commutative; canonical cache key
        u, v = v, u
    return _stuffle(u, v)


@lru_cache(maxsize=None)
def _stuffle(u, v):
    if not u:
        return word_poly(v)
    if not v:
        return word_poly(u)
    s, t = u[0], v[0]
    acc = stuffle(u[1:], v).prepend_letter(s)._terms  # a fresh dict
    _accumulate(acc, stuffle(u, v[1:]).prepend_letter(t)._terms.items())
    _accumulate(acc, stuffle(u[1:], v[1:]).prepend_letter(s + t)
                ._terms.items(), 1, 1)  # the contraction carries one q
    return NCPoly._raw(acc)


@lru_cache(maxsize=None)
def shuffle(u, v):
    """Plain shuffle (no contraction term); independent recursion."""
    if not u:
        return word_poly(v)
    if not v:
        return word_poly(u)
    out = shuffle(u[1:], v).prepend_letter(u[0])
    return out + shuffle(u, v[1:]).prepend_letter(v[0])


def stuffle_poly(p, q, max_weight=None):
    """Bilinear extension of the q-stuffle to polynomials; with max_weight,
    only the terms of weight <= max_weight."""
    return _bilinear(stuffle, p, q, max_weight)


def shuffle_poly(p, q, max_weight=None):
    return _bilinear(shuffle, p, q, max_weight)


def stuffle_power_divided(p, k):
    """k-th stuffle power divided by k!: p scaled to ints once, k-1 stuffle
    products in ints, and the scale d^k·k! divided out once."""
    if k < 2:
        return p if k else NCPoly.one()
    d, terms = _integral(p)
    acc = terms
    for _ in range(k - 1):
        acc = _product_into({}, stuffle, acc, terms)
    return NCPoly._raw(_divided(acc, d ** k * factorial(k)))


@lru_cache(maxsize=None)
def _deconcat_word(w):
    return Tensor2({(w[:i], w[i:]): 1 for i in range(len(w) + 1)})


def _linear(word_map, p):
    """The linear extension to the polynomial p of a map word -> Tensor2;
    on a word p, the map's value itself."""
    if isinstance(p, tuple):
        return word_map(p)
    d, terms = _integral(p)
    acc = {}
    for (w, e), c in terms.items():
        _accumulate(acc, word_map(w)._terms.items(), c, e)
    return Tensor2._raw(_divided(acc, d))


def deconcat_coproduct(p):
    """Sum over all splittings w = uv of u ox v, extended linearly.  On a
    word it returns the cached (shared, immutable) value itself."""
    return _linear(_deconcat_word, p)


@lru_cache(maxsize=None)
def _stuffle_coproduct_letter(s):
    data = {((s,), (), 0): 1, ((), (s,), 0): 1}
    for s1 in range(1, s):
        data[((s1,), (s - s1,), 1)] = 1
    return Tensor2._raw(data)


@lru_cache(maxsize=None)
def _stuffle_coproduct_word(w):
    out = Tensor2.one()
    for s in w:
        out = out.combine(_stuffle_coproduct_letter(s))
    return out


def stuffle_coproduct(p):
    """Dual coproduct of the q-stuffle; a conc-morphism on words.  On a
    word it returns the cached (shared, immutable) value itself."""
    return _linear(_stuffle_coproduct_word, p)


def counit(p):
    """Coefficient of the empty word."""
    return p.constant_term()


def _primitive_by_coproduct(p, n):
    """Delta(p) == p ox 1 + 1 ox p on the terms of weight <= n, compared in
    ints: both sides are built from p scaled by the lcm of its
    denominators, and the coproduct keeps weights."""
    _, terms = _integral(p.truncate(n))
    cop, expected = {}, {}
    for (w, e), c in terms.items():
        _accumulate(cop, stuffle_coproduct(w)._terms.items(), c, e)
        _accumulate(expected, (((w, (), e), c), (((), w, e), c)))
    return cop == expected


def _word_pairs(total):
    """Each unordered pair {u, v} of nonempty words of total weight `total`
    once: weight(u) <= weight(v), and u not after v in the enumeration
    when the weights are equal.  stuffle(u, v) and stuffle(v, u) are one
    cached value, so the swapped pair would repeat the same test."""
    for a in range(1, total // 2 + 1):
        us, vs = words_of_weight(a), words_of_weight(total - a)
        for i, u in enumerate(us):
            for v in (vs[i:] if 2 * a == total else vs):
                yield u, v


def _primitive_by_pairing(ps, n):
    """For each polynomial p of the list `ps`: <p | 1> = 0 (the counit) and
    <p | u*v> = 0 for all nonempty u, v with total weight <= n.  One index
    word -> [(i, e, a)] holds the terms of every p_i scaled to ints (the
    same zeros, and the pairings stay in ints); u*v is homogeneous, so each
    stuffle(u, v) of a weight present in the index is walked once."""
    ok = [True] * len(ps)
    index = {}
    for i, p in enumerate(ps):
        for (w, e), a in _integral(p.truncate(n))[1].items():
            if not w:
                ok[i] = False
            index.setdefault(w, []).append((i, e, a))
    for total in {weight(w) for w in index}:
        for u, v in _word_pairs(total):
            acc = {}  # (i, exponent) -> <p_i | u*v> at that power of q
            for (x, f), b in stuffle(u, v)._terms.items():
                for i, e, a in index.get(x, ()):
                    key = i, e + f
                    acc[key] = acc.get(key, 0) + a * b
            for (i, _), c in acc.items():
                if c:
                    ok[i] = False
    return ok


def are_primitive(ps, n):
    """Friedrichs test up to weight n for each polynomial of the list `ps`,
    through the coproduct, element by element, and through the pairing
    criterion, once for the list; the two must agree on each."""
    verdicts = [_primitive_by_coproduct(p, n) for p in ps]
    for p, by_cop, by_pair in zip(ps, verdicts, _primitive_by_pairing(ps, n)):
        if by_cop != by_pair:
            raise RuntimeError("primitivity criteria disagree on %r "
                               "(coproduct=%s, pairing=%s)"
                               % (p, by_cop, by_pair))
    return verdicts


def is_primitive(p, n):
    """Friedrichs test of one polynomial up to weight n: are_primitive([p])."""
    return are_primitive([p], n)[0]


def is_grouplike(s, n):
    """True iff <S|u*v> = <S|u><S|v> for nonempty u, v with total weight <= n.

    Requires constant term 1 (the truncated-series normalization).
    """
    if s.constant_term() != QPoly.one():
        raise ValueError("group-like test needs constant term 1")
    by_word = s.truncate(n)._by_head()
    for total in range(2, n + 1):
        for u, v in _word_pairs(total):
            if QPoly(stuffle(u, v)._pair_with(by_word)) != \
                    QPoly(by_word.get(u)) * QPoly(by_word.get(v)):
                return False
    return True


def exp_proper(p, mul=partial(_bilinear, None), n=None):
    """Truncated exponential of a proper polynomial w.r.t. the given product
    (called as mul(a, b, n), keeping the terms of weight <= n; concatenation
    by default)."""
    if n is None:
        raise ValueError("a weight bound is required")
    p = p.truncate(n)
    if not p.is_proper():
        raise ValueError("exp needs a proper polynomial")
    return truncated_series(p, lambda a, b: mul(a, b, n),
                            exp_coefficients(n), constant=True)


def log_one_plus(s, mul=partial(_bilinear, None), n=None):
    """Truncated logarithm of a series with constant term 1."""
    if n is None:
        raise ValueError("a weight bound is required")
    if s.constant_term() != QPoly.one():
        raise ValueError("log needs constant term 1")
    return truncated_series(s.proper_part().truncate(n),
                            lambda a, b: mul(a, b, n), log_coefficients(n))


def verify_axioms(n):
    """Bialgebra axioms at desk scale: commutativity and associativity of the
    q-stuffle for total weight <= n, coassociativity of both coproducts, and
    the product/coproduct duality pairings."""
    rep = Report("axioms (N=%d)" % n)

    pairs = [(u, v) for a in range(1, n) for b in range(1, n - a + 1)
             for u in words_of_weight(a) for v in words_of_weight(b)]
    # stuffle() serves both orders from one cache entry: recompute the
    # other order through the uncached recursion
    bad = sum(1 for u, v in pairs
              if stuffle(u, v) != _stuffle.__wrapped__(v, u))
    rep.tally("stuffle commutativity (%d pairs)" % len(pairs), len(pairs),
              bad)

    triples = [(u, v, w)
               for a in range(1, n - 1) for b in range(1, n - a)
               for c in range(1, n - a - b + 1)
               for u in words_of_weight(a) for v in words_of_weight(b)
               for w in words_of_weight(c)]
    bad = 0
    for u, v, w in triples:
        lhs = stuffle_poly(stuffle(u, v), word_poly(w))
        rhs = stuffle_poly(word_poly(u), stuffle(v, w))
        if lhs != rhs:
            bad += 1
    rep.tally("stuffle associativity (%d triples)" % len(triples),
              len(triples), bad)

    bad = 0
    words = all_words_up_to(n)
    for w in words:
        for cop in (stuffle_coproduct, deconcat_coproduct):
            if not _coassociative_on(cop, w):
                bad += 1
    rep.add("coassociativity of both coproducts (%d words)" % len(words),
            bad == 0)

    # <u*v | w> against <u ox v | Delta(w)> for both dualities, as maps
    # (u, v, w, e) -> a over the nonempty u, v
    products = {(u, v, w, e): a for u, v in pairs
                for (w, e), a in stuffle(u, v)._terms.items()}
    concatenations = {(u, v, u + v, 0): 1 for u, v in pairs}

    def split(cop):
        return {(u, v, w, e): a for w in words
                for (u, v, e), a in cop(w)._terms.items() if u and v}

    checked = sum(len(words_of_weight(weight(u) + weight(v)))
                  for u, v in pairs)
    rep.tally("product/coproduct duality (%d pairings)" % checked, checked,
              products != split(stuffle_coproduct)
              or concatenations != split(deconcat_coproduct))
    return rep


def _coassociative_on(cop, w):
    left = {}
    right = {}
    for (u, v, e), c in cop(w)._terms.items():
        _accumulate(left, (((x, y, v, e + f), d)
                           for (x, y, f), d in cop(u)._terms.items()), c)
        _accumulate(right, (((u, x, y, e + f), d)
                            for (x, y, f), d in cop(v)._terms.items()), c)
    return left == right

