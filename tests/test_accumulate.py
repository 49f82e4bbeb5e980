"""The in-place accumulation kernel and the paths built on it.

Cached values are shared, so no in-place sum may write into them, nor may
the coproduct of a word into the cached coproduct of its suffix; the slot
product of the mixed tensor algebra in `oracles`, the monomial product and
the bilinear extensions must agree with their plain definitions."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import _mixed_product, tensor_outer
from qstuffle.coeff import QPoly
from qstuffle.ncpoly import NCPoly, Tensor2, _product, word_poly
from qstuffle.ops import (_stuffle_coproduct_word, deconcat_coproduct,
                          stuffle, stuffle_coproduct, stuffle_poly,
                          verify_axioms)
from qstuffle.words import all_words_up_to


def _deep(x):
    """Terms of an NCPoly/Tensor2 with the terms of each coefficient."""
    return {k: dict(c.terms()) for k, c in x.terms()}


def test_cached_values_are_never_written():
    words = all_words_up_to(4, include_empty=True)
    cached = [stuffle_coproduct(w) for w in words]
    cached += [deconcat_coproduct(w) for w in words]
    cached += [stuffle(u, v) for u in words for v in words]
    snapshots = [_deep(x) for x in cached]

    q = QPoly.q()
    half = Fraction(1, 2)
    p = (word_poly((1,)).scale(-1) + word_poly((2, 1)).scale(half)
         + word_poly((1, 1)).scale(q) + word_poly((3,)))
    r = (word_poly((1,)).scale(q) + word_poly((2, 1)).scale(-1)
         + word_poly((1, 2)).scale(half))
    for x in (p, r, p + r, p - r):
        stuffle_coproduct(x)
        deconcat_coproduct(x)
        for y in (p, r, x):
            stuffle_poly(x, y)
    assert [_deep(x) for x in cached] == snapshots
    # a one-factor product shares the term dict of a cached value
    for x in [stuffle(u, v) for u in words for v in words]:
        shared = _product(stuffle, [x])
        assert shared._terms is x._terms
        for y in (p, r, word_poly((2, 1))):
            shared + y, y - shared, stuffle_poly(shared, y), y * shared
    assert [_deep(x) for x in cached] == snapshots
    assert verify_axioms(4).ok
    assert [_deep(x) for x in cached] == snapshots

    again = [stuffle_coproduct(w) for w in words]
    again += [deconcat_coproduct(w) for w in words]
    again += [stuffle(u, v) for u in words for v in words]
    assert [_deep(x) for x in again] == snapshots


def test_suffix_coproducts_are_never_written():
    """A word's coproduct is its first letter's times the cached coproduct
    of its rest: building every word to weight 8 reads, and must never
    write, the cached tensors of the words of weight <= 4."""
    _stuffle_coproduct_word.cache_clear()
    short = [stuffle_coproduct(w) for w in all_words_up_to(4)]
    snapshots = [(x._den, dict(x._terms)) for x in short]
    for w in all_words_up_to(8):
        stuffle_coproduct(w)
    assert [(x._den, dict(x._terms)) for x in short] == snapshots
    assert all(stuffle_coproduct(w) is x
               for w, x in zip(all_words_up_to(4), short))


WORDS = st.sampled_from(all_words_up_to(5, include_empty=True))
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
QPOLYS = st.dictionaries(st.integers(0, 3), RATIONALS, max_size=3).map(QPoly)
MONOMIALS = st.tuples(st.integers(0, 4), RATIONALS.filter(bool)).map(
    lambda ec: QPoly({ec[0]: ec[1]}))
COEFFS = st.one_of(MONOMIALS, QPOLYS.filter(bool))
NCPOLYS = st.dictionaries(WORDS, COEFFS, min_size=1, max_size=4).map(NCPoly)


def _generic_mul(a, b):
    """Product in Q[q] by the double loop over exponents."""
    data = {}
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            data[e1 + e2] = data.get(e1 + e2, 0) + c1 * c2
    return QPoly(data)


@settings(deadline=None, max_examples=60)
@given(NCPOLYS, NCPOLYS, NCPOLYS, NCPOLYS, st.integers(0, 20))
def test_mixed_product_of_pure_tensors(a, b, c, d, bound):
    """(a ⊗ b)(c ⊗ d) = (a*c) ⊗ bd in the mixed tensor algebra."""
    assert _mixed_product(bound)(tensor_outer(a, b), tensor_outer(c, d)) \
        == tensor_outer(stuffle_poly(a, c), b * d).truncate(bound)


@settings(deadline=None, max_examples=40)
@given(st.one_of(MONOMIALS, QPOLYS), st.one_of(MONOMIALS, QPOLYS))
def test_qpoly_product_equals_double_loop(a, b):
    assert a * b == _generic_mul(a, b)
    assert b * a == _generic_mul(a, b)


@settings(deadline=None, max_examples=40)
@given(NCPOLYS, NCPOLYS)
def test_stuffle_poly_equals_sum_of_scaled_word_stuffles(p, r):
    expected = NCPoly.zero()
    for u, cu in p.terms():
        for v, cv in r.terms():
            expected = expected + stuffle(u, v).scale(cu * cv)
    assert stuffle_poly(p, r) == expected


@settings(deadline=None, max_examples=40)
@given(NCPOLYS)
def test_coproducts_equal_sums_of_scaled_word_coproducts(p):
    for cop in (stuffle_coproduct, deconcat_coproduct):
        expected = Tensor2.zero()
        for w, c in p.terms():
            expected = expected + cop(w).scale(c)
        assert cop(p) == expected
