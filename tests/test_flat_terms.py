"""The flat term representation: (word, q-exponent) -> int, over one
denominator.

Construction from QPoly coefficients (inhomogeneous ones such as 1 + q and
1/2 - q^2 included) must round-trip through the public `terms()` view and
drop zeros; every stored value is a nonzero int and the denominator a
positive int, in lowest terms, so one value reached by two routes is
stored alike, and unary minus is scaling by -1; the q-stuffle of
polynomials must equal the enumeration of quasi-shuffles in `oracles`, and
specializing q must commute with it.  The lookups by word (`coeff`,
`pairing`) must equal brute-force sums over `terms()`, and the q-stuffle
must be dual to its coproduct."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from oracles import brute_q_stuffle_poly
from qstuffle.coeff import QPoly
from qstuffle.ncpoly import NCPoly, Tensor2, word_poly
from qstuffle.ops import deconcat_coproduct, shuffle_poly, \
    stuffle_coproduct, stuffle_poly
from qstuffle.words import all_words_up_to, word_key

WORDS = st.sampled_from(all_words_up_to(4, include_empty=True))
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
FIXED = [QPoly({0: 1, 1: 1}), QPoly({0: Fraction(1, 2), 2: -1}),
         QPoly({1: 2}), QPoly({0: Fraction(3, 2)})]
QPOLYS = st.one_of(
    st.sampled_from(FIXED),
    st.dictionaries(st.integers(0, 3), RATIONALS, max_size=3).map(QPoly),
    RATIONALS, st.integers(-3, 3))
NCPOLYS = st.dictionaries(WORDS, QPOLYS, max_size=4)
MIXED_QPOLYS = st.one_of(  # two to four powers of q
    st.sampled_from(FIXED[:2]),
    st.dictionaries(st.integers(0, 4), RATIONALS.filter(bool), min_size=2,
                    max_size=4).map(QPoly))
MIXED_NCPOLYS = st.dictionaries(WORDS, MIXED_QPOLYS, min_size=1, max_size=4)
TENSORS = st.dictionaries(st.tuples(WORDS, WORDS), QPOLYS, max_size=4)
WORDS5 = all_words_up_to(5, include_empty=True)
MIXED_NCPOLYS5 = st.dictionaries(st.sampled_from(WORDS5), MIXED_QPOLYS,
                                 max_size=4)
MIXED_TENSORS5 = st.dictionaries(
    st.tuples(st.sampled_from(WORDS5), st.sampled_from(WORDS5)),
    MIXED_QPOLYS, max_size=4)
Q_VALUES = st.fractions(min_value=-2, max_value=2, max_denominator=5)


def _as_qpoly(c):
    return c if isinstance(c, QPoly) else QPoly.const(c)


def _assert_stored_form(x):
    for a in x._terms.values():
        assert type(a) is int and a != 0, a
    assert type(x._den) is int and x._den > 0, x._den
    assert gcd(x._den, *x._terms.values()) == 1


def _stored(x):
    _assert_stored_form(x)
    return x._den, x._terms


def _nested(p):
    """An NCPoly as the oracle's dict word -> {q-exponent: Fraction}."""
    return {w: dict(c.terms()) for w, c in p.terms()}


@settings(deadline=None, max_examples=60)
@given(NCPOLYS)
def test_ncpoly_round_trips_through_terms_and_drops_zeros(data):
    p = NCPoly(data)
    _assert_stored_form(p)
    expected = sorted(((w, _as_qpoly(c)) for w, c in data.items() if c),
                      key=lambda wc: word_key(wc[0]))
    assert p.terms() == expected
    assert NCPoly(dict(p.terms())) == p
    for w, c in expected:
        assert p.coeff(w) == c


@settings(deadline=None, max_examples=60)
@given(TENSORS)
def test_tensor_round_trips_through_terms_and_drops_zeros(data):
    t = Tensor2(data)
    _assert_stored_form(t)
    expected = sorted((((u, v), _as_qpoly(c)) for (u, v), c in data.items()
                       if c), key=lambda kc: tuple(map(word_key, kc[0])))
    assert t.terms() == expected
    assert Tensor2(dict(t.terms())) == t
    for (u, v), c in expected:
        assert t.pairing(word_poly(u), word_poly(v)) == c


@settings(deadline=None, max_examples=60)
@given(st.one_of(NCPOLYS.map(NCPoly), TENSORS.map(Tensor2)))
def test_unary_minus_is_scaling_by_minus_one(p):
    neg = -p
    _assert_stored_form(neg)
    assert neg == p.scale(-1)
    assert p + neg == type(p).zero()
    assert -neg == p


@settings(deadline=None, max_examples=40)
@given(NCPOLYS, NCPOLYS, Q_VALUES)
def test_results_keep_the_stored_form(a, b, q0):
    p, r = NCPoly(a), NCPoly(b)
    results = [p + r, p - r, p * r, p.scale(Fraction(2, 3)),
               p.scale(QPoly({0: 2, 1: Fraction(1, 2)})), stuffle_poly(p, r),
               p.subs_q(q0), stuffle_coproduct(p), deconcat_coproduct(p),
               stuffle_coproduct(p).combine(deconcat_coproduct(r))]
    for x in results:
        _assert_stored_form(x)


@settings(deadline=None, max_examples=60)
@given(NCPOLYS, NCPOLYS, Q_VALUES)
def test_one_value_by_two_routes_is_stored_alike(a, b, q0):
    p, r = NCPoly(a), NCPoly(b)
    for x in (p, r, Tensor2({(w, w): c for w, c in a.items()})):
        assert _stored(x.scale(Fraction(1, 3)).scale(3)) == _stored(x)
    assert _stored((p + r) - r) == _stored(p)
    assert _stored(p - r + r) == _stored(p)
    assert _stored(NCPoly(dict(p.terms()))) == _stored(p)
    half = p.scale(Fraction(1, 2))
    assert _stored(half.subs_q(q0).scale(2)) == _stored(p.subs_q(q0))
    assert _stored(half.subs_q(q0) + half.subs_q(q0)) == \
        _stored(p.subs_q(q0))
    assert _stored(p.subs_q(q0)) == _stored(NCPoly(
        {w: c.eval_at(q0) for w, c in p.terms()}))


@settings(deadline=None, max_examples=40)
@given(NCPOLYS, NCPOLYS)
def test_stuffle_poly_equals_quasi_shuffle_enumeration(a, b):
    p, r = NCPoly(a), NCPoly(b)
    expected = brute_q_stuffle_poly(_nested(p), _nested(r))
    assert _nested(stuffle_poly(p, r)) == expected


@settings(deadline=None, max_examples=40)
@given(NCPOLYS, NCPOLYS, Q_VALUES)
def test_subs_q_commutes_with_stuffle_poly(a, b, q0):
    p, r = NCPoly(a), NCPoly(b)
    assert stuffle_poly(p, r).subs_q(q0) == \
        stuffle_poly(p.subs_q(q0), r.subs_q(q0)).subs_q(q0)


@settings(deadline=None, max_examples=60)
@given(MIXED_NCPOLYS, Q_VALUES)
def test_subs_q_evaluates_each_coefficient(data, q0):
    p = NCPoly(data)
    specialized = p.subs_q(q0)
    for w in all_words_up_to(4, include_empty=True):
        assert specialized.coeff(w) == p.coeff(w).eval_at(q0)


@settings(deadline=None, max_examples=40)
@given(NCPOLYS, NCPOLYS)
def test_shuffle_poly_is_stuffle_poly_at_q_zero(a, b):
    """Two independent recursions: the shuffle has no contraction term."""
    p, r = NCPoly(a), NCPoly(b)
    assert shuffle_poly(p.subs_q(0), r.subs_q(0)) == \
        stuffle_poly(p, r).subs_q(0)


def _sum(cs):
    return sum(cs, QPoly.zero())


@settings(deadline=None, max_examples=40)
@given(MIXED_NCPOLYS5, MIXED_NCPOLYS5, MIXED_TENSORS5)
def test_lookups_by_word_equal_sums_over_terms(a, b, c):
    """coeff and pairing group the terms they need on each call; each must
    equal the sum over `terms()` it stands for."""
    p, r, t = NCPoly(a), NCPoly(b), Tensor2(c)
    for w in WORDS5:
        assert p.coeff(w) == _sum(cp for x, cp in p.terms() if x == w)
    assert p.pairing(r) == r.pairing(p) == _sum(
        cp * cr for x, cp in p.terms() for y, cr in r.terms() if x == y)
    for u, v in [head for head, _ in t.terms()] + [((1,), (2,))]:
        assert t.pairing(word_poly(u), word_poly(v)) == _sum(
            ct for head, ct in t.terms() if head == (u, v))
    assert t.pairing(p, r) == _sum(
        ct * cp * cr for (u, v), ct in t.terms() for x, cp in p.terms()
        for y, cr in r.terms() if (x, y) == (u, v))


@settings(deadline=None, max_examples=25)
@given(MIXED_NCPOLYS5, MIXED_NCPOLYS5)
def test_stuffle_is_dual_to_the_stuffle_coproduct(a, b):
    """<p*r | w> = <Delta(w) | p ox r> for every word w of weight <= 5."""
    p, r = NCPoly(a), NCPoly(b)
    prod = stuffle_poly(p, r)
    for w in WORDS5:
        assert prod.pairing(word_poly(w)) == stuffle_coproduct(w).pairing(p, r)
