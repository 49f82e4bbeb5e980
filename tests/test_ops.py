import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (_o_pairing, brute_shuffle, classical_stuffle,
                     exp_proper, is_grouplike, log_one_plus,
                     ncpoly_to_fraction_dict, primitive_by_all_pairs,
                     stuffle_power_by_fractions)
from qstuffle.coeff import QPoly
from qstuffle.eulerian import primitive_projector
from qstuffle.ncpoly import (NCPoly, Tensor2, _pairings, _product,
                             _word_index, word_poly)
from qstuffle.ops import (_primitive_by_pairing, are_primitive,
                          deconcat_coproduct, is_primitive, shuffle, stuffle,
                          stuffle_coproduct, stuffle_poly, verify_axioms)
from qstuffle.words import (all_words_up_to, decode_word, weight,
                            words_of_weight)


def _as_dict(p):
    """p as the oracles' dict word -> {q-exponent: Fraction}."""
    return {w: dict(c.terms()) for w, c in p.terms()}


def _pairs(total):
    for a in range(1, total):
        for b in range(1, total - a + 1):
            for u in words_of_weight(a):
                for v in words_of_weight(b):
                    yield u, v


def test_stuffle_examples():
    assert stuffle((1,), (1,)) == \
        word_poly((1, 1)).scale(2) + word_poly((2,)).scale(QPoly.q())
    assert stuffle((2,), (1,)) == \
        word_poly((2, 1)) + word_poly((1, 2)) + word_poly((3,)).scale(QPoly.q())
    assert stuffle((2, 1), ()) == word_poly((2, 1))
    assert stuffle_poly(word_poly((1, 2)), NCPoly.one()) == word_poly((1, 2))


def test_stuffle_commutative_and_homogeneous():
    for u, v in _pairs(6):
        p = stuffle(u, v)
        assert p == stuffle(v, u)
        assert all(weight(w) == weight(u) + weight(v) for w, _ in p.terms())


def test_stuffle_associative():
    for a in range(1, 6):
        for b in range(1, 7 - a):
            for c in range(1, 8 - a - b):
                for u in words_of_weight(a):
                    for v in words_of_weight(b):
                        for w in words_of_weight(c):
                            lhs = stuffle_poly(stuffle(u, v), word_poly(w))
                            rhs = stuffle_poly(word_poly(u), stuffle(v, w))
                            assert lhs == rhs


def test_shuffle_examples_and_oracle():
    assert shuffle((1,), (2,)) == word_poly((1, 2)) + word_poly((2, 1))
    assert shuffle((1,), (1,)) == word_poly((1, 1)).scale(2)
    for u, v in _pairs(6):
        expected = {w: Fraction(m) for w, m in brute_shuffle(u, v).items()}
        assert ncpoly_to_fraction_dict(shuffle(u, v)) == expected
        assert stuffle(u, v).subs_q(0) == shuffle(u, v)


def test_stuffle_specializations():
    for q0 in (1, -1):
        for u, v in _pairs(6):
            assert ncpoly_to_fraction_dict(stuffle(u, v).subs_q(q0)) == \
                classical_stuffle(u, v, q0)


def test_deconcat_coproduct():
    assert deconcat_coproduct((2, 1)) == Tensor2({
        ((), (2, 1)): 1, ((2,), (1,)): 1, ((2, 1), ()): 1})
    assert deconcat_coproduct(()) == Tensor2.one()
    assert deconcat_coproduct((1,)) == \
        Tensor2({((), (1,)): 1, ((1,), ()): 1})


def test_stuffle_coproduct():
    assert stuffle_coproduct((2,)) == Tensor2({
        ((2,), ()): 1, ((), (2,)): 1, ((1,), (1,)): QPoly.q()})
    assert stuffle_coproduct(()) == Tensor2.one()
    assert stuffle_coproduct((2,)).pairing(word_poly((1,)), word_poly((1,))) \
        == QPoly.q()


def test_product_coproduct_duality():
    for u, v in _pairs(5):
        for w in words_of_weight(weight(u) + weight(v)):
            assert stuffle(u, v).coeff(w) == \
                stuffle_coproduct(w).pairing(word_poly(u), word_poly(v))
            deconcat = deconcat_coproduct(w).pairing(word_poly(u),
                                                     word_poly(v))
            assert deconcat == (QPoly.one() if u + v == w else QPoly.zero())


def test_counit():
    assert NCPoly.one().coeff(()) == QPoly.one()
    assert word_poly((2, 1)).coeff(()) == QPoly.zero()
    assert (NCPoly.one().scale(3) + word_poly((1,))).coeff(()) == \
        QPoly.const(3)


def test_is_primitive():
    assert is_primitive(word_poly((1,)), 4)
    assert not is_primitive(word_poly((2,)), 4)
    assert is_primitive(primitive_projector((2,)), 4)


@pytest.mark.parametrize("p", [NCPoly.one(), NCPoly.one() + word_poly((1,))])
def test_constant_term_is_not_primitive(p):
    """<p | 1> = 0 (the counit) is part of the pairing criterion, so both
    routes, and the full criterion, say False on a nonzero constant term."""
    assert _primitive_by_pairing([p.truncate(3)]) == [False]
    assert not is_primitive(p, 3)
    assert not primitive_by_all_pairs(_as_dict(p), 3)


def test_friedrichs_consistency_random():
    # is_primitive raises if the coproduct and pairing criteria disagree
    rng = random.Random(99)
    words = all_words_up_to(5)
    for _ in range(25):
        p = NCPoly.zero()
        for w in rng.sample(words, k=3):
            p = p + word_poly(w).scale(Fraction(rng.randint(-3, 3)))
        is_primitive(p, 5)


SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
SCALES = st.one_of(SCALARS, st.tuples(st.integers(0, 2), SCALARS).map(
    lambda ea: QPoly({ea[0]: ea[1]})))


def _combinations(element, lo, hi):
    """Sums of element(w)·c over one to four random words w of weight
    lo..hi."""
    words = [w for w in all_words_up_to(hi) if weight(w) >= lo]
    return st.lists(st.tuples(st.sampled_from(words), SCALES), min_size=1,
                    max_size=4).map(lambda pairs: sum(
                        (element(w).scale(c) for w, c in pairs),
                        NCPoly.zero()))


def _sum(pair):
    return pair[0] + pair[1]


PRIMITIVES = _combinations(primitive_projector, 1, 6)
WORD_SUMS = _combinations(word_poly, 1, 6)
POLYS = st.one_of(
    PRIMITIVES, WORD_SUMS,
    st.tuples(PRIMITIVES, WORD_SUMS).map(_sum),
    # a primitive top over a part that may fail only at a lower weight
    st.tuples(_combinations(primitive_projector, 4, 6),
              _combinations(word_poly, 1, 3)).map(_sum))


@settings(deadline=None, max_examples=60)
@given(POLYS, st.integers(1, 6))
@example(word_poly((1, 1)), 2)  # fails only at the split 1 + 1
@example(word_poly((1, 1)) + primitive_projector((3,)), 3)  # not the top
@example(primitive_projector((2, 1)).scale(QPoly.q()) + word_poly((1,)), 6)
def test_pairing_criterion_equals_all_ordered_pairs(p, n):
    """The pairing criterion over the weights of the support and unordered
    pairs equals its statement over every ordered pair at every weight;
    is_primitive, which also checks the coproduct route, agrees."""
    expected = primitive_by_all_pairs(_as_dict(p), n)
    assert _primitive_by_pairing([p.truncate(n)]) == [expected]
    assert is_primitive(p, n) == expected


SMALL = st.one_of(_combinations(word_poly, 1, 3),
                  _combinations(primitive_projector, 1, 3))


@settings(deadline=None, max_examples=60)
@given(st.lists(SMALL, min_size=1, max_size=5), SMALL)
def test_pairings_equal_the_oracle_per_element(ps, r):
    """Each entry (i, e) of the pairings of r with the word index of a
    list is the q^e coefficient of <p_i | r> times both denominators."""
    got = _pairings(_word_index(ps), r)
    assert all(0 <= i < len(ps) for i, _ in got)
    for i, p in enumerate(ps):
        assert {e: c for (j, e), c in got.items() if j == i} == {
            e: c * p._den * r._den
            for e, c in _o_pairing(_as_dict(p), _as_dict(r)).items()}


@settings(deadline=None, max_examples=40)
@given(_combinations(word_poly, 1, 3), st.integers(1, 3))
def test_stuffle_power_divided_equals_the_fraction_route(p, k):
    """The int-carried divided power, k copies of p through `_product` over
    k!, equals k-fold stuffle_poly in Fractions divided by k!, on
    polynomials with fractional coefficients and powers of q."""
    assert _product(stuffle, [p] * k, factorial(k)) == \
        stuffle_power_by_fractions(p, k)


@settings(deadline=None, max_examples=40)
@given(st.lists(POLYS, min_size=1, max_size=5), st.integers(1, 6))
def test_pairing_criterion_on_a_list_is_per_element(ps, n):
    """The shared index causes no cross-talk: the verdict on
    each element of a list is the full criterion on that element alone,
    and are_primitive, which also checks the coproduct route, agrees."""
    expected = [primitive_by_all_pairs(_as_dict(p), n) for p in ps]
    cut = [p.truncate(n) for p in ps]
    assert _primitive_by_pairing(cut) == expected
    assert are_primitive(cut) == expected


@settings(deadline=None, max_examples=40)
@given(st.lists(PRIMITIVES, min_size=1, max_size=4), WORD_SUMS, st.data())
def test_one_non_primitive_among_primitives_is_the_only_one_flagged(
        prims, odd, data):
    """A non-primitive element inserted anywhere into a list of primitive
    ones is the one element both routes flag."""
    assume(not primitive_by_all_pairs(_as_dict(odd), 6))
    at = data.draw(st.integers(0, len(prims)))
    ps = prims[:at] + [odd] + prims[at:]
    expected = [True] * len(ps)
    expected[at] = False
    cut = [p.truncate(6) for p in ps]
    assert _primitive_by_pairing(cut) == expected
    assert are_primitive(cut) == expected


def test_criteria_disagreeing_on_one_element_is_an_error(monkeypatch):
    """A disagreement of the two routes on one element of a list raises,
    naming that element."""
    import qstuffle.ops as ops
    monkeypatch.setattr(ops, "_primitive_by_coproduct", lambda p: True)
    with pytest.raises(RuntimeError, match=r"disagree on NCPoly\(\[2\]\)"):
        are_primitive([word_poly((1,)), word_poly((2,))])


def test_coassociativity_to_weight_6():
    from qstuffle.ops import _coassociative_on
    for w in all_words_up_to(6):
        assert _coassociative_on(stuffle_coproduct, w)
        assert _coassociative_on(deconcat_coproduct, w)


def test_is_grouplike():
    assert is_grouplike(NCPoly.one(), 4)
    s = exp_proper(primitive_projector((2,)), n=5)
    assert is_grouplike(s, 5)
    assert not is_grouplike(NCPoly.one() + word_poly((2,)), 2)
    with pytest.raises(ValueError):
        is_grouplike(word_poly((1,)), 3)


def test_exp_log():
    assert exp_proper(NCPoly.zero(), n=4) == NCPoly.one()
    rng = random.Random(5)
    words = all_words_up_to(4)
    for mul in (None, stuffle_poly):
        for _ in range(10):
            p = NCPoly.zero()
            for w in rng.sample(words, k=3):
                p = p + word_poly(w).scale(Fraction(rng.randint(-2, 2),
                                                    rng.randint(1, 3)))
            if mul is None:
                assert log_one_plus(exp_proper(p, n=5), n=5) == p.truncate(5)
            else:
                assert log_one_plus(exp_proper(p, mul, 5), mul, 5) == \
                    p.truncate(5)


def test_exp_stuffle_example():
    s = exp_proper(word_poly((1,)), stuffle_poly, 2)
    expected = NCPoly.one() + word_poly((1,)) + word_poly((1, 1)) \
        + word_poly((2,)).scale(QPoly.q(1, Fraction(1, 2)))
    assert s == expected


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        exp_proper(NCPoly.one(), n=3)
    with pytest.raises(ValueError):
        log_one_plus(word_poly((1,)), n=3)
    with pytest.raises(ValueError):
        exp_proper(word_poly((1,)))


def test_grouplike_iff_log_primitive():
    # exp of a primitive is group-like; log of that series is primitive
    rng = random.Random(17)
    words = all_words_up_to(4)
    for _ in range(6):
        p = NCPoly.zero()
        for w in rng.sample(words, k=2):
            p = p + primitive_projector(w).scale(Fraction(rng.randint(1, 3)))
        s = exp_proper(p, n=5)
        assert is_grouplike(s, 5)
        assert is_primitive(log_one_plus(s, n=5), 5)
    # and a non-primitive log gives a non-group-like series
    s = exp_proper(word_poly((2,)), n=4)
    assert not is_grouplike(s, 4)


def test_verify_axioms_report():
    rep = verify_axioms(4)
    assert rep.ok
    assert len(rep.checks) == 4
    assert any("commutativity" in name for name, _, _ in rep.checks)


def test_associativity_check_sees_one_perturbed_triple(monkeypatch):
    """A stuffle_poly that adds y_3 to (y1*y1)*y1 alone breaks one of the
    7 triples at N=4: the associativity line fails and no other."""
    from qstuffle import ops

    full = ops.stuffle_poly
    target = (stuffle((1,), (1,)), word_poly((1,)))

    def perturbed(p, q):
        out = full(p, q)
        return out + word_poly((3,)) if (p, q) == target else out

    monkeypatch.setattr(ops, "stuffle_poly", perturbed)
    assert verify_axioms(4).lines() == [
        "stuffle commutativity (17 pairs): PASS",
        "stuffle associativity (7 triples): FAIL",
        "coassociativity of both coproducts (15 words): PASS",
        "product/coproduct duality (114 pairings): PASS",
        "axioms (N=4): FAILED"]


def test_commutativity_check_sees_a_noncommutative_product(monkeypatch):
    """`stuffle` answers both orders from one cache entry, so the check
    must compute the other order itself.  A recursion whose contraction
    keeps the left letter (q·y_s instead of q·y_{s+t}) is not commutative."""
    from functools import lru_cache
    from qstuffle import ops

    @lru_cache(maxsize=None)
    def skewed(u, v):  # the cached kernel takes word codes
        u, v = decode_word(u), decode_word(v)
        if not u or not v:
            return word_poly(u + v)
        s, t = word_poly(u[:1]), word_poly(v[:1])
        return s * ops.stuffle(u[1:], v) + t * ops.stuffle(u, v[1:]) \
            + s * ops.stuffle(u[1:], v[1:]).scale(QPoly.q())

    monkeypatch.setattr(ops, "_stuffle", skewed)
    lines = verify_axioms(3).lines()
    assert any(line.startswith("stuffle commutativity") and
               line.endswith("FAIL") for line in lines), lines


@pytest.mark.parametrize("name, keep", [
    ("_stuffle_coproduct_word", lambda u, e: e == 0),  # drops the q-terms
    ("_deconcat_word",  # drops the first split; u is a word code
     lambda u, e: len(decode_word(u)) != 1)],
    ids=["stuffle", "deconcatenation"])
def test_duality_check_sees_a_coproduct_that_is_not_dual(monkeypatch, name,
                                                          keep):
    """The duality line holds <u*v | w> against <u ox v | Delta(w)>.  The
    coproduct without its contraction terms (those that carry q) is not
    dual to the q-stuffle, and the deconcatenation without the splitting
    after the first letter is not dual to concatenation."""
    from qstuffle import ops

    full = getattr(ops, name)

    def broken(w):
        return Tensor2._raw({(u, v, e): a
                             for (u, v, e), a in full(w)._terms.items()
                             if keep(u, e)})

    monkeypatch.setattr(ops, name, broken)
    lines = verify_axioms(4).lines()
    assert any(line.startswith("product/coproduct duality") and
               line.endswith("FAIL") for line in lines), lines


def test_coassociativity_check_sees_a_noncoassociative_coproduct(
        monkeypatch):
    """A letter coproduct that keeps, of its q-splits, only y_1 ox y_{s-1}
    is not coassociative: (id ox Delta) Delta(y_3) holds q^2·y_1 ox y_1 ox
    y_1, and (Delta ox id) Delta(y_3), without the split y_2 ox y_1, does
    not.  The coassociativity line fails, and so does the duality line,
    which needs every split."""
    from qstuffle import ops

    def first_letter_y1(s):
        data = {(1 << (s - 1), 0, 0): 1, (0, 1 << (s - 1), 0): 1}
        if s > 1:
            data[(1, 1 << (s - 2), 1)] = 1
        return Tensor2._raw(data)

    # the word cache stores products of the letter coproducts
    ops._stuffle_coproduct_word.cache_clear()
    monkeypatch.setattr(ops, "_stuffle_coproduct_letter", first_letter_y1)
    try:
        assert verify_axioms(4).lines() == [
            "stuffle commutativity (17 pairs): PASS",
            "stuffle associativity (7 triples): PASS",
            "coassociativity of both coproducts (15 words): FAIL",
            "product/coproduct duality (114 pairings): FAIL",
            "axioms (N=4): FAILED"]
    finally:
        ops._stuffle_coproduct_word.cache_clear()
