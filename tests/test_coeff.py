import random
from fractions import Fraction

import pytest

from qstuffle.coeff import QPoly, qterms


def test_fraction_field_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(0, 1) * Fraction(-7, 3) == Fraction(0)
    assert Fraction(-2, 4) == Fraction(-1, 2)
    assert Fraction(-2, 4).denominator == 2  # canonical reduced form
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def test_rational_serialization():
    assert QPoly.const(Fraction(5, 6)).to_json() == \
        [{"qpow": 0, "coeff": "5/6"}]
    assert QPoly.const(Fraction(5, 1)).to_json() == \
        [{"qpow": 0, "coeff": "5"}]
    assert QPoly.from_json([{"qpow": 0, "coeff": "5/6"}]) == Fraction(5, 6)
    assert QPoly.from_json([{"qpow": 0, "coeff": "-3"}]) == Fraction(-3)


def q(power=1, coeff=1):
    return QPoly.q(power, coeff)


def test_qpoly_examples():
    half_q = q(1, Fraction(1, 2))
    assert half_q * half_q == q(2, Fraction(1, 4))
    p = QPoly({0: 3, 2: Fraction(-1, 5)})
    assert p + QPoly.zero() == p
    assert (QPoly.one() + q()) * (QPoly.one() - q()) == QPoly.one() - q(2)


def test_qpoly_eval_examples():
    p = q(1, Fraction(1, 2)) + q(2)
    assert p.eval_at(0) == 0
    assert q(1, Fraction(1, 2)).eval_at(1) == Fraction(1, 2)
    assert q(3, Fraction(1, 8)).eval_at(-1) == Fraction(-1, 8)


def _random_qpoly(rng):
    return QPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for e in rng.sample(range(5), k=rng.randint(0, 4))})


def test_ring_axioms_randomized():
    rng = random.Random(12345)
    for _ in range(60):
        a, b, c = (_random_qpoly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QPoly.zero() == a
        assert a * QPoly.one() == a


def test_eval_is_ring_morphism():
    rng = random.Random(54321)
    for _ in range(40):
        a, b = _random_qpoly(rng), _random_qpoly(rng)
        q0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert (a * b).eval_at(q0) == a.eval_at(q0) * b.eval_at(q0)
        assert (a + b).eval_at(q0) == a.eval_at(q0) + b.eval_at(q0)


def test_canonical_form_idempotent():
    p = QPoly({0: Fraction(0), 2: Fraction(4, 8), 5: 0})
    assert p == QPoly({2: Fraction(1, 2)})
    assert QPoly(dict(p.terms())) == p
    assert QPoly.zero().terms() == []
    assert not QPoly({0: 0})


def test_invalid_exponent_rejected():
    with pytest.raises(ValueError):
        QPoly({-1: 1})


def test_json_roundtrip():
    p = QPoly({0: Fraction(-1, 2), 3: Fraction(7)})
    data = p.to_json()
    assert data == [{"qpow": 0, "coeff": "-1/2"}, {"qpow": 3, "coeff": "7"}]
    assert QPoly.from_json(data) == p


def test_rendering():
    p = QPoly({0: 1, 1: Fraction(-1, 2), 2: 1})
    assert p.text() == "1 - 1/2·q + q^2"
    assert p.latex() == "1 - \\frac{q}{2} + q^{2}"
    assert QPoly.zero().text() == "0"
    assert QPoly.q(2, Fraction(3, 4)).latex() == "\\frac{3q^{2}}{4}"


def test_constant_hashes_like_its_rational():
    assert QPoly.one() in {1}
    assert QPoly.const(Fraction(1, 2)) in {Fraction(1, 2)}
    assert QPoly.zero() in {0}
    assert {Fraction(-3): "c"}[QPoly.const(-3)] == "c"
    assert {QPoly.const(Fraction(4, 2)): "c"}[2] == "c"
    for c in (0, 1, -7, Fraction(5, 6)):
        assert hash(QPoly.const(c)) == hash(c)
    a = QPoly({0: 1, 3: Fraction(-2, 3)})
    b = q(3, Fraction(-2, 3)) + QPoly.one()
    assert a == b and hash(a) == hash(b)


def test_rationals_on_either_side():
    p = QPoly({0: 1, 2: Fraction(1, 3)})
    for c in (2, Fraction(-3, 4)):
        k = QPoly.const(c)
        assert p + c == c + p == p + k
        assert p - c == p - k
        assert c - p == k - p == -(p - c)
        assert p * c == c * p == p * k
    assert p * 0 == 0 * p == QPoly.zero()


def test_cancellation_leaves_zero():
    p = QPoly({0: Fraction(1, 2), 3: -2})
    half = Fraction(1, 2)
    for zero in (p - p, p + (-p), -p + p, p * 0, half - QPoly.const(half)):
        assert not zero
        assert zero.terms() == []
        assert zero == 0
    product = (QPoly.one() + q()) * (QPoly.one() - q())
    assert product.terms() == [(0, 1), (2, -1)]  # the q terms cancel


def test_foreign_operand_raises_type_error():
    p = QPoly({1: 1})
    for op in (lambda: p + 0.5, lambda: 0.5 + p, lambda: p - None,
               lambda: "a" - p, lambda: p * 1.5, lambda: [] * p):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        QPoly({0: 0.5})
    with pytest.raises(TypeError):
        p.eval_at(0.5)
    assert p != 1.0
    with pytest.raises(TypeError, match="^expected QPoly, int or Fraction$"):
        qterms("x")
