import random
from fractions import Fraction

import pytest

from qstuffle.coeff import QPoly
from qstuffle.ncpoly import NCPoly, Tensor2, word_poly
from qstuffle.words import all_words_up_to, weight


def halfq():
    return QPoly.q(1, Fraction(1, 2))


def test_module_operations():
    p = word_poly((2, 1)) + word_poly((3,)).scale(halfq())
    assert p + NCPoly.zero() == p
    assert p.scale(1) == p
    assert p - p == NCPoly.zero()
    assert not (p - p)


def test_concatenation():
    assert word_poly((2,)) * word_poly((1,)) == word_poly((2, 1))
    p = word_poly((2,)) - word_poly((1, 1)).scale(halfq())
    assert p * NCPoly.one() == p
    assert p * word_poly((1,)) == \
        word_poly((2, 1)) - word_poly((1, 1, 1)).scale(halfq())


def test_scalars_multiply_through_scale_only():
    with pytest.raises(TypeError):
        NCPoly.one() * 2
    with pytest.raises(TypeError):
        2 * NCPoly.one()
    assert NCPoly.one().scale(2) == NCPoly({(): 2})


def test_conc_not_commutative_but_associative():
    a, b = word_poly((1,)), word_poly((2,))
    assert a * b != b * a
    rng = random.Random(7)
    words = all_words_up_to(3)
    for _ in range(20):
        ps = [word_poly(rng.choice(words)).scale(Fraction(rng.randint(1, 4)))
              + word_poly(rng.choice(words)) for _ in range(3)]
        assert (ps[0] * ps[1]) * ps[2] == ps[0] * (ps[1] * ps[2])


def test_conc_weight_homogeneous():
    p = word_poly((2,)) + word_poly((1, 1))
    q = word_poly((3,)) + word_poly((2, 1))
    assert all(weight(w) == 5 for w, _ in (p * q).terms())


def test_pairing():
    left = word_poly((2, 1)) + word_poly((3,)).scale(halfq())
    right = word_poly((2, 1)) - word_poly((1, 2))
    assert left.pairing(right) == QPoly.one()
    assert left.pairing(NCPoly.zero()) == QPoly.zero()
    for w in all_words_up_to(4):
        assert word_poly(w).pairing(word_poly(w)) == QPoly.one()
    # symmetric and bilinear
    rng = random.Random(11)
    words = all_words_up_to(3)
    for _ in range(20):
        a = word_poly(rng.choice(words)).scale(Fraction(rng.randint(-3, 3)))
        b = word_poly(rng.choice(words)) + word_poly(rng.choice(words))
        c = word_poly(rng.choice(words))
        assert a.pairing(b) == b.pairing(a)
        assert (a + c).pairing(b) == a.pairing(b) + c.pairing(b)


def test_tensor_operations():
    u_v = Tensor2({((1,), (2,)): 1})
    x_y = Tensor2({((3,), (1, 1)): 1})
    assert u_v.combine(x_y) == Tensor2({((1, 3), (2, 1, 1)): 1})
    assert u_v + Tensor2.zero() == u_v
    assert Tensor2.one().combine(u_v) == u_v


def test_tensor_pairing():
    a = Tensor2({((1,), (2,)): 1})
    assert a.pairing(word_poly((1,)), word_poly((2,))) == QPoly.one()
    assert Tensor2.zero().pairing(word_poly((1,)), word_poly((2,))) == \
        QPoly.zero()


def test_truncate():
    p = word_poly((2, 1)) + word_poly((5, 3)) + NCPoly.one()
    assert p.truncate(0) == NCPoly.one()
    assert p.truncate(4) == word_poly((2, 1)) + NCPoly.one()
    assert p.truncate(4).truncate(4) == p.truncate(4)
    t = Tensor2({((2,), (2,)): 1, ((5,), (5, 1)): 1})
    assert t.truncate(4) == Tensor2({((2,), (2,)): 1})
    assert t.truncate(4).truncate(4) == t.truncate(4)


def test_subs_q():
    p = word_poly((2,)).scale(QPoly.q()) + word_poly((1, 1)).scale(2)
    assert p.subs_q(0) == word_poly((1, 1)).scale(2)
    assert p.subs_q(1) == word_poly((2,)) + word_poly((1, 1)).scale(2)


def test_json_roundtrip():
    p = word_poly((2, 1)) - word_poly((1, 2)).scale(halfq()) + NCPoly.one()
    assert NCPoly.from_json(p.to_json()) == p


def test_text_rendering():
    p = word_poly((1, 1)).scale(2) + word_poly((2,)).scale(QPoly.q())
    assert p.text() == "q·[2] + 2·[1,1]"
    assert NCPoly.zero().text() == "0"
    assert NCPoly.one().text() == "1"
    m = word_poly((2, 1)) - word_poly((1, 2))
    assert m.text() == "[2,1] - [1,2]"


def test_latex_rendering():
    p = word_poly((2, 1)) + word_poly((3,)).scale(halfq())
    assert p.latex() == "\\frac{q}{2}y_3 + y_2y_1"
