from fractions import Fraction

import pytest

from oracles import (letter_reconstruct, log_diagonal, log_diagonal_left_form,
                     log_diagonal_right_form, primitive_projector_adjoint,
                     projector_letter_closed, projector_tuple_sum,
                     reconstruct_adjoint, tensor_outer)
from qstuffle.bases import pbw_element
from qstuffle.coeff import QPoly
from qstuffle.eulerian import diagonal_series, primitive_projector, reconstruct
from qstuffle.lyndon import lyndon_up_to
from qstuffle.ncpoly import NCPoly, Tensor2, word_poly
from qstuffle.words import all_words_up_to, weight, words_of_weight


def halfq(sign=1):
    return QPoly.q(1, Fraction(sign, 2))


def test_projector_examples():
    assert primitive_projector((1,)) == word_poly((1,))
    assert primitive_projector((2,)) == \
        word_poly((2,)) - word_poly((1, 1)).scale(halfq())
    expected3 = word_poly((3,)) \
        - (word_poly((1, 2)) + word_poly((2, 1))).scale(halfq()) \
        + word_poly((1, 1, 1)).scale(QPoly.q(2, Fraction(1, 3)))
    assert primitive_projector((3,)) == expected3
    with pytest.raises(ValueError):
        primitive_projector(())


def test_projector_three_routes_agree():
    for s in range(1, 16):  # every letter up to the cap of `basis pi`
        assert projector_letter_closed(s) == primitive_projector((s,)), s
    for w in all_words_up_to(6):
        terms = {v: dict(c.terms()) for v, c in primitive_projector(w).terms()}
        assert terms == projector_tuple_sum(w)


def test_adjoint_examples():
    assert primitive_projector_adjoint((5,)) == word_poly((5,))
    assert primitive_projector_adjoint((1, 1)) == \
        word_poly((2,)).scale(halfq(-1))
    with pytest.raises(ValueError):
        primitive_projector_adjoint(())


def test_adjointness():
    for n in range(1, 6):
        for u in words_of_weight(n):
            pu = primitive_projector(u)
            for v in words_of_weight(n):
                assert pu.pairing(word_poly(v)) == \
                    word_poly(u).pairing(primitive_projector_adjoint(v))


def test_degree_preservation():
    for w in all_words_up_to(5):
        n = weight(w)
        for p in (primitive_projector(w), primitive_projector_adjoint(w)):
            assert all(weight(v) == n for v, _ in p.terms())


def _projected(p):
    """The projector applied linearly to the polynomial p."""
    image = NCPoly.zero()
    for v, c in p.terms():
        image = image + primitive_projector(v).scale(c)
    return image


def test_projector_idempotent():
    for w in all_words_up_to(7):
        p = primitive_projector(w)
        assert _projected(p) == p


def test_projector_fixes_lyndon_pbw_elements():
    """The Lyndon PBW elements are Lie elements (Ree), so the projector
    onto the primitives fixes each of them."""
    for w in lyndon_up_to(7):
        assert _projected(pbw_element(w)) == pbw_element(w), w


def test_log_diagonal():
    assert log_diagonal(1) == Tensor2({((1,), (1,)): 1})
    ld = log_diagonal(2)
    assert ld.pairing(word_poly((2,)), word_poly((2,))) == QPoly.one()
    # the projected letter
    assert ld.pairing(word_poly((2,)), word_poly((1, 1))) == halfq(-1)
    for n in range(1, 6):
        assert log_diagonal(n) == log_diagonal_left_form(n) \
            == log_diagonal_right_form(n)


def test_diagonal_series():
    d = diagonal_series(2)
    assert d == Tensor2({((), ()): 1, ((1,), (1,)): 1, ((2,), (2,)): 1,
                         ((1, 1), (1, 1)): 1})


def test_reconstruction():
    assert reconstruct(()) == NCPoly.one()
    assert reconstruct((2,)) == word_poly((2,))
    assert reconstruct_adjoint(()) == NCPoly.one()
    for w in all_words_up_to(4):
        assert reconstruct(w) == word_poly(w)
        assert reconstruct_adjoint(w) == word_poly(w)


def test_letter_reconstruct():
    # y_s = sum over compositions of s of q^(k-1)/k! times products of
    # projected letters
    for s in range(1, 6):
        assert letter_reconstruct(s) == word_poly((s,))
    # spot-check the s=2 cancellation by hand
    manual = primitive_projector((2,)) + \
        (primitive_projector((1,)) * primitive_projector((1,))).scale(halfq())
    assert manual == word_poly((2,))


def test_log_diagonal_matches_outer_products():
    n = 3
    acc = Tensor2.zero()
    for w in all_words_up_to(n):
        acc = acc + tensor_outer(word_poly(w), primitive_projector(w))
    assert log_diagonal(n) == acc
