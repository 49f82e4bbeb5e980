"""Acceptance suite: one test per criterion, exact equality throughout.

The golden polynomials are frozen expected values; each test prints a
PASS/FAIL line (run with -s to see them all).
"""

import time
from fractions import Fraction

from oracles import (brute_shuffle, derivation_leaves, letter_reconstruct,
                     ncpoly_to_fraction_dict, pi_of_sequence, radford_dual,
                     reconstruct_adjoint, standard_sequences)
from qstuffle.coeff import QPoly
from qstuffle.bases import (basis_by_kind, dual_pbw_element, dual_pbw_oracle,
                            pbw_element, verify_duality,
                            verify_factorization, verify_primitivity)
from qstuffle.eulerian import reconstruct
from qstuffle.ncpoly import NCPoly, word_poly
from qstuffle.ops import shuffle, stuffle, stuffle_poly
from qstuffle.words import all_words_up_to, word_key, words_of_weight


def _criterion(num, description, fn):
    try:
        fn()
    except Exception:
        print("ACCEPTANCE %d: FAIL — %s" % (num, description))
        raise
    print("ACCEPTANCE %d: PASS — %s" % (num, description))


def _poly(spec):
    return NCPoly({w: c for w, c in spec.items()})


def q(power, num, den=1):
    return QPoly.q(power, Fraction(num, den))


GOLDEN_PI = {
    (1,): _poly({(1,): 1}),
    (2,): _poly({(2,): 1, (1, 1): q(1, -1, 2)}),
    (2, 1): _poly({(2, 1): 1, (1, 2): -1}),
    (3, 1, 2): _poly({
        (3, 1, 2): 1,
        (3, 1, 1, 1): q(1, -1, 2),
        (2, 1, 1, 2): q(1, -1),
        (2, 1, 1, 1, 1): q(2, 1, 4),
        (1, 3, 2): -1,
        (1, 3, 1, 1): q(1, 1, 2),
        (1, 1, 2, 2): q(1, 1, 2),
        (1, 1, 2, 1, 1): q(2, -1, 2),
        (2, 3, 1): -1,
        (2, 2, 1, 1): q(1, 1, 2),
        (2, 1, 3): 1,
        (1, 1, 3, 1): q(1, 1, 2),
        (1, 1, 1, 3): q(1, -1, 2),
        (1, 1, 1, 1, 2): q(2, 1, 4),
    }),
    (3, 1, 2, 1): _poly({
        (3, 1, 2, 1): 1,
        (3, 1, 1, 2): -1,
        (2, 1, 1, 2, 1): q(1, -1, 2),
        (1, 3, 2, 1): -1,
        (1, 3, 1, 2): 1,
        (1, 1, 2, 2, 1): q(1, 1, 2),
        (1, 1, 2, 1, 2): q(1, -1, 2),
        (2, 1, 3, 1): -1,
        (2, 1, 2, 1, 1): q(1, 1, 2),
        (2, 1, 1, 3): 1,
        (1, 2, 3, 1): 1,
        (1, 2, 2, 1, 1): q(1, -1, 2),
        (1, 2, 1, 3): -1,
        (1, 2, 1, 1, 2): q(1, 1, 2),
    }),
}

# Dual elements are unit lower triangular, so each golden is indexed by the
# maximal word of its support (e.g. (3,1,2) for the weight-6 entry).
GOLDEN_SIGMA = {
    (1,): _poly({(1,): 1}),
    (2,): _poly({(2,): 1}),
    (2, 1): _poly({(2, 1): 1, (3,): q(1, 1, 2)}),
    (3, 1, 2): _poly({
        (3, 1, 2): 1,
        (3, 2, 1): 1,
        (3, 3): q(1, 1),
        (4, 2): q(1, 1, 2),
        (6,): q(2, 1, 3),
        (5, 1): q(1, 1, 2),
    }),
    (3, 1, 2, 1): _poly({
        (3, 2, 1, 1): 2,
        (3, 2, 2): q(1, 1),
        (3, 1, 2, 1): 1,
        (3, 3, 1): q(1, 3, 2),
        (3, 1, 3): q(1, 1, 2),
        (3, 4): q(2, 1, 2),
        (4, 2, 1): q(1, 1, 2),
        (4, 3): q(2, 1, 4),
        (5, 1, 1): q(1, 1),
        (5, 2): q(2, 1, 2),
        (6, 1): q(2, 1, 2),
        (7,): q(3, 1, 8),
    }),
}


def test_criterion_1_golden_examples():
    def check():
        start = time.monotonic()
        for w, expected in GOLDEN_PI.items():
            assert pbw_element(w) == expected, "pi golden failed at %r" % (w,)
        oracle = dual_pbw_oracle(7)
        for w, expected in GOLDEN_SIGMA.items():
            assert oracle.entry(w) == expected, \
                "sigma golden (oracle) failed at %r" % (w,)
            assert dual_pbw_element(w) == expected, \
                "sigma golden (recursive) failed at %r" % (w,)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "golden examples took %.2fs" % elapsed

    _criterion(1, "the ten golden polynomials, term for term, symbolic q",
               check)


def test_criterion_2_duality():
    def check():
        start = time.monotonic()
        rep = verify_duality(7)
        assert rep.ok, rep.lines()
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, "duality at weight 7 took %.2fs" % elapsed

    _criterion(2, "duality of the bases for all pairs of weight <= 7", check)


def test_criterion_3_primitivity():
    def check():
        rep = verify_primitivity(6)
        assert rep.ok, rep.lines()

    _criterion(3, "coproduct primitivity of bracketed Lyndon elements and "
                  "projected words up to weight 6", check)


def test_criterion_4_reconstruction():
    def check():
        for w in all_words_up_to(5, include_empty=True):
            assert reconstruct(w) == word_poly(w)
            assert reconstruct_adjoint(w) == word_poly(w)
        for s in range(1, 7):
            assert letter_reconstruct(s) == word_poly((s,))

    _criterion(4, "reconstruction identities (both forms, weight <= 5; "
                  "letters <= 6)", check)


def test_criterion_5_factorization():
    def check():
        for n in range(1, 6):
            rep = verify_factorization(n)
            assert rep.ok, rep.lines()

    _criterion(5, "the three factorization expressions equal the truncated "
                  "diagonal series up to weight 5", check)


def test_criterion_6_specializations():
    def check():
        pairs = [(u, v)
                 for a in range(1, 8) for b in range(1, 9 - a)
                 for u in words_of_weight(a) for v in words_of_weight(b)]
        for u, v in pairs:
            product = stuffle(u, v)
            assert product == stuffle(v, u)
            expected = {w: Fraction(m) for w, m in brute_shuffle(u, v).items()}
            assert ncpoly_to_fraction_dict(product.subs_q(0)) == expected
            assert product.subs_q(0) == shuffle(u, v)
        for a in range(1, 6):
            for b in range(1, 7 - a):
                for c in range(1, 9 - a - b):
                    for u in words_of_weight(a):
                        for v in words_of_weight(b):
                            for w in words_of_weight(c):
                                lhs = stuffle_poly(stuffle(u, v), word_poly(w))
                                rhs = stuffle_poly(word_poly(u), stuffle(v, w))
                                assert lhs == rhs
        basis = dual_pbw_oracle(5)
        for w in all_words_up_to(5):
            assert ncpoly_to_fraction_dict(basis.entry(w).subs_q(0)) == \
                radford_dual(w)

    _criterion(6, "q=0 degenerations (independent shuffle, total weight <= 8; "
                  "commutativity/associativity; classical dual basis <= 5)",
               check)


def test_criterion_7_method_equivalence():
    def check():
        basis_by_kind("sigma", 6)  # a method mismatch raises RuntimeError

    _criterion(7, "recursive dual elements equal the triangular-solve oracle "
                  "for every word of weight <= 6", check)


def test_criterion_8_derivation_tree_lemma():
    def check():
        seqs = standard_sequences(5, 3)
        assert seqs
        for seq in seqs + [((4,), (2,), (1,))]:
            sums = []
            for policy in (min, max):
                total = NCPoly.zero()
                for leaf, paths in derivation_leaves(seq, policy).items():
                    total = total + pi_of_sequence(leaf).scale(paths)
                sums.append(total)
            assert sums[0] == sums[1] == pi_of_sequence(seq)
        leaves = sorted(derivation_leaves(((4,), (2,), (1,))).elements(),
                        key=lambda s: tuple(map(word_key, s)))
        assert leaves == sorted([
            ((4, 2, 1),), ((2, 1), (4,)), ((4, 1, 2),),
            ((2,), (4, 1)), ((1,), (4, 2)), ((1,), (2,), (4,)),
        ], key=lambda s: tuple(map(word_key, s)))

    _criterion(8, "derivation-tree expansion identities, including the "
                  "three-letter example with its six leaf terms", check)


def test_criterion_9_positivity():
    def check():
        basis = dual_pbw_oracle(6)
        for w in all_words_up_to(6):
            entry = basis.entry(w)
            assert not entry.coeff(())
            for _, c in entry.terms():
                assert all(a >= 0 for _, a in c.terms()), \
                    "negative coefficient in dual element of %r" % (w,)

    _criterion(9, "dual elements have non-negative rational coefficients "
                  "up to weight 6", check)
