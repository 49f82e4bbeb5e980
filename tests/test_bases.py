import itertools
import random
from fractions import Fraction

import pytest

from oracles import (dense_invert_unit_upper, exp_product_fold,
                     largest_rise_policy, ncpoly_to_fraction_dict,
                     pi_of_sequence, radford_dual)
from qstuffle import bases
from qstuffle.coeff import QPoly
from qstuffle.bases import (GradedBasis, _dual_by_triangular_solve,
                            basis_by_kind, chi_basis, dual_pbw_element,
                            dual_pbw_oracle, factorization_forms,
                            lyndon_stuffle_element, pbw_element, pi_basis,
                            sigma_from_cfl, sigma_increasing,
                            sigma_lyndon_general, verify_duality,
                            verify_factorization, verify_methods,
                            verify_primitivity, xi_basis)
from qstuffle.lyndon import (cfl_grouped, derivation_tree, is_lyndon,
                             lyndon_of_weight, lyndon_up_to,
                             standard_factorization)
from qstuffle.ncpoly import NCPoly, Tensor2, tensor_outer, word_poly
from qstuffle.ops import is_primitive, stuffle_poly
from qstuffle.report import Report
from qstuffle.words import all_words_up_to, weight, word_key, words_of_weight


def q(power=1, num=1, den=1):
    return QPoly.q(power, Fraction(num, den))


def test_pbw_examples():
    assert pbw_element((2, 1)) == word_poly((2, 1)) - word_poly((1, 2))
    assert pbw_element((2,)) == word_poly((2,)) - word_poly((1, 1)).scale(
        q(1, 1, 2))
    # non-Lyndon word: product over the decreasing Lyndon factorization
    assert pbw_element((1, 2)) == word_poly((1,)) * pbw_element((2,))
    assert pbw_element(()) == NCPoly.one()
    assert pbw_element((1, 1)) == word_poly((1, 1))


def test_pbw_triangularity():
    pi_basis(6).check_triangular()
    for n in range(1, 8):
        for l in lyndon_of_weight(n):
            p = pbw_element(l)
            assert p.coeff(l) == QPoly.one()
            assert all(word_key(v) > word_key(l)
                       for v in p.support() if v != l)


def test_sigma_oracle_examples():
    basis = dual_pbw_oracle(3)
    assert basis.entry((1,)) == word_poly((1,))
    assert basis.entry((2,)) == word_poly((2,))
    assert basis.entry((2, 1)) == word_poly((2, 1)) + word_poly((3,)).scale(
        q(1, 1, 2))
    assert basis.entry((1, 1)) == word_poly((1, 1)) + word_poly((2,)).scale(
        q(1, 1, 2))


def test_solve_rejects_non_triangular_family():
    family = {(1,): word_poly((1,)).scale(2)}
    with pytest.raises(ValueError):
        _dual_by_triangular_solve(family, 1, "pi")
    family = {(1,): word_poly((1,)), (2,): word_poly((2,)),
              (1, 1): word_poly((1, 1)) + word_poly((2,))}
    with pytest.raises(ValueError):
        _dual_by_triangular_solve(family, 2, "pi")


def _dense_dual(elements, n, kind):
    """Dual family through one dense QPoly matrix per weight class and the
    reference inverse: columns of the inverse."""
    entries = {(): NCPoly.one()}
    for k in range(1, n + 1):
        ws = list(words_of_weight(k))
        if kind not in GradedBasis.TRIANGULAR_UP:
            ws.reverse()
        m = [[elements[w].coeff(v) for v in ws] for w in ws]
        inv = dense_invert_unit_upper(m, QPoly.zero(), QPoly.one())
        for j, w in enumerate(ws):
            entries[w] = NCPoly({ws[i]: inv[i][j] for i in range(j + 1)})
    return entries


@pytest.mark.parametrize("kind, element", [("pi", pbw_element),
                                           ("chi", lyndon_stuffle_element)])
def test_graded_solve_matches_dense_reference(kind, element):
    elements = {w: element(w) for w in all_words_up_to(6)}
    assert _dual_by_triangular_solve(elements, 6, kind) == \
        _dense_dual(elements, 6, kind)


def _identity_family(n):
    return {w: word_poly(w) for w in all_words_up_to(n)}


def test_solve_rejects_non_graded_family():
    one_plus_q = QPoly.one() + q()
    family = _identity_family(2)
    family[(2,)] = word_poly((2,)) + word_poly((1, 1)).scale(one_plus_q)
    with pytest.raises(ValueError, match="not a monomial"):
        _dual_by_triangular_solve(family, 2, "pi")
    for coeff in (QPoly.one(), q(2)):  # length difference is 1
        family[(2,)] = word_poly((2,)) + word_poly((1, 1)).scale(coeff)
        with pytest.raises(ValueError, match="q-exponent %d at 1,1"
                           % coeff.degree()):
            _dual_by_triangular_solve(family, 2, "pi")
    # (3,1) reaches a longer word, (2,1,1) a shorter one
    family = _identity_family(4)
    family[(3, 1)] = word_poly((3, 1)) + word_poly((2, 1, 1)).scale(q())
    family[(2, 1, 1)] = word_poly((2, 1, 1)) + word_poly((1, 3)).scale(q())
    with pytest.raises(ValueError, match="mixes both directions"):
        _dual_by_triangular_solve(family, 4, "pi")


def test_sigma_from_cfl():
    assert sigma_from_cfl((), dual_pbw_element) == NCPoly.one()
    assert sigma_from_cfl((1, 1), dual_pbw_element) == \
        word_poly((1, 1)) + word_poly((2,)).scale(q(1, 1, 2))
    # frozen two-route value: sigma of (1,2,1) from its factors (1),(2,1)
    expected = word_poly((1, 2, 1)) + word_poly((2, 1, 1)).scale(2) \
        + word_poly((2, 2)).scale(q()) + word_poly((3, 1)).scale(q(1, 3, 2)) \
        + word_poly((1, 3)).scale(q(1, 1, 2)) \
        + word_poly((4,)).scale(q(2, 1, 2))
    assert sigma_from_cfl((1, 2, 1), dual_pbw_element) == expected
    oracle = dual_pbw_oracle(4)
    assert oracle.entry((1, 2, 1)) == expected


def test_sigma_increasing():
    assert sigma_increasing((2, 1), dual_pbw_element) == \
        word_poly((2, 1)) + word_poly((3,)).scale(q(1, 1, 2))
    assert sigma_increasing((1,), dual_pbw_element) == word_poly((1,))
    expected = word_poly((3, 2, 1)) + word_poly((3, 3)).scale(q(1, 1, 2)) \
        + word_poly((5, 1)).scale(q(1, 1, 2)) \
        + word_poly((6,)).scale(q(2, 1, 6))
    assert sigma_increasing((3, 2, 1), dual_pbw_element) == expected
    with pytest.raises(ValueError):
        sigma_increasing((3, 1, 2), dual_pbw_element)  # letters not increasing
    with pytest.raises(ValueError):
        sigma_increasing((1, 2), dual_pbw_element)  # not Lyndon


def test_sigma_increasing_matches_oracle():
    oracle = dual_pbw_oracle(6)
    for w in all_words_up_to(6):
        if is_lyndon(w) and all(w[i] >= w[i + 1] for i in range(len(w) - 1)):
            assert sigma_increasing(w, dual_pbw_element) == oracle.entry(w)


def test_sigma_lyndon_general_examples():
    assert sigma_lyndon_general((2, 1), dual_pbw_element) == \
        word_poly((2, 1)) + word_poly((3,)).scale(q(1, 1, 2))
    with pytest.raises(ValueError):
        sigma_lyndon_general((1, 2), dual_pbw_element)


def test_method_equivalence():
    rep = verify_methods(6)
    assert rep.ok, rep.lines()


def test_recursion_equals_the_oracle_to_weight_9():
    """Exhaustive: the recursive dual element of every word of weight <= 9
    (511 words, 126 of them Lyndon) equals the triangular solve."""
    oracle = dual_pbw_oracle(9)
    bad = [w for w in all_words_up_to(9)
           if dual_pbw_element(w) != oracle.entry(w)]
    assert bad == []


def test_pbw_element_equals_the_operator_route():
    """The int-carried bracket and product equal ab - ba and the product of
    the factors built with the NCPoly operators."""
    for w in all_words_up_to(7):
        if len(w) == 1:
            continue
        if is_lyndon(w):
            a, b = (pbw_element(f) for f in standard_factorization(w))
            expected = a * b - b * a
        else:
            expected = NCPoly.one()
            for factor, mult in cfl_grouped(w):
                for _ in range(mult):
                    expected = expected * pbw_element(factor)
        assert pbw_element(w) == expected, w


def test_chi_and_xi():
    for n in range(1, 6):
        for l in lyndon_of_weight(n):
            assert lyndon_stuffle_element(l) == word_poly(l)
    assert lyndon_stuffle_element((1, 1)) == \
        word_poly((1, 1)) + word_poly((2,)).scale(q(1, 1, 2))
    chi_basis(5).check_triangular()
    xi = xi_basis(5)
    xi.check_triangular()
    assert xi.entry((1,)) == word_poly((1,))
    # duality against the chi family
    for n in range(1, 6):
        for u in words_of_weight(n):
            xu = xi.entry(u)
            for v in words_of_weight(n):
                expected = QPoly.one() if u == v else QPoly.zero()
                assert lyndon_stuffle_element(v).pairing(xu) == expected
    # xi of Lyndon words is primitive
    for l in lyndon_up_to(5):
        assert is_primitive(xi.entry(l), 5)


def test_duality_report():
    rep = verify_duality(4)
    assert rep.ok
    sigma = dual_pbw_oracle(3)
    assert sigma.entry((2, 1)).pairing(pbw_element((2, 1))) == QPoly.one()
    assert sigma.entry((1, 2)).pairing(pbw_element((2, 1))) == QPoly.zero()


def test_factorization():
    for n in (2, 4):
        rep = verify_factorization(n)
        assert rep.ok, rep.lines()
    diag, mid, prod = factorization_forms(3)
    assert mid == diag and prod == diag


def test_factorization_forms_equal_unscaled_routes():
    """The integer-carried dual-pair sum and the expanded product of
    exponentials equal the plain sum of outer products and the
    left-to-right chain of slot products over the unscaled factors."""
    for n in range(1, 7):
        sigma = dual_pbw_oracle(n)
        pair_sum = Tensor2.one()
        for w in all_words_up_to(n):
            pair_sum = pair_sum + tensor_outer(sigma.entry(w), pbw_element(w))
        chain = exp_product_fold(sigma.entry, n)
        _, mid, prod = factorization_forms(n)
        assert mid == pair_sum
        assert prod == chain


def test_factorization_sees_divided_powers_by_k(monkeypatch):
    """Divided stuffle powers that divide by k instead of k! break the
    product of exponentials (first at the word 1,1,1) and leave the
    dual-pair sum, which reads the dual entries of the solve, unchanged."""
    def divided_by_k(p, k):
        out = NCPoly.one()
        for _ in range(k):
            out = stuffle_poly(out, p)
        return out.scale(Fraction(1, k))
    monkeypatch.setattr(bases, "stuffle_power_divided", divided_by_k)
    assert verify_factorization(4).lines() == [
        "dual-pair sum equals the diagonal series: PASS",
        "decreasing product of exponentials equals the diagonal series: FAIL",
        "factorization (N=4): FAILED"]


def verify_lemma3(n, seed=20260810):
    """Pairings of stuffles of proper series with products of primitives:
    more stuffle factors than primitives pair to zero, and equal counts give
    the permanent of the pairing matrix."""
    rep = Report("primitive pairing lemma (N=%d)" % n)
    rng = random.Random(seed)
    lyndons = lyndon_up_to(n)
    sigma = dual_pbw_oracle(n)

    def random_proper():
        words = all_words_up_to(n)
        picks = rng.sample(words, k=min(3, len(words)))
        return NCPoly({w: rng.randint(1, 5) for w in picks})

    ok = True
    for _ in range(8):
        m = rng.randint(1, 2)
        prims = [pbw_element(rng.choice(lyndons)) for _ in range(m)]
        target = NCPoly.one()
        for p in prims:
            target = target * p
        series = [random_proper() for _ in range(m + 1)]
        prod = series[0]
        for s in series[1:]:
            prod = stuffle_poly(prod, s)
        if prod.pairing(target):
            ok = False
    rep.add("more stuffle factors than primitives pair to zero (8 samples)",
            ok)

    ok = True
    for _ in range(8):
        m = rng.randint(1, 2)
        prims = [pbw_element(rng.choice(lyndons)) for _ in range(m)]
        target = NCPoly.one()
        for p in prims:
            target = target * p
        series = [random_proper() for _ in range(m)]
        prod = series[0]
        for s in series[1:]:
            prod = stuffle_poly(prod, s)
        perm = QPoly.zero()
        for assignment in itertools.permutations(range(m)):
            term = QPoly.one()
            for i, j in enumerate(assignment):
                term = term * series[i].pairing(prims[j])
            perm = perm + term
        if prod.pairing(target) != perm:
            ok = False
    rep.add("equal counts give the permanent of the pairing matrix "
            "(8 samples)", ok)

    ok = True
    for u in all_words_up_to(min(n, 4)):
        grouped = cfl_grouped(u)
        factors = []
        for f, mult in grouped:
            factors.extend([f] * mult)
        prod = sigma.entry(factors[0])
        for f in factors[1:]:
            prod = stuffle_poly(prod, sigma.entry(f))
        for v in words_of_weight(weight(u)):
            vf = []
            for f, mult in cfl_grouped(v):
                vf.extend([f] * mult)
            if len(vf) != len(factors):
                continue
            target = NCPoly.one()
            for f in vf:
                target = target * pbw_element(f)
            perm = QPoly.zero()
            for assignment in itertools.permutations(range(len(factors))):
                term = QPoly.one()
                for i, j in enumerate(assignment):
                    term = term * (QPoly.one()
                                   if factors[i] == vf[j] else QPoly.zero())
                perm = perm + term
            if prod.pairing(target) != perm:
                ok = False
    rep.add("dual elements instantiate the permanent formula", ok)
    return rep


def test_lemma3_report_and_instances():
    assert verify_lemma3(4).ok
    # two proper stuffle factors against one primitive pair to zero
    sigma = dual_pbw_oracle(4)
    from qstuffle.ops import stuffle_poly
    s = stuffle_poly(sigma.entry((2, 1)), sigma.entry((1,)))
    assert s.pairing(pbw_element((3, 1))) == QPoly.zero()
    # n = m = 1 is the plain pairing
    assert sigma.entry((2,)).pairing(pbw_element((2,))) == QPoly.one()
    # n = m = 2 with dual elements gives the permanent of the delta matrix
    prod = stuffle_poly(sigma.entry((2, 1)), sigma.entry((1,)))
    target = pbw_element((2, 1)) * pbw_element((1,))
    assert prod.pairing(target) == QPoly.one()
    target = pbw_element((1,)) * pbw_element((2, 1))
    assert prod.pairing(target) == QPoly.one()


def test_primitivity_report():
    assert verify_primitivity(4).ok


def test_sigma_positivity():
    basis = dual_pbw_oracle(5)
    for w in all_words_up_to(5):
        for _, c in basis.entry(w).terms():
            assert c.is_nonneg()


def test_q0_matches_classical_radford():
    basis = dual_pbw_oracle(4)
    for w in all_words_up_to(4):
        at0 = ncpoly_to_fraction_dict(basis.entry(w).subs_q(0))
        assert at0 == radford_dual(w)


def test_derivation_tree_lemma_paper_example():
    seq = ((4,), (2,), (1,))
    for policy in (None, largest_rise_policy):
        tree = derivation_tree(seq) if policy is None else \
            derivation_tree(seq, policy)
        total = NCPoly.zero()
        for leaf in tree.leaves():
            total = total + pi_of_sequence(leaf.seq)
        assert total == pi_of_sequence(seq)
    # the six leaves of the default tree, as basis products
    leaves = sorted((leaf.seq for leaf in derivation_tree(seq).leaves()),
                    key=lambda s: tuple(map(word_key, s)))
    assert leaves == sorted([
        ((4, 2, 1),), ((2, 1), (4,)), ((4, 1, 2),),
        ((2,), (4, 1)), ((1,), (4, 2)), ((1,), (2,), (4,)),
    ], key=lambda s: tuple(map(word_key, s)))


def test_basis_by_kind_and_json():
    for kind in ("pi", "sigma", "chi", "xi"):
        basis = basis_by_kind(kind, 3)
        data = basis.to_json()
        assert data["kind"] == kind
        assert data["max_weight"] == 3
        assert data["generator_version"].startswith("qstuffle ")
        parsed = NCPoly.from_json(data["entries"]["2,1"])
        assert parsed == basis.entry((2, 1))
    recursive = basis_by_kind("sigma", 4, sigma_method="recursive")
    oracle = basis_by_kind("sigma", 4, sigma_method="oracle")
    assert all(recursive.entry(w) == oracle.entry(w)
               for w in all_words_up_to(4, include_empty=True))


def test_latex_rows():
    rows = dual_pbw_oracle(3).latex_rows()
    assert "\\Sigma_{y_2y_1} &=& \\frac{q}{2}y_3 + y_2y_1\\\\" in rows


def test_graded_basis_invariant_checker():
    entries = {(): NCPoly.one(), (1,): word_poly((1,)),
               (2,): word_poly((2,)) + word_poly((1, 1)),
               (1, 1): word_poly((1, 1))}
    GradedBasis("pi", 2, entries).check_triangular()
    with pytest.raises(ValueError):
        GradedBasis("sigma", 2, entries).check_triangular()
    bad = dict(entries)
    bad[(2,)] = word_poly((2,)).scale(2)
    with pytest.raises(ValueError):
        GradedBasis("pi", 2, bad).check_triangular()
    with pytest.raises(ValueError):
        GradedBasis("nope", 2, entries)
