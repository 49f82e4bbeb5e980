import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (dense_invert_unit_upper, derivation_leaves,
                     exp_product_fold, ncpoly_to_fraction_dict,
                     pi_of_sequence, radford_dual, sigma_by_factor_chain,
                     sigma_increasing, tensor_outer)
from qstuffle import bases
from qstuffle.coeff import QPoly
from qstuffle.bases import (KINDS, GradedBasis, _dual_by_triangular_solve,
                            basis_by_kind, dual_pbw_element,
                            dual_pbw_oracle, factorization_forms,
                            lyndon_stuffle_element, pbw_element,
                            sigma_from_cfl, sigma_lyndon_general,
                            verify_duality, verify_factorization,
                            verify_primitivity)
from qstuffle.lyndon import (cfl_factorization, converse_tree, is_lyndon,
                             lyndon_of_weight, lyndon_up_to,
                             standard_factorization)
from qstuffle.ncpoly import NCPoly, Tensor2, word_poly
from qstuffle.ops import is_primitive, stuffle, stuffle_poly
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
    basis_by_kind("pi", 6).check_triangular()
    for n in range(1, 8):
        for l in lyndon_of_weight(n):
            p = pbw_element(l)
            assert p.coeff(l) == QPoly.one()
            assert all(word_key(v) > word_key(l)
                       for v, _ in p.terms() if v != l)


def test_sigma_oracle_examples():
    basis = dual_pbw_oracle(3)
    assert basis.entries[(1,)] == word_poly((1,))
    assert basis.entries[(2,)] == word_poly((2,))
    assert basis.entries[(2, 1)] == word_poly((2, 1)) + word_poly((3,)).scale(
        q(1, 1, 2))
    assert basis.entries[(1, 1)] == word_poly((1, 1)) + word_poly((2,)).scale(
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
        if not KINDS[kind].upper:
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


def _packed_columns(m):
    """The columns [(i, a, d)] of `_invert_unit_upper` for a dense unit
    upper triangular matrix of Fractions, read as the solve reads a family:
    row i over d, the lcm of its denominators off the diagonal, and each
    entry m[i][j] = a/d."""
    dens = [math.lcm(*(a.denominator for a in r[i + 1:]))
            for i, r in enumerate(m)]
    return [[(i, int(m[i][j] * dens[i]), dens[i]) for i in range(j) if m[i][j]]
            for j in range(len(m))]


def _dense_inverse(columns):
    """`_invert_unit_upper(columns)` as a dense matrix of Fractions."""
    size = len(columns)
    out = [[Fraction(0)] * size for _ in range(size)]
    for j, nums in enumerate(bases._invert_unit_upper(columns)):
        assert len(nums) == j + 1
        for i, c in enumerate(nums):
            out[i][j] = Fraction(c, nums[-1])
    return out


def _spied_widths(monkeypatch):
    """The slot widths `_invert_unit_upper` tries, appended as it goes."""
    widths = []
    packed = bases._packed_inverse

    def spy(columns, width):
        widths.append(width)
        return packed(columns, width)
    monkeypatch.setattr(bases, "_packed_inverse", spy)
    return widths


def test_packed_inverse_doubles_the_width_for_large_entries(monkeypatch):
    rng = random.Random(7)
    size = 6
    m = [[Fraction(int(i == j)) if j <= i else
          Fraction(rng.choice([-1, 1]) * rng.randrange(2 ** 70, 2 ** 72),
                   rng.choice([1, 3, 2 ** 40 + 1]))
          for j in range(size)] for i in range(size)]
    widths = _spied_widths(monkeypatch)
    inverse = _dense_inverse(_packed_columns(m))
    assert len(widths) > 2 and widths == [64 << t for t in range(len(widths))]
    assert inverse == dense_invert_unit_upper(m, Fraction(0), Fraction(1))


def test_packed_inverse_fits_at_64_bits(monkeypatch):
    rng = random.Random(3)
    size = 12
    m = [[Fraction(int(i == j)) if j <= i else
          Fraction(rng.randrange(-3, 4), rng.choice([1, 2, 3]))
          for j in range(size)] for i in range(size)]
    widths = _spied_widths(monkeypatch)
    inverse = _dense_inverse(_packed_columns(m))
    assert widths == [64]
    assert inverse == dense_invert_unit_upper(m, Fraction(0), Fraction(1))


# entries of both signs over mixed denominators; the wide ones force W >= 128
UPPER_ENTRIES = st.builds(
    Fraction, st.one_of(st.integers(-3, 3), st.integers(-2 ** 72, 2 ** 72)),
    st.sampled_from([1, 2, 3, 7, 2 ** 40 + 1]))


@st.composite
def unit_upper_matrices(draw):
    size = draw(st.integers(1, 12))
    return [[Fraction(int(i == j)) if j <= i else draw(UPPER_ENTRIES)
             for j in range(size)] for i in range(size)]


@settings(deadline=None, max_examples=60)
@given(unit_upper_matrices())
def test_packed_inverse_matches_the_dense_reference(m):
    assert _dense_inverse(_packed_columns(m)) == \
        dense_invert_unit_upper(m, Fraction(0), Fraction(1))


def _identity_family(n):
    return {w: word_poly(w) for w in all_words_up_to(n)}


def test_solve_rejects_non_graded_family():
    one_plus_q = QPoly.one() + q()
    family = _identity_family(2)
    family[(2,)] = word_poly((2,)) + word_poly((1, 1)).scale(one_plus_q)
    with pytest.raises(ValueError, match="q-exponent 0 at 1,1, not 1, one q "
                       "per letter gained"):
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
    with pytest.raises(ValueError, match="^pi entry at 2,1,1 has q-exponent 1 "
                       "at 1,3, not -1, one q per letter gained$"):
        _dual_by_triangular_solve(family, 4, "pi")


def test_sigma_from_cfl():
    assert sigma_from_cfl((1, 1), dual_pbw_element, dual_pbw_element) == \
        word_poly((1, 1)) + word_poly((2,)).scale(q(1, 1, 2))
    # frozen two-route value: sigma of (1,2,1) from its factors (1),(2,1)
    expected = word_poly((1, 2, 1)) + word_poly((2, 1, 1)).scale(2) \
        + word_poly((2, 2)).scale(q()) + word_poly((3, 1)).scale(q(1, 3, 2)) \
        + word_poly((1, 3)).scale(q(1, 1, 2)) \
        + word_poly((4,)).scale(q(2, 1, 2))
    assert sigma_from_cfl((1, 2, 1), dual_pbw_element,
                          dual_pbw_element) == expected
    oracle = dual_pbw_oracle(4)
    assert oracle.entries[(1, 2, 1)] == expected
    # a Lyndon word is its own single factor
    assert sigma_from_cfl((2, 1), word_poly, None) == word_poly((2, 1))


def test_rest_recursion_equals_the_factor_chain_to_weight_8():
    """Exhaustive: the recursive dual element and chi of every word of
    weight <= 8, each the first Lyndon factor times the cached rest, equal
    the stuffle chain over every factor divided by the m! of the
    multiplicities."""
    words = all_words_up_to(8)
    assert [w for w in words if dual_pbw_element(w)
            != sigma_by_factor_chain(w, dual_pbw_element)] == []
    assert [w for w in words if lyndon_stuffle_element(w)
            != sigma_by_factor_chain(w, word_poly)] == []


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
            assert sigma_increasing(w, dual_pbw_element) == oracle.entries[w]


def test_sigma_lyndon_general_examples():
    for s in range(1, 6):  # a letter's converse derivation map is itself
        assert sigma_lyndon_general((s,)) == word_poly((s,))
    assert sigma_lyndon_general((2, 1)) == \
        word_poly((2, 1)) + word_poly((3,)).scale(q(1, 1, 2))
    with pytest.raises(ValueError):
        sigma_lyndon_general((1, 2))


def test_one_converse_map_per_lyndon_word(monkeypatch):
    """The recursive Σ of every word of weight <= 7 runs the converse
    derivation map once per Lyndon word, letters included, and on no other
    word."""
    calls = []

    def counted(seq):
        calls.append(seq)
        return converse_tree(seq)
    monkeypatch.setattr(bases, "converse_tree", counted)
    dual_pbw_element.cache_clear()
    for w in all_words_up_to(7):
        dual_pbw_element(w)
    dual_pbw_element.cache_clear()
    assert sorted(calls) == sorted((l,) for l in lyndon_up_to(7))


def test_recursion_equals_the_oracle_to_weight_9():
    """Exhaustive: the recursive dual element of every word of weight <= 9
    (511 words, 126 of them Lyndon) equals the triangular solve."""
    oracle = dual_pbw_oracle(9)
    bad = [w for w in all_words_up_to(9)
           if dual_pbw_element(w) != oracle.entries[w]]
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
            for factor in cfl_factorization(w):
                expected = expected * pbw_element(factor)
        assert pbw_element(w) == expected, w


def test_chi_and_xi():
    for n in range(1, 6):
        for l in lyndon_of_weight(n):
            assert lyndon_stuffle_element(l) == word_poly(l)
    assert lyndon_stuffle_element((1, 1)) == \
        word_poly((1, 1)) + word_poly((2,)).scale(q(1, 1, 2))
    basis_by_kind("chi", 5).check_triangular()
    xi = basis_by_kind("xi", 5)
    xi.check_triangular()
    assert xi.entries[(1,)] == word_poly((1,))
    # duality against the chi family
    for n in range(1, 6):
        for u in words_of_weight(n):
            xu = xi.entries[u]
            for v in words_of_weight(n):
                expected = QPoly.one() if u == v else QPoly.zero()
                assert lyndon_stuffle_element(v).pairing(xu) == expected
    # xi of Lyndon words is primitive
    for l in lyndon_up_to(5):
        assert is_primitive(xi.entries[l], 5)


def test_duality_report():
    rep = verify_duality(4)
    assert rep.ok
    sigma = dual_pbw_oracle(3)
    assert sigma.entries[(2, 1)].pairing(pbw_element((2, 1))) == QPoly.one()
    assert sigma.entries[(1, 2)].pairing(pbw_element((2, 1))) == QPoly.zero()


@pytest.mark.parametrize("corrupt", [
    lambda e: e.update({(2,): e[(1, 1)], (1, 1): e[(2,)]}),
    lambda e: e.update({(2,): e[(2,)].scale(2)}),
    lambda e: e.update({(2,): e[(2,)].scale(QPoly.q())})],
    ids=["swapped", "diagonal-only", "diagonal-at-q"])
def test_duality_fails_per_weight(monkeypatch, corrupt):
    """Σ(2) and Σ(1,1) swapped (both diagonal and both off-diagonal pairs
    of weight 2 fail), Σ(2) doubled, or Σ(2) times q (its diagonal pair
    reads q, not 1; it alone fails): only the weight-2 line reads FAIL."""
    entries = dict(dual_pbw_oracle(3).entries)
    corrupt(entries)
    monkeypatch.setattr(bases, "dual_pbw_element",
                        GradedBasis("sigma", 3, entries).entries.__getitem__)
    assert verify_duality(3).lines() == [
        "weight 1 (1 pairs): PASS", "weight 2 (4 pairs): FAIL",
        "weight 3 (16 pairs): PASS",
        "cross-weight pairs vanish (28 pairs): PASS", "duality (N=3): FAILED"]


def test_duality_fails_across_weights_on_an_inhomogeneous_entry(
        monkeypatch):
    """Σ(1) + y_2 pairs to 1 with Π(2): only the cross-weight line fails."""
    entries = dict(dual_pbw_oracle(3).entries)
    entries[(1,)] = entries[(1,)] + word_poly((2,))
    monkeypatch.setattr(bases, "dual_pbw_element",
                        GradedBasis("sigma", 3, entries).entries.__getitem__)
    assert verify_duality(3).lines() == [
        "weight 1 (1 pairs): PASS", "weight 2 (4 pairs): PASS",
        "weight 3 (16 pairs): PASS",
        "cross-weight pairs vanish (28 pairs): FAIL", "duality (N=3): FAILED"]


def test_factorization():
    for n in (2, 4):
        rep = verify_factorization(n)
        assert rep.ok, rep.lines()
    diag, mid, prod = factorization_forms(3)
    assert mid == diag and prod == diag


@pytest.mark.parametrize("word, extra, product_line", [
    ((1, 1), (2,), "PASS"), ((2, 1), (3,), "FAIL")],
    ids=["non-Lyndon", "Lyndon"])
def test_factorization_product_reads_lyndon_entries_only(monkeypatch, word,
                                                         extra, product_line):
    """A wrong entry of Σ breaks the dual-pair sum; it breaks the product
    of exponentials only at a Lyndon word, the only entries it reads."""
    entries = dict(dual_pbw_oracle(4).entries)
    entries[word] = entries[word] + word_poly(extra)
    monkeypatch.setattr(bases, "dual_pbw_element",
                        GradedBasis("sigma", 4, entries).entries.__getitem__)
    assert verify_factorization(4).lines() == [
        "dual-pair sum equals the diagonal series: FAIL",
        "decreasing product of exponentials equals the diagonal series: "
        + product_line, "factorization (N=4): FAILED"]


@pytest.mark.parametrize("word, product_line", [
    ((2, 1), "FAIL"), ((1, 2), "PASS")], ids=["Lyndon", "non-Lyndon"])
def test_verify_sees_a_broken_recursion(corrupt_recursion, word,
                                        product_line):
    """q·y_3 added to the recursive Σ at one word of weight 3 fails the
    duality suite first at weight 3, and the dual-pair sum; the product of
    exponentials fails when the word is Lyndon."""
    corrupt_recursion(word)
    failed = [line for line in verify_duality(4).lines()
              if line.endswith(": FAIL")]
    assert failed[0] == "weight 3 (16 pairs): FAIL"
    assert verify_factorization(4).lines()[:2] == [
        "dual-pair sum equals the diagonal series: FAIL",
        "decreasing product of exponentials equals the diagonal series: "
        + product_line]


def test_factorization_forms_equal_unscaled_routes():
    """The integer-carried dual-pair sum and the expanded product of
    exponentials equal the plain sum of outer products and the
    left-to-right chain of slot products over the unscaled factors."""
    for n in range(1, 7):
        sigma = dual_pbw_oracle(n)
        pair_sum = Tensor2.one()
        for w in all_words_up_to(n):
            pair_sum = pair_sum + tensor_outer(sigma.entries[w],
                                               pbw_element(w))
        chain = exp_product_fold(sigma.entries.__getitem__, n)
        _, mid, prod = factorization_forms(n)
        assert mid == pair_sum
        assert prod == chain


def test_factorization_sees_divided_powers_by_k(monkeypatch):
    """A divided-power step that divides by m! instead of m, so that the
    powers divide by a product of factorials instead of k!, breaks the
    recursion's step (first at the word 1,1,1, where m = 3); the same
    patch has the product of exponentials divide by (k!)! in place of k!,
    which breaks it, and leaves the dual-pair sum, which reads the dual
    entries of the solve, unchanged."""
    product = bases._product

    def by_factorial(word_prod, factors, den=1):
        if word_prod is stuffle:
            den = math.factorial(den)
        return product(word_prod, factors, den)

    monkeypatch.setattr(bases, "_product", by_factorial)
    entry = dual_pbw_oracle(4).entries.__getitem__

    def broken(w):
        return sigma_from_cfl(w, entry, broken)

    assert [w for w in all_words_up_to(4) if broken(w)
            != sigma_by_factor_chain(w, entry)][0] == (1, 1, 1)
    monkeypatch.setattr(bases, "dual_pbw_element", entry)
    assert verify_factorization(4).lines() == [
        "dual-pair sum equals the diagonal series: PASS",
        "decreasing product of exponentials equals the diagonal series: FAIL",
        "factorization (N=4): FAILED"]


def test_factorization_product_skips_the_divided_power_step(monkeypatch):
    """The recursion without its divided power (no 1/m for a first factor
    of multiplicity m) breaks Σ at 1,1 and 1,1,1, so the dual-pair sum
    fails; the product of exponentials reads Σ at the Lyndon words alone,
    which to weight 3 read no broken entry, and divides by k! itself, so
    it passes."""
    def undivided(w, lyndon_of, rest_of):
        first = cfl_factorization(w)[0]
        if first == w:
            return lyndon_of(w)
        return bases._product(stuffle, [rest_of(first),
                                        rest_of(w[len(first):])])

    dual_pbw_element.cache_clear()
    monkeypatch.setattr(bases, "sigma_from_cfl", undivided)
    try:
        assert verify_factorization(3).lines() == [
            "dual-pair sum equals the diagonal series: FAIL",
            "decreasing product of exponentials equals the diagonal series: "
            "PASS", "factorization (N=3): FAILED"]
    finally:
        dual_pbw_element.cache_clear()


def test_the_default_sigma_is_the_recursions_memo():
    """Once the oracle matches the recursion, the default Σ holds the
    recursion's memoized entries, not equal copies of them."""
    basis = basis_by_kind("sigma", 6)
    assert all(basis.entries[w] is dual_pbw_element(w)
               for w in basis.words())


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
        factors = cfl_factorization(u)
        prod = sigma.entries[factors[0]]
        for f in factors[1:]:
            prod = stuffle_poly(prod, sigma.entries[f])
        for v in words_of_weight(weight(u)):
            vf = cfl_factorization(v)
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
    s = stuffle_poly(sigma.entries[(2, 1)], sigma.entries[(1,)])
    assert s.pairing(pbw_element((3, 1))) == QPoly.zero()
    # n = m = 1 is the plain pairing
    assert sigma.entries[(2,)].pairing(pbw_element((2,))) == QPoly.one()
    # n = m = 2 with dual elements gives the permanent of the delta matrix
    prod = stuffle_poly(sigma.entries[(2, 1)], sigma.entries[(1,)])
    target = pbw_element((2, 1)) * pbw_element((1,))
    assert prod.pairing(target) == QPoly.one()
    target = pbw_element((1,)) * pbw_element((2, 1))
    assert prod.pairing(target) == QPoly.one()


def test_primitivity_report():
    assert verify_primitivity(4).ok


@pytest.mark.parametrize("name, word, extra, lines", [
    ("pbw_element", (2, 1), (1, 1, 1),
     ["pbw elements of Lyndon words (7): FAIL (failures: ['2,1'])",
      "projected words (15): PASS"]),
    ("pbw_element", (2, 1), (1, 1, 1, 1, 1),
     ["pbw elements of Lyndon words (7): FAIL (failures: ['2,1'])",
      "projected words (15): PASS"]),
    ("primitive_projector", (3,), (1, 2),
     ["pbw elements of Lyndon words (7): PASS",
      "projected words (15): FAIL (failures: ['3'])"])],
    ids=["pbw", "pbw-above-n", "projector"])
def test_each_primitivity_line_fails_alone(monkeypatch, name, word, extra,
                                           lines):
    """y_1y_1y_1 added to Π(2,1) fails the Lyndon line at 2,1 alone (it
    commutes with y_1, so the brackets built on Π(2,1) are unchanged), and
    so does y_1^5, above N = 4: each element is tested whole, not cut to
    weight N.  y_1y_2 added to the projection of y_3 fails the projected
    line alone, as Π takes its letters from `eulerian`, not from `bases`."""
    real, pbw = getattr(bases, name), bases.pbw_element

    def corrupted(w):
        return real(w) + word_poly(extra) if tuple(w) == word else real(w)
    # Π's cache would store entries built from a corrupted Π(2,1)
    pbw.cache_clear()
    monkeypatch.setattr(bases, name, corrupted)
    try:
        assert verify_primitivity(4).lines() == lines + [
            "primitivity (N=4): FAILED"]
    finally:
        pbw.cache_clear()


def test_sigma_positivity():
    basis = dual_pbw_oracle(5)
    for w in all_words_up_to(5):
        for _, c in basis.entries[w].terms():
            assert all(a >= 0 for _, a in c.terms())


def test_q0_matches_classical_radford():
    basis = dual_pbw_oracle(4)
    for w in all_words_up_to(4):
        at0 = ncpoly_to_fraction_dict(basis.entries[w].subs_q(0))
        assert at0 == radford_dual(w)


def test_derivation_tree_lemma_paper_example():
    seq = ((4,), (2,), (1,))
    for policy in (min, max):
        total = NCPoly.zero()
        for leaf, paths in derivation_leaves(seq, policy).items():
            total = total + pi_of_sequence(leaf).scale(paths)
        assert total == pi_of_sequence(seq)
    # the six leaves of the default tree, as basis products
    leaves = sorted(derivation_leaves(seq).elements(),
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
        assert parsed == basis.entries[(2, 1)]
    recursive = basis_by_kind("sigma", 4, sigma_method="recursive")
    oracle = basis_by_kind("sigma", 4, sigma_method="oracle")
    assert all(recursive.entries[w] == oracle.entries[w]
               for w in all_words_up_to(4, include_empty=True))


def test_latex_rows():
    rows = dual_pbw_oracle(3).rows("latex")
    assert "\\Sigma_{y_2y_1} &=& \\frac{q}{2}y_3 + y_2y_1\\\\" in rows


def test_basis_by_kind_refuses_an_unknown_sigma_method():
    with pytest.raises(ValueError, match="unknown sigma method 'recursve'"):
        basis_by_kind("sigma", 3, "recursve")


@pytest.mark.parametrize("kind", ["pi", "chi", "xi"])
def test_basis_by_kind_refuses_a_sigma_method_on_other_kinds(kind):
    with pytest.raises(ValueError) as info:
        basis_by_kind(kind, 3, sigma_method="oracle")
    assert str(info.value) == \
        "--sigma-method does not apply to basis %s" % kind


@pytest.mark.parametrize("method", [None, "both"])
def test_default_sigma_raises_on_a_method_mismatch(monkeypatch, method):
    # below weight 4 no other word's recursion reaches 2,1, so the cache of
    # the real recursive route is left as it was
    recursive = bases.dual_pbw_element

    def wrong_at_2_1(w):
        return word_poly((2, 1)) if tuple(w) == (2, 1) else recursive(w)
    monkeypatch.setattr(bases, "dual_pbw_element", wrong_at_2_1)
    with pytest.raises(RuntimeError) as info:
        basis_by_kind("sigma", 3, method)
    assert str(info.value) == ("sigma method mismatch at 2,1:\n"
                               "  oracle:    1/2·q·[3] + [2,1]\n"
                               "  recursive: [2,1]")
    basis_by_kind("sigma", 3, "oracle")  # the oracle alone is not checked


@pytest.mark.parametrize("kind, method, name, word", [
    ("sigma", "recursive", "dual_pbw_element", (3, 1)),
    ("chi", None, "lyndon_stuffle_element", (1, 3))])
def test_built_families_are_checked_for_their_q_grading(monkeypatch, kind,
                                                        method, name, word):
    # a word of weight 4 is no other word's Lyndon factor or rest at N=4, so
    # the cache of the real element function is left as it was
    element = getattr(bases, name)

    def off_grade(w):  # one term of the entry at `word` carries q^2, not q
        if tuple(w) != word:
            return element(w)
        return element(w) + word_poly((4,)).scale(q(2))
    monkeypatch.setattr(bases, name, off_grade)
    with pytest.raises(RuntimeError, match="^%s entry at %s has q-exponent 2 "
                       "at 4, not 1, one q per letter lost$"
                       % (kind, ",".join(map(str, word)))):
        basis_by_kind(kind, 4, method)


def test_graded_basis_invariant_checker():
    entries = {(): NCPoly.one(), (1,): word_poly((1,)),
               (2,): word_poly((2,)) + word_poly((1, 1)).scale(q()),
               (1, 1): word_poly((1, 1))}
    GradedBasis("pi", 2, entries).check_triangular()
    with pytest.raises(ValueError):
        GradedBasis("sigma", 2, entries).check_triangular()
    bad = dict(entries)
    bad[(2,)] = word_poly((2,)).scale(2)
    with pytest.raises(ValueError):
        GradedBasis("pi", 2, bad).check_triangular()
    bad[(2,)] = word_poly((2,)) + word_poly((1, 1))  # not q-graded
    with pytest.raises(ValueError, match="^pi entry at 2 has q-exponent 0 at "
                       "1,1, not 1, one q per letter gained$"):
        GradedBasis("pi", 2, bad).check_triangular()
    with pytest.raises(ValueError):
        GradedBasis("nope", 2, entries)


def test_unknown_kinds_and_row_formats_are_refused():
    with pytest.raises(ValueError, match="^unknown basis kind 'tau'$"):
        basis_by_kind("tau", 3)
    with pytest.raises(ValueError, match="^unknown row format 'json'$"):
        next(basis_by_kind("pi", 2).rows("json"))


def test_triangular_check_names_the_empty_word_and_mixed_weights():
    entries = {(): NCPoly.one(), (1,): word_poly((1,)),
               (2,): word_poly((2,)), (1, 1): word_poly((1, 1))}
    bad = dict(entries)
    bad[()] = word_poly((1,))
    with pytest.raises(ValueError,
                       match=r"^entry at the empty word must be 1$"):
        GradedBasis("sigma", 2, bad).check_triangular()
    bad = dict(entries)
    bad[(1,)] = word_poly((1,)) + word_poly((2,))
    with pytest.raises(ValueError,
                       match=r"^sigma entry at 1 is not homogeneous$"):
        GradedBasis("sigma", 2, bad).check_triangular()
