"""Dual bases of the q-stuffle algebra and their verification suites.

Four graded families indexed by words:

  * pbw_element       -- bracketed Lyndon elements and their decreasing
                         products (unit upper triangular, "pi" kind);
  * dual_pbw_*        -- the dual family (unit lower triangular, "sigma"),
                         computed either by an exact triangular solve per
                         weight class (the oracle) or by the recursive
                         formulas (divided stuffle powers on the Lyndon
                         factors, a sum over the converse derivation tree
                         on a Lyndon word);
  * lyndon_stuffle_element -- divided stuffle powers of the raw Lyndon
                         factors ("chi", unit lower triangular): the
                         divided-power step of the recursive dual family
                         applied to plain words;
  * its dual ("xi", unit upper triangular, primitive on Lyndon words).

Every basis is built by one helper, `_checked_basis`, from an element
function or from the triangular solve of one, and is checked unit
triangular.  The Lyndon PBW elements on letters are the projected letters;
the primitivity suite also checks the general projector of `eulerian`,
each family as one list through `ops.are_primitive`.

The factorization suite expands the decreasing product of exponentials
into one pure tensor per word, by distributivity and the uniqueness of the
Chen-Fox-Lyndon factorization (`factorization_forms`).

The triangular solve is the authority for the dual family; the recursive
computations must agree with it.  `sigma_mismatches` is the one comparison
of the two, and any mismatch it finds is a hard error in `verify_methods`
and in the CLI's both-methods mode.
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from ._version import __version__
from .coeff import rational
from .eulerian import (diagonal_series, primitive_projector,
                       primitive_projector_letter)
from .lyndon import (cfl_factorization, cfl_grouped, converse_tree,
                     is_lyndon, lyndon_up_to, standard_factorization)
from .ncpoly import (NCPoly, Tensor2, _accumulate, _divided, _integral,
                     _product_into, word_poly)
from .ops import are_primitive, stuffle_poly, stuffle_power_divided
from .report import Report
from .words import (all_words_up_to, weight, word_key, word_latex, word_leq,
                    word_to_str, words_of_weight)


@lru_cache(maxsize=None)
def pbw_element(w):
    """Basis element of the concatenation algebra attached to w: the
    projected letter for a letter, the bracket of the standard factors for
    a longer Lyndon word, the product over the decreasing Lyndon
    factorization in general; carried in ints, with the product of the
    factors' scales divided out once."""
    w = tuple(w)
    if not w:
        return NCPoly.one()
    if is_lyndon(w):
        if len(w) == 1:
            return primitive_projector_letter(w[0])
        (da, a), (db, b) = (_integral(pbw_element(f))
                            for f in standard_factorization(w))
        acc = _product_into(_product_into({}, None, a, b), None, b, a, -1)
        return NCPoly._raw(_divided(acc, da * db))
    factors = [_integral(pbw_element(f)) for f in cfl_factorization(w)]
    den, acc = factors[0]
    for d, terms in factors[1:]:
        acc = _product_into({}, None, acc, terms)
        den *= d
    return NCPoly._raw(_divided(acc, den))


class GradedBasis:
    """A graded family word -> NCPoly for all words of weight <= max_weight."""

    TRIANGULAR_UP = {"pi", "xi"}
    TRIANGULAR_DOWN = {"sigma", "chi"}

    def __init__(self, kind, max_weight, entries):
        if kind not in self.TRIANGULAR_UP | self.TRIANGULAR_DOWN:
            raise ValueError("unknown basis kind %r" % kind)
        self.kind = kind
        self.max_weight = max_weight
        self.entries = dict(entries)

    def entry(self, w):
        return self.entries[tuple(w)]

    def words(self):
        return all_words_up_to(self.max_weight, include_empty=True)

    def check_triangular(self):
        """Unit triangularity and weight homogeneity; raises on violation."""
        up = self.kind in self.TRIANGULAR_UP
        if self.entries[()] != NCPoly.one():
            raise ValueError("entry at the empty word must be 1")
        for w in self.words():
            if not w:
                continue
            p = self.entries[w]
            lead_ok = p._terms.get((w, 0)) == 1
            w_weight, w_key = weight(w), word_key(w)
            for v, e in p._terms:
                if v == w:
                    lead_ok = lead_ok and not e
                    continue
                if weight(v) != w_weight:
                    raise ValueError("%s entry at %s is not homogeneous"
                                     % (self.kind, word_to_str(w)))
                if up != (word_key(v) > w_key):
                    raise ValueError("%s entry at %s breaks triangularity at %s"
                                     % (self.kind, word_to_str(w),
                                        word_to_str(v)))
            if not lead_ok:
                raise ValueError("%s entry at %s lacks unit leading term"
                                 % (self.kind, word_to_str(w)))

    def _specialized(self, q_value):
        """(word, entry) for every word in order; with q_value, each entry
        is specialized at q = q_value as it is reached."""
        for w in self.words():
            p = self.entries[w]
            yield w, p if q_value is None else p.subs_q(q_value)

    def to_json(self, q_value=None):
        """The basis as JSON data; with q_value, every entry is specialized
        at q = q_value and the value is recorded under "q"."""
        data = {
            "kind": self.kind,
            "max_weight": self.max_weight,
            "generator_version": "qstuffle %s" % __version__,
            "entries": {word_to_str(w): p.to_json()
                        for w, p in self._specialized(q_value)},
        }
        if q_value is not None:
            data["q"] = str(q_value)
        return data

    def json_chunks(self, q_value=None):
        """The text of `json.dumps(self.to_json(q_value), indent=2)`, one
        piece at a time: the scalar keys, one chunk per entry, then "q"
        (with q_value) and the closing brace.  No value the size of the
        document is built."""
        head = json.dumps({"kind": self.kind, "max_weight": self.max_weight,
                           "generator_version": "qstuffle %s" % __version__},
                          indent=2)
        yield head[:-2] + ',\n  "entries": {'  # head without its "\n}"
        words = {}  # the indented word lists of json_text
        sep = "\n    "
        for w, p in self._specialized(q_value):
            yield "%s%s: %s" % (sep, json.dumps(word_to_str(w)),
                                p.json_text(words))
            sep = ",\n    "
        tail = "\n  }"
        if q_value is not None:
            tail += ',\n  "q": %s' % json.dumps(str(q_value))
        yield tail + "\n}"

    def text_rows(self, q_value=None):
        """Yields one text row per nonempty word; with q_value, every entry
        is specialized at q = q_value."""
        label = {"pi": "Pi", "sigma": "Sigma", "chi": "Chi",
                 "xi": "Xi"}[self.kind]
        for w, p in self._specialized(q_value):
            if w:
                yield "%s[%s] = %s" % (label, word_to_str(w), p.text())

    def latex_rows(self, q_value=None):
        """Yields one LaTeX row per nonempty word; with q_value, every entry
        is specialized at q = q_value."""
        macro = {"pi": "\\Pi", "sigma": "\\Sigma", "chi": "\\chi",
                 "xi": "\\xi"}[self.kind]
        for w, p in self._specialized(q_value):
            if w:
                yield "%s_{%s} &=& %s\\\\" % (macro, word_latex(w),
                                               p.latex())


def _checked_basis(kind, n, element, dual_of=None):
    """The basis `kind` up to weight n from element(w) for every word, or,
    when `dual_of` names the kind of that family, from its dual by the
    triangular solve; unit triangularity is checked before it is returned.
    `element` is passed in at call time, so a rebinding of a module-level
    element function is always seen."""
    entries = {(): NCPoly.one()}
    for w in all_words_up_to(n):
        entries[w] = element(w)
    if dual_of is not None:
        entries = _dual_by_triangular_solve(entries, n, dual_of)
    basis = GradedBasis(kind, n, entries)
    basis.check_triangular()
    return basis


def pi_basis(n):
    return _checked_basis("pi", n, pbw_element)


def _invert_unit_upper(rows):
    """Inverse of a unit upper triangular rational matrix given by its
    strictly upper rows {column: Fraction}, one per row.

    Back-substitution from the last row, inv_i = e_i - sum_k a_ik inv_k.
    Each inverse row is returned as (numerators {column: int}, denominator)
    over one common denominator, reduced by the gcd of all its entries."""
    inv = [None] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        terms = [(a, inv[k]) for k, a in rows[i].items()]
        den = 1
        for a, (_, d) in terms:
            den = lcm(den, a.denominator * d)
        acc = {i: den}
        for a, (nums, d) in terms:
            scale = a.numerator * (den // (a.denominator * d))
            for j, c in nums.items():
                acc[j] = acc.get(j, 0) - scale * c
        g = gcd(den, *acc.values())
        inv[i] = ({j: c // g for j, c in acc.items() if c}, den // g)
    return inv


def _dual_by_triangular_solve(elements, n, kind):
    """Entries dual to `elements` (a map word -> NCPoly), built per weight
    class by inverting the unit triangular coefficient matrix.

    Every coefficient must be a monomial a*q^e (one exponent per word) with
    e = |len v - len w|, and len v - len w must keep one sign over the
    family (the q-stuffle trades one letter for one factor of q).  The
    matrix of a weight class is then M = D^-1 A D with D = diag(q^(+-len))
    and A rational, so M^-1 = D^-1 A^-1 D: only A is inverted, and q is
    restored from the lengths of the two words."""
    upper = kind in GradedBasis.TRIANGULAR_UP
    entries = {(): NCPoly.one()}
    direction = 0  # sign of len v - len w over the family, once seen
    for k in range(1, n + 1):
        ws = list(words_of_weight(k))
        if not upper:
            ws.reverse()  # present the lower triangular case as upper
        index = {w: i for i, w in enumerate(ws)}
        rows = []
        for i, w in enumerate(ws):
            row = {}  # column -> (word, q-exponent, rational)
            for (v, e), a in elements[w]._terms.items():
                j = index.get(v)
                if j is None or j < i:
                    raise ValueError(
                        "family is not unit triangular at %s (term %s)"
                        % (word_to_str(w), word_to_str(v)))
                if j in row:
                    raise ValueError(
                        "family entry at %s has a coefficient at %s that is "
                        "not a monomial" % (word_to_str(w), word_to_str(v)))
                row[j] = (v, e, a)
            for j, (v, e, a) in row.items():
                shift = len(v) - len(w)
                if e != abs(shift):
                    raise ValueError(
                        "family entry at %s has q-exponent %d at %s, not the "
                        "length difference %d"
                        % (word_to_str(w), e, word_to_str(v), abs(shift)))
                if shift:
                    if shift * direction < 0:
                        raise ValueError(
                            "family mixes both directions of length change "
                            "(entry at %s, term %s)"
                            % (word_to_str(w), word_to_str(v)))
                    direction = shift
                row[j] = a
            if row.pop(i, None) != 1:
                raise ValueError("family lacks unit diagonal at %s"
                                 % word_to_str(w))
            rows.append(row)
        # dual of row family with matrix M is given by columns of M^-1
        columns = [{} for _ in ws]
        for i, (nums, den) in enumerate(_invert_unit_upper(rows)):
            v = ws[i]
            for j, c in nums.items():
                columns[j][(v, abs(len(v) - len(ws[j])))] = \
                    rational(Fraction(c, den))
        for w, data in zip(ws, columns):
            entries[w] = NCPoly._raw(data)
    return entries


def dual_pbw_oracle(n):
    """The dual family of the PBW elements via exact triangular solve."""
    return _checked_basis("sigma", n, pbw_element, dual_of="pi")


def sigma_from_cfl(w, sigma_of):
    """Dual element of a word from the divided stuffle powers of the dual
    elements of its decreasing Lyndon factorization."""
    w = tuple(w)
    if not w:
        return NCPoly.one()
    (factor, mult), *rest = cfl_grouped(w)
    acc = stuffle_power_divided(sigma_of(factor), mult)
    for factor, mult in rest:
        acc = stuffle_poly(acc, stuffle_power_divided(sigma_of(factor), mult))
    return acc


def sigma_increasing(w, sigma_of):
    """Dual element of a Lyndon word with weakly increasing letters
    (weakly decreasing indices): peel letter prefixes with the contraction
    coefficient q^(i-1)/i!."""
    w = tuple(w)
    if not is_lyndon(w):
        raise ValueError("needs a Lyndon word")
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise ValueError("letters are not weakly increasing")
    acc = {}
    for i in range(1, len(w) + 1):
        _add_headed(acc, sum(w[:i]), i, sigma_of(w[i:]))
    return NCPoly._raw(acc)


def _add_headed(acc, s, i, tail):
    """acc += q^(i-1)/i! · y_s · tail, in place."""
    _accumulate(acc, ((((s,) + x, f), b) for (x, f), b in tail._terms.items()),
                Fraction(1, factorial(i)), i - 1)


def sigma_lyndon_general(w, sigma_of):
    """Dual element of any Lyndon word via the converse derivation tree.

    The tree holds all sequences that derive to (w) under the smallest-rise
    policy.  Every node occurrence T (occurrences count derivation paths)
    splits as a letters-prefix of length i >= 1 followed by a weakly
    decreasing tail of Lyndon words; each split contributes q^(i-1)/i!
    times the contracted letter times the dual element of the concatenated
    tail.  The recursion is as stated by Bui, Duchamp, Hoang Ngoc Minh, Ngo
    and Tollu (J. Symbolic Comput. 75, 2016, arXiv:1312.5296), not quoted
    from PAPER.md, which holds only the abstract.
    """
    w = tuple(w)
    if not is_lyndon(w):
        raise ValueError("needs a Lyndon word")
    acc = {}
    for node in converse_tree((w,)).nodes():
        seq = node.seq
        for i in range(1, len(seq) + 1):
            if len(seq[i - 1]) != 1:
                break
            tail = seq[i:]
            if any(not word_leq(tail[t + 1], tail[t])
                   for t in range(len(tail) - 1)):
                continue
            _add_headed(acc, sum(x[0] for x in seq[:i]), i,
                        sigma_of(sum(tail, ())))
    return NCPoly._raw(acc)


@lru_cache(maxsize=None)
def dual_pbw_element(w):
    """Recursive dual element: divided stuffle powers over the Lyndon
    factorization, converse derivation trees on Lyndon words."""
    w = tuple(w)
    if not w:
        return NCPoly.one()
    if is_lyndon(w):
        if len(w) == 1:
            return word_poly(w)
        return sigma_lyndon_general(w, dual_pbw_element)
    return sigma_from_cfl(w, dual_pbw_element)


@lru_cache(maxsize=None)
def lyndon_stuffle_element(w):
    """Divided stuffle powers of the raw Lyndon factors of w ("chi")."""
    return sigma_from_cfl(w, word_poly)


def chi_basis(n):
    return _checked_basis("chi", n, lyndon_stuffle_element)


def xi_basis(n):
    """Dual of the chi family via triangular solve; Lyndon entries are
    primitive."""
    return _checked_basis("xi", n, lyndon_stuffle_element, dual_of="chi")


def basis_by_kind(kind, n, sigma_method="oracle"):
    if kind == "pi":
        return pi_basis(n)
    if kind == "chi":
        return chi_basis(n)
    if kind == "xi":
        return xi_basis(n)
    if kind == "sigma":
        if sigma_method == "recursive":
            return _checked_basis("sigma", n, dual_pbw_element)
        return dual_pbw_oracle(n)
    raise ValueError("unknown basis kind %r" % kind)


def verify_duality(n, sigma=None):
    """<dual(v) | pbw(u)> is 1 exactly when u = v, for weights <= n, with
    the dual family `sigma` (by default the triangular solve).

    One sparse product of the transposed dual family with the PBW family:
    each word x is indexed to the u with x in supp pbw(u), so only pairs
    sharing a word are ever multiplied.  A pair counts as failed when its
    entry of the product differs from the identity's.

    The product runs in ints: each dual element is scaled by the lcm d of
    its denominators and each PBW element pbw(u) by its own lcm d_u, so the
    entry at (v, u) is d·d_u times the pairing, and on the diagonal the
    identity reads d·d_v."""
    rep = Report("duality (N=%d)" % n)
    if sigma is None:
        sigma = dual_pbw_oracle(n)
    words = all_words_up_to(n)
    containing = {}  # word x -> [((u, e), a)] for the terms a*q^e*x of pbw u
    scale = {}  # u -> d_u, the lcm of the denominators of pbw(u)
    for u in words:
        scale[u], terms = _integral(pbw_element(u))
        for (x, e), a in terms.items():
            containing.setdefault(x, []).append(((u, e), a))
    bad = [0] * (n + 1)  # failed pairs per weight
    cross_bad = 0
    for v in words:
        row = {}  # (u, e) -> d·d_u · (q^e coefficient of <dual(v)|pbw(u)>)
        d, terms = _integral(sigma.entry(v))
        for (x, e), c in terms.items():
            _accumulate(row, containing.get(x, ()), c, e)
        k = weight(v)
        diagonal_ok = row.pop((v, 0), None) == d * scale[v]
        others = {u for u, _ in row}
        if v in others or not diagonal_ok:
            others.discard(v)
            bad[k] += 1
        for u in others:
            if weight(u) == k:
                bad[k] += 1
            else:
                cross_bad += 1
    sizes = [len(words_of_weight(k)) for k in range(1, n + 1)]
    for k, size in enumerate(sizes, 1):
        rep.add("weight %d (%d pairs)" % (k, size ** 2), bad[k] == 0)
    cross_total = len(words) ** 2 - sum(size ** 2 for size in sizes)
    rep.tally("cross-weight pairs vanish (%d pairs)" % cross_total,
              cross_total, cross_bad)
    return rep


def verify_primitivity(n):
    """Lyndon PBW elements and projected words are primitive up to n."""
    rep = Report("primitivity (N=%d)" % n)
    for label, ws, element in (
            ("pbw elements of Lyndon words", lyndon_up_to(n), pbw_element),
            ("projected words", all_words_up_to(n), primitive_projector)):
        ok = are_primitive([element(w) for w in ws], n)
        bad = [word_to_str(w) for w, good in zip(ws, ok) if not good]
        rep.add("%s (%d)" % (label, len(ws)), not bad,
                "failures: %s" % bad if bad else "")
    return rep


def _pair_sum(left_of, n):
    """1⊗1 plus the sum of left_of(w) ⊗ pbw_element(w) over the words w of
    weight 1..n, carried in ints: each pair of factors is scaled to ints,
    the sum is accumulated over one common denominator and divided out once
    at the end."""
    scaled = [(_integral(left_of(w)), _integral(pbw_element(w)))
              for w in all_words_up_to(n)]
    den = lcm(*(ds * dp for (ds, _), (dp, _) in scaled))
    acc = {((), (), 0): den}
    for (ds, s_terms), (dp, p_terms) in scaled:
        c = den // (ds * dp)
        for (u, e), a in s_terms.items():
            _accumulate(acc, (((u, v, e + f), b)
                              for (v, f), b in p_terms.items()), a * c)
    return Tensor2._raw(_divided(acc, den))


def factorization_forms(n, sigma=None):
    """The three truncated expressions: the diagonal series, the dual-pair
    sum, and the decreasing product of exponentials over Lyndon words, with
    the dual family `sigma` (by default the triangular solve).

    The product is not multiplied out.  (a⊗b)(c⊗d) = (a*c)⊗(bd) in the
    mixed tensor algebra and exp(σ_l⊗π_l) = Σ_k σ_l^{*k}/k! ⊗ π_l^k, so by
    distributivity the product is a sum over one exponent k_l per Lyndon
    word l.  By the uniqueness of the Chen-Fox-Lyndon factorization the
    choices are the words w = l_1^k_1...l_m^k_m, each giving
    sigma_from_cfl(w) ⊗ pbw_element(w), of total weight 2·weight(w)
    (Reutenauer, *Free Lie Algebras*, Thm 5.3).  Both sums are `_pair_sum`.
    """
    if sigma is None:
        sigma = dual_pbw_oracle(n)
    return (diagonal_series(n), _pair_sum(sigma.entry, n),
            _pair_sum(lambda w: sigma_from_cfl(w, sigma.entry), n))


def verify_factorization(n, sigma=None):
    rep = Report("factorization (N=%d)" % n)
    diag, mid, prod = factorization_forms(n, sigma)
    rep.add("dual-pair sum equals the diagonal series", mid == diag)
    rep.add("decreasing product of exponentials equals the diagonal series",
            prod == diag)
    return rep


def sigma_mismatches(sigma):
    """(w, recursive entry) for every word w of the oracle basis `sigma`,
    in word order, where the recursive dual element differs from the
    oracle's entry; lazily, so a caller may stop at the first."""
    for w in sigma.words():
        recursive = dual_pbw_element(w)
        if recursive != sigma.entry(w):
            yield w, recursive


def verify_methods(n):
    """Recursive dual elements against the triangular-solve oracle; any
    mismatch is reported (and is treated as a hard failure by callers)."""
    rep = Report("method equivalence (N=%d)" % n)
    sigma = dual_pbw_oracle(n)
    words = all_words_up_to(n)
    bad = [w for w, _ in sigma_mismatches(sigma)]
    rep.add("recursive vs oracle (%d words)" % len(words), not bad,
            "mismatches: %s" % [word_to_str(w) for w in bad] if bad else "")
    increasing = [w for w in words
                  if is_lyndon(w)
                  and all(w[i] >= w[i + 1] for i in range(len(w) - 1))]
    bad = [w for w in increasing
           if sigma_increasing(w, dual_pbw_element) != sigma.entry(w)]
    rep.add("increasing-letter recursion vs oracle (%d words)"
            % len(increasing), not bad)
    return rep

