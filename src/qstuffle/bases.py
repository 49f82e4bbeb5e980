"""Dual bases of the q-stuffle algebra and their verification suites.

Four graded families indexed by words, one row of `KINDS` each:

  * pbw_element       -- bracketed Lyndon elements and their decreasing
                         products (unit upper triangular, "pi" kind);
  * dual_pbw_*        -- the dual family (unit lower triangular, "sigma"),
                         computed either by an exact triangular solve per
                         weight class (the oracle) or by the recursive
                         formulas (divided stuffle powers on the Lyndon
                         factors, a sum over the converse derivation map
                         on a Lyndon word, a letter included);
  * lyndon_stuffle_element -- divided stuffle powers of the raw Lyndon
                         factors ("chi", unit lower triangular): the
                         divided-power step of the recursive dual family
                         applied to plain words;
  * its dual ("xi", unit upper triangular, primitive on Lyndon words).

`basis_by_kind` is the one constructor of a basis.  It builds each family
through `_checked_basis`, from an element function or from the triangular
solve of one; `GradedBasis.check_triangular`, the one owner of a family's
shape, checks each family built and the solve's input.  The Lyndon PBW
elements on letters are the letters under the projector of `eulerian`;
the primitivity suite checks them and the projector on every word, each
family as one list through `ops.are_primitive`.

The factorization suite expands the decreasing product of exponentials
into one pure tensor per word, by distributivity and the uniqueness of the
Chen-Fox-Lyndon factorization (`factorization_forms`).

The triangular solve inverts each weight class in ints, one inverse column
packed into one big int and read out as the dual entry at its word
(`_invert_unit_upper`).  It is the oracle of `basis sigma`: the default
Σ of `basis_by_kind` is the oracle checked word by word against the
recursion, and the first mismatch in word order is a RuntimeError.  The
verification suites run no solve and check no shape: each is a function
of N alone that reads Π from `pbw_element` and Σ from `dual_pbw_element`
by module name at call time, as that check does, so the duality suite
checks the recursion against Π, and a test swaps Σ by patching
`bases.dual_pbw_element`.
"""
import json
from collections import namedtuple
from functools import lru_cache
from math import factorial, gcd, lcm

from ._version import __version__
from .eulerian import (diagonal_series, primitive_projector,
                       primitive_projector_letter)
from .lyndon import (cfl_factorization, converse_tree, is_lyndon,
                     lyndon_up_to, standard_factorization)
from .ncpoly import (NCPoly, Tensor2, _pairings, _product, _product_into,
                     _weighted_sum, _word_index, word_poly)
from .ops import are_primitive, stuffle
from .report import Report
from .words import (all_words_up_to, decode_word, encode_word, weight,
                    word_latex, word_leq, word_to_str, words_of_weight)


@lru_cache(maxsize=None)
def pbw_element(w):
    """Basis element of the concatenation algebra attached to w: the
    projected letter for a letter, the bracket of the standard factors for
    a longer Lyndon word, the first Lyndon factor's element times the
    cached element of the rest in general; carried in ints, over the
    product of the factors' denominators."""
    if not w:
        return NCPoly.one()
    first = cfl_factorization(w)[0]
    if len(first) < len(w):
        return _product(None, [pbw_element(first),
                               pbw_element(w[len(first):])])
    if len(w) == 1:
        return primitive_projector_letter(w[0])
    a, b = (pbw_element(f) for f in standard_factorization(w))
    acc = _product_into(_product_into({}, None, a._terms, b._terms),
                        None, b._terms, a._terms, -1)
    return NCPoly._raw(acc, a._den * b._den)


Kind = namedtuple("Kind", "upper label macro")
# each basis kind: unit upper (else lower) triangular, text label, LaTeX macro
KINDS = {"pi": Kind(True, "Pi", "\\Pi"),
         "sigma": Kind(False, "Sigma", "\\Sigma"),
         "chi": Kind(False, "Chi", "\\chi"),
         "xi": Kind(True, "Xi", "\\xi")}


class GradedBasis:
    """A graded family word -> NCPoly for all words of weight <= max_weight."""

    def __init__(self, kind, max_weight, entries):
        if kind not in KINDS:
            raise ValueError("unknown basis kind %r" % kind)
        self.kind = kind
        self.max_weight = max_weight
        self.entries = dict(entries)

    def entry(self, w):
        return self.entries[tuple(w)]

    def words(self):
        return all_words_up_to(self.max_weight, include_empty=True)

    def check_triangular(self):
        """The family's shape, else a ValueError naming the first entry to
        break it: 1 at the empty word, every other entry homogeneous, unit
        triangular in its kind's direction, and each term a*q^e with e the
        letters gained (upper kinds) or lost (lower kinds) from the entry's
        word, as the q-stuffle trades one letter for one q."""
        up = KINDS[self.kind].upper
        if self.entries[()] != NCPoly.one():
            raise ValueError("entry at the empty word must be 1")
        for w in self.words():
            if not w:
                continue
            p, c = self.entries[w], encode_word(w)
            w_weight, w_length = c.bit_length(), c.bit_count()
            for v, e in p._terms:
                if v.bit_length() != w_weight:
                    raise ValueError("%s entry at %s is not homogeneous"
                                     % (self.kind, word_to_str(w)))
                # within a weight, code order is word order
                if v != c and up != (v > c):
                    raise ValueError("%s entry at %s breaks triangularity at %s"
                                     % (self.kind, word_to_str(w),
                                        word_to_str(decode_word(v))))
                grade = (v.bit_count() - w_length) * (1 if up else -1)
                if e != grade:
                    raise ValueError("%s entry at %s has q-exponent %d at %s, "
                                     "not %d, one q per letter %s" % (
                                         self.kind, word_to_str(w), e,
                                         word_to_str(decode_word(v)), grade,
                                         "gained" if up else "lost"))
            if p._terms.get((c, 0)) != p._den:
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

    def rows(self, fmt, q_value=None):
        """Yields one row per nonempty word, in the format `fmt` ("text" or
        "latex"); with q_value, every entry is specialized at q = q_value."""
        kind = KINDS[self.kind]
        if fmt not in ("text", "latex"):
            raise ValueError("unknown row format %r" % fmt)
        for w, p in self._specialized(q_value):
            if not w:
                continue
            if fmt == "text":
                yield "%s[%s] = %s" % (kind.label, word_to_str(w), p.text())
            else:
                yield "%s_{%s} &=& %s\\\\" % (kind.macro, word_latex(w),
                                               p.latex())


def _checked_basis(kind, n, element, dual_of=None):
    """The basis `kind` up to weight n from element(w) for every word, or,
    when `dual_of` names the kind of that family, from its dual by the
    triangular solve; its shape is checked before it is returned.
    `element` is passed in at call time, so a rebinding of a module-level
    element function is always seen.  A built family that fails its shape
    check is a failed computation (a RuntimeError), not refused input."""
    entries = {(): NCPoly.one()}
    for w in all_words_up_to(n):
        entries[w] = element(w)
    try:
        if dual_of is not None:
            entries = _dual_by_triangular_solve(entries, n, dual_of)
        basis = GradedBasis(kind, n, entries)
        basis.check_triangular()
    except ValueError as exc:
        raise RuntimeError(exc) from exc
    return basis


def _invert_unit_upper(columns):
    """Inverse of a unit upper triangular rational matrix A, given by its
    strictly upper columns: columns[j] lists (i, a, d) for each entry
    A[i][j] = a/d.  Forward substitution from the first column, inv_j =
    e_j - sum_i a_ij inv_i (as inv·A = I), with each inverse column packed
    into one int of W-bit slots (Kronecker substitution): one big-int
    multiply-add per a_ij.  W starts at 64 and doubles, for the whole
    class, while a slot may overflow.  Column j of the inverse is its
    numerators at rows 0, 1, ..., j, reduced by their gcd; the last, on the
    diagonal, is their denominator."""
    width = 64
    while (inv := _packed_inverse(columns, width)) is None:
        width *= 2
    return inv


def _packed_inverse(columns, width):
    """`_invert_unit_upper` with W = `width` (a multiple of 8) bits per
    slot, or None when a column is not provably exact.  Row i lies in slot
    i, so a column ends at its diagonal.  A column is decoded only once
    den + sum |scale_i|·max|inv_i| < 2^(W-1) bounds every slot: adding
    2^(W-1) to each slot and flipping its top bit back then leaves the
    slot's value as a signed W-bit field, with no borrow between slots."""
    size, step = len(columns), width // 8
    half = 1 << (width - 1)
    offset = half * ((1 << width * size) - 1) // ((1 << width) - 1)
    packed, peak, inv = [0] * size, [0] * size, [None] * size
    for j, column in enumerate(columns):
        den = lcm(*(d * inv[i][-1] for i, _, d in column))
        acc, bound = den << width * j, den
        for i, a, d in column:
            scale = a * (den // (d * inv[i][-1]))
            acc -= scale * packed[i]
            bound += abs(scale) * peak[i]
        if bound >= half:
            return None
        raw = ((acc + offset) ^ offset).to_bytes(step * (j + 1), "little")
        nums = [int.from_bytes(raw[b:b + step], "little", signed=True)
                for b in range(0, step * (j + 1), step)]
        g = gcd(*nums)  # nums[j] = den > 0
        nums = [c // g for c in nums]
        packed[j], peak[j], inv[j] = acc // g, max(map(abs, nums)), nums
    return inv


def _dual_by_triangular_solve(elements, n, kind):
    """Entries dual to `elements` (a map word -> NCPoly, a family of kind
    `kind`), built per weight class by inverting its unit triangular matrix.

    The solve reads a family that `GradedBasis.check_triangular` has
    checked, so each coefficient is a monomial a*q^e with e = |len v - len
    w| in one direction.  The matrix of a weight class is then M = D^-1 A D
    with D = diag(q^(+-len)) and A rational, so M^-1 = D^-1 A^-1 D: only A
    is inverted, and q is restored from the set bits of the two words'
    codes, one per letter.  Column j of A holds the int terms at word j of
    the other elements, each over its element's denominator; the dual entry
    at word j is column j of A^-1, in ints over its own denominator."""
    GradedBasis(kind, n, {**elements, (): NCPoly.one()}).check_triangular()
    order = 1 if KINDS[kind].upper else -1  # a lower family read as upper
    entries = {(): NCPoly.one()}
    for k in range(1, n + 1):
        ws = words_of_weight(k)[::order]
        index = {encode_word(w): i for i, w in enumerate(ws)}
        codes = list(index)
        lengths = [c.bit_count() for c in codes]
        columns = [[] for _ in ws]
        for i, w in enumerate(ws):
            p = elements[w]
            for (v, _), a in p._terms.items():
                if v != codes[i]:
                    columns[index[v]].append((i, a, p._den))
        for w, length, nums in zip(ws, lengths, _invert_unit_upper(columns)):
            entries[w] = NCPoly._raw(
                {(code, abs(length - other)): c
                 for code, other, c in zip(codes, lengths, nums) if c},
                nums[-1])
    return entries


def dual_pbw_oracle(n):
    """The dual family of the PBW elements via exact triangular solve."""
    return _checked_basis("sigma", n, pbw_element, dual_of="pi")


def sigma_from_cfl(w, lyndon_of, rest_of):
    """Divided stuffle powers over the Lyndon factors of the nonempty word
    w (a tuple): lyndon_of(w) at a Lyndon word, else rest_of(l) ⋆
    rest_of(r) / m for the first factor l, the rest r and the multiplicity
    m of l, as rest_of(r) carries (m-1)! where a power of l leads; so a
    memoized rest_of runs lyndon_of once per Lyndon word."""
    factors = cfl_factorization(w)
    first = factors[0]
    if len(factors) == 1:
        return lyndon_of(w)
    return _product(stuffle, [rest_of(first), rest_of(w[len(first):])],
                    factors.count(first))


def sigma_lyndon_general(w):
    """Dual element of any Lyndon word via the converse derivation map.

    The map holds every sequence that derives to (w) under the
    smallest-rise policy, with its number of derivation paths.  Each such
    sequence T splits as a letters-prefix of length i >= 1 followed by a
    weakly decreasing tail of Lyndon words; each split contributes
    q^(i-1)/i! times the contracted letter times the dual element of the
    concatenated tail, once per derivation path.  The recursion is as
    stated by Bui, Duchamp, Hoang Ngoc Minh, Ngo and Tollu (J. Symbolic
    Comput. 75, 2016, arXiv:1312.5296), not quoted from PAPER.md, which
    holds only the abstract.
    """
    w = tuple(w)
    if not is_lyndon(w):
        raise ValueError("needs a Lyndon word")
    top = 1 << (weight(w) - 1)  # a tail with its contracted letter weighs w
    parts = []
    for seq, paths in converse_tree((w,)).items():
        for i in range(1, len(seq) + 1):
            if len(seq[i - 1]) != 1:
                break
            tail = seq[i:]
            if any(not word_leq(tail[t + 1], tail[t])
                   for t in range(len(tail) - 1)):
                continue
            sigma = dual_pbw_element(sum(tail, ()))
            parts.append((paths, factorial(i) * sigma._den, i - 1,
                          (((x | top, f), b)
                           for (x, f), b in sigma._terms.items())))
    return _weighted_sum(NCPoly, parts)


@lru_cache(maxsize=None)
def dual_pbw_element(w):
    """Recursive dual element: divided stuffle powers over the Lyndon
    factorization, the converse derivation map on each Lyndon word."""
    if not w:
        return NCPoly.one()
    return sigma_from_cfl(w, sigma_lyndon_general, dual_pbw_element)


@lru_cache(maxsize=None)
def lyndon_stuffle_element(w):
    """Divided stuffle powers of the raw Lyndon factors of w ("chi")."""
    return sigma_from_cfl(w, word_poly, lyndon_stuffle_element)


SIGMA_METHODS = ("oracle", "recursive", "both")


def basis_by_kind(kind, n, sigma_method=None):
    """The basis `kind` (a key of KINDS) up to weight n, its shape checked
    by `check_triangular`.  `sigma_method` applies to sigma only: "oracle"
    is the triangular solve, "recursive" the recursion, and the default
    (None or "both") the oracle checked against the recursion; a mismatch
    there is a RuntimeError naming the first word at which the two differ."""
    if kind not in KINDS:
        raise ValueError("unknown basis kind %r" % kind)
    if sigma_method is not None and kind != "sigma":
        raise ValueError("--sigma-method does not apply to basis %s" % kind)
    if sigma_method not in (None,) + SIGMA_METHODS:
        raise ValueError("unknown sigma method %r" % sigma_method)
    if kind == "pi":
        return _checked_basis("pi", n, pbw_element)
    if kind == "chi":
        return _checked_basis("chi", n, lyndon_stuffle_element)
    if kind == "xi":  # its Lyndon entries are primitive
        return _checked_basis("xi", n, lyndon_stuffle_element, dual_of="chi")
    if sigma_method == "recursive":
        return _checked_basis("sigma", n, dual_pbw_element)
    basis = dual_pbw_oracle(n)
    if sigma_method == "oracle":
        return basis
    for w in basis.words():  # in word order: the first mismatch is fatal
        oracle, recursive = basis.entries[w], dual_pbw_element(w)
        if recursive != oracle:
            raise RuntimeError(
                "sigma method mismatch at %s:\n  oracle:    %s\n  recursive: "
                "%s" % (word_to_str(w), oracle.text(), recursive.text()))
    return basis


def verify_duality(n):
    """<dual_pbw_element(v) | pbw_element(u)> is 1 exactly when u = v, for
    weights <= n.

    One `ncpoly._word_index` over the PBW family; each row is the
    `_pairings` of one dual element with it, keyed by list position, so
    only pairs sharing a word are ever multiplied.  A pair fails when its
    entries differ from the identity's (the symmetric difference of the
    two sets of items).

    The rows hold ints: with d the denominator of the dual element and d_u
    that of pbw(u), the entry at (v, u) is d·d_u times the pairing, and on
    the diagonal the identity reads d·d_v."""
    rep = Report("duality (N=%d)" % n)
    words = all_words_up_to(n)
    pbw = [pbw_element(w) for w in words]
    index = _word_index(pbw)
    weights = [weight(w) for w in words]
    bad = [0] * (n + 1)  # failed pairs per weight
    cross_bad = 0
    for v, w in enumerate(words):  # u and v are list positions from here on
        p, k = dual_pbw_element(w), weights[v]
        identity = {((v, 0), p._den * pbw[v]._den)}
        for u in {u for (u, _), _ in _pairings(index, p).items() ^ identity}:
            if weights[u] == k:
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
    """Lyndon PBW elements and projected words to weight n are primitive."""
    rep = Report("primitivity (N=%d)" % n)
    for label, ws, element in (
            ("pbw elements of Lyndon words", lyndon_up_to(n), pbw_element),
            ("projected words", all_words_up_to(n), primitive_projector)):
        ok = are_primitive([element(w) for w in ws])
        bad = [word_to_str(w) for w, good in zip(ws, ok) if not good]
        rep.add("%s (%d)" % (label, len(ws)), not bad,
                "failures: %s" % bad if bad else "")
    return rep


def _pair_sum(left_of, n):
    """1⊗1 plus the sum of left_of(w) ⊗ pbw_element(w) over the words w of
    weight 1..n, carried in ints over the lcm of the products of the
    factors' denominators."""
    pairs = [(left_of(w), pbw_element(w)) for w in all_words_up_to(n)]
    den = lcm(*(s._den * p._den for s, p in pairs))
    acc = {(0, 0, 0): den}
    get = acc.get
    for s, p in pairs:
        c = den // (s._den * p._den)
        for (u, e), a in s._terms.items():
            a *= c
            for (v, f), b in p._terms.items():
                key = (u, v, e + f)
                acc[key] = get(key, 0) + a * b
    return Tensor2._raw({k: a for k, a in acc.items() if a}, den)


def factorization_forms(n):
    """The three truncated expressions: the diagonal series, the dual-pair
    sum, and the decreasing product of exponentials over Lyndon words, with
    Σ from `dual_pbw_element` and Π from `pbw_element`.

    The product is not multiplied out.  (a⊗b)(c⊗d) = (a*c)⊗(bd) in the
    mixed tensor algebra and exp(σ_l⊗π_l) = Σ_k σ_l^{*k}/k! ⊗ π_l^k, so by
    distributivity the product is a sum over one exponent k_l per Lyndon
    word l.  By the uniqueness of the Chen-Fox-Lyndon factorization the
    choices are the words w = l_1^k_1...l_m^k_m, each giving
    sigma_from_cfl(w) ⊗ pbw_element(w), of total weight 2·weight(w)
    (Reutenauer, *Free Lie Algebras*, Thm 5.3).  Memoized per call, these
    read Σ at Lyndon words only.  Both sums are `_pair_sum`.
    """
    @lru_cache(maxsize=None)
    def exp_factor(w):
        return sigma_from_cfl(w, dual_pbw_element, exp_factor)
    return (diagonal_series(n), _pair_sum(dual_pbw_element, n),
            _pair_sum(exp_factor, n))


def verify_factorization(n):
    """Each form of `factorization_forms(n)` against the diagonal series."""
    rep = Report("factorization (N=%d)" % n)
    diag, mid, prod = factorization_forms(n)
    rep.add("dual-pair sum equals the diagonal series", mid == diag)
    rep.add("decreasing product of exponentials equals the diagonal series",
            prod == diag)
    return rep
