"""Independent brute-force oracles and second routes for the test suite.

The brute-force oracles are deliberately self-contained (stdlib only, own
word order helpers) so the checks against the library are genuine
two-route comparisons: shuffle by interleaving enumeration, Lyndon tests
by both classical characterizations, standard sequences by their
definition, factorizations by exhaustive splitting, the classical stuffle
recursions at numeric contraction coefficients, the classical dual-PBW
(Radford) pipeline used as the q=0 reference, the dense division-free
inverse of a unit triangular matrix, the q-stuffle of polynomials by
enumeration of quasi-shuffles, the primitive projector by its defining
sum over tuples of words, and the pairing criterion of primitivity over
every ordered pair of words at every weight.

Second routes to library results are built from library parts by another
formula.  Next to the sequence helpers: the forward derivation trees, as
their leaves counted per path, which the converse derivation map must
match.  In the last section, on the public API (`+`, `scale`, `pairing`,
`coeff`, `terms` and the products): the increasing-letter recursion of the
dual elements, the divided stuffle powers folded over every Lyndon factor
of a word, products of PBW elements along a sequence, the truncated exp
and log series with the group-like test over every ordered pair of words,
the adjoint projector by its sum over deconcatenations, the closed formula
of the projected letters, the adjoint and letter forms of the
reconstruction identity, the outer product of two
polynomials, the slot product of the mixed tensor algebra, the log of the
diagonal series and its closed forms, and the decreasing product of
exponentials of the factorization folded factor by factor.  No command
runs these, so the library keeps none of them.
"""

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from qstuffle.bases import pbw_element
from qstuffle.coeff import QPoly
from qstuffle.eulerian import diagonal_series, primitive_projector
from qstuffle.lyndon import (cfl_factorization, legal_rises, lyndon_up_to,
                             standard_factorization)
from qstuffle.ncpoly import NCPoly, Tensor2, _accumulate, word_poly
from qstuffle.ops import stuffle, stuffle_poly
from qstuffle.words import word_key, word_less


def o_word_key(w):
    return tuple(-s for s in w)


def o_is_lyndon_suffix(w):
    """Nonempty and strictly smaller than all proper suffixes."""
    return bool(w) and all(o_word_key(w) < o_word_key(w[i:])
                           for i in range(1, len(w)))


def o_is_lyndon_rotation(w):
    """Nonempty and strictly minimal among its nontrivial rotations."""
    return bool(w) and all(o_word_key(w) < o_word_key(w[i:] + w[:i])
                           for i in range(1, len(w)))


@lru_cache(maxsize=None)
def brute_shuffle(u, v):
    """Multiset of interleavings, as a dict word -> multiplicity."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, m in brute_shuffle(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + m
    for w, m in brute_shuffle(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + m
    return out


@lru_cache(maxsize=None)
def classical_stuffle(u, v, c):
    """Stuffle recursion with a fixed numeric contraction coefficient c
    (c = 0 shuffle, 1 stuffle, -1 minus-stuffle); dict word -> Fraction."""
    if not u:
        return {v: Fraction(1)}
    if not v:
        return {u: Fraction(1)}
    out = {}

    def acc(d, letter, scale=Fraction(1)):
        for w, m in d.items():
            key = (letter,) + w
            s = out.get(key, Fraction(0)) + m * scale
            if s:
                out[key] = s
            else:
                out.pop(key, None)

    acc(classical_stuffle(u[1:], v, c), u[0])
    acc(classical_stuffle(u, v[1:], c), v[0])
    if c:
        acc(classical_stuffle(u[1:], v[1:], c), u[0] + v[0], Fraction(c))
    return out


def is_standard_sequence(seq):
    """Each entry is Lyndon, and each non-letter entry's right standard
    factor (its smallest proper suffix) is not smaller than any later
    entry."""
    if not seq:
        return False
    for i, l in enumerate(seq):
        if not o_is_lyndon_suffix(l):
            return False
        if len(l) > 1:
            right = min((l[j:] for j in range(1, len(l))), key=o_word_key)
            if any(o_word_key(right) < o_word_key(s) for s in seq[i + 1:]):
                return False
    return True


def standard_sequences(total_weight, max_len):
    """The standard sequences of at most max_len Lyndon words, of total
    weight <= total_weight."""
    singles = lyndon_up_to(total_weight)
    seqs = []
    pool = [()]
    for _ in range(max_len):
        pool = [s + (l,) for s in pool for l in singles
                if sum(map(sum, s)) + sum(l) <= total_weight]
        seqs.extend(pool)
    return [s for s in seqs if is_standard_sequence(s)]


def merge_at_rise(seq, i):
    """Replace entries i, i+1 by their concatenation (a Lyndon word)."""
    if i not in legal_rises(seq):
        raise ValueError("index %d is not a legal rise of %r" % (i, seq))
    merged = seq[i] + seq[i + 1]
    assert o_is_lyndon_suffix(merged)
    return seq[:i] + (merged,) + seq[i + 2:]


def swap_at_rise(seq, i):
    if i not in legal_rises(seq):
        raise ValueError("index %d is not a legal rise of %r" % (i, seq))
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]


def derivation_leaves(seq, policy=min):
    """The leaves of the derivation tree of a standard sequence, each
    counted once per path: expand at the legal rise that `policy` picks, by
    a merge (lambda) and a swap (rho), until no legal rise is left.  The
    merge shortens the sequence and the swap removes an ascending adjacent
    pair, so the expansion ends.  `lyndon.converse_tree` walks the same
    steps backwards, at the smallest legal rise."""
    lr = legal_rises(seq)
    if not lr:
        return Counter({seq: 1})
    i = policy(lr)
    return (derivation_leaves(merge_at_rise(seq, i), policy)
            + derivation_leaves(swap_at_rise(seq, i), policy))


def falls(seq):
    """Indices i with entries 0..i all letters and entry i > entry i+1.

    Swaps at falls and splits at landmarks stay inside the all-letters
    prefix, so a tree built from them misses sequences such as
    (3),(2),(2,1) under 3,2,1,2, which reach the tree by a swap at their
    smallest legal rise; `lyndon.converse_tree` inverts that step."""
    out = []
    for i in range(len(seq) - 1):
        if any(len(seq[j]) != 1 for j in range(i + 1)):
            break
        if word_less(seq[i + 1], seq[i]):
            out.append(i)
    return out


def landmarks(seq):
    """Indices i with entries 0..i-1 letters and entry i of length >= 2.

    At most one index qualifies: the first non-letter position.
    """
    for i in range(len(seq)):
        if len(seq[i]) >= 2:
            return [i]
    return []


def swap_at_fall(seq, i):
    if i not in falls(seq):
        raise ValueError("index %d is not a fall of %r" % (i, seq))
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]


def split_at_landmark(seq, i):
    if i not in landmarks(seq):
        raise ValueError("index %d is not a landmark of %r" % (i, seq))
    left, right = standard_factorization(seq[i])
    return seq[:i] + (left, right) + seq[i + 1:]


def all_cfl_factorizations(w):
    """Every way to write w as a weakly decreasing product of Lyndon words."""
    if not w:
        return [()]
    out = []
    for i in range(1, len(w) + 1):
        head = w[:i]
        if not o_is_lyndon_suffix(head):
            continue
        for rest in all_cfl_factorizations(w[i:]):
            if not rest or o_word_key(rest[0]) <= o_word_key(head):
                out.append((head,) + rest)
    return out


def _dict_shuffle(a, b):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            for w, m in brute_shuffle(u, v).items():
                s = out.get(w, Fraction(0)) + cu * cv * m
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
    return out


@lru_cache(maxsize=None)
def radford_dual(w):
    """Classical dual-PBW element (the q = 0 reference pipeline):
    peel the first letter on Lyndon words, divided shuffle powers of the
    Lyndon factors otherwise.  Returns a dict word -> Fraction."""
    if not w:
        return {(): Fraction(1)}
    if o_is_lyndon_suffix(w):
        return {(w[0],) + u: c for u, c in radford_dual(w[1:]).items()}
    factorizations = all_cfl_factorizations(w)
    assert len(factorizations) == 1, w
    grouped = []
    for f in factorizations[0]:
        if grouped and grouped[-1][0] == f:
            grouped[-1][1] += 1
        else:
            grouped.append([f, 1])
    out = {(): Fraction(1)}
    for f, mult in grouped:
        power = {(): Fraction(1)}
        for _ in range(mult):
            power = _dict_shuffle(power, radford_dual(f))
        power = {u: c / factorial(mult) for u, c in power.items()}
        out = _dict_shuffle(out, power)
    return out


def ncpoly_to_fraction_dict(p):
    """Collapse an NCPoly with constant (degree-0) coefficients."""
    out = {}
    for w, c in p.terms():
        assert c.degree() <= 0, "non-constant coefficient in %r" % p
        out[w] = c.constant_term()
    return out


def dense_invert_unit_upper(m, zero, one):
    """Inverse of a dense unit upper triangular matrix over any ring with
    the given zero and one, by division-free substitution column by column
    (the reference for the library's sparse, q-graded solve)."""
    size = len(m)
    inv = [[zero] * size for _ in range(size)]
    for i in range(size):
        inv[i][i] = one
    for j in range(size):
        for i in range(j - 1, -1, -1):
            acc = zero
            for k in range(i + 1, j + 1):
                if m[i][k] and inv[k][j]:
                    acc = acc + m[i][k] * inv[k][j]
            inv[i][j] = -acc
    return inv


def _quasi_shuffles(u, v):
    """Every quasi-shuffle of u and v as (word, number of contractions):
    positions 0..k-1 of the result are covered by the order-preserving
    images A of u and B of v, and a position in both holds the sum of the
    two letters."""
    m, n = len(u), len(v)
    for k in range(max(m, n), m + n + 1):
        for a in combinations(range(k), m):
            rest = [i for i in range(k) if i not in a]
            for b_extra in combinations(a, m + n - k):
                b = sorted(rest + list(b_extra))
                letters = [0] * k
                for i, s in zip(a, u):
                    letters[i] += s
                for i, s in zip(b, v):
                    letters[i] += s
                yield tuple(letters), m + n - k


def brute_q_stuffle_poly(p, r):
    """q-stuffle of two polynomials given as dicts word -> {q-exponent:
    Fraction}, by enumerating the quasi-shuffles of every pair of words
    (one factor of q per contraction); the same shape is returned."""
    out = {}
    for u, cu in p.items():
        for v, cv in r.items():
            for w, contractions in _quasi_shuffles(u, v):
                poly = out.setdefault(w, {})
                for e1, a in cu.items():
                    for e2, b in cv.items():
                        e = e1 + e2 + contractions
                        poly[e] = poly.get(e, Fraction(0)) + a * b
    return {w: {e: c for e, c in poly.items() if c}
            for w, poly in out.items()
            if any(poly.values())}


def _o_words_of_weight(n):
    """Every word of weight n: the compositions of n."""
    if not n:
        return [()]
    return [(a,) + rest for a in range(1, n + 1)
            for rest in _o_words_of_weight(n - a)]


@lru_cache(maxsize=None)
def _o_word_tuples(n):
    """Every ordered tuple of nonempty words of total weight n, paired with
    its iterated q-stuffle (by brute_q_stuffle_poly); kept per weight."""
    out = []
    for a in range(1, n + 1):
        for u in _o_words_of_weight(a):
            single = {u: {0: Fraction(1)}}
            if a == n:
                out.append(((u,), single))
            else:
                for tup, prod in _o_word_tuples(n - a):
                    out.append(((u,) + tup,
                                brute_q_stuffle_poly(single, prod)))
    return tuple(out)


def stuffle_power_by_fractions(p, k):
    """k-fold stuffle_poly from the unit, then divided by k!: the divided
    stuffle power with every intermediate product in Fractions."""
    out = NCPoly.one()
    for _ in range(k):
        out = stuffle_poly(out, p)
    return out.scale(Fraction(1, factorial(k)))


def projector_tuple_sum(w):
    """The primitive projector of a nonempty word w by its defining sum:
    ((-1)^(k-1)/k) <w | u_1 * ... * u_k> u_1 ... u_k over every k >= 1 and
    every tuple of nonempty words; a dict word -> {q-exponent: Fraction}."""
    out = {}
    for tup, prod in _o_word_tuples(sum(w)):
        c = prod.get(w)
        if not c:
            continue
        k = len(tup)
        scale = Fraction((-1) ** (k - 1), k)
        poly = out.setdefault(sum(tup, ()), {})
        for e, a in c.items():
            poly[e] = poly.get(e, Fraction(0)) + scale * a
    return {u: {e: c for e, c in poly.items() if c}
            for u, poly in out.items() if any(poly.values())}


def _o_pairing(p, r):
    """<p | r> for dicts word -> {q-exponent: Fraction}, as the same kind
    of dict over exponents, zeros dropped."""
    out = {}
    for w, cp in p.items():
        for e1, a in cp.items():
            for e2, b in r.get(w, {}).items():
                out[e1 + e2] = out.get(e1 + e2, 0) + a * b
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _o_word_stuffle(u, v):
    return brute_q_stuffle_poly({u: {0: Fraction(1)}}, {v: {0: Fraction(1)}})


def _o_word_pairs(n):
    """Every ordered pair of nonempty words of total weight 2..n."""
    for total in range(2, n + 1):
        for a in range(1, total):
            for u in _o_words_of_weight(a):
                for v in _o_words_of_weight(total - a):
                    yield u, v


def primitive_by_all_pairs(p, n):
    """The pairing criterion of primitivity as stated: <p | 1> = 0 (the
    counit) and <p | u * v> = 0 for every ordered pair of nonempty words
    u, v of total weight 2..n; p is a dict word -> {q-exponent: Fraction}."""
    return not any(p.get((), {}).values()) and not any(
        _o_pairing(p, _o_word_stuffle(u, v)) for u, v in _o_word_pairs(n))


# Second routes built from library parts.

def sigma_increasing(w, sigma_of):
    """Dual element of a Lyndon word with weakly increasing letters
    (weakly decreasing indices): peel letter prefixes with the contraction
    coefficient q^(i-1)/i!."""
    w = tuple(w)
    if not o_is_lyndon_suffix(w):
        raise ValueError("needs a Lyndon word")
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise ValueError("letters are not weakly increasing")
    acc = NCPoly.zero()
    for i in range(1, len(w) + 1):
        head = word_poly((sum(w[:i]),))
        acc = acc + (head * sigma_of(w[i:])).scale(
            QPoly.q(i - 1, Fraction(1, factorial(i))))
    return acc


def sigma_by_factor_chain(w, sigma_of):
    """Divided stuffle powers over the Lyndon factors of w: the stuffle
    product of sigma_of(f) over every factor f, repeats included, folded
    left to right and divided by m! per multiplicity m."""
    factors = cfl_factorization(tuple(w))
    acc = sigma_of(factors[0])
    for f in factors[1:]:
        acc = stuffle_poly(acc, sigma_of(f))
    divisor = prod(factorial(m) for m in Counter(factors).values())
    return acc.scale(Fraction(1, divisor))


def pi_of_sequence(seq):
    """Concatenation product of the PBW elements of a sequence of words."""
    acc = NCPoly.one()
    for l in seq:
        acc = acc * pbw_element(l)
    return acc


def exp_coefficient(k):
    """1/k!, the k-th coefficient of the exponential."""
    return Fraction(1, factorial(k))


def log_coefficient(k):
    """(-1)^(k-1)/k, the k-th coefficient of log(1 + x)."""
    return Fraction((-1) ** (k - 1), k)


def truncated_series(x, mul, coefficient, n, constant=False):
    """Sum of coefficient(k)·x^k for k = 1..n, plus one when `constant`;
    x^k = mul(x^(k-1), x), so `mul` carries the product and its weight
    bound.  Stops at the first power that vanishes."""
    power = type(x).one()
    acc = power if constant else type(x).zero()
    for k in range(1, n + 1):
        power = mul(power, x)
        if not power:
            break
        acc = acc + power.scale(coefficient(k))
    return acc


def exp_proper(p, mul=operator.mul, n=None):
    """Truncated exponential of a proper polynomial w.r.t. the given
    product mul(a, b) (concatenation by default), each power truncated at
    weight n."""
    if n is None:
        raise ValueError("a weight bound is required")
    p = p.truncate(n)
    if p.coeff(()):
        raise ValueError("exp needs a proper polynomial")
    return truncated_series(p, lambda a, b: mul(a, b).truncate(n),
                            exp_coefficient, n, constant=True)


def log_one_plus(s, mul=operator.mul, n=None):
    """Truncated logarithm of a series with constant term 1, each power
    truncated at weight n."""
    if n is None:
        raise ValueError("a weight bound is required")
    if s.coeff(()) != 1:
        raise ValueError("log needs constant term 1")
    return truncated_series((s - NCPoly.one()).truncate(n),
                            lambda a, b: mul(a, b).truncate(n),
                            log_coefficient, n)


def is_grouplike(s, n):
    """<s | u*v> = <s | u><s | v> for every ordered pair of nonempty words
    u, v of total weight 2..n; s needs constant term 1."""
    if s.coeff(()) != 1:
        raise ValueError("group-like test needs constant term 1")
    return all(s.pairing(stuffle(u, v)) == s.coeff(u) * s.coeff(v)
               for u, v in _o_word_pairs(n))


def _block_splits(w, k):
    """Splittings of w into k nonempty contiguous blocks."""
    for cuts in combinations(range(1, len(w)), k - 1):
        bounds = (0,) + cuts + (len(w),)
        yield tuple(w[i:j] for i, j in zip(bounds, bounds[1:]))


def _deconcatenation_sum(w, factor, coefficient):
    """Sum over k of coefficient(k) times the sum, over the splittings of w
    into k blocks b_1 ... b_k, of factor(b_1) * ... * factor(b_k)."""
    acc = NCPoly.zero()
    for k in range(1, len(w) + 1):
        for blocks in _block_splits(w, k):
            prod = NCPoly.one()
            for b in blocks:
                prod = stuffle_poly(prod, factor(b))
            acc = acc + prod.scale(coefficient(k))
    return acc


@lru_cache(maxsize=None)
def primitive_projector_adjoint(w):
    """Adjoint of the projector: sum over the deconcatenations of w into k
    blocks of ((-1)^(k-1)/k) times their iterated q-stuffle."""
    if not w:
        raise ValueError("the adjoint projector is defined on nonempty words")
    return _deconcatenation_sum(w, word_poly, log_coefficient)


def reconstruct_adjoint(w):
    """Rebuild w as sum_k (1/k!) sum over deconcatenations of the iterated
    stuffle of adjoint-projector values."""
    w = tuple(w)
    if not w:
        return NCPoly.one()
    return _deconcatenation_sum(w, primitive_projector_adjoint,
                                exp_coefficient)


def projector_letter_closed(s):
    """The projected letter y_s by its closed formula: only the contraction
    corrections survive, ((-1)^(k-1)/k) q^(k-1) w for every composition w
    of s into k parts."""
    return NCPoly({w: QPoly({len(w) - 1: Fraction((-1) ** (len(w) - 1),
                                                  len(w))})
                   for w in _o_words_of_weight(s)})


def letter_reconstruct(s):
    """The letter identity: y_s as the q-weighted sum over compositions of s
    of products of projected letters (by the closed formula)."""
    acc = NCPoly.zero()
    for w in _o_words_of_weight(s):
        k = len(w)
        prod = NCPoly.one()
        for j in w:
            prod = prod * projector_letter_closed(j)
        acc = acc + prod.scale(QPoly({k - 1: Fraction(1, factorial(k))}))
    return acc


def tensor_outer(p, q):
    """p ox q for NCPoly factors."""
    data = {}
    right = q._terms.items()
    for (u, e), a in p._terms.items():
        _accumulate(data, (((u, v, f), b) for (v, f), b in right), a, e)
    return Tensor2._raw(data, p._den * q._den)


def _mixed_product(bound):
    """The slot product of the mixed tensor algebra, (u ⊗ v)(x ⊗ y) =
    (u*x) ⊗ vy with the q-stuffle left and concatenation right, summed over
    the terms of both factors, keeping the terms of total weight <= bound."""
    def mul(a, b):
        data, right, stuffles = {}, b.terms(), {}
        for (u, v), c in a.terms():
            for (x, y), d in right:
                if sum(u + v + x + y) > bound:
                    continue
                if (u, x) not in stuffles:
                    stuffles[u, x] = stuffle(u, x).terms()
                cd = c * d
                for w, e in stuffles[u, x]:
                    data[w, v + y] = data.get((w, v + y), 0) + cd * e
        return Tensor2(data)
    return mul


def log_diagonal(n):
    """Truncated log of the diagonal series in the mixed tensor algebra."""
    return truncated_series(diagonal_series(n) - Tensor2.one(),
                            _mixed_product(2 * n), log_coefficient, n)


def log_diagonal_left_form(n):
    """Closed form of the log of the diagonal series: the sum of
    w ox projector(w) over the words of weight 1..n."""
    acc = Tensor2.zero()
    for k in range(1, n + 1):
        for w in _o_words_of_weight(k):
            acc = acc + tensor_outer(word_poly(w), primitive_projector(w))
    return acc


def log_diagonal_right_form(n):
    """Closed form: the sum of adjoint-projector(w) ox w."""
    acc = Tensor2.zero()
    for k in range(1, n + 1):
        for w in _o_words_of_weight(k):
            acc = acc + tensor_outer(primitive_projector_adjoint(w),
                                     word_poly(w))
    return acc


def exp_tensor(t, bound):
    """Exponential in the mixed tensor algebra (stuffle left, conc right),
    keeping the terms of total weight <= bound: the series of slot
    products."""
    return truncated_series(t, _mixed_product(bound), exp_coefficient, bound,
                            constant=True)


def exp_product_fold(sigma_of, n):
    """The decreasing product over the Lyndon words l of weight <= n of
    exp(sigma_of(l) ox pbw(l)), folded left to right by slot products and
    truncated at total weight 2n."""
    chain = Tensor2.one()
    for l in sorted(lyndon_up_to(n), key=word_key, reverse=True):
        factor = exp_tensor(tensor_outer(sigma_of(l), pbw_element(l)), 2 * n)
        chain = _mixed_product(2 * n)(chain, factor)
    return chain
