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

The last section holds second routes to library results that are built
from library parts by another formula: products of PBW elements along a
sequence, the adjoint and letter forms of the reconstruction identity,
the closed forms of the log of the diagonal series, and the decreasing
product of exponentials of the factorization folded factor by factor.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from qstuffle.bases import pbw_element
from qstuffle.coeff import QPoly
from qstuffle.eulerian import (primitive_projector, primitive_projector_adjoint,
                               primitive_projector_letter)
from qstuffle.lyndon import lyndon_up_to, standard_factorization
from qstuffle.ncpoly import (NCPoly, Tensor2, exp_coefficients, tensor_outer,
                             truncated_series, word_poly)
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


def largest_rise_policy(indices):
    """The derivation-tree policy that expands the last legal rise."""
    return max(indices)


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


def primitive_by_all_pairs(p, n):
    """The pairing criterion of primitivity as stated: <p | 1> = 0 (the
    counit) and <p | u * v> = 0 for every ordered pair of nonempty words
    u, v of total weight 2..n; p is a dict word -> {q-exponent: Fraction}."""
    if any(p.get((), {}).values()):
        return False
    for total in range(2, n + 1):
        for a in range(1, total):
            for u in _o_words_of_weight(a):
                for v in _o_words_of_weight(total - a):
                    if _o_pairing(p, _o_word_stuffle(u, v)):
                        return False
    return True


# Second routes built from library parts.

def pi_of_sequence(seq):
    """Concatenation product of the PBW elements of a sequence of words."""
    acc = NCPoly.one()
    for l in seq:
        acc = acc * pbw_element(l)
    return acc


def _block_splits(w, k):
    """Splittings of w into k nonempty contiguous blocks."""
    for cuts in combinations(range(1, len(w)), k - 1):
        bounds = (0,) + cuts + (len(w),)
        yield tuple(w[i:j] for i, j in zip(bounds, bounds[1:]))


def reconstruct_adjoint(w):
    """Rebuild w as sum_k (1/k!) sum over deconcatenations of the iterated
    stuffle of adjoint-projector values."""
    w = tuple(w)
    if not w:
        return NCPoly.one()
    acc = NCPoly.zero()
    for k in range(1, len(w) + 1):
        for blocks in _block_splits(w, k):
            prod = primitive_projector_adjoint(blocks[0])
            for b in blocks[1:]:
                prod = stuffle_poly(prod, primitive_projector_adjoint(b))
            acc = acc + prod.scale(Fraction(1, factorial(k)))
    return acc


def letter_reconstruct(s):
    """The letter identity: y_s as the q-weighted sum over compositions of s
    of products of projected letters."""
    acc = NCPoly.zero()
    for w in _o_words_of_weight(s):
        k = len(w)
        prod = NCPoly.one()
        for j in w:
            prod = prod * primitive_projector_letter(j)
        acc = acc + prod.scale(QPoly({k - 1: Fraction(1, factorial(k))}))
    return acc


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
    return truncated_series(
        t, lambda a, b: a.combine(b, left_mul=stuffle, max_total=bound),
        exp_coefficients(bound), constant=True)


def exp_product_fold(sigma_of, n):
    """The decreasing product over the Lyndon words l of weight <= n of
    exp(sigma_of(l) ox pbw(l)), folded left to right by slot products and
    truncated at total weight 2n."""
    chain = Tensor2.one()
    for l in sorted(lyndon_up_to(n), key=word_key, reverse=True):
        factor = exp_tensor(tensor_outer(sigma_of(l), pbw_element(l)), 2 * n)
        chain = chain.combine(factor, left_mul=stuffle, max_total=2 * n)
    return chain
