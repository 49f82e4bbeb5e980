"""Products, coproducts, the Friedrichs test and the bialgebra axioms of
the q-stuffle algebra.

The q-stuffle of two words follows the recursion

    y_s u * y_t v = y_s (u * y_t v) + y_t (y_s u * v) + q y_{s+t} (u * v)

with the empty word as unit; q is the formal generator of the coefficient
ring.  Dropping the contraction term gives the plain shuffle, kept as a
separate implementation so the q=0 specialization is a genuine check.
The concatenation bialgebra carries the dual coproduct (on letters:
y_s ox 1 + 1 ox y_s + q sum y_{s1} ox y_{s2} over s1+s2=s), with the
deconcatenation coproduct on the stuffle side.  The word-level kernels
run on the int codes of `words.encode_word`.  The truncated exp and log
series and the group-like test are test routes in tests/oracles.py.
"""

from functools import lru_cache

from .ncpoly import (NCPoly, Tensor2, _accumulate, _pairings, _product,
                     _word_index, word_poly)
from .words import codes_of_weight, word_code
from .report import Report


def stuffle(u, v):
    """q-stuffle of two words (tuples or codes), as an NCPoly."""
    u, v = word_code(u), word_code(v)
    return _stuffle(u, v) if u <= v else _stuffle(v, u)  # commutative


def _headed(p, top, shift=0):
    """The terms of p with the bit `top` set in every word and every
    q-exponent raised by shift: a letter prepended to each word, when the
    letter and the homogeneous p weigh n together and top = 1 << (n - 1)."""
    return (((x | top, e + shift), a) for (x, e), a in p._terms.items())


def _rest(u):
    """The code u without its first letter."""
    return u ^ 1 << (u.bit_length() - 1)


@lru_cache(maxsize=None)
def _stuffle(u, v):
    if not u or not v:
        return word_poly(u | v)
    top = 1 << (u.bit_length() + v.bit_length() - 1)
    acc = _accumulate({}, _headed(stuffle(_rest(u), v), top))
    _accumulate(acc, _headed(stuffle(u, _rest(v)), top))
    # the contraction carries one q
    _accumulate(acc, _headed(stuffle(_rest(u), _rest(v)), top, 1))
    return NCPoly._raw(acc)


def shuffle(u, v):
    """Plain shuffle of two words (tuples or codes); independent recursion."""
    return _shuffle(word_code(u), word_code(v))


@lru_cache(maxsize=None)
def _shuffle(u, v):
    if not u or not v:
        return word_poly(u | v)
    top = 1 << (u.bit_length() + v.bit_length() - 1)
    acc = _accumulate({}, _headed(_shuffle(_rest(u), v), top))
    return NCPoly._raw(_accumulate(acc, _headed(_shuffle(u, _rest(v)), top)))


def stuffle_poly(p, q):
    """Bilinear extension of the q-stuffle to polynomials."""
    return _product(stuffle, [p, q])


def shuffle_poly(p, q):
    return _product(shuffle, [p, q])


@lru_cache(maxsize=None)
def _deconcat_word(w):
    """u ox v for every splitting w = uv: v is the low i bits of the code,
    a word when i = 0 or bit i - 1 (where a letter starts) is set."""
    return Tensor2._raw({(w >> i, w & ((1 << i) - 1), 0): 1
                         for i in range(w.bit_length() + 1)
                         if not i or w >> (i - 1) & 1})


def _linear(word_map, p):
    """The linear extension to the polynomial p of a map word code ->
    Tensor2; on a word p, a tuple or its code, the map's value itself."""
    if isinstance(p, (int, tuple)):
        return word_map(word_code(p))
    acc = {}
    for (w, e), c in p._terms.items():
        _accumulate(acc, word_map(w)._terms.items(), c, e)
    return Tensor2._raw(acc, p._den)


def deconcat_coproduct(p):
    """Sum over all splittings w = uv of u ox v, extended linearly.  On a
    word it returns the cached (shared, immutable) value itself."""
    return _linear(_deconcat_word, p)


@lru_cache(maxsize=None)
def _stuffle_coproduct_letter(s):
    data = {(1 << (s - 1), 0, 0): 1, (0, 1 << (s - 1), 0): 1}
    for s1 in range(1, s):
        data[(1 << (s1 - 1), 1 << (s - s1 - 1), 1)] = 1
    return Tensor2._raw(data)


@lru_cache(maxsize=None)
def _stuffle_coproduct_word(w):
    """Delta(y_s r) = Delta(y_s)·Delta(r), slotwise: the coproduct of the
    first letter times the cached coproduct of the rest of the code w."""
    if not w:
        return Tensor2.one()
    rest = _rest(w)
    first = _stuffle_coproduct_letter(w.bit_length() - rest.bit_length())
    return first.combine(_stuffle_coproduct_word(rest))


def stuffle_coproduct(p):
    """Dual coproduct of the q-stuffle; a conc-morphism on words.  On a
    word it returns the cached (shared, immutable) value itself."""
    return _linear(_stuffle_coproduct_word, p)


def _primitive_by_coproduct(p):
    """Delta(p) == p ox 1 + 1 ox p, compared in ints: the difference of the
    two sides, built from the int terms of p (its denominator is common to
    both), vanishes."""
    diff = {}
    get = diff.get
    for (w, e), c in p._terms.items():
        for (u, v, f), d in stuffle_coproduct(w)._terms.items():
            key = (u, v, e + f)
            diff[key] = get(key, 0) + c * d
        for key in ((w, 0, e), (0, w, e)):
            diff[key] = get(key, 0) - c
    return not any(diff.values())


def _word_pairs(total):
    """Each unordered pair {u, v} of nonempty word codes of total weight
    `total` once, u <= v.  stuffle(u, v) and stuffle(v, u) are one cached
    value, so the swapped pair would repeat the same test."""
    for a in range(1, total // 2 + 1):
        vs = codes_of_weight(total - a)
        for u in codes_of_weight(a):
            for v in (range(u, vs.stop) if 2 * a == total else vs):
                yield u, v


def _primitive_by_pairing(ps):
    """For each polynomial p of the list `ps`: <p | 1> = 0 (the counit) and
    <p | u*v> = 0 for all nonempty u, v.  One `ncpoly._word_index` holds
    the int terms of every p_i (without its denominator: the same zeros);
    u*v is homogeneous, so each stuffle(u, v) of a weight present in the
    index is one `_pairings` call."""
    index = _word_index(ps)
    ok = [True] * len(ps)
    for i, _, _ in index.get(0, ()):
        ok[i] = False
    for total in {w.bit_length() for w in index}:
        for u, v in _word_pairs(total):
            for i, _ in _pairings(index, stuffle(u, v)):
                ok[i] = False
    return ok


def are_primitive(ps):
    """Friedrichs test of each polynomial of the list `ps`, whole: through
    the coproduct, element by element, and through the pairing criterion,
    once for the list; the two must agree on each."""
    verdicts = [_primitive_by_coproduct(p) for p in ps]
    for p, by_cop, by_pair in zip(ps, verdicts, _primitive_by_pairing(ps)):
        if by_cop != by_pair:
            raise RuntimeError("primitivity criteria disagree on %r "
                               "(coproduct=%s, pairing=%s)"
                               % (p, by_cop, by_pair))
    return verdicts


def is_primitive(p, n):
    """Friedrichs test of p up to weight n: are_primitive([p.truncate(n)])."""
    return are_primitive([p.truncate(n)])[0]


def verify_axioms(n):
    """Bialgebra axioms at desk scale: commutativity and associativity of the
    q-stuffle for total weight <= n, coassociativity of both coproducts, and
    the product/coproduct duality pairings."""
    rep = Report("axioms (N=%d)" % n)

    pairs = [(u, v) for a in range(1, n) for b in range(1, n - a + 1)
             for u in codes_of_weight(a) for v in codes_of_weight(b)]
    # stuffle() serves both orders from one cache entry: recompute the
    # other order through the uncached recursion
    bad = sum(1 for u, v in pairs
              if stuffle(u, v) != _stuffle.__wrapped__(v, u))
    rep.tally("stuffle commutativity (%d pairs)" % len(pairs), len(pairs),
              bad)

    triples = [(u, v, w)
               for a in range(1, n - 1) for b in range(1, n - a)
               for c in range(1, n - a - b + 1)
               for u in codes_of_weight(a) for v in codes_of_weight(b)
               for w in codes_of_weight(c)]
    bad = 0
    for u, v, w in triples:
        lhs = stuffle_poly(stuffle(u, v), word_poly(w))
        rhs = stuffle_poly(word_poly(u), stuffle(v, w))
        if lhs != rhs:
            bad += 1
    rep.tally("stuffle associativity (%d triples)" % len(triples),
              len(triples), bad)

    bad = 0
    words = range(1, 1 << n)  # the codes of the words of weight 1..n
    for w in words:
        for cop in (stuffle_coproduct, deconcat_coproduct):
            if not _coassociative_on(cop, w):
                bad += 1
    rep.add("coassociativity of both coproducts (%d words)" % len(words),
            bad == 0)

    # <u*v | w> against <u ox v | Delta(w)> for both dualities, as maps
    # (u, v, w, e) -> a over the nonempty u, v
    products = {(u, v, w, e): a for u, v in pairs
                for (w, e), a in stuffle(u, v)._terms.items()}
    concatenations = {(u, v, u << v.bit_length() | v, 0): 1 for u, v in pairs}

    def split(cop):
        return {(u, v, w, e): a for w in words
                for (u, v, e), a in cop(w)._terms.items() if u and v}

    checked = sum(1 << (u.bit_length() + v.bit_length() - 1)
                  for u, v in pairs)
    rep.tally("product/coproduct duality (%d pairings)" % checked, checked,
              products != split(stuffle_coproduct)
              or concatenations != split(deconcat_coproduct))
    return rep


def _coassociative_on(cop, w):
    """(cop ox id) cop(w) == (id ox cop) cop(w), as an int difference."""
    diff = {}
    get = diff.get
    for (u, v, e), c in cop(w)._terms.items():
        for (x, y, f), d in cop(u)._terms.items():
            key = (x, y, v, e + f)
            diff[key] = get(key, 0) + c * d
        for (x, y, f), d in cop(v)._terms.items():
            key = (u, x, y, e + f)
            diff[key] = get(key, 0) - c * d
    return not any(diff.values())

