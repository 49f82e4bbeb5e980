"""Sparse noncommutative polynomials over Q[q], and their tensor squares.

`NCPoly` is an element of the free algebra on the alphabet, stored as a
flat map (word, e) -> a for its terms a·q^e·word; `Tensor2`, the analogous
element of the tensor square used for coproducts and the truncated
diagonal series, maps (u, v, e) -> a.  Every a is a nonzero int when
integral and a Fraction otherwise (`coeff.rational`), so the products of
the q-stuffle algebra add exponents and multiply plain rationals.  Words
are orthonormal for the canonical pairing.  Both classes are canonical (no
stored zero coefficient) and treated as immutable.

`QPoly` appears only at the boundary: the constructors and `scale` accept
it, and `coeff`, `pairing`, `constant_term` and `terms` return it.  A value
holds its term dict and nothing else; a lookup by word groups the terms it
needs (`_by_head`) afresh on each call.

The sums of both classes go through one kernel, `_accumulate`, and the
products of polynomials through its int-only counterpart `_product_into`.
Both write only into a dict that their caller has just created: the term
dicts of cached values (every `lru_cache` of the package hands out shared
objects) are read, never written.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import itemgetter

from .coeff import QPoly, _join_signed, poly_latex, poly_text, qterms, rational
from .words import weight, word_key, word_to_str, word_latex


def _accumulate(acc, terms, c=1, shift=0):
    """acc[k] += c·v for every pair (k, v) of `terms`, in place; returns acc.

    `acc` is a plain dict owned by the caller, never the term dict of a
    shared value.  `terms` yields flat keys, (w, e) or (u, v, e), and
    nonzero values in the stored form; a nonzero `shift` raises every
    exponent e by that much.  `c` (an int or Fraction) multiplies every v,
    and is skipped when it is one.  A sum that cancels is dropped, and an
    integral Fraction is stored as an int."""
    if not c:
        return acc
    scaled = c != 1
    get = acc.get
    for k, v in terms:
        if shift:
            k = (k[0], k[1] + shift) if len(k) == 2 else \
                (k[0], k[1], k[2] + shift)
        if scaled:  # a Fraction goes first: int * Fraction is the slow path
            v = c * v if v.__class__ is int else v * c
            if v.__class__ is Fraction and v.denominator == 1:
                v = v.numerator
        s = get(k)
        if s is None:
            acc[k] = v
        else:
            s = v + s if s.__class__ is int else s + v
            if not s:
                del acc[k]
            elif s.__class__ is Fraction and s.denominator == 1:
                acc[k] = s.numerator
            else:
                acc[k] = s
    return acc


def _integral(x):
    """(d, terms): the terms of x times the lcm d of the denominators of
    its coefficients, all ints.  A bilinear sum over integral terms runs in
    int arithmetic, and `_divided` restores the scale once per result."""
    d = 1
    for a in x._terms.values():
        if a.__class__ is Fraction:
            d = lcm(d, a.denominator)
    if d == 1:
        return 1, x._terms
    return d, {k: a.numerator * (d // a.denominator)
               for k, a in x._terms.items()}


def _divided(acc, d):
    """The int terms of acc divided by the int d, in the stored form."""
    if d == 1:
        return acc
    return {k: Fraction(a, d) if a % d else a // d for k, a in acc.items()}


def _product_into(acc, word_prod, p_terms, q_terms, c=1, max_weight=None):
    """acc += c·(p·q) in place, all in ints, under a word-level product (a
    map (word, word) -> NCPoly with int coefficients; None is
    concatenation); returns acc without the terms that cancel.  With
    max_weight, a pair of words whose weights sum past it is skipped."""
    get = acc.get
    right = [(v, f, b, weight(v)) for (v, f), b in q_terms.items()]
    for (u, e), a in p_terms.items():
        room = None if max_weight is None else max_weight - weight(u)
        ac = a * c
        for v, f, b, v_weight in right:
            if room is not None and v_weight > room:
                continue
            if word_prod is None:
                k = (u + v, e + f)
                acc[k] = get(k, 0) + ac * b
                continue
            s, abc = e + f, ac * b
            for (x, g), t in word_prod(u, v)._terms.items():
                k = (x, g + s)
                acc[k] = get(k, 0) + abc * t
    for k in [k for k, a in acc.items() if not a]:
        del acc[k]
    return acc


def _bilinear(word_prod, p, q, max_weight=None):
    """Bilinear extension of a word-level product (see `_product_into`) to
    the polynomials p and q, carried in ints."""
    dp, p_terms = _integral(p)
    dq, q_terms = _integral(q)
    return NCPoly._raw(_divided(
        _product_into({}, word_prod, p_terms, q_terms, 1, max_weight),
        dp * dq))


def exp_coefficients(n):
    """1/k! for k = 1..n."""
    return [Fraction(1, factorial(k)) for k in range(1, n + 1)]


def log_coefficients(n):
    """(-1)^(k-1)/k for k = 1..n."""
    return [Fraction((-1) ** (k - 1), k) for k in range(1, n + 1)]


def truncated_series(x, mul, coeffs, constant=False):
    """Sum of c_k·x^k over the coefficients c_1, c_2, ... of `coeffs`, plus
    one when `constant`; x^k = mul(x^(k-1), x) from x^0 = one, so `mul`
    carries the product and its weight bound.  Stops at the first power
    that vanishes."""
    cls = type(x)
    acc = dict(cls.one()._terms) if constant else {}
    power = cls.one()
    for c in coeffs:
        power = mul(power, x)
        if not power:
            break
        _accumulate(acc, power._terms.items(), c)
    return cls._raw(acc)


class _Sparse:
    """Flat term dict shared by NCPoly and Tensor2: a key is the word, or
    the pair of words, followed by the q-exponent."""

    __slots__ = ("_terms",)

    @classmethod
    def _raw(cls, data):
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def zero(cls):
        return cls._raw({})

    def _set(self, data):
        """Fill the term dict from a map head -> QPoly | int | Fraction."""
        terms = {}
        for head, c in data.items():
            for e, a in qterms(c):
                if a:
                    terms[head + (e,)] = rational(a)
        self._terms = terms

    def _by_head(self):
        """A fresh map head -> {e: a} of the terms a·q^e under each head
        (the word, or the pair of words)."""
        out = {}
        head = self._head
        for k, a in self._terms.items():
            out.setdefault(head(k), {})[k[-1]] = a
        return out

    def _pair_with(self, grouped):
        """The canonical pairing (words, and pairs of words, orthonormal)
        with the value of the same class grouped as `grouped` by
        `_by_head`, as {e: a} with every a nonzero."""
        acc = {}
        head = self._head
        for k, a in self._terms.items():
            d = grouped.get(head(k))
            if d is not None:
                e = k[-1]
                for f, b in d.items():
                    acc[e + f] = acc.get(e + f, 0) + a * b
        return {e: a for e, a in acc.items() if a}

    def _grouped(self):
        """(head, [(e, a), ...]) per head, ascending by the word order of
        the head, exponents ascending."""
        out = []
        for k, a in sorted(self._terms.items(), key=self._order):
            head = self._head(k)
            if out and out[-1][0] == head:
                out[-1][1].append((k[-1], a))
            else:
                out.append((head, [(k[-1], a)]))
        return out

    def terms(self):
        """Pairs (head, QPoly coefficient) ascending by word_less on the
        word, or on the pair of words, of the head."""
        return [(h, QPoly(dict(pairs))) for h, pairs in self._grouped()]

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._raw(_accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return self._raw({k: -a for k, a in self._terms.items()})

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._raw(_accumulate(dict(self._terms), other._terms.items(),
                                     -1))

    def scale(self, c):
        """self · c for a QPoly, int or Fraction c."""
        acc = {}
        items = self._terms.items()
        for e, a in qterms(c):
            _accumulate(acc, items, a, e)
        return self._raw(acc)

    def truncate(self, n):
        """Drop all terms of (total) weight > n."""
        key_weight = self._weight
        return self._raw({k: a for k, a in self._terms.items()
                          if key_weight(k) <= n})


class NCPoly(_Sparse):
    """Element of the free algebra: flat map (word, q-exponent) -> rational."""

    __slots__ = ()

    _head = staticmethod(itemgetter(0))

    @staticmethod
    def _weight(k):
        return weight(k[0])

    @staticmethod
    def _order(item):
        return word_key(item[0][0]), item[0][1]

    def __init__(self, terms=None):
        """From a map word -> QPoly | int | Fraction."""
        self._set({(tuple(w),): c for w, c in (terms or {}).items()})

    @classmethod
    def one(cls):
        return cls._raw({((), 0): 1})

    def support(self):
        return {k[0] for k in self._terms}

    def coeff(self, w):
        return QPoly(self._by_head().get(tuple(w)))

    def __mul__(self, other):
        """Concatenation product (bilinear extension); scalars also accepted."""
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return _bilinear(None, self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        return NotImplemented

    def prepend_letter(self, s):
        """y_s * self, done without the generic product loop."""
        return NCPoly._raw({((s,) + w, e): a
                            for (w, e), a in self._terms.items()})

    def pairing(self, other):
        """Canonical pairing: words are orthonormal."""
        small, large = sorted((self, other), key=len)
        return QPoly(large._pair_with(small._by_head()))

    def constant_term(self):
        """Coefficient of the empty word."""
        return QPoly({k[1]: a for k, a in self._terms.items() if not k[0]})

    def is_proper(self):
        return all(k[0] for k in self._terms)

    def proper_part(self):
        return NCPoly._raw({k: a for k, a in self._terms.items() if k[0]})

    def subs_q(self, q0):
        """Specialize q at the rational q0: every exponent folds into 0."""
        q0 = rational(Fraction(q0))
        return NCPoly._raw(_accumulate(
            {}, (((w, 0), rational(a * q0 ** e))
                 for (w, e), a in self._terms.items() if q0 or not e)))

    def to_json(self):
        return [{"word": list(w),
                 "coeff": [{"qpow": e, "coeff": str(a)} for e, a in pairs]}
                for w, pairs in self._grouped()]

    def json_text(self, words):
        """The text of `json.dumps(self.to_json(), indent=2)` nested two
        levels deep, as an entry of `GradedBasis.json_chunks`: every line
        after the first is indented by 4 more spaces.  `words`, a dict the
        caller keeps, holds the indented list of each word across calls."""
        if not self._terms:
            return "[]"
        pad = "\n    "
        item = pad + "  {" + pad + '    "word": %s,' + pad \
            + '    "coeff": [%s' + pad + "    ]" + pad + "  }"
        qterm = pad + "      {" + pad + '        "qpow": %d,' + pad \
            + '        "coeff": "%s"' + pad + "      }"
        items = []
        for w, pairs in self._grouped():
            word = words.get(w)
            if word is None:
                word = ("[" + ",".join(pad + "      %d" % s for s in w)
                        + pad + "    ]") if w else "[]"
                words[w] = word
            items.append(item % (word, ",".join([qterm % (e, a)
                                                 for e, a in pairs])))
        return "[" + ",".join(items) + pad + "]"

    @classmethod
    def from_json(cls, data):
        return cls({tuple(item["word"]): QPoly.from_json(item["coeff"])
                    for item in data})

    def _render(self, word_str, poly_str, wrap, times):
        """Terms joined by signs: a coefficient with several q-powers is
        wrapped, and a coefficient of 1 or -1 is left out before a word."""
        if not self._terms:
            return "0"
        parts = []
        for w, pairs in self._grouped():
            c = poly_str(pairs) if len(pairs) == 1 else wrap % poly_str(pairs)
            if not w:
                parts.append(c)
            elif pairs == [(0, 1)]:
                parts.append(word_str(w))
            elif pairs == [(0, -1)]:
                parts.append("-" + word_str(w))
            else:
                parts.append(c + times + word_str(w))
        return _join_signed(parts)

    def text(self):
        return self._render(lambda w: "[%s]" % ",".join(map(str, w)),
                            poly_text, "(%s)", "·")

    def latex(self):
        return self._render(word_latex, poly_latex, "\\left(%s\\right)", "")

    def __repr__(self):
        return "NCPoly(%s)" % self.text()


def word_poly(w):
    return NCPoly._raw({(tuple(w), 0): 1})


class Tensor2(_Sparse):
    """Element of the tensor square: flat map (word, word, q-exponent) ->
    rational."""

    __slots__ = ()

    _head = staticmethod(itemgetter(0, 1))

    @staticmethod
    def _weight(k):
        return weight(k[0]) + weight(k[1])

    @staticmethod
    def _order(item):
        u, v, e = item[0]
        return word_key(u), word_key(v), e

    def __init__(self, terms=None):
        """From a map (word, word) -> QPoly | int | Fraction."""
        self._set({(tuple(u), tuple(v)): c
                   for (u, v), c in (terms or {}).items()})

    @classmethod
    def one(cls):
        return cls._raw({((), (), 0): 1})

    def coeff(self, u, v):
        return QPoly(self._by_head().get((tuple(u), tuple(v))))

    def combine(self, other, left_mul=None, max_total=None):
        """Slotwise product: the left slots multiplied by the given
        word-level product (a map (word, word) -> NCPoly; None is
        concatenation), the right slots concatenated.  Optionally truncates
        terms whose combined slot weight exceeds max_total.

        The terms of `other` are sorted once by their summed slot weight,
        so the inner loop stops at the first one past the room left by a
        term of `self`."""
        acc = {}
        d_self, self_terms = _integral(self)
        d_other, other_terms = _integral(other)
        weighted = sorted(((weight(x) + weight(y), x, y, f, d)
                           for (x, y, f), d in other_terms.items()),
                          key=itemgetter(0))
        for (u, v, e), c in self_terms.items():
            room = None if max_total is None else \
                max_total - weight(u) - weight(v)
            for xy_weight, x, y, f, d in weighted:
                if room is not None and xy_weight > room:
                    break
                left = (((u + x, 0), 1),) if left_mul is None else \
                    left_mul(u, x)._terms.items()
                vy, s = v + y, e + f
                _accumulate(acc, (((a, vy, g + s), ca) for (a, g), ca in left),
                            c * d)
        return Tensor2._raw(_divided(acc, d_self * d_other))

    def pairing(self, p, q):
        """Sum over (u, v) of coeff(u, v) * <p|u> * <q|v>."""
        return QPoly(tensor_outer(p, q)._pair_with(self._by_head()))

    def to_json(self):
        return [{"left": list(u), "right": list(v),
                 "coeff": [{"qpow": e, "coeff": str(a)} for e, a in pairs]}
                for (u, v), pairs in self._grouped()]

    @classmethod
    def from_json(cls, data):
        return cls({(tuple(item["left"]), tuple(item["right"])):
                    QPoly.from_json(item["coeff"]) for item in data})

    def __repr__(self):
        parts = ["%s·(%s ⊗ %s)" % (poly_text(pairs), word_to_str(u),
                                   word_to_str(v))
                 for (u, v), pairs in self._grouped()]
        return "Tensor2(%s)" % (" + ".join(parts) if parts else "0")


def tensor_outer(p, q):
    """p ox q for NCPoly factors."""
    data = {}
    right = q._terms.items()
    for (u, e), a in p._terms.items():
        _accumulate(data, (((u, v, f), b) for (v, f), b in right), a, e)
    return Tensor2._raw(data)
