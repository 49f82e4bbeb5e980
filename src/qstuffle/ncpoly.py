"""Sparse noncommutative polynomials over Q[q], and their tensor squares.

`NCPoly` is a finitely supported map word -> QPoly (an element of the free
algebra on the alphabet).  Words are orthonormal for the canonical pairing.
`Tensor2` is the analogous map (word, word) -> QPoly, used for coproducts
and the truncated diagonal series.  Both are canonical (no stored zero
coefficients) and treated as immutable.

The sums of both classes, and of the products, coproducts and series
loops built on them, go through one kernel, `_accumulate`, which adds
scaled terms into a plain dict in place.  It writes only into a dict that its
caller has just created: the term dicts of cached values (every
`lru_cache` of the package hands out shared objects) are read, never
written.
"""

from fractions import Fraction

from .coeff import QPoly, _join_signed
from .words import weight, word_key, word_to_str, word_latex

_UNIT = {0: 1}


def _accumulate(acc, terms, c=None):
    """acc[k] += c·v for every pair (k, v) of `terms`, in place; returns acc.

    `acc` is a plain dict owned by the caller, never the term dict of a
    shared value.  `terms` yields no zero coefficient; a sum that cancels is
    dropped.  `c` (a QPoly, Fraction or int; None means one) multiplies
    every v, and is skipped when it is one."""
    if c is not None:
        if not c:
            return acc
        one = c._terms == _UNIT if isinstance(c, QPoly) else c == 1
        if one:
            c = None
    get = acc.get
    for k, v in terms:
        if c is not None:
            v = v * c
        s = get(k)
        if s is None:
            acc[k] = v
        else:
            s = s + v
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def _qpoly(c):
    if isinstance(c, QPoly):
        return c
    if isinstance(c, (int, Fraction)):
        return QPoly.const(c)
    raise TypeError("expected QPoly, int or Fraction")


class NCPoly:
    """Element of the free algebra: sparse map word -> QPoly."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for w, c in terms.items():
                c = _qpoly(c)
                if c:
                    data[tuple(w)] = c
        self._terms = data

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): QPoly.one()})

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls({tuple(w): coeff})

    @classmethod
    def _raw(cls, data):
        out = cls.__new__(cls)
        out._terms = data
        return out

    def terms(self):
        """Pairs (word, coefficient) ascending by word_less."""
        return sorted(self._terms.items(), key=lambda kv: word_key(kv[0]))

    def support(self):
        return set(self._terms)

    def coeff(self, w):
        return self._terms.get(tuple(w), QPoly.zero())

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return NCPoly._raw(_accumulate(dict(self._terms),
                                       other._terms.items()))

    def __neg__(self):
        return NCPoly._raw({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return NCPoly._raw(_accumulate({}, self._terms.items(), _qpoly(c)))

    def __mul__(self, other):
        """Concatenation product (bilinear extension); scalars also accepted."""
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        data = {}
        right = other._terms.items()
        for u, cu in self._terms.items():
            _accumulate(data, ((u + v, cv) for v, cv in right), cu)
        return NCPoly._raw(data)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        return NotImplemented

    def conc_pow(self, k):
        out = NCPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def prepend_letter(self, s):
        """y_s * self, done without the generic product loop."""
        return NCPoly._raw({(s,) + w: c for w, c in self._terms.items()})

    def pairing(self, other):
        """Canonical pairing: words are orthonormal."""
        if len(other._terms) < len(self._terms):
            self, other = other, self
        acc = QPoly.zero()
        for w, c in self._terms.items():
            d = other._terms.get(w)
            if d is not None:
                acc = acc + c * d
        return acc

    def constant_term(self):
        """Coefficient of the empty word."""
        return self._terms.get((), QPoly.zero())

    def is_proper(self):
        return () not in self._terms

    def proper_part(self):
        data = {w: c for w, c in self._terms.items() if w}
        return NCPoly._raw(data)

    def truncate(self, n):
        """Drop all terms of weight > n."""
        data = {w: c for w, c in self._terms.items() if weight(w) <= n}
        return NCPoly._raw(data)

    def max_weight(self):
        return max((weight(w) for w in self._terms), default=0)

    def is_homogeneous(self):
        weights = {weight(w) for w in self._terms}
        return len(weights) <= 1

    def subs_q(self, q0):
        """Specialize q; coefficients become degree-0 QPolys."""
        data = {}
        for w, c in self._terms.items():
            v = c.eval_at(q0)
            if v:
                data[w] = QPoly.const(v)
        return NCPoly._raw(data)

    def to_json(self):
        return [{"word": list(w), "coeff": c.to_json()} for w, c in self.terms()]

    @classmethod
    def from_json(cls, data):
        return cls({tuple(item["word"]): QPoly.from_json(item["coeff"])
                    for item in data})

    def text(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.terms():
            wstr = "[" + ",".join(str(s) for s in w) + "]"
            if not w:
                parts.append(c.text() if len(c._terms) == 1 else "(%s)" % c.text())
            elif c == QPoly.one():
                parts.append(wstr)
            elif c == -QPoly.one():
                parts.append("-" + wstr)
            elif len(c._terms) == 1:
                parts.append("%s·%s" % (c.text(), wstr))
            else:
                parts.append("(%s)·%s" % (c.text(), wstr))
        return _join_signed(parts)

    def latex(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.terms():
            wstr = word_latex(w)
            if not w:
                parts.append(c.latex() if len(c._terms) == 1 else
                             "\\left(%s\\right)" % c.latex())
            elif c == QPoly.one():
                parts.append(wstr)
            elif c == -QPoly.one():
                parts.append("-" + wstr)
            elif len(c._terms) == 1:
                parts.append("%s%s" % (c.latex(), wstr))
            else:
                parts.append("\\left(%s\\right)%s" % (c.latex(), wstr))
        return _join_signed(parts)

    def __repr__(self):
        return "NCPoly(%s)" % self.text()


def word_poly(w):
    return NCPoly.from_word(w)


def _conc_words(u, v):
    return NCPoly.from_word(u + v)


class Tensor2:
    """Element of the tensor square: sparse map (word, word) -> QPoly."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (u, v), c in terms.items():
                c = _qpoly(c)
                if c:
                    data[(tuple(u), tuple(v))] = c
        self._terms = data

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({((), ()): QPoly.one()})

    @classmethod
    def _raw(cls, data):
        out = cls.__new__(cls)
        out._terms = data
        return out

    def terms(self):
        return sorted(self._terms.items(),
                      key=lambda kv: (word_key(kv[0][0]), word_key(kv[0][1])))

    def coeff(self, u, v):
        return self._terms.get((tuple(u), tuple(v)), QPoly.zero())

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return Tensor2._raw(_accumulate(dict(self._terms),
                                        other._terms.items()))

    def __neg__(self):
        return Tensor2._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return Tensor2._raw(_accumulate({}, self._terms.items(), _qpoly(c)))

    def combine(self, other, left_mul=_conc_words, right_mul=_conc_words,
                max_total=None):
        """Slotwise product; each slot multiplied by the given word-level
        product (a map (word, word) -> NCPoly).  Optionally truncates terms
        whose combined slot weight exceeds max_total.

        The slot weights of each term of `other` are summed once, and the
        room left by each term of `self` is computed once."""
        acc = {}
        weighted = [(x, y, d, weight(x) + weight(y))
                    for (x, y), d in other._terms.items()]
        for (u, v), c in self._terms.items():
            room = None if max_total is None else \
                max_total - weight(u) - weight(v)
            for x, y, d, xy_weight in weighted:
                if room is not None and xy_weight > room:
                    continue
                cd = c * d
                right = right_mul(v, y)._terms.items()
                for a, ca in left_mul(u, x)._terms.items():
                    _accumulate(acc, (((a, b), cb) for b, cb in right),
                                cd * ca)
        return Tensor2._raw(acc)

    def mul(self, other):
        """Componentwise concatenation: (u ox v)(x ox y) = ux ox vy."""
        return self.combine(other)

    def pairing(self, p, q):
        """Sum over (u, v) of coeff(u, v) * <p|u> * <q|v>."""
        acc = QPoly.zero()
        for (u, v), c in self._terms.items():
            cu = p._terms.get(u)
            if cu is None:
                continue
            cv = q._terms.get(v)
            if cv is None:
                continue
            acc = acc + c * cu * cv
        return acc

    def truncate(self, n):
        """Drop terms whose total weight (both slots) exceeds n."""
        data = {k: c for k, c in self._terms.items()
                if weight(k[0]) + weight(k[1]) <= n}
        return Tensor2._raw(data)

    def to_json(self):
        return [{"left": list(u), "right": list(v), "coeff": c.to_json()}
                for (u, v), c in self.terms()]

    @classmethod
    def from_json(cls, data):
        return cls({(tuple(item["left"]), tuple(item["right"])):
                    QPoly.from_json(item["coeff"]) for item in data})

    def __repr__(self):
        parts = ["%s·(%s ⊗ %s)" % (c.text(), word_to_str(u), word_to_str(v))
                 for (u, v), c in self.terms()]
        return "Tensor2(%s)" % (" + ".join(parts) if parts else "0")


def tensor_outer(p, q):
    """p ox q for NCPoly factors."""
    data = {}
    for u, cu in p._terms.items():
        for v, cv in q._terms.items():
            c = cu * cv
            if c:
                data[(u, v)] = c
    return Tensor2._raw(data)
