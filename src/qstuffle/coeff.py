"""Exact coefficient arithmetic: rationals and the polynomial ring Q[q].

Rationals are `fractions.Fraction` (arbitrary-precision, always reduced,
positive denominator), or plain `int` where a value is integral: the term
dicts of `NCPoly` and `Tensor2` store every coefficient a·q^e flat, under a
key that ends in the exponent e, with a in the form `rational` gives it.
`QPoly` is a sparse univariate polynomial in the formal deformation
parameter q with Fraction coefficients.  It is the boundary type: the
input of the `NCPoly`/`Tensor2` constructors and of `scale`, and the
output of `coeff`, `pairing`, `constant_term` and `terms`; no sum, product,
series or verify suite computes with it.  The zero polynomial stores no
terms; construction always normalizes.  `poly_text` and `poly_latex`
render a coefficient from its (exponent, coefficient) pairs, for a QPoly
and for the flat terms alike.
"""

from fractions import Fraction


def rational(x):
    """An int or Fraction as the stored form of a flat coefficient: an int
    when integral, a Fraction otherwise."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


def qterms(c):
    """The (exponent, coefficient) pairs of a QPoly, int or Fraction."""
    if isinstance(c, QPoly):
        return c._terms.items()
    if isinstance(c, (int, Fraction)):
        return ((0, c),) if c else ()
    raise TypeError("expected QPoly, int or Fraction")


def _fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


class QPoly:
    """Element of Q[q]: sparse map q-exponent -> nonzero Fraction."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        data = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(e, int) or e < 0:
                    raise ValueError("q-exponent must be a non-negative int")
                c = _fraction(c)
                if c:
                    data[e] = c
        self._terms = data
        self._hash = None

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, c):
        return cls({0: _fraction(c)})

    @classmethod
    def q(cls, power=1, coeff=1):
        return cls({power: _fraction(coeff)})

    def terms(self):
        """Pairs (exponent, coefficient) sorted by exponent."""
        return sorted(self._terms.items())

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def degree(self):
        """-1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def constant_term(self):
        return self._terms.get(0, Fraction(0))

    def is_nonneg(self):
        """True iff every coefficient is >= 0."""
        return all(c >= 0 for c in self._terms.values())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __add__(self, other):
        if not isinstance(other, QPoly):  # checked first: the common case
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QPoly.const(other)
        data = dict(self._terms)
        for e, c in other._terms.items():
            s = data.get(e)
            if s is None:
                data[e] = c
            else:
                s += c
                if s:
                    data[e] = s
                else:
                    del data[e]
        out = QPoly.__new__(QPoly)
        out._terms = data
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QPoly.__new__(QPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _fraction(other)
            if not c:
                return QPoly()
            out = QPoly.__new__(QPoly)
            out._terms = {e: v * c for e, v in self._terms.items()}
            out._hash = None
            return out
        a, b = self._terms, other._terms
        if len(a) == 1 and len(b) == 1:  # monomials, almost every coefficient
            (e1, c1), = a.items()
            (e2, c2), = b.items()
            data = {e1 + e2: c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2}
        else:
            data = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    s = data.get(e)
                    if s is None:
                        data[e] = c1 * c2
                    else:
                        s += c1 * c2
                        if s:
                            data[e] = s
                        else:
                            del data[e]
        out = QPoly.__new__(QPoly)
        out._terms = data
        out._hash = None
        return out

    __rmul__ = __mul__

    def eval_at(self, q0):
        """Exact Horner evaluation at q = q0 (a Fraction or int)."""
        q0 = _fraction(q0)
        acc = Fraction(0)
        prev = None
        for e in sorted(self._terms, reverse=True):
            if prev is not None:
                acc *= q0 ** (prev - e)
            acc += self._terms[e]
            prev = e
        if prev:
            acc *= q0 ** prev
        return acc

    def to_json(self):
        return [{"qpow": e, "coeff": str(c)} for e, c in self.terms()]

    @classmethod
    def from_json(cls, data):
        return cls({item["qpow"]: Fraction(item["coeff"]) for item in data})

    def text(self):
        return poly_text(self.terms())

    def latex(self):
        return poly_latex(self.terms())

    def __repr__(self):
        return "QPoly(%s)" % self.text()


def poly_text(pairs):
    """Text of the polynomial with the given (exponent, coefficient) pairs,
    ascending by exponent; coefficients are ints or Fractions."""
    if not pairs:
        return "0"
    parts = []
    for e, c in pairs:
        if e == 0:
            parts.append(str(c))
        else:
            qp = "q" if e == 1 else "q^%d" % e
            if c == 1:
                parts.append(qp)
            elif c == -1:
                parts.append("-" + qp)
            else:
                parts.append("%s·%s" % (c, qp))
    return _join_signed(parts)


def poly_latex(pairs):
    """LaTeX of the polynomial with the given (exponent, coefficient) pairs."""
    if not pairs:
        return "0"
    parts = []
    for e, c in pairs:
        sign = "-" if c < 0 else ""
        p, d = abs(c.numerator), c.denominator
        if e == 0:
            core = str(p)
        else:
            qp = "q" if e == 1 else "q^{%d}" % e
            core = qp if p == 1 else "%d%s" % (p, qp)
        if d > 1:
            core = "\\frac{%s}{%d}" % (core, d)
        parts.append(sign + core)
    return _join_signed(parts)


def _join_signed(parts):
    """Join term strings with " + " / " - ", absorbing leading minus signs."""
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
