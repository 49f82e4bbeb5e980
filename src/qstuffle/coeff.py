"""Exact coefficient arithmetic: rationals and the polynomial ring Q[q].

Rationals are `fractions.Fraction` (arbitrary-precision, always reduced,
positive denominator) or plain `int`.  The term dicts of `NCPoly` and
`Tensor2` hold no rationals: each value stores every coefficient a·q^e
flat as an int a, under a key that ends in the exponent e, over one
positive int denominator for the whole value.  `QPoly` is a sparse
univariate polynomial in the formal deformation parameter q with Fraction
coefficients.  It is the boundary type: the input of the
`NCPoly`/`Tensor2` constructors and of `scale`, and the output of `coeff`,
`pairing` and `terms`; no sum, product, series or verify suite computes
with it.  Its arithmetic is plain ring code, every result built by the
normalizing constructor, and it is kept apart from the accumulation kernel
of `ncpoly` on purpose: it is the tests' independent ring (the dense solve
in `tests/oracles.py`, the pairing checks, and `eval_at`, the reference
for `subs_q`).  A
constant equals, and hashes like, the rational it is.  `poly_text` and
`poly_latex` render a coefficient from its (e, a, d) int triples.
"""

from fractions import Fraction
from math import gcd


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


def _coerce(x):
    """x as a QPoly: a QPoly itself, an int or Fraction as a constant;
    None for any other type."""
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly.const(x)
    return None


class QPoly:
    """Element of Q[q]: sparse map q-exponent -> nonzero Fraction."""

    __slots__ = ("_terms",)

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

    def __bool__(self):
        return bool(self._terms)

    def degree(self):
        """-1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def constant_term(self):
        return self._terms.get(0, Fraction(0))

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        """A constant hashes like the rational it equals."""
        if self.degree() <= 0:
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            data[e] = data.get(e, 0) + c
        return QPoly(data)

    __radd__ = __add__

    def __neg__(self):
        return QPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        data = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                data[e1 + e2] = data.get(e1 + e2, 0) + c1 * c2
        return QPoly(data)

    __rmul__ = __mul__

    def eval_at(self, q0):
        """The exact value at q = q0 (a Fraction or int)."""
        q0 = _fraction(q0)
        return sum((c * q0 ** e for e, c in self._terms.items()), Fraction(0))

    def to_json(self):
        return [{"qpow": e, "coeff": str(c)} for e, c in self.terms()]

    @classmethod
    def from_json(cls, data):
        return cls({item["qpow"]: Fraction(item["coeff"]) for item in data})

    def text(self):
        return poly_text([(e, *c.as_integer_ratio()) for e, c in self.terms()])

    def latex(self):
        return poly_latex([(e, *c.as_integer_ratio()) for e, c in self.terms()])

    def __repr__(self):
        return "QPoly(%s)" % self.text()


def _ratio_text(a, d):
    """str(Fraction(a, d)) for ints a and d > 0, by one gcd; text and JSON
    print every rational with it."""
    g = gcd(a, d)
    return "%d" % (a // g) if g == d else "%d/%d" % (a // g, d // g)


def poly_text(triples):
    """Text of the polynomial with the coefficients a/d at q^e given as
    (e, a, d) int triples (d > 0), ascending by exponent."""
    if not triples:
        return "0"
    parts = []
    for e, a, d in triples:
        if e == 0:
            parts.append(_ratio_text(a, d))
        else:
            qp = "q" if e == 1 else "q^%d" % e
            if a == d:
                parts.append(qp)
            elif a == -d:
                parts.append("-" + qp)
            else:
                parts.append("%s·%s" % (_ratio_text(a, d), qp))
    return _join_signed(parts)


def poly_latex(triples):
    """LaTeX of the polynomial with the given (e, a, d) int triples."""
    if not triples:
        return "0"
    parts = []
    for e, a, d in triples:
        sign = "-" if a < 0 else ""
        g = gcd(a, d)
        p, d = abs(a) // g, d // g
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
