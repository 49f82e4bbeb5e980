"""Sparse noncommutative polynomials over Q[q], and their tensor squares.

`NCPoly` is an element of the free algebra on the alphabet, stored as a
flat map (word, e) -> a for its terms (a/den)·q^e·word; `Tensor2`, the
analogous element of the tensor square used for coproducts and the
truncated diagonal series, maps (u, v, e) -> a.  Every a is a nonzero int
over one positive int `_den`, in lowest terms (`_raw`), so the kernels
multiply and add plain ints.  A word in a key is its int code
(`words.encode_word`), so the kernels hash ints; the constructors,
lookups, `terms`, JSON and rendering take and give tuple words.  Words are
orthonormal for the canonical pairing.  Both classes are canonical (no
stored zero coefficient) and treated as immutable.

Rendering (`terms`, JSON, text, LaTeX) sorts the plain int keys: within
one weight, code order is word order, and only an NCPoly of mixed weights
sorts again by `word_key`.

`QPoly` and `Fraction` appear only at the boundary: the constructors,
`scale` and `subs_q` accept them, and `coeff`, `pairing` and `terms` give
them; text, LaTeX and JSON print each a/den from ints.  A value holds its
terms and denominator and nothing else, and is read three ways: `terms`,
`coeff` (the pairing with a word; `coeff(())` is the constant term) and
`pairing` (a Tensor2 pairs with two values, one word each for a single
coefficient).  Every pairing goes through one word index built per call
(`_word_index`) and one int kernel (`_pairings`).

Sums go through one kernel, `_accumulate`, and chains of polynomial
products through `_product`, in ints; `Tensor2.combine` concatenates
slotwise.  None takes a weight bound.  Each writes only into a dict created
for the call: the term dicts of cached values (every `lru_cache` of the
package hands out shared objects) are read, never written.  The truncated
exp and log series are test routes in tests/oracles.py.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .coeff import (QPoly, _join_signed, _ratio_text, poly_latex, poly_text,
                    qterms)
from .words import decode_word, word_code, word_key, word_to_str, word_latex


def _accumulate(acc, terms, c=1, shift=0):
    """acc[k] += c·v for every pair (k, v) of `terms`, in place; returns acc.

    `acc` is a plain dict owned by the caller, never the term dict of a
    shared value.  `terms` yields flat keys, (w, e) or (u, v, e), and
    nonzero ints; a nonzero `shift` raises every exponent e by that much.
    The int `c` multiplies every v.  A sum that cancels is dropped."""
    get = acc.get
    for k, v in terms:
        if shift:
            k = (k[0], k[1] + shift) if len(k) == 2 else \
                (k[0], k[1], k[2] + shift)
        s = get(k, 0) + c * v
        if s:
            acc[k] = s
        else:
            del acc[k]
    return acc


def _weighted_sum(cls, parts):
    """The value of class `cls` summing (a/d)·q^e·t over the parts
    (a, d, e, t): ints a and d > 0, and t an iterable of (key, int) pairs.
    Summed in ints over the lcm of the d."""
    parts = list(parts)
    den = lcm(*(d for _, d, _, _ in parts))
    acc = {}
    for a, d, e, terms in parts:
        _accumulate(acc, terms, a * (den // d), e)
    return cls._raw(acc, den)


def _qpoly(data, den):
    """The QPoly of the int map e -> a over the denominator den."""
    return QPoly({e: Fraction(a, den) for e, a in data.items()})


def _word_index(values):
    """A map word code -> [(i, e, a)] over the int terms a·q^e·word of
    each values[i] (its denominator left out), for `_pairings`."""
    index = {}
    for i, p in enumerate(values):
        for (w, e), a in p._terms.items():
            index.setdefault(w, []).append((i, e, a))
    return index


def _pairings(index, p):
    """{(i, e): c}, with c the q^e coefficient of <values[i] | p> times
    both denominators, every c nonzero; `index` is `_word_index(values)`.
    An inline loop: a generator fed to `_accumulate` costs about 1.3×."""
    acc = {}
    get = acc.get
    for (x, f), b in p._terms.items():
        for i, e, a in index.get(x, ()):
            key = i, e + f
            acc[key] = get(key, 0) + a * b
    return {k: c for k, c in acc.items() if c}


def _product_into(acc, word_prod, p_terms, q_terms, c=1):
    """acc += c·(p·q) in place, all in ints, under a word-level product (a
    map of two word codes -> NCPoly over the denominator 1; None is
    concatenation); returns acc without the terms that cancel."""
    get = acc.get
    right = [(v, f, b, v.bit_length()) for (v, f), b in q_terms.items()]
    for (u, e), a in p_terms.items():
        ac = a * c
        for v, f, b, v_weight in right:
            if word_prod is None:
                k = (u << v_weight | v, e + f)
                acc[k] = get(k, 0) + ac * b
                continue
            s, abc = e + f, ac * b
            for (x, g), t in word_prod(u, v)._terms.items():
                k = (x, g + s)
                acc[k] = get(k, 0) + abc * t
    for k in [k for k, a in acc.items() if not a]:
        del acc[k]
    return acc


def _product(word_prod, factors, den=1):
    """The product in order of the nonempty list `factors` of NCPolys under
    `word_prod`, each step a `_product_into`, over den times the factors'
    denominators.  One factor shares its term dict."""
    first, *rest = factors
    acc, den = first._terms, den * first._den
    for p in rest:
        acc = _product_into({}, word_prod, acc, p._terms)
        den *= p._den
    return NCPoly._raw(acc, den)


class _Sparse:
    """Flat int term dict over a denominator, shared by NCPoly and Tensor2:
    a key is the word code, or the pair of codes, then the q-exponent."""

    __slots__ = ("_terms", "_den")

    @classmethod
    def _raw(cls, data, den=1):
        """data/den for a dict of nonzero ints and an int den > 0, in
        lowest terms by one gcd."""
        g = gcd(den, *data.values()) if den != 1 else 1
        if g != 1:
            data, den = {k: a // g for k, a in data.items()}, den // g
        out = cls.__new__(cls)
        out._terms = data
        out._den = den
        return out

    @classmethod
    def zero(cls):
        return cls._raw({})

    def _set(self, data):
        """Fill the terms from a map head -> QPoly | int | Fraction, over
        the lcm of the denominators."""
        pairs = [(head + (e,), a) for head, c in data.items()
                 for e, a in qterms(c) if a]
        den = lcm(*(a.denominator for _, a in pairs))
        self._terms = {k: a.numerator * (den // a.denominator)
                       for k, a in pairs}
        self._den = den

    def _sorted(self):
        """The term keys ascending by the word order of the head, then e."""
        return sorted(self._terms, key=self._order)

    def _grouped(self):
        """(head, [(e, a), ...]) per head, its words decoded to tuples,
        ascending by the word order of the head, exponents ascending."""
        out, last, terms = [], None, self._terms
        for k in self._sorted():
            head, pair = self._head(k), (k[-1], terms[k])
            if head == last:
                out[-1][1].append(pair)
            else:
                out.append((self._decode(head), [pair]))
                last = head
        return out

    def terms(self):
        """Pairs (head, QPoly coefficient) ascending by word_less on the
        word, or on the pair of words, of the head."""
        return [(h, _qpoly(dict(pairs), self._den))
                for h, pairs in self._grouped()]

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    __hash__ = None

    def _plus(self, other, sign):
        """self + sign·other."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _weighted_sum(type(self), (
            (1, self._den, 0, self._terms.items()),
            (sign, other._den, 0, other._terms.items())))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._raw({k: -a for k, a in self._terms.items()}, self._den)

    def scale(self, c):
        """self · c for a QPoly, int or Fraction c."""
        items = self._terms.items()
        return _weighted_sum(type(self), (
            (a.numerator, a.denominator * self._den, e, items)
            for e, a in qterms(c)))

    def truncate(self, n):
        """Drop all terms of (total) weight > n; self when none is dropped."""
        key_weight = self._weight
        kept = {k: a for k, a in self._terms.items() if key_weight(k) <= n}
        return self._raw(kept, self._den) if len(kept) < len(self) else self


# The pieces of `NCPoly.json_text`, one per term.
_PAD = "\n    "
_TERM = _PAD.join(["", "      {", '        "qpow": %d,',
                   '        "coeff": "%s"', "      }"])
_ITEM = _PAD.join(["", "  {", '    "word": %s,', '    "coeff": [']) + _TERM
_END_ITEM = _PAD.join(["", "    ]", "  }"])
_NEXT_ITEM = _END_ITEM + "," + _ITEM


class NCPoly(_Sparse):
    """Element of the free algebra: (code, q-exponent) -> int, over _den."""

    __slots__ = ()

    _head = staticmethod(itemgetter(0))
    _decode = staticmethod(decode_word)

    @staticmethod
    def _weight(k):
        return k[0].bit_length()

    @staticmethod
    def _order(k):
        return word_key(k[0]), k[1]

    def _sorted(self):
        """As `_Sparse._sorted`: the codes of one weight ascend in word
        order, so only mixed weights (first and last code) use word_key."""
        keys = sorted(self._terms)
        if keys and keys[0][0].bit_length() != keys[-1][0].bit_length():
            keys.sort(key=self._order)
        return keys

    def __init__(self, terms=None):
        """From a map word -> QPoly | int | Fraction."""
        self._set({(word_code(w),): c for w, c in (terms or {}).items()})

    @classmethod
    def one(cls):
        return cls._raw({(0, 0): 1})

    def coeff(self, w):
        return self.pairing(word_poly(w))

    def __mul__(self, other):
        """Concatenation product (bilinear extension); `scale` takes
        scalars."""
        if not isinstance(other, NCPoly):
            return NotImplemented
        return _product(None, [self, other])

    def pairing(self, other):
        """Canonical pairing: words are orthonormal."""
        small, large = sorted((self, other), key=len)
        return _qpoly({e: c for (_, e), c in
                       _pairings(_word_index([small]), large).items()},
                      self._den * other._den)

    def subs_q(self, q0):
        """Specialize q at the rational q0 = n/d: every exponent folds into
        0, as a·n^e·d^(top - e) over d^top for the largest exponent top."""
        n, d = Fraction(q0).as_integer_ratio()
        top = max((k[1] for k in self._terms), default=0)
        return NCPoly._raw(_accumulate(
            {}, (((w, 0), a * n ** e * d ** (top - e))
                 for (w, e), a in self._terms.items() if n or not e)),
            self._den * d ** top)

    def json_text(self, words):
        """The text of `json.dumps(self.to_json(), indent=2)` nested two
        levels deep, as an entry of `GradedBasis.json_chunks`: every line
        after the first is indented by 4 more spaces.  `words`, a dict the
        caller keeps, holds the indented list of each word code across
        calls.  A term that starts a word opens its item."""
        if not self._terms:
            return "[]"
        out, last, terms, den = ["["], None, self._terms, self._den
        append = out.append
        for k in self._sorted():
            c, a = k[0], terms[k]
            a = a if den == 1 else _ratio_text(a, den)
            if c == last:
                append("," + _TERM % (k[1], a))
                continue
            word = words.get(c)
            if word is None:
                word = words[c] = "[" + ",".join(
                    [_PAD + "      %d" % s for s in decode_word(c)]) \
                    + _PAD + "    ]" if c else "[]"
            append((_ITEM if last is None else _NEXT_ITEM)
                   % (word, k[1], a))
            last = c
        append(_END_ITEM + _PAD + "]")
        return "".join(out)

    def to_json(self):
        den = self._den
        return [{"word": list(w), "coeff": [
            {"qpow": e, "coeff": _ratio_text(a, den)} for e, a in pairs]}
            for w, pairs in self._grouped()]

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
        den = self._den
        for w, pairs in self._grouped():
            triples = [(e, a, den) for e, a in pairs]
            if w and triples == [(0, den, den)]:
                parts.append(word_str(w))
            elif w and triples == [(0, -den, den)]:
                parts.append("-" + word_str(w))
            else:
                c = poly_str(triples)
                c = c if len(triples) == 1 else wrap % c
                parts.append(c + times + word_str(w) if w else c)
        return _join_signed(parts)

    def text(self):
        return self._render(lambda w: "[%s]" % ",".join(map(str, w)),
                            poly_text, "(%s)", "·")

    def latex(self):
        return self._render(word_latex, poly_latex, "\\left(%s\\right)", "")

    def __repr__(self):
        return "NCPoly(%s)" % self.text()


def word_poly(w):
    """The word w, a tuple or its code, as an NCPoly."""
    return NCPoly._raw({(word_code(w), 0): 1})


class Tensor2(_Sparse):
    """Element of the tensor square: (code, code, q-exponent) -> int, over
    _den."""

    __slots__ = ()

    _head = staticmethod(itemgetter(0, 1))
    _decode = staticmethod(lambda h: (decode_word(h[0]), decode_word(h[1])))

    @staticmethod
    def _weight(k):
        return k[0].bit_length() + k[1].bit_length()

    @staticmethod
    def _order(k):
        return word_key(k[0]), word_key(k[1]), k[2]

    def __init__(self, terms=None):
        """From a map (word, word) -> QPoly | int | Fraction."""
        self._set({(word_code(u), word_code(v)): c
                   for (u, v), c in (terms or {}).items()})

    @classmethod
    def one(cls):
        return cls._raw({(0, 0, 0): 1})

    def combine(self, other):
        """Slotwise concatenation: (u ⊗ v)(x ⊗ y) = ux ⊗ vy, extended
        bilinearly.  The right terms are measured once, then each left
        term is one `_accumulate` over them."""
        acc = {}
        right = [(x, x.bit_length(), y, y.bit_length(), f, d)
                 for (x, y, f), d in other._terms.items()]
        for (u, v, e), c in self._terms.items():
            _accumulate(acc, (((u << xn | x, v << yn | y, e + f), d)
                              for x, xn, y, yn, f, d in right), c)
        return Tensor2._raw(acc, self._den * other._den)

    def pairing(self, p, q):
        """Sum over (u, v) of coeff(u, v) * <p|u> * <q|v>."""
        left, right = _word_index([p]), _word_index([q])
        acc = {}
        for (u, v, e), c in self._terms.items():
            for _, f, a in left.get(u, ()):
                for _, g, b in right.get(v, ()):
                    acc[e + f + g] = acc.get(e + f + g, 0) + c * a * b
        return _qpoly({e: c for e, c in acc.items() if c},
                      self._den * p._den * q._den)

    def __repr__(self):
        parts = ["%s·(%s ⊗ %s)" % (c.text(), word_to_str(u), word_to_str(v))
                 for (u, v), c in self.terms()]
        return "Tensor2(%s)" % (" + ".join(parts) if parts else "0")
