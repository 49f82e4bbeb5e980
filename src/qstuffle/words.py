"""Words over the infinite alphabet {y_s : s >= 1} and their order.

A word is a tuple of positive integer letter indices; () is the empty word.
The alphabet carries the total order y_1 > y_2 > ..., so a LARGER index is a
SMALLER letter.  Words are compared lexicographically with the convention
that a proper prefix is smaller than its extensions; `word_key` realizes
this as an ordinary Python tuple comparison on negated indices, built once
per distinct word and cached (at most about 2^N words up to weight N).

The term dicts of `ncpoly` key a word by its int code (`encode_word`):
y_s is the bits 1 0^(s-1), a word the concatenation of its letters' bits,
and () is 0.  The bit length of a code is the weight, uv is
`u << v.bit_length() | v`, and the codes of weight n are the ints of bit
length n, ascending in word order.  The API takes and returns tuples; the
word-level products and coproducts also take codes (`word_code`).
"""

from functools import lru_cache


def weight(w):
    """Sum of letter indices; 0 for the empty word."""
    return sum(w)


@lru_cache(maxsize=None)
def word_key(w):
    """The sort key of a word given as a tuple or as its code."""
    return tuple(-s for s in (decode_word(w) if w.__class__ is int else w))


def word_less(u, v):
    return word_key(u) < word_key(v)


def word_leq(u, v):
    return word_key(u) <= word_key(v)


@lru_cache(maxsize=None)
def encode_word(w):
    """The int code of the word w (a tuple)."""
    c = 0
    for s in w:
        c = c << s | 1 << (s - 1)
    return c


@lru_cache(maxsize=None)
def decode_word(c):
    """The word (a tuple) of the int code c: each letter is the distance
    from the leading bit to the leading bit of the rest."""
    w = []
    n = c.bit_length()
    while c:
        c ^= 1 << (n - 1)
        m = c.bit_length()
        w.append(n - m)
        n = m
    return tuple(w)


def word_code(w):
    """The int code of a word given as a tuple, or as its code already."""
    return w if w.__class__ is int else encode_word(tuple(w))


def codes_of_weight(n):
    """The codes of the words of weight n, in the order of words_of_weight."""
    return range(1 << (n - 1), 1 << n)


@lru_cache(maxsize=None)
def words_of_weight(n):
    """All 2^(n-1) compositions of n, ascending by word_less."""
    if n < 1:
        raise ValueError("weight must be >= 1")
    return tuple(map(decode_word, codes_of_weight(n)))


def all_words_up_to(n, include_empty=False):
    """Words of weight 1..n (plus optionally the empty word), ascending weight."""
    out = [()] if include_empty else []
    for k in range(1, n + 1):
        out.extend(words_of_weight(k))
    return out


def word_to_str(w):
    """Comma-separated letter indices; "e" for the empty word."""
    return ",".join(str(s) for s in w) if w else "e"


def echo(text):
    """text as an error message quotes it: its repr, a text of more than 20
    characters cut to its first 17 and "..."."""
    return repr(text if len(text) <= 20 else text[:17] + "...")


def word_from_str(s):
    s = s.strip()
    if s == "e" or s == "":
        return ()
    parts = [part.strip() for part in s.split(",")]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError("malformed word %s (expected e.g. \"3,1,2\" or "
                         "\"e\")" % echo(s))
    w = tuple(int(part.lstrip("0") or "0") for part in parts)
    if any(x < 1 for x in w):
        raise ValueError("letter indices must be >= 1, got %s" % echo(s))
    return w


def word_latex(w):
    """Render e.g. (3,1,1) as y_3y_1^{2} and (10,) as y_{10}, an index of
    two or more digits in braces; the empty word as 1."""
    if not w:
        return "1"
    out = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        sub = "%d" % w[i] if w[i] < 10 else "{%d}" % w[i]
        out.append("y_" + sub if run == 1 else "y_%s^{%d}" % (sub, run))
        i = j
    return "".join(out)
