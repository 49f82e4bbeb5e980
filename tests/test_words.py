import itertools

import pytest
from hypothesis import given, strategies as st

from qstuffle.words import (all_words_up_to, codes_of_weight, decode_word,
                            encode_word, weight, word_from_str, word_key,
                            word_latex, word_less, word_to_str,
                            words_of_weight)


def test_weight():
    assert weight((3, 1, 2)) == 6
    assert weight(()) == 0
    assert weight((2, 1)) == 3


def test_word_less_examples():
    assert word_less((2,), (1, 1))
    assert not word_less((2, 1), (2, 1))
    assert word_less((2, 1), (2, 1, 1))  # proper prefix is smaller


def test_words_of_weight_examples():
    assert words_of_weight(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))
    assert words_of_weight(1) == ((1,),)
    assert len(words_of_weight(5)) == 16
    with pytest.raises(ValueError):
        words_of_weight(0)


def test_words_of_weight_counts():
    for n in range(1, 13):
        ws = words_of_weight(n)
        assert len(ws) == 2 ** (n - 1)
        assert len(set(ws)) == len(ws)
        assert all(weight(w) == n for w in ws)
        assert all(word_less(ws[i], ws[i + 1]) for i in range(len(ws) - 1))


def test_strict_total_order():
    words = all_words_up_to(4, include_empty=True)
    for u in words:
        assert not word_less(u, u)
    for u, v in itertools.permutations(words, 2):
        assert word_less(u, v) != word_less(v, u)  # total and antisymmetric
    for u, v, w in itertools.product(words, repeat=3):
        if word_less(u, v) and word_less(v, w):
            assert word_less(u, w)


def test_no_prefixes_within_a_weight_class():
    for n in range(1, 8):
        for u, v in itertools.permutations(words_of_weight(n), 2):
            assert v[:len(u)] != u or len(u) == len(v)


def test_serialization():
    assert word_to_str((3, 1, 2)) == "3,1,2"
    assert word_to_str(()) == "e"
    assert word_from_str("3,1,2") == (3, 1, 2)
    assert word_from_str("e") == ()
    for bad in ("1,x", "0,2", "-1", "1_0", "+1", "\u0661"):
        with pytest.raises(ValueError):
            word_from_str(bad)


def test_word_key_orders_like_the_letters():
    assert word_key((2, 1)) == (-2, -1)
    assert sorted([(1, 2), (3,), (2, 1)], key=word_key) == \
        [(3,), (2, 1), (1, 2)]


def test_word_latex():
    assert word_latex((3, 1, 1)) == "y_3y_1^{2}"
    assert word_latex(()) == "1"
    assert word_latex((2, 1)) == "y_2y_1"
    assert word_latex((10,)) == "y_{10}"
    assert word_latex((12, 12, 3)) == "y_{12}^{2}y_3"
    assert word_latex((9, 10)) == "y_9y_{10}"


def test_memoized_word_key_equals_the_formula():
    """The cached key is the negated-index tuple, and a second call returns
    the stored tuple itself."""
    for w in all_words_up_to(8, include_empty=True):
        assert word_key(w) == tuple(-s for s in w) == word_key.__wrapped__(w)
        assert word_key(w) is word_key(w)


def _compositions(n):
    """Every word of weight n, built letter by letter (not from the codes)."""
    if n == 0:
        return [()]
    return [(s,) + rest for s in range(1, n + 1)
            for rest in _compositions(n - s)]


def test_int_codes_exhaustively_to_weight_12():
    """y_s is the bits 1 0^(s-1) and a word their concatenation: the code
    is injective, its bit length is the weight, concatenation is a shift
    and an or, the leading bits give the first letter and the tail, and
    within a weight the int order is the word order."""
    assert encode_word(()) == 0 and decode_word(0) == ()
    seen = {}
    for n in range(1, 13):
        ws = _compositions(n)
        for w in ws:
            c = encode_word(w)
            assert c not in seen, (w, seen.get(c))
            seen[c] = w
            assert decode_word(c) == w
            assert c.bit_length() == weight(w) == n
            tail = c ^ 1 << (n - 1)
            assert n - tail.bit_length() == w[0]
            assert tail == encode_word(w[1:])
            for i in range(len(w) + 1):  # every pair u, v with uv = w
                cu, cv = encode_word(w[:i]), encode_word(w[i:])
                assert cu << cv.bit_length() | cv == c
        assert sorted(ws, key=word_key) == \
            sorted(ws, key=encode_word) == list(words_of_weight(n))
        assert [encode_word(w) for w in words_of_weight(n)] == \
            list(codes_of_weight(n))


WORDS = st.lists(st.integers(1, 12), max_size=12).map(tuple)


@given(WORDS, WORDS)
def test_code_of_a_concatenation(u, v):
    cu, cv = encode_word(u), encode_word(v)
    assert cu << cv.bit_length() | cv == encode_word(u + v)
    assert decode_word(cu << weight(v) | cv) == u + v
