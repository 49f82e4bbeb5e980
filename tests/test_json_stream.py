"""The streamed basis writer: `GradedBasis.json_chunks` joined must be the
text the stdlib encoder gives for `GradedBasis.to_json`, and the CLI must
write the same bytes to `--out` as to stdout.  Both share the term order
of `NCPoly`, so values that mix weights are also held to a reference
ordered in the test."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import o_word_key
from qstuffle import cli
from qstuffle.bases import GradedBasis, basis_by_kind
from qstuffle.coeff import QPoly
from qstuffle.ncpoly import NCPoly
from qstuffle.words import all_words_up_to, weight

Q_VALUES = [None, Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
KINDS = [("pi", None), ("sigma", "oracle"), ("sigma", "recursive"),
         ("chi", None), ("xi", None)]


def _encoded(basis, q_value):
    return json.dumps(basis.to_json(q_value), indent=2)


@pytest.mark.parametrize("kind,method", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_chunks_equal_the_stdlib_encoding(kind, method, n):
    basis = basis_by_kind(kind, n, sigma_method=method)
    for q_value in Q_VALUES:
        assert "".join(basis.json_chunks(q_value)) == \
            _encoded(basis, q_value)


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
COEFFS = st.one_of(
    st.dictionaries(st.integers(0, 4), RATIONALS, max_size=3).map(QPoly),
    RATIONALS)


@st.composite
def graded_bases(draw):
    """A GradedBasis of arbitrary entries: several q-powers in one
    coefficient, negative fractions, the empty word in the support and
    entries that are zero."""
    n = draw(st.integers(1, 3))
    words = all_words_up_to(n, include_empty=True)
    entries = {w: NCPoly(draw(st.dictionaries(st.sampled_from(words), COEFFS,
                                              max_size=4)))
               for w in words}
    return GradedBasis(draw(st.sampled_from(["pi", "sigma", "chi", "xi"])),
                       n, entries)


@settings(deadline=None, max_examples=60)
@given(graded_bases(),
       st.one_of(st.none(), st.fractions(min_value=-2, max_value=2,
                                         max_denominator=5)))
def test_chunks_equal_the_stdlib_encoding_on_any_entries(basis, q_value):
    assert "".join(basis.json_chunks(q_value)) == _encoded(basis, q_value)


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
@pytest.mark.parametrize("q", [None, "1/2"])
def test_out_file_equals_stdout(tmp_path, capsys, fmt, q):
    argv = ["basis", "sigma", "--max-weight", "4", "--format", fmt]
    if q is not None:
        argv += ["--q", q]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "out"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == stdout
    assert stdout.endswith("\n") and not stdout.endswith("\n\n")


@st.composite
def mixed_weight_polys(draw):
    """An NCPoly whose terms have at least two weights (the empty word, of
    weight 0, may be one)."""
    words = all_words_up_to(5, include_empty=True)
    p = NCPoly(draw(st.dictionaries(st.sampled_from(words), COEFFS,
                                    min_size=2, max_size=12)))
    assume(len({weight(w) for w, _ in p.terms()}) > 1)
    return p


def _sorted_heads(p):
    """(word, QPoly) of the terms of p, sorted in the test by the word
    order of the oracles, not by the library's order."""
    return sorted(p.terms(), key=lambda item: o_word_key(item[0]))


@settings(deadline=None, max_examples=80)
@given(mixed_weight_polys())
def test_terms_ascend_in_word_order_over_mixed_weights(p):
    heads = [w for w, _ in p.terms()]
    assert heads == [w for w, _ in _sorted_heads(p)]


@settings(deadline=None, max_examples=80)
@given(mixed_weight_polys())
def test_json_and_text_follow_the_word_order_over_mixed_weights(p):
    pairs = _sorted_heads(p)
    data = [{"word": list(w),
             "coeff": [{"qpow": e, "coeff": str(a)}
                       for e, a in c.terms()]}
            for w, c in pairs]
    assert p.json_text({}) == \
        json.dumps(data, indent=2).replace("\n", "\n    ")
    parts = [NCPoly({w: c}).text() for w, c in pairs]  # one head each
    text = parts[0]
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    assert p.text() == text
