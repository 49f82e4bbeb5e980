"""The streamed basis writer: `GradedBasis.json_chunks` joined must be the
text the stdlib encoder gives for `GradedBasis.to_json`, and the CLI must
write the same bytes to `--out` as to stdout."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qstuffle import cli
from qstuffle.bases import GradedBasis, basis_by_kind
from qstuffle.coeff import QPoly
from qstuffle.ncpoly import NCPoly
from qstuffle.words import all_words_up_to

Q_VALUES = [None, Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
KINDS = [("pi", "oracle"), ("sigma", "oracle"), ("sigma", "recursive"),
         ("chi", "oracle"), ("xi", "oracle")]


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
