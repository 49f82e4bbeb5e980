import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qstuffle import bases, cli, ops
from qstuffle.ncpoly import NCPoly, word_poly
from qstuffle.ops import stuffle
from qstuffle.report import Report


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # the parser's refusals, --help and --version
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lyndon_listing(capsys):
    code, out, _ = run(capsys, "lyndon", "--max-weight", "3")
    assert code == 0
    assert out.splitlines() == [
        "weight 1: 1",
        "weight 2: 2",
        "weight 3: 3 2,1",
    ]
    code, out, _ = run(capsys, "lyndon", "--max-weight", "4")
    assert "2,1,1" in out


def test_product_text(capsys):
    code, out, _ = run(capsys, "product", "stuffle", "1", "1")
    assert code == 0
    assert out.strip() == "q·[2] + 2·[1,1]"
    code, out, _ = run(capsys, "product", "stuffle", "2", "1", "--q", "1")
    assert out.strip() == "[3] + [2,1] + [1,2]"
    code, out, _ = run(capsys, "product", "conc", "2", "1")
    assert out.strip() == "[2,1]"
    code, out, _ = run(capsys, "product", "shuffle", "1", "2")
    assert out.strip() == "[2,1] + [1,2]"
    code, out, _ = run(capsys, "product", "stuffle", "2,1", "e")
    assert out.strip() == "[2,1]"


def test_product_json_roundtrip(capsys):
    code, out, _ = run(capsys, "product", "stuffle", "2,1", "1,1",
                       "--format", "json")
    assert code == 0
    assert NCPoly.from_json(json.loads(out)) == stuffle((2, 1), (1, 1))


def test_output_determinism(capsys):
    args = ("basis", "sigma", "--max-weight", "4", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_malformed_word_exits_nonzero(capsys):
    code, _, err = run(capsys, "product", "stuffle", "2,x", "1")
    assert code != 0
    assert "malformed" in err
    code, _, err = run(capsys, "product", "stuffle", "2", "1", "--q", "1/x")
    assert code != 0


@pytest.mark.parametrize("kind", ["stuffle", "shuffle"])
def test_long_product_words_are_refused(capsys, kind):
    limit = cli.MAX_PRODUCT_LETTERS
    code, out, err = run(capsys, "product", kind, ",".join(["1"] * 330), "2")
    assert (code, out) == (2, "")
    assert err == "error: the %s of two words takes at most %d letters in " \
        "all, not 331\n" % (kind, limit)
    code, _, err = run(capsys, "product", kind, ",".join(["1"] * limit), "2")
    assert code == 2 and "not %d" % (limit + 1) in err
    code, out, _ = run(capsys, "product", kind, ",".join(["1"] * (limit - 1)),
                       "2", "--q", "0")
    assert code == 0 and len(out.split(" + ")) == limit
    code, out, _ = run(capsys, "product", "conc", ",".join(["1"] * 330), "2")
    assert code == 0 and out == "[%s,2]\n" % ",".join(["1"] * 330)
    cap = cli.MAX_PRODUCT_WEIGHT  # a word code holds a bit per unit of weight
    for k in (kind, "conc"):
        code, out, err = run(capsys, "product", k, str(cap), "1")
        assert (code, out) == (2, "")
        assert err == "error: the %s of two words takes at most weight %d " \
            "in all, not %d\n" % (k, cap, cap + 1)
        code, out, _ = run(capsys, "product", k, str(cap - 1), "1")
        assert code == 0 and "[%d,1]" % (cap - 1) in out


@pytest.mark.parametrize("kind, letters, weight, terms, allowed", [
    ("stuffle", ([1, 3] * 5)[:9] + [2] * 9, 35, 1462563, 444444),
    ("shuffle", [1] * 11 + [2] * 11, 33, 705432, 363636)])
def test_products_over_the_term_cap_are_refused_unformed(
        capsys, monkeypatch, kind, letters, weight, terms, allowed):
    def unformed(u, v):
        raise AssertionError("the product was formed")
    monkeypatch.setattr(ops, "stuffle", unformed)
    monkeypatch.setattr(ops, "shuffle", unformed)
    half = len(letters) // 2
    u, v = (",".join(map(str, w)) for w in (letters[:half], letters[half:]))
    code, out, err = run(capsys, "product", kind, u, v)
    assert (code, out) == (2, "")
    assert err == "error: the %s of two words of %d and %d letters and " \
        "weight %d may have %d terms, more than the %d allowed at that " \
        "size\n" % (kind, half, half, weight, terms, allowed)


def test_a_product_just_under_the_term_cap_runs(capsys):
    # 4 and 24 letters: at most D(4, 24) = 241601 terms, and 242424 are
    # allowed while the weight stays under 6 * 256; one unit of letter
    # weight more and the cap falls below the bound
    code, out, err = run(capsys, "product", "stuffle", ",".join(["54"] * 4),
                         ",".join(["54"] * 24))
    assert (code, err) == (0, "")
    assert len(out.split(" + ")) == len(stuffle((54,) * 4, (54,) * 24)._terms)
    code, out, err = run(capsys, "product", "stuffle", ",".join(["55"] * 4),
                         ",".join(["55"] * 24))
    assert (code, out) == (2, "")
    assert err.endswith("may have 241601 terms, more than the 235294 allowed "
                        "at that size\n")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=5),
       st.lists(st.integers(1, 4), max_size=5))
def test_the_term_bound_bounds_the_product(u, v):
    if u or v:
        for kind, product in (("stuffle", ops.stuffle), ("shuffle",
                                                         ops.shuffle)):
            assert len(product(u, v)._terms) <= \
                cli._term_bound(kind, len(u), len(v), sum(u + v))


def test_the_term_bound_is_reached():
    # by letters whose stuffle and shuffle words never coincide
    assert cli._term_bound("stuffle", 4, 4, 24) == 321 == \
        len(ops.stuffle((1, 3, 1, 3), (2, 2, 2, 2))._terms)
    assert cli._term_bound("shuffle", 4, 4, 12) == 70 == \
        len(ops.shuffle((1,) * 4, (2,) * 4)._terms)
    # repeated letters: the words of weight 20 and 10 to 20 letters,
    # 2^18 + C(19, 9), fewer than D(10, 10) = 8097453
    assert cli._term_bound("stuffle", 10, 10, 20) == 2 ** 18 + 92378


def test_basis_text_and_both_methods(capsys):
    code, out, _ = run(capsys, "basis", "sigma", "--max-weight", "3")
    assert code == 0
    assert "Sigma[2,1] = 1/2·q·[3] + [2,1]" in out
    code, out, _ = run(capsys, "basis", "pi", "--max-weight", "3")
    assert "Pi[2,1] = [2,1] - [1,2]" in out


def test_both_methods_mismatch_exits_one(capsys, monkeypatch):
    # below weight 4 no other word's recursion reaches 2,1, so the cache of
    # the real recursive route is left as it was
    recursive = bases.dual_pbw_element

    def wrong_at_2_1(w):
        return word_poly((2, 1)) if tuple(w) == (2, 1) else recursive(w)
    monkeypatch.setattr(bases, "dual_pbw_element", wrong_at_2_1)
    code, out, err = run(capsys, "basis", "sigma", "--sigma-method", "both",
                         "--max-weight", "3")
    assert code == 1
    assert out == ""
    assert err == ("sigma method mismatch at 2,1:\n"
                   "  oracle:    1/2·q·[3] + [2,1]\n"
                   "  recursive: [2,1]\n")


def test_the_first_mismatch_in_word_order_is_named(capsys, monkeypatch):
    """Σ wrong at 2,1 and at 1,2: the cross-check names 2,1, which comes
    first in word order (weight 3 reads 3; 2,1; 1,2; 1,1,1)."""
    recursive = bases.dual_pbw_element
    wrong = {(2, 1): word_poly((2, 1)), (1, 2): word_poly((1, 2))}
    monkeypatch.setattr(bases, "dual_pbw_element",
                        lambda w: wrong.get(w) or recursive(w))
    code, out, err = run(capsys, "basis", "sigma", "--max-weight", "3")
    assert (code, out) == (1, "")
    assert err.startswith("sigma method mismatch at 2,1:\n")


def test_product_latex_braces_a_two_digit_letter(capsys):
    code, out, _ = run(capsys, "product", "stuffle", "10", "1,1",
                       "--format", "latex")
    assert code == 0
    assert out == "qy_{11}y_1 + y_{10}y_1^{2} + qy_1y_{11} + y_1y_{10}y_1 " \
        "+ y_1^{2}y_{10}\n"


@pytest.mark.parametrize("argv, name, family", [
    (["sigma", "--sigma-method", "recursive"], "dual_pbw_element", "sigma"),
    (["xi"], "lyndon_stuffle_element", "chi")], ids=["built", "solve-input"])
def test_a_failed_shape_check_exits_one(capsys, monkeypatch, argv, name,
                                        family):
    """A family the program built that breaks its shape, as a basis or as
    the solve's input, is a failed computation: its message alone, exit 1."""
    # below weight 4 no other word's recursion reaches 2,1, so the cache of
    # the real element function is left as it was
    element = getattr(bases, name)

    def upper_at_2_1(w):
        p = element(w)
        return p + word_poly((1, 2)) if tuple(w) == (2, 1) else p
    monkeypatch.setattr(bases, name, upper_at_2_1)
    code, out, err = run(capsys, "basis", *argv, "--max-weight", "3")
    assert (code, out) == (1, "")
    assert err == "%s entry at 2,1 breaks triangularity at 1,2\n" % family


def test_basis_json_metadata(capsys):
    code, out, _ = run(capsys, "basis", "xi", "--max-weight", "3",
                       "--format", "json")
    data = json.loads(out)
    assert data["kind"] == "xi"
    assert data["max_weight"] == 3
    assert "1,1" in data["entries"]


def test_basis_latex(capsys):
    code, out, _ = run(capsys, "basis", "sigma", "--max-weight", "2",
                       "--format", "latex")
    assert code == 0
    assert "\\Sigma_{y_1^{2}} &=& \\frac{q}{2}y_2 + y_1^{2}\\\\" in out


def test_basis_q_specialization(capsys):
    code, out, _ = run(capsys, "basis", "sigma", "--max-weight", "2",
                       "--q", "1")
    assert "Sigma[1,1] = 1/2·[2] + [1,1]" in out


def test_basis_json_q_specialization(capsys):
    _, symbolic, _ = run(capsys, "basis", "sigma", "--max-weight", "4",
                         "--format", "json")
    code, out, _ = run(capsys, "basis", "sigma", "--max-weight", "4",
                       "--format", "json", "--q", "1/2")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["kind", "max_weight", "generator_version",
                          "entries", "q"]
    assert data["q"] == "1/2"
    entries = json.loads(symbolic)["entries"]
    assert list(data["entries"]) == list(entries)
    for key, value in entries.items():
        assert data["entries"][key] == \
            NCPoly.from_json(value).subs_q(Fraction(1, 2)).to_json()


def test_basis_latex_q_specialization(capsys):
    code, out, _ = run(capsys, "basis", "pi", "--max-weight", "3",
                       "--format", "latex", "--q", "1/2")
    assert code == 0
    assert "\\Pi_{y_2} &=& y_2 - \\frac{1}{4}y_1^{2}\\\\" in out.splitlines()
    _, symbolic, _ = run(capsys, "basis", "pi", "--max-weight", "3",
                         "--format", "latex")
    assert "\\Pi_{y_2} &=& y_2 - \\frac{q}{2}y_1^{2}\\\\" in \
        symbolic.splitlines()


@pytest.mark.parametrize("argv", [("verify", "all"), ("verify", "axioms"),
                                  ("lyndon",)])
def test_q_is_refused_where_it_does_not_apply(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-weight", "3", "--q", "1/2")
    assert code == 2
    assert out == ""
    assert err == "error: unrecognized arguments: --q 1/2\n"


@pytest.mark.parametrize("argv", [("verify", "all"), ("verify", "duality"),
                                  ("lyndon",)])
def test_latex_is_refused_where_it_does_not_apply(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-weight", "3",
                         "--format", "latex")
    assert (code, out) == (2, "")
    assert err == "error: argument --format: invalid choice: 'latex' " \
        "(choose from 'text', 'json')\n"


@pytest.mark.parametrize("argv, value", [
    (("basis", "pi", "--max-weight", "2", "--q="), ""),
    (("product", "stuffle", "2", "1", "--q", ""), ""),
    (("product", "stuffle", "2", "1", "--q", "1/0"), "1/0"),
    (("product", "stuffle", "2", "1", "--q", "1e100000000"), "1e100000000"),
    (("basis", "pi", "--max-weight", "5", "--q", "1E5000"), "1E5000"),
    (("basis", "pi", "--max-weight", "2", "--q", "2.5e-3"), "2.5e-3")],
    ids=["empty-joined", "empty", "zero-denominator", "huge-exponent",
         "upper-exponent", "small-exponent"])
def test_malformed_q_is_refused(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: argument --q: malformed rational %r\n" % value


@pytest.mark.parametrize("value", ["7" * 600, "1/" + "1" + "0" * 30,
                                   "-" + "9" * 31, "0." + "0" * 29 + "1"],
                         ids=["600-digits", "31-digit-denominator",
                              "31-digit-negative", "decimal-of-31-digits"])
def test_q_of_31_digits_is_refused(capsys, value):
    code, out, err = run(capsys, "basis", "sigma", "--max-weight", "9",
                         "--q=" + value)
    assert (code, out) == (2, "")
    assert err == "error: argument --q: numerator and denominator must be " \
        "below 10^30, not %r\n" % (value[:17] + "...")


X, NINES = "x" * 5000, "9" * 5000


@pytest.mark.parametrize("argv", [
    ("lyndon", "--max-weight", X),
    ("product", "stuffle", X, "1"),
    ("product", "stuffle", "1", "1", "--q", X),
    ("product", "stuffle", "1", "1", "--q", "1" * 4000),
    ("basis", "pi", "--max-weight", "3", "--q", NINES),
    ("product", "stuffle", "0" * 5000, "1")],
    ids=["max-weight", "word", "q", "q-of-4000-digits", "q-over-int-limit",
         "letter-of-zeros"])
def test_a_long_value_is_refused_in_one_short_line(capsys, argv):
    """A refusal echoes at most 20 characters of the value."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 120
    assert "..." in err


def test_q_over_the_int_digit_limit_is_not_malformed(capsys):
    """Digits that `int` refuses to read (over 4,300) are over the bound,
    leading zeros are not digits of the value, and a malformed value is
    malformed at any length."""
    code, out, err = run(capsys, "basis", "pi", "--max-weight", "3", "--q",
                         NINES)
    assert (code, out) == (2, "")
    assert err == "error: argument --q: numerator and denominator must be " \
        "below 10^30, not '99999999999999999...'\n"
    for value in ("0" * 5000 + "1/2", "1/" + "0" * 5000 + "2",
                  "0_" * 5000 + "1/2"):
        assert run(capsys, "product", "stuffle", "1", "1", "--q", value) == \
            (0, "1/2·[2] + 2·[1,1]\n", "")
    code, out, err = run(capsys, "product", "stuffle", "1", "1", "--q",
                         "x" + NINES)
    assert (code, out) == (2, "")
    assert err == "error: argument --q: malformed rational " \
        "'x9999999999999999...'\n"


def test_q_of_30_digits_renders(capsys):
    value = "9" * 30 + "/" + "1" + "0" * 28 + "7"
    code, out, err = run(capsys, "basis", "pi", "--max-weight", "5",
                         "--q", value)
    _, symbolic, _ = run(capsys, "basis", "pi", "--max-weight", "5")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == len(symbolic.splitlines())
    assert "Pi[2] = [2] - %s·[1,1]\n" % (Fraction(value) / 2) in out


def test_max_weight_is_refused_by_product(capsys):
    code, out, err = run(capsys, "product", "stuffle", "2", "1",
                         "--max-weight", "1")
    assert (code, out) == (2, "")
    assert err == "error: unrecognized arguments: --max-weight 1\n"


@pytest.mark.parametrize("method", ["oracle", "recursive", "both"])
@pytest.mark.parametrize("kind", ["pi", "chi", "xi"])
def test_sigma_method_is_refused_by_other_kinds(capsys, kind, method):
    code, out, err = run(capsys, "basis", kind, "--max-weight", "2",
                         "--sigma-method", method)
    assert (code, out) == (2, "")
    assert err == "error: --sigma-method does not apply to basis %s\n" % kind


def test_negative_fraction_q_with_a_space(capsys):
    """`--q -1/2` reads the value as `--q=-1/2` does (argparse alone takes
    "-1/2" for an option), and both print the same bytes."""
    spaced = run(capsys, "basis", "xi", "--max-weight", "2", "--q", "-1/2")
    joined = run(capsys, "basis", "xi", "--max-weight", "2", "--q=-1/2")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1] == \
        "Xi[1] = [1]\nXi[2] = [2] + 1/4·[1,1]\nXi[1,1] = [1,1]\n"


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "duality", "--max-weight", "3")
    assert code == 0
    assert "ALL PASS" in out
    code, out, _ = run(capsys, "verify", "all", "--max-weight", "2")
    assert code == 0
    code, out, _ = run(capsys, "verify", "axioms", "--max-weight", "3",
                       "--format", "json")
    data = json.loads(out)
    assert data[0]["ok"] is True


def test_verify_runs_no_solve(capsys, monkeypatch):
    """Every suite reads Π and Σ from their element functions: with the
    triangular solve made to raise, each still passes."""
    def solve(*args):
        raise AssertionError("verify ran the triangular solve")
    for name in ("dual_pbw_oracle", "_invert_unit_upper"):
        monkeypatch.setattr(bases, name, solve)
    for suite in ("duality", "primitivity", "factorization", "axioms", "all"):
        code, out, err = run(capsys, "verify", suite, "--max-weight", "5")
        assert (code, err) == (0, ""), out


def test_verify_fails_on_a_broken_recursion(capsys, corrupt_recursion):
    corrupt_recursion((2, 1))
    code, out, err = run(capsys, "verify", "duality", "--max-weight", "4")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.endswith(": FAIL")][0] \
        == "weight 3 (16 pairs): FAIL"


def test_a_failed_cross_check_exits_one(capsys, monkeypatch):
    """`main` prints a cross-check's RuntimeError alone, for every command."""
    monkeypatch.setattr(ops, "_primitive_by_coproduct", lambda p: False)
    code, out, err = run(capsys, "verify", "primitivity", "--max-weight", "3")
    assert (code, out) == (1, "")
    assert err == "primitivity criteria disagree on NCPoly([1]) " \
        "(coproduct=False, pairing=True)\n"


@pytest.mark.parametrize("value", ["0", "-3", "\u0661"])
def test_max_weight_below_one_is_refused(capsys, value):
    for argv in (("basis", "sigma"), ("verify", "all")):
        code, out, err = run(capsys, *argv, "--max-weight", value)
        assert code == 2
        assert out == ""
        assert err == "error: argument --max-weight: must be an int >= 1, " \
            "not %r\n" % value


@pytest.mark.parametrize("command, options", [
    ("lyndon", ["--max-weight N", "--format {text,json}", "--out FILE"]),
    ("product", ["--q P/Q", "--format {text,latex,json}", "--out FILE"]),
    ("basis", ["--max-weight N", "--q P/Q", "--format {text,latex,json}",
               "--out FILE", "--sigma-method {oracle,recursive,both}"]),
    ("verify", ["--max-weight N", "--format {text,json}", "--out FILE"])])
def test_help_lists_exactly_the_options_a_command_reads(capsys, command,
                                                        options):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert re.findall(r"(?m)^  (--[a-z-]+(?: \S+)?)", out) == options


class Started(Exception):
    pass


@pytest.mark.parametrize("command", sorted(cli.MAX_WEIGHT))
def test_max_weight_over_its_cap_is_refused_unstarted(capsys, monkeypatch,
                                                      command):
    """Over the cap, or below 1, nothing is computed; at the cap the run
    starts (and is stopped at once)."""
    def started(*args):
        raise Started
    for owner, name in ((cli, "lyndon_of_weight"), (bases, "basis_by_kind"),
                        (bases, "pbw_element")):
        monkeypatch.setattr(owner, name, started)
    argv = command.split() + (["all"] if command == "verify" else [])
    cap = cli.MAX_WEIGHT[command]
    code, out, err = run(capsys, *argv, "--max-weight", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == "error: %s takes --max-weight at most %d, not %d\n" \
        % (command, cap, cap + 1)
    code, out, err = run(capsys, *argv, "--max-weight", "-3")
    assert (code, out) == (2, "")
    assert err == "error: argument --max-weight: must be an int >= 1, " \
        "not '-3'\n"
    with pytest.raises(Started):
        cli.main(argv + ["--max-weight", str(cap)])


def test_digits_over_every_cap_are_refused_unread(capsys):
    """A --max-weight of more digits than any cap is refused before `int`
    reads it, echoed in at most 20 characters; leading zeros do not count."""
    for value, shown in (("9" * 5000, "9" * 17 + "..."), ("100", "100")):
        code, out, err = run(capsys, "lyndon", "--max-weight", value)
        assert (code, out) == (2, "")
        assert err == "error: argument --max-weight: no command takes more " \
            "than 22, not %r\n" % shown
    code, out, _ = run(capsys, "lyndon", "--max-weight", "0" * 5000 + "3")
    assert (code, out) == (0, "weight 1: 1\nweight 2: 2\nweight 3: 3 2,1\n")


def test_letter_over_the_weight_bound_is_refused_unread(capsys):
    for u, digits in (("9" * 5000, 5000), ("2,12345678", 8)):
        code, out, err = run(capsys, "product", "stuffle", u, "1")
        assert (code, out) == (2, "")
        assert err == "error: the stuffle of two words takes at most weight " \
            "1048576 in all, not a letter of %d digits\n" % digits


def test_empty_report_is_not_a_pass():
    rep = Report("empty")
    assert not rep.ok
    assert rep.lines() == ["empty: FAILED"]
    assert rep.to_json()["ok"] is False


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "product", "stuffle", "1", "1",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert NCPoly.from_json(json.loads(target.read_text())) == \
        stuffle((1,), (1,))


def test_out_path_that_cannot_be_written(tmp_path, capsys, monkeypatch):
    """A path under a missing directory, a directory, or a dangling link
    into a missing directory is refused before anything is built, and
    nothing is made."""
    def started(*args):
        raise Started
    monkeypatch.setattr(bases, "basis_by_kind", started)
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "gone" / "x")
    for target, why in ((tmp_path / "missing" / "x",
                         "No such file or directory"),
                        (tmp_path, "Is a directory"),
                        (link, "No such file or directory")):
        code, out, err = run(capsys, "basis", "sigma", "--max-weight", "13",
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err == "error: cannot write %s: %s\n" % (target, why)
    assert list(tmp_path.iterdir()) == [link]


def test_a_refused_run_leaves_the_out_path_as_it_was(tmp_path, capsys):
    kept, new, link = tmp_path / "kept", tmp_path / "new", tmp_path / "link"
    kept.write_text("kept\n")
    link.symlink_to(tmp_path / "target")
    for target in (kept, new, link):
        code, out, _ = run(capsys, "basis", "pi", "--max-weight", "16",
                           "--out", str(target))
        assert (code, out) == (2, "")
    assert kept.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [kept, link]


def test_a_run_writes_the_target_of_a_dangling_out_link(tmp_path, capsys):
    link, target = tmp_path / "link", tmp_path / "target"
    link.symlink_to(target)
    code, out, _ = run(capsys, "basis", "pi", "--max-weight", "2",
                       "--out", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink() and target.read_text() == \
        "Pi[1] = [1]\nPi[2] = [2] - 1/2·q·[1,1]\nPi[1,1] = [1,1]\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_to_out_exits_two(capsys):
    """A device that opens but takes no bytes fails at write time."""
    code, out, err = run(capsys, "basis", "pi", "--max-weight", "2",
                         "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: cannot write /dev/full: No space left on device\n"


SKIPPED = {1: ["cross-weight pairs vanish (0 pairs)",
               "stuffle commutativity (0 pairs)",
               "stuffle associativity (0 triples)",
               "product/coproduct duality (0 pairings)"],
           2: ["stuffle associativity (0 triples)"]}


@pytest.mark.parametrize("n", sorted(SKIPPED))
def test_a_check_over_nothing_is_skipped(capsys, n):
    code, out, _ = run(capsys, "verify", "all", "--max-weight", str(n))
    assert code == 0
    skipped = [line[:-len(": SKIP (nothing to check)")]
               for line in out.splitlines()
               if line.endswith(": SKIP (nothing to check)")]
    assert skipped == SKIPPED[n]
    assert all(line.endswith(("PASS", "SKIP (nothing to check)"))
               for line in out.splitlines())
    code, out, _ = run(capsys, "verify", "all", "--max-weight", str(n),
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["ok"] for r in reports)
    checks = [c for r in reports for c in r["checks"]]
    assert [c["name"] for c in checks if c.get("skipped")] == SKIPPED[n]
    for c in checks:
        assert c["passed"] is not c.get("skipped", False)


def test_skipped_checks_alone_do_not_pass():
    rep = Report("nothing")
    rep.tally("pairs (0 pairs)", 0, 0)
    assert rep.lines() == ["pairs (0 pairs): SKIP (nothing to check)",
                           "nothing: FAILED"]
    assert not rep.ok
    rep.tally("words (1 words)", 1, 0)
    assert rep.ok
    rep.tally("triples (2 triples)", 2, 1)
    assert not rep.ok
    assert rep.to_json()["checks"][0] == {
        "name": "pairs (0 pairs)", "passed": False, "skipped": True,
        "detail": "nothing to check"}


def test_closed_pipe_ends_quietly():
    """A reader that closes stdout early ends the run with exit code 1 and
    nothing on stderr.  The output at weight 9 (318 KB) is far larger than
    a pipe's buffer, so the writer meets the closed pipe mid-stream."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qstuffle.cli", "basis", "xi",
         "--max-weight", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"Xi[1] = [1]\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 1
    assert err == b""


def test_all_names_are_exported_once():
    import qstuffle
    assert len(set(qstuffle.__all__)) == len(qstuffle.__all__)
    assert [n for n in qstuffle.__all__ if not hasattr(qstuffle, n)] == []


def test_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["basis", "nope"])
