import json
from fractions import Fraction

import pytest

from qstuffle import bases, cli
from qstuffle.ncpoly import NCPoly, word_poly
from qstuffle.ops import stuffle
from qstuffle.report import Report


def run(capsys, *argv):
    code = cli.main(list(argv))
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
    assert err == "error: --q does not apply to %s\n" % argv[0]


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


def test_verify_all_solves_once(capsys, monkeypatch):
    """The duality and factorization suites read one triangular solve."""
    solves = []

    def counted(n):
        solves.append(n)
        return oracle(n)
    oracle = bases.dual_pbw_oracle
    monkeypatch.setattr(bases, "dual_pbw_oracle", counted)
    code, out, _ = run(capsys, "verify", "all", "--max-weight", "4")
    assert code == 0
    assert solves == [4]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_weight_below_one_is_refused(capsys, value):
    for argv in (("basis", "sigma"), ("verify", "all")):
        code, out, err = run(capsys, *argv, "--max-weight", value)
        assert code == 2
        assert out == ""
        assert err == "error: --max-weight must be >= 1\n"


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


def test_out_path_that_cannot_be_written(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "basis", "pi", "--max-weight", "2",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == "error: cannot write %s: No such file or directory\n" \
        % target
    assert not target.parent.exists()


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


def test_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["basis", "nope"])
