"""Parse and check the qstuffle CLI outputs the benchmark runs.

A Sigma entry is reduced to a canonical string (sorted words, sorted
q-powers, reduced fractions) from either output format, so the JSON of
`basis sigma --format json` and the text of `basis sigma` are checked
against the same per-entry digests in `reference.json`.  This module does
not import qstuffle: the parsers are independent of the program's own
serializers.
"""

import hashlib
import json
import re
from fractions import Fraction
from functools import lru_cache

_TEXT_LINE = re.compile(r"^Sigma\[([0-9,]+)\] = (.+)$")
_CHECK_LINE = re.compile(r"^(.*?): (PASS|FAIL|ALL PASS|FAILED)(?: \((.*)\))?$")
_SEPARATOR = re.compile(r" ([+-]) ")


def word_tuple(word_str):
    return () if word_str == "e" else tuple(int(s) for s in word_str.split(","))


def word_weight(word_str):
    return sum(word_tuple(word_str))


def canonical(terms):
    """terms: {word tuple: {qpow: Fraction}} -> canonical JSON string."""
    rows = []
    for w in sorted(terms):
        coeff = [[e, str(c)] for e, c in sorted(terms[w].items()) if c]
        if coeff:
            rows.append([",".join(map(str, w)) or "e", coeff])
    return json.dumps(rows, separators=(",", ":"))


def digest(canon):
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


def _split_signed(s):
    """Split "a + b - c" outside parentheses into
    [(+1, "a"), (+1, "b"), (-1, "c")], moving a leading "-" into the sign."""
    if "(" in s:
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(s):
            depth += (ch == "(") - (ch == ")")
            if depth == 0 and s.startswith((" + ", " - "), i):
                parts.append(s[start:i])
                parts.append(s[i + 1])
                start = i + 3
        parts.append(s[start:])
    else:
        parts = _SEPARATOR.split(s)
    out = [(1, parts[0])] + [(1 if parts[i] == "+" else -1, parts[i + 1])
                             for i in range(1, len(parts), 2)]
    return [(-sg, t[1:]) if t.startswith("-") else (sg, t) for sg, t in out]


@lru_cache(maxsize=None)
def _fraction(s):
    return Fraction(s)


def _accumulate(acc, key, value):
    acc[key] = acc[key] + value if key in acc else value


def _parse_qpoly(s):
    """Text of a QPoly ("1/2·q^2 - q + 3") -> {qpow: Fraction}."""
    out = {}
    for sign, t in _split_signed(s):
        if t.startswith("("):
            if not t.endswith(")"):
                raise ValueError("unbalanced coefficient %r" % t)
            inner = _parse_qpoly(t[1:-1])
            for e, c in inner.items():
                _accumulate(out, e, sign * c)
            continue
        c, _, qpart = t.partition("·") if "·" in t else (
            ("1", "", t) if t.startswith("q") else (t, "", ""))
        if qpart == "":
            e = 0
        elif qpart == "q":
            e = 1
        elif qpart.startswith("q^"):
            e = int(qpart[2:])
        else:
            raise ValueError("malformed q-power %r" % t)
        _accumulate(out, e, sign * _fraction(c))
    return out


def parse_text_poly(s):
    """Text of an NCPoly ("1/2·q·[2] + [1,1]") -> {word tuple: {qpow: c}}."""
    terms = {}
    for sign, t in _split_signed(s.strip()):
        if t.endswith("]"):
            cut = t.rindex("[")
            word = word_tuple(t[cut + 1:-1])
            coeff = t[:cut]
            if coeff.endswith("·"):
                coeff = coeff[:-1]
            q = _parse_qpoly(coeff) if coeff else {0: 1}
        else:
            word, q = (), _parse_qpoly(t)
        acc = terms.setdefault(word, {})
        for e, c in q.items():
            _accumulate(acc, e, sign * c)
    return terms


def _terms_from_json(rows):
    return {tuple(r["word"]): {int(c["qpow"]): Fraction(c["coeff"])
                               for c in r["coeff"]} for r in rows}


def sigma_entries(text, fmt):
    """Emitted entries of `basis sigma` -> {word str: canonical string}.

    Raises ValueError when the output cannot be parsed."""
    if fmt == "json":
        try:
            data = json.loads(text)
            return {w: canonical(_terms_from_json(rows))
                    for w, rows in data["entries"].items()}
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError("unparseable JSON output: %s" % exc)
    entries = {}
    for line in text.splitlines():
        m = _TEXT_LINE.match(line)
        if not m:
            raise ValueError("unparseable line %r" % line[:80])
        entries[m.group(1)] = canonical(parse_text_poly(m.group(2)))
    return entries


def verify_checks(text):
    """Check lines of `verify` text output -> [(name, passed)]; the suite
    title lines ("...: ALL PASS" / "...: FAILED") are left out."""
    checks = []
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if not m:
            raise ValueError("unparseable line %r" % line[:80])
        if m.group(2) in ("PASS", "FAIL"):
            checks.append((m.group(1), m.group(2) == "PASS"))
    return checks


def expected_sigma_words(reference, max_weight, fmt):
    """Words `basis sigma --max-weight N` emits: every word of weight <= N,
    with the empty word only in JSON."""
    return {w for w in reference["sigma"]["digests"]
            if word_weight(w) <= max_weight and (fmt == "json" or w != "e")}


def known_defects(reference, route):
    """Words on which `route` is recorded in the reference as wrong."""
    known = reference["sigma"].get("known_defects", {})
    return set(known.get("words", ())) if known.get("route") == route \
        else set()


def check_sigma(reference, max_weight, fmt, exit_code, text, route,
                cross=None):
    """Count (attempted, failed, known) for one `basis sigma` process of
    `route` and return its canonical entries as well.  An entry fails when
    it is missing, unexpected, differs from the reference digest, or (with
    `cross`, the entries of the other route) differs from the other route's
    entry.  `known` counts the failed entries that are present but wrong on
    a word the reference records as a known defect of `route`; they are
    part of `failed` too.  A nonzero exit code or unparseable output fails
    every expected entry, none of them known."""
    expected = expected_sigma_words(reference, max_weight, fmt)
    if exit_code != 0:
        return len(expected), len(expected), 0, {}
    try:
        entries = sigma_entries(text, fmt)
    except ValueError:
        return len(expected), len(expected), 0, {}
    digests = reference["sigma"]["digests"]
    defects = known_defects(reference, route)
    words = expected | set(entries)
    failed = known = 0
    for w in words:
        canon = entries.get(w)
        if (w not in expected or canon is None
                or digest(canon) != digests.get(w)
                or (cross is not None and cross.get(w) != canon)):
            failed += 1
            known += w in expected and canon is not None and w in defects
    return len(words), failed, known, entries


def check_verify(reference, max_weight, exit_code, text):
    """Count (attempted, failed) check lines of one `verify all` process.

    A check fails when it reads FAIL or is missing from the expected list
    for this N; an unexpected extra line fails too.  Exit code 1 is how
    `verify` reports a FAIL line; any other nonzero code, or 1 without a
    FAIL line, or unparseable output, fails every expected check."""
    expected = reference["verify"][str(max_weight)]
    try:
        checks = verify_checks(text)
    except ValueError:
        checks = None
    consistent = exit_code == 0 or (
        exit_code == 1 and checks and not all(p for _, p in checks))
    if checks is None or not consistent:
        return len(expected), len(expected)
    seen = dict(checks)
    names = list(expected) + [n for n in seen if n not in expected]
    failed = sum(1 for n in names if not seen.get(n, False)
                 or n not in expected)
    return len(names), failed
