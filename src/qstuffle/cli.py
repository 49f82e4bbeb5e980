"""Command-line frontend.

Subcommands: `lyndon` (graded listing), `product` (stuffle / shuffle /
concatenation of two words), `basis` (pi / sigma / chi / xi up to a weight
bound, with oracle / recursive / both methods for sigma) and `verify`
(invariant suites with a nonzero exit code on any failure).  Output is
deterministic: terms are sorted and fractions canonical.
"""

import argparse
import json
import sys
from fractions import Fraction

from ._version import __version__
from . import bases, ops
from .lyndon import lyndon_of_weight
from .ncpoly import word_poly
from .words import word_from_str, word_to_str


def _add_common(p):
    p.add_argument("--max-weight", type=int, default=6, metavar="N",
                   help="weight bound (default 6)")
    p.add_argument("--q", default=None, metavar="P/Q",
                   help="specialize q at an exact rational (default symbolic)")
    p.add_argument("--format", choices=("text", "latex", "json"),
                   default="text")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write output to FILE instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qstuffle",
        description="Exact computations in the q-stuffle Hopf algebra.")
    parser.add_argument("--version", action="version",
                        version="qstuffle %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lyndon", help="list Lyndon words by weight")
    _add_common(p)

    p = sub.add_parser("product", help="product of two words")
    p.add_argument("kind", choices=("stuffle", "shuffle", "conc"))
    p.add_argument("u", help="first word, e.g. \"2,1\" (\"e\" = empty)")
    p.add_argument("v", help="second word")
    _add_common(p)

    p = sub.add_parser("basis", help="emit a graded basis")
    p.add_argument("kind", choices=("pi", "sigma", "chi", "xi"))
    p.add_argument("--sigma-method", choices=("oracle", "recursive", "both"),
                   default="both")
    _add_common(p)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=("duality", "primitivity",
                                     "factorization", "axioms", "all"))
    _add_common(p)
    return parser


def _emit(text, out):
    """Write `text`, a str or an iterable of str written in order, to the
    file `out` or else to sys.stdout, ending with exactly one newline.  A
    file that cannot be written is a ValueError naming it."""
    if not out:
        return _write(sys.stdout, text)
    try:
        with open(out, "w") as fh:
            _write(fh, text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s"
                         % (out, exc.strerror or exc)) from exc


def _write(fh, text):
    last = ""
    for chunk in (text,) if isinstance(text, str) else text:
        if chunk:
            fh.write(chunk)
            last = chunk
    if not last.endswith("\n"):
        fh.write("\n")


def _render_poly(p, fmt, q_value):
    if q_value is not None:
        p = p.subs_q(q_value)
    if fmt == "text":
        return p.text()
    if fmt == "latex":
        return p.latex()
    return json.dumps(p.to_json())


def _cmd_lyndon(args):
    if args.format == "json":
        data = {str(n): [word_to_str(w) for w in lyndon_of_weight(n)]
                for n in range(1, args.max_weight + 1)}
        _emit(json.dumps(data, indent=2), args.out)
        return 0
    lines = []
    for n in range(1, args.max_weight + 1):
        ws = " ".join(word_to_str(w) for w in lyndon_of_weight(n))
        lines.append("weight %d: %s" % (n, ws))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_product(args, q_value):
    u = word_from_str(args.u)
    v = word_from_str(args.v)
    if args.kind == "stuffle":
        p = ops.stuffle(u, v)
    elif args.kind == "shuffle":
        p = ops.shuffle(u, v)
    else:
        p = word_poly(u + v)
    _emit(_render_poly(p, args.format, q_value), args.out)
    return 0


def _cmd_basis(args, q_value):
    n = args.max_weight
    if args.kind == "sigma" and args.sigma_method == "both":
        basis = bases.dual_pbw_oracle(n)
        mismatch = next(bases.sigma_mismatches(basis), None)
        if mismatch:
            w, recursive = mismatch
            sys.stderr.write(
                "sigma method mismatch at %s:\n  oracle:    %s\n"
                "  recursive: %s\n"
                % (word_to_str(w), basis.entry(w).text(), recursive.text()))
            return 1
    else:
        method = args.sigma_method if args.kind == "sigma" else "oracle"
        basis = bases.basis_by_kind(args.kind, n, sigma_method=method)

    if args.format == "json":
        _emit(basis.json_chunks(q_value), args.out)
    else:
        rows = basis.latex_rows(q_value) if args.format == "latex" \
            else basis.text_rows(q_value)
        _emit((row + "\n" for row in rows), args.out)
    return 0


def _cmd_verify(args):
    n = args.max_weight
    sigma = bases.dual_pbw_oracle(n) if args.suite in (
        "all", "duality", "factorization") else None  # one solve for both
    suites = {
        "duality": lambda: bases.verify_duality(n, sigma),
        "primitivity": lambda: bases.verify_primitivity(n),
        "factorization": lambda: bases.verify_factorization(n, sigma),
        "axioms": lambda: ops.verify_axioms(n),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    reports = [suites[name]() for name in names]
    if args.format == "json":
        _emit(json.dumps([r.to_json() for r in reports], indent=2), args.out)
    else:
        lines = []
        for r in reports:
            lines.extend(r.lines())
        _emit("\n".join(lines), args.out)
    return 0 if all(r.ok for r in reports) else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_weight < 1:
        sys.stderr.write("error: --max-weight must be >= 1\n")
        return 2
    if args.command in ("lyndon", "verify") and args.q is not None:
        sys.stderr.write("error: --q does not apply to %s\n" % args.command)
        return 2
    try:
        q_value = Fraction(args.q) if getattr(args, "q", None) else None
    except (ValueError, ZeroDivisionError):
        sys.stderr.write("malformed rational for --q: %r\n" % args.q)
        return 2
    try:
        if args.command == "lyndon":
            return _cmd_lyndon(args)
        if args.command == "product":
            return _cmd_product(args, q_value)
        if args.command == "basis":
            return _cmd_basis(args, q_value)
        if args.command == "verify":
            return _cmd_verify(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    parser.error("unknown command")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
