"""Command-line frontend.

Subcommands: `lyndon` (graded listing), `product` (stuffle / shuffle /
concatenation of two words), `basis` (pi / sigma / chi / xi up to a weight
bound, with oracle / recursive / both methods for sigma) and `verify`
(invariant suites with a nonzero exit code on any failure).  Output is
deterministic: terms are sorted and fractions canonical.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from math import comb

from ._version import __version__
from . import bases, ops
from .lyndon import lyndon_of_weight
from .ncpoly import word_poly
from .words import word_from_str, word_to_str


def _add_common(p):
    p.add_argument("--max-weight", type=int, default=6, metavar="N",
                   help="weight bound (default 6; not for product)")
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
    p.set_defaults(max_weight=None)  # no bound: refused when given

    p = sub.add_parser("basis", help="emit a graded basis")
    p.add_argument("kind", choices=tuple(bases.KINDS))
    p.add_argument("--sigma-method", choices=bases.SIGMA_METHODS,
                   help="sigma only (default both)")
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
        _write(sys.stdout, text)
        sys.stdout.flush()  # a closed pipe raises here, inside main's try
        return
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


# The stuffle and shuffle recurse once per letter; a word code has one bit
# per unit of weight.  At most MAX_PRODUCT_TERMS terms of up to 16 letters,
# fewer in proportion to longer terms (256 bits of a code count as a letter):
# the largest accepted products took 8 s and 720 MB on a 2-core host.
MAX_PRODUCT_LETTERS = 256
MAX_PRODUCT_WEIGHT = 1 << 20
MAX_PRODUCT_TERMS = 500_000


def _term_bound(kind, a, b, w):
    """Terms at most in the `kind` product of words of a and b letters and
    weight w: one per path of its recursion (Delannoy or binomial), one per
    word of weight w and a length it reaches, as a term's power of q is
    fixed by its length (a + b letters, down to max(a, b) for the stuffle)."""
    if kind == "conc" or not w:
        return 1
    if kind == "shuffle":
        return min(comb(a + b, a), comb(w - 1, a + b - 1))
    paths = sum(comb(a, k) * comb(b, k) << k for k in range(min(a, b) + 1))
    return min(paths, sum(comb(w - 1, n - 1)
                          for n in range(max(a, b), a + b + 1)))


def _cmd_product(args, q_value):
    if args.max_weight is not None:
        raise ValueError("--max-weight does not apply to product")
    u, v = word_from_str(args.u), word_from_str(args.v)
    letters, w = len(u) + len(v), sum(u + v)
    if args.kind != "conc" and letters > MAX_PRODUCT_LETTERS:
        raise ValueError("the %s of two words takes at most %d letters in "
                         "all, not %d" % (args.kind, MAX_PRODUCT_LETTERS,
                                          letters))
    if w > MAX_PRODUCT_WEIGHT:
        raise ValueError("the %s of two words takes at most weight %d in "
                         "all, not %d" % (args.kind, MAX_PRODUCT_WEIGHT, w))
    terms = _term_bound(args.kind, len(u), len(v), w)
    allowed = MAX_PRODUCT_TERMS * 16 // max(16, letters + w // 256)
    if terms > allowed:
        raise ValueError("the %s of two words of %d and %d letters and weight "
                         "%d may have %d terms, more than the %d allowed at "
                         "that size" % (args.kind, len(u), len(v), w, terms,
                                        allowed))
    if args.kind == "stuffle":
        p = ops.stuffle(u, v)
    elif args.kind == "shuffle":
        p = ops.shuffle(u, v)
    else:
        p = word_poly(u + v)
    _emit(_render_poly(p, args.format, q_value), args.out)
    return 0


def _cmd_basis(args, q_value):
    try:
        basis = bases.basis_by_kind(args.kind, args.max_weight,
                                    args.sigma_method)
    except RuntimeError as exc:  # the two sigma methods disagree
        sys.stderr.write("%s\n" % exc)
        return 1
    _emit(basis.json_chunks(q_value) if args.format == "json" else
          (row + "\n" for row in basis.rows(args.format, q_value)), args.out)
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


def _joined_q(argv):
    """argv with `--q -1/2` joined into `--q=-1/2`: argparse reads a value
    that starts with "-" as an option unless it is a plain number, and a
    negative fraction is not."""
    for i, arg in enumerate(argv[:-1]):
        value = argv[i + 1]
        if arg == "--q" and value[:1] == "-" and value[1:2].isdigit():
            return argv[:i] + ["--q=" + value] + argv[i + 2:]
    return argv


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_joined_q(list(sys.argv[1:] if argv is None
                                            else argv)))
    if args.command != "product" and args.max_weight < 1:
        sys.stderr.write("error: --max-weight must be >= 1\n")
        return 2
    ignored = "--q" if args.q is not None else \
        "--format latex" if args.format == "latex" else None
    if args.command in ("lyndon", "verify") and ignored:
        sys.stderr.write("error: %s does not apply to %s\n"
                         % (ignored, args.command))
        return 2
    try:
        q_value = None if args.q is None else Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        sys.stderr.write("error: malformed rational for --q: %r\n" % args.q)
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
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so that
        # the interpreter's final flush does not raise again, and end
        # quietly (the recipe of the "Note on SIGPIPE" in Python's docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    parser.error("unknown command")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
