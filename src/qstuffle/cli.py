"""Command-line frontend.

Subcommands: `lyndon` (graded listing), `product` (stuffle / shuffle /
concatenation of two words), `basis` (pi / sigma / chi / xi up to a weight
bound, with oracle / recursive / both methods for sigma) and `verify`
(invariant suites with a nonzero exit code on any failure).  Output is
deterministic: terms are sorted and fractions canonical.

Each command takes only the options it reads; the parser refuses any other
option or value, and the commands refuse a `--max-weight` over their cap
(`MAX_WEIGHT`), a product over its size caps and an `--out` file they
cannot write (`_check_out`) before any work.  Every
refusal is one `error:` line on stderr and exit code 2, with nothing on
stdout; a failed cross-check or shape check of a built family (a
RuntimeError) is its message alone, exit 1.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import comb

from ._version import __version__
from . import bases, ops
from .lyndon import lyndon_of_weight
from .ncpoly import word_poly
from .words import echo, word_from_str, word_to_str


class _Parser(argparse.ArgumentParser):
    """Refuses with one `error:` line, exit code 2; so do its subparsers."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def _max_weight(text):
    """An int >= 1 in ASCII digits; one of more digits than every cap of
    `MAX_WEIGHT` is refused before `int` reads it (it refuses 4,300)."""
    digits = text.lstrip("0")
    if not (text.isascii() and text.isdigit() and digits):
        raise argparse.ArgumentTypeError("must be an int >= 1, not %s"
                                         % echo(text))
    cap = max(MAX_WEIGHT.values())
    if len(digits) > len(str(cap)):
        raise argparse.ArgumentTypeError(
            "no command takes more than %d, not %s" % (cap, echo(text)))
    return int(digits)


def _significant(text):
    """The number of digits in text, leading zeros dropped."""
    return len("".join(re.findall(r"\d", text)).lstrip("0"))


def _rational(text):
    """A rational with no exponent (slow to expand) and with numerator and
    denominator below 10^30, so that a printed coefficient (at most 128 such
    powers of q times an int under 10^99) has under 4,300 digits.  As `int`
    reads at most 4,300 digits, `Fraction` first reads the form with every
    run of digits made 1; numerator and denominator are then bounded as
    written (k places of a decimal write the denominator 10^k), and leading
    zeros are dropped before `Fraction` reads the value."""
    head, _, den = text.partition("/")
    whole, _, places = head.partition(".")
    over = max(_significant(whole + places), _significant(den),
               _significant("1" + places)) > 30
    try:
        if "e" in text.lower():
            raise ValueError
        Fraction(re.sub(r"\d+(?:_\d+)*", "1", text))
        q = None if over else Fraction(re.sub(r"(?<![\d._])[0_]+(?=\d)", "",
                                              text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("malformed rational %s" % echo(text))
    if over or max(abs(q.numerator), q.denominator) >= 10 ** 30:
        raise argparse.ArgumentTypeError(
            "numerator and denominator must be below 10^30, not %s"
            % echo(text))
    return q


def build_parser():
    """The parser; each subcommand's `run` is its handler as bound now."""
    parser = _Parser(prog="qstuffle", description="Exact computations in "
                     "the q-stuffle Hopf algebra.")
    parser.add_argument("--version", action="version",
                        version="qstuffle %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, weight=True, polys=True):
        """A subcommand; one whose output is `polys` takes --q and LaTeX."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if weight:
            p.add_argument("--max-weight", type=_max_weight, default=6,
                           metavar="N", help="weight bound (default 6)")
        if polys:
            p.add_argument("--q", type=_rational, metavar="P/Q",
                           help="specialize q at P/Q (default symbolic)")
        p.add_argument("--format", default="text", choices=(
            "text", "latex", "json") if polys else ("text", "json"))
        p.add_argument("--out", metavar="FILE",
                       help="write output to FILE instead of stdout")
        return p

    command("lyndon", _cmd_lyndon, "list Lyndon words by weight",
            polys=False)
    p = command("product", _cmd_product, "product of two words",
                weight=False)
    p.add_argument("kind", choices=("stuffle", "shuffle", "conc"))
    p.add_argument("u", help="first word, e.g. \"2,1\" (\"e\" = empty)")
    p.add_argument("v", help="second word")
    p = command("basis", _cmd_basis, "emit a graded basis")
    p.add_argument("kind", choices=tuple(bases.KINDS))
    p.add_argument("--sigma-method", choices=bases.SIGMA_METHODS,
                   help="sigma only (default both)")
    p = command("verify", _cmd_verify, "run an invariant suite", polys=False)
    p.add_argument("suite", choices=("duality", "primitivity",
                                     "factorization", "axioms", "all"))
    return parser


def _unwritable(out, exc):
    return ValueError("cannot write %s: %s" % (out, exc.strerror or exc))


def _check_out(out):
    """Refuse, untouched, a file `out` that `_emit` could not open: a new
    file, or the missing target of a dangling link, is made and removed, an
    existing file or directory opened without truncation, a link loop or
    an empty path refused; a pipe or a device is left to `_emit`."""
    path = os.path.realpath(out) if out and not os.path.exists(out) else out
    try:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.remove(path)
        except FileExistsError:
            os.stat(path)  # a link loop exists yet resolves to nothing
            if os.path.isfile(path) or os.path.isdir(path):
                os.close(os.open(path, os.O_WRONLY))
    except OSError as exc:
        raise _unwritable(out, exc) from exc


def _emit(text, out):
    """Write `text`, a str or an iterable of str written in order, to the
    file `out` or else to sys.stdout, ending with exactly one newline.  A
    file that cannot be written is a ValueError naming it."""
    if out is None:
        _write(sys.stdout, text)
        sys.stdout.flush()  # a closed pipe raises here, inside main's try
        return
    try:
        with open(out, "w") as fh:
            _write(fh, text)
    except OSError as exc:
        raise _unwritable(out, exc) from exc


def _write(fh, text):
    last = ""
    for chunk in (text,) if isinstance(text, str) else text:
        if chunk:
            fh.write(chunk)
            last = chunk
    if not last.endswith("\n"):
        fh.write("\n")


def _render_poly(p, fmt, q):
    p = p if q is None else p.subs_q(q)
    return p.text() if fmt == "text" else p.latex() if fmt == "latex" \
        else json.dumps(p.to_json())


# The largest --max-weight of each command, of `basis` by kind.  Peak memory
# grows 3 to 3.6x per weight for `basis` and `verify`; from runs at each cap
# less one (2-core, 7 GB host), no cap takes more than 4 GB.  `lyndon` grows
# about 2x in time and 1.8x in memory per weight; at its cap it took 27 s and
# 200 MB there.
MAX_WEIGHT = {"lyndon": 22, "basis pi": 15, "basis chi": 15, "basis xi": 14,
              "basis sigma": 13, "verify": 12}


def _weight(args, command):
    """args.max_weight, refused over the cap of `command`."""
    if args.max_weight > MAX_WEIGHT[command]:
        raise ValueError("%s takes --max-weight at most %d, not %d"
                         % (command, MAX_WEIGHT[command], args.max_weight))
    return args.max_weight


def _cmd_lyndon(args):
    listing = {str(n): [word_to_str(w) for w in lyndon_of_weight(n)]
               for n in range(1, _weight(args, "lyndon") + 1)}
    _emit(json.dumps(listing, indent=2) if args.format == "json" else
          "\n".join("weight %s: %s" % (n, " ".join(ws))
                    for n, ws in listing.items()), args.out)
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


def _cmd_product(args):
    for part in (args.u + "," + args.v).split(","):
        part = part.strip()  # 8 digits are over the weight bound alone
        if part.isascii() and part.isdigit() and len(part.lstrip("0")) > 7:
            raise ValueError("the %s of two words takes at most weight %d in "
                             "all, not a letter of %d digits"
                             % (args.kind, MAX_PRODUCT_WEIGHT, len(part)))
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
    _emit(_render_poly(p, args.format, args.q), args.out)
    return 0


def _cmd_basis(args):
    basis = bases.basis_by_kind(args.kind, _weight(args, "basis " + args.kind),
                                args.sigma_method)
    _emit(basis.json_chunks(args.q) if args.format == "json" else
          (row + "\n" for row in basis.rows(args.format, args.q)), args.out)
    return 0


def _cmd_verify(args):
    n = _weight(args, "verify")
    suites = {"duality": bases.verify_duality,
              "primitivity": bases.verify_primitivity,
              "factorization": bases.verify_factorization,
              "axioms": ops.verify_axioms}
    names = list(suites) if args.suite == "all" else [args.suite]
    reports = [suites[name](n) for name in names]
    _emit(json.dumps([r.to_json() for r in reports], indent=2)
          if args.format == "json" else
          "\n".join(line for r in reports for line in r.lines()), args.out)
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
    args = build_parser().parse_args(_joined_q(list(
        sys.argv[1:] if argv is None else argv)))
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.run(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except RuntimeError as exc:  # a cross-check or a shape check failed
        sys.stderr.write("%s\n" % exc)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so that
        # the interpreter's final flush does not raise again, and end
        # quietly (the recipe of the "Note on SIGPIPE" in Python's docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
