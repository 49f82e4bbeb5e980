"""Traced in-process run of one qstuffle CLI command.

    python3 perfbench/tracer.py --out OUT --metrics METRICS --spans SPANS \
        -- basis sigma --sigma-method recursive --max-weight 10

Imports qstuffle from ./src, wraps the public functions of its modules,
runs `qstuffle.cli.main(argv)` with stdout captured into OUT, writes every
span (one JSON object per line: id, name, start, end, parent, key) to SPANS
and the per-layer metrics derived from spans and counters to METRICS.

Coarse functions get one span per call; for the lru-cached ones a cache hit
leaves no span.  Hot leaf functions and methods get a per-name call count
and total time instead (nested calls of a group are counted, not re-timed).
A wrapper replaces the name in the defining module or class and in every
qstuffle module that imported it, so calls from any module go through it.
"""

import argparse
import io
import json
import os
import sys
import types
from collections import Counter
from contextlib import redirect_stdout
from time import perf_counter

WEIGHTS = range(1, 11)


class Tracer:

    def __init__(self, modules):
        self.modules = modules
        self.spans = []    # [name, start, end, parent index, key]
        self.stack = []
        self.timers = {}   # group -> [calls, seconds, depth]
        self.counts = Counter()

    def rebind(self, owner, name, wrapper):
        original = getattr(owner, name)
        setattr(owner, name, wrapper)
        if isinstance(owner, types.ModuleType):
            for mod in self.modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)

    def span(self, owner, name, label, key=None):
        """One span per call; a call answered from an lru_cache leaves none."""
        fn = getattr(owner, name)
        cache_info = getattr(fn, "cache_info", None)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [label, 0.0, 0.0, stack[-1] if stack else -1,
                      key(args) if key else None]
            spans.append(record)
            stack.append(index)
            misses = cache_info().misses if cache_info else None
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if cache_info and cache_info().misses == misses:
                    del spans[index:]
        self.rebind(owner, name, wrapper)

    def timed(self, owner, name, group):
        """Count calls and time the outermost call of a group of hot names."""
        fn = getattr(owner, name)
        stat = self.timers.setdefault(group, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if stat[2]:
                return fn(*args, **kwargs)
            stat[2] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - start
                stat[2] = 0
        self.rebind(owner, name, wrapper)

    def counted(self, owner, name, on_call):
        """Call `on_call(args, result)` after every call of a hot method."""
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, result)
            return result
        self.rebind(owner, name, wrapper)


def install(tracer, q):
    """Wrap the layers of the qstuffle package `q` (its modules as attrs)."""
    bases, ops, ncpoly, coeff = q.bases, q.ops, q.ncpoly, q.coeff
    lyndon, eulerian, report, cli = q.lyndon, q.eulerian, q.report, q.cli
    counts = tracer.counts
    pbw_element = bases.pbw_element
    word_tuples = eulerian._word_tuples

    for name in ("main", "_cmd_basis", "_cmd_verify"):
        tracer.span(cli, name, "cli." + name)
    for name in ("dual_pbw_oracle", "pbw_element", "basis_by_kind",
                 "verify_duality", "verify_primitivity",
                 "verify_factorization"):
        tracer.span(bases, name, "bases." + name)
    tracer.span(bases, "dual_pbw_element", "bases.dual_pbw_element",
                key=lambda a: sum(a[0]))
    tracer.span(bases, "_invert_unit_upper", "bases._invert_unit_upper",
                key=lambda a: len(a[0]).bit_length())
    tracer.span(bases.GradedBasis, "check_triangular", "bases.check_triangular")
    for name in ("is_primitive", "verify_axioms"):
        tracer.span(ops, name, "ops." + name)
    for name in ("primitive_projector", "primitive_projector_letter"):
        tracer.span(eulerian, name, "eulerian." + name)

    tracer.timed(ops, "stuffle_poly", "ops.stuffle_poly")
    tracer.timed(ops, "stuffle_coproduct", "ops.coproduct")
    tracer.timed(ops, "deconcat_coproduct", "ops.coproduct")
    tracer.timed(ncpoly.Tensor2, "combine", "ncpoly.combine")
    tracer.timed(lyndon, "cfl_factorization", "lyndon.cfl")
    tracer.timed(lyndon, "converse_tree", "lyndon.converse_tree")
    for owner, name in ((ncpoly.NCPoly, "text"), (ncpoly.NCPoly, "latex"),
                        (ncpoly.NCPoly, "to_json"),
                        (bases.GradedBasis, "to_json"), (cli, "_emit")):
        tracer.timed(owner, name, "cli.render")
    cli.json = types.SimpleNamespace(dumps=cli.json.dumps)
    tracer.timed(cli.json, "dumps", "cli.render")

    def on_add(args, result):
        if result is NotImplemented:
            return
        counts["ncpoly.add_calls"] += 1
        counts["ncpoly.add_terms_copied"] += len(args[0]._terms)
        counts["ncpoly.output_nnz"] += len(result._terms)
    tracer.counted(ncpoly.NCPoly, "__add__", on_add)
    tracer.counted(ncpoly.Tensor2, "__add__", on_add)

    def qpoly_counter(metric):
        def on_call(args, result):
            counts[metric] += 1
            n = len(result._terms) if type(result) is coeff.QPoly else 0
            if n > counts["coeff.max_qterms"]:
                counts["coeff.max_qterms"] = n
        return on_call
    for name in ("__add__", "__radd__"):
        tracer.counted(coeff.QPoly, name, qpoly_counter("coeff.qpoly_add"))
    for name in ("__mul__", "__rmul__"):
        tracer.counted(coeff.QPoly, name, qpoly_counter("coeff.qpoly_mul"))

    word_tuple_weights = set()
    tracer.counted(eulerian, "_word_tuples",
                   lambda args, result: word_tuple_weights.add(args[0]))
    oracle_bases = []
    tracer.counted(bases, "dual_pbw_oracle",
                   lambda args, result: oracle_bases.append(result))

    def on_check(args, result):
        counts["report.checks"] += 1
        counts["report.failed"] += not args[2]
    tracer.counted(report.Report, "add", on_check)

    def finish():
        """Counters read once the command has ended, outside any timing."""
        info = ops._stuffle.cache_info()
        counts["ops.stuffle_cache_hits"] = info.hits
        counts["ops.stuffle_cache_misses"] = info.misses
        counts["eulerian.word_tuples"] = sum(
            len(word_tuples(k)) for k in word_tuple_weights)
        for basis in oracle_bases:
            counts["bases.solve_nnz_out"] += sum(
                len(p._terms) for p in basis.entries.values())
            counts["bases.solve_nnz_in"] += sum(
                len(pbw_element(w)._terms) for w in basis.entries if w)
    return finish


def derive(tracer):
    """Per-layer metrics from the spans and counters of one traced run."""
    spans = tracer.spans
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def covered(i, names):
        """Time under span i spent in descendant spans named in `names`."""
        return sum(dur(c) if spans[c][0] in names else covered(c, names)
                   for c in children[i])

    def total(name):
        """Time in the outermost spans named `name`."""
        out = 0.0
        for i, s in enumerate(spans):
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out += dur(i)
        return out

    m = {}
    m["bases.solve_s"] = sum(
        dur(i) - covered(i, {"bases.pbw_element", "bases.check_triangular"})
        for i, s in enumerate(spans) if s[0] == "bases.dual_pbw_oracle")
    m["bases.pbw_s"] = total("bases.pbw_element")
    m["bases.check_triangular_s"] = total("bases.check_triangular")
    solve_w = Counter()
    recursive_w = Counter()
    for i, s in enumerate(spans):
        if s[0] == "bases._invert_unit_upper":
            solve_w[s[4]] += dur(i)
        elif s[0] == "bases.dual_pbw_element":
            recursive_w[s[4]] += dur(i) - covered(
                i, {"bases.dual_pbw_element"})
    m["bases.recursive_s"] = sum(recursive_w.values())
    for k in WEIGHTS:
        m["bases.solve_s.w%d" % k] = solve_w[k]
        m["bases.recursive_s.w%d" % k] = recursive_w[k]
    for name in ("verify_duality", "verify_primitivity",
                 "verify_factorization"):
        m["bases.%s_s" % name] = total("bases." + name)
    m["ops.is_primitive_s"] = total("ops.is_primitive")
    m["ops.verify_axioms_s"] = total("ops.verify_axioms")
    m["eulerian.projector_s"] = total("eulerian.primitive_projector")
    m["eulerian.projector_letter_s"] = total(
        "eulerian.primitive_projector_letter")
    timers = tracer.timers
    m["ops.stuffle_poly_s"] = timers["ops.stuffle_poly"][1]
    m["ops.stuffle_poly_calls"] = timers["ops.stuffle_poly"][0]
    m["ops.coproduct_s"] = timers["ops.coproduct"][1]
    m["ncpoly.combine_s"] = timers["ncpoly.combine"][1]
    m["lyndon.cfl_s"] = timers["lyndon.cfl"][1]
    m["lyndon.cfl_calls"] = timers["lyndon.cfl"][0]
    m["lyndon.converse_tree_s"] = timers["lyndon.converse_tree"][1]
    m["lyndon.converse_nodes"] = timers["lyndon.converse_tree"][0]
    m["cli.render_s"] = timers["cli.render"][1]
    for name in ("ncpoly.add_calls", "ncpoly.add_terms_copied",
                 "ncpoly.output_nnz", "coeff.qpoly_add", "coeff.qpoly_mul",
                 "report.checks", "report.failed", "ops.stuffle_cache_hits",
                 "ops.stuffle_cache_misses", "eulerian.word_tuples",
                 "bases.solve_nnz_in", "bases.solve_nnz_out",
                 "coeff.max_qterms"):
        m[name] = tracer.counts[name]
    m["trace.spans"] = len(spans)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import qstuffle.cli
    tracer = Tracer([mod for name, mod in sys.modules.items()
                     if name.split(".")[0] == "qstuffle"])
    finish = install(tracer, qstuffle)
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = qstuffle.cli.main(argv)
    finish()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(captured.getvalue())
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(args.spans, "w") as fh:
        for i, (name, start, end, parent, key) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                 "end": end - t0, "parent": parent,
                                 "key": key}) + "\n")
    with open(args.metrics, "w") as fh:
        json.dump(derive(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
