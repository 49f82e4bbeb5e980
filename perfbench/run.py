"""Benchmark of the qstuffle CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload sigma --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the repository root; it imports nothing from qstuffle itself and
runs `python3 -m qstuffle.cli` from ./src in fresh child processes, one at a
time (a closed loop with one client).  Workloads are fixed enumerations of
all words up to weight N; see perfbench/README.md for why each was chosen
and why BENCHMARK.json gates only `sigma` and `verify`.

--trace 0 repeats the workload until --seconds have passed and reports the
end-to-end metrics: wall_s (median over iterations of the summed child wall
times), peak_rss_mb (largest child peak RSS, from os.wait4) and setup_s
(median wall time of fresh `qstuffle --version` processes, started
before the first and after every iteration).  --trace 1 runs the
workload once untraced and once through perfbench/tracer.py, and reports
the per-layer metrics; spans go to perfbench/out/spans-*.jsonl.

Every emitted Sigma entry and every verify check line is one operation; it
fails when it differs from perfbench/reference.json (or, on `sigma`, when the
recursive route differs from the oracle route).  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  `failed` counts
every failed operation.  `correct` is false when any of them is other than a
wrong recursive-route entry on a word that reference.json records as that
route's known defect; those are printed apart as known failures.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import outputs

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# `--version` starts timed before the first and after every iteration, so
# the setup_s samples spread over the whole run as the host's speed drifts.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150
MAX_WEIGHT = {"sigma": 9, "recursive": 10, "verify": 7}


def workload_commands(workload, n, rng):
    """The CLI argv lists of one iteration, each with its output format."""
    if workload == "sigma":
        routes = ["oracle", "recursive"]
        rng.shuffle(routes)
        return [(["basis", "sigma", "--format", "json", "--max-weight", str(n),
                  "--sigma-method", route], "json", route) for route in routes]
    if workload == "recursive":
        return [(["basis", "sigma", "--sigma-method", "recursive",
                  "--max-weight", str(n)], "text", "recursive")]
    return [(["verify", "all", "--max-weight", str(n)], "text", "verify")]


class Runner:
    """Starts one child at a time from the repository root and waits for it."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")

    def run(self, cmd, out_path):
        """-> (wall seconds, peak RSS in MB, exit code); stdout to out_path.
        A child still running after CHILD_TIMEOUT_S is killed."""
        with open(out_path, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, cwd=self.root,
                                    env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def cli(self, argv, out_path):
        return self.run([sys.executable, "-m", "qstuffle.cli"] + argv,
                        out_path)


class Checker:
    """Counts attempted and failed operations over a run.

    A pass whose exit codes and output bytes equal an earlier pass's gets
    that pass's verdict without parsing again."""

    def __init__(self, reference, n):
        self.reference = reference
        self.n = n
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.verdicts = {}

    def check(self, results):
        """results: [(fmt, route, exit code, output path)] of one pass."""
        texts = []
        for fmt, route, code, path in results:
            with open(path, "rb") as fh:
                texts.append(fh.read())
        key = tuple((route, code, hashlib.sha256(text).digest())
                    for (_, route, code, _), text in zip(results, texts))
        if key not in self.verdicts:
            self.verdicts[key] = self._count(
                [(fmt, route, code, text.decode("utf-8", "replace"))
                 for (fmt, route, code, _), text in zip(results, texts)])
        attempted, failed, known = self.verdicts[key]
        self.attempted += attempted
        self.failed += failed
        self.known += known

    def _count(self, results):
        attempted = failed = known = 0
        by_route = {}
        for fmt, route, code, text in sorted(results,
                                             key=lambda r: r[1] != "oracle"):
            if route == "verify":
                a, f = outputs.check_verify(self.reference, self.n, code, text)
                k = 0
            else:
                a, f, k, by_route[route] = outputs.check_sigma(
                    self.reference, self.n, fmt, code, text, route,
                    cross=by_route.get("oracle"))
            attempted += a
            failed += f
            known += k
        return attempted, failed, known


def start_cli(runner):
    """Wall time of a fresh `qstuffle --version`: interpreter start plus
    importing every module."""
    return runner.cli(["--version"], os.path.join(OUT_DIR, "version.txt"))[0]


def run_untraced(runner, checker, workload, n, rng, tag):
    """One iteration: every command of the workload in a fresh process."""
    wall, rss, results = 0.0, 0.0, []
    for i, (argv, fmt, route) in enumerate(workload_commands(workload, n, rng)):
        path = os.path.join(OUT_DIR, "%s-%s-%d.out" % (workload, tag, i))
        w, r, code = runner.cli(argv, path)
        wall += w
        rss = max(rss, r)
        results.append((fmt, route, code, path))
    checker.check(results)
    return wall, rss


def measure(runner, checker, workload, n, seconds, rng):
    start_cli(runner)  # untimed: writes the bytecode caches
    setup = [start_cli(runner) for _ in range(SETUP_SAMPLES)]
    walls, rss = [], 0.0
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        w, r = run_untraced(runner, checker, workload, n, rng, "e2e")
        walls.append(w)
        rss = max(rss, r)
        setup += [start_cli(runner) for _ in range(SETUP_SAMPLES)]
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (rss, "MB", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def trace(runner, checker, workload, n, rng):
    start_cli(runner)
    untraced, _ = run_untraced(runner, checker, workload, n, rng, "untraced")
    merged, traced, results = {}, 0.0, []
    for i, (argv, fmt, route) in enumerate(workload_commands(workload, n, rng)):
        stem = os.path.join(OUT_DIR, "%s-traced-%d" % (workload, i))
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
               "--out", stem + ".out", "--metrics", stem + ".metrics.json",
               "--spans", os.path.join(OUT_DIR, "spans-%s-%s.jsonl"
                                       % (workload, route)), "--"] + argv
        if os.path.exists(stem + ".metrics.json"):
            os.remove(stem + ".metrics.json")
        w, _, code = runner.run(cmd, stem + ".log")
        traced += w
        if not os.path.exists(stem + ".metrics.json"):
            raise RuntimeError("traced run of %s wrote no metrics (exit %d)"
                               % (" ".join(argv), code))
        results.append((fmt, route, code, stem + ".out"))
        with open(stem + ".metrics.json") as fh:
            for name, value in json.load(fh).items():
                if name == "coeff.max_qterms":
                    merged[name] = max(merged.get(name, 0), value)
                else:
                    merged[name] = merged.get(name, 0) + value
    checker.check(results)
    merged["trace.wall_s"] = traced
    merged["trace.untraced_wall_s"] = untraced
    merged["trace.overhead_s"] = traced - untraced
    return {name: (value, "s" if name.endswith("_s") or "_s." in name
                   else "count", 1) for name, value in merged.items()}


def run_workload(root, reference, workload, seed, seconds, traced, n=None):
    n = n or MAX_WEIGHT[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(root)
    checker = Checker(reference, n)
    rng = random.Random(seed)
    if traced:
        metrics = trace(runner, checker, workload, n, rng)
    else:
        metrics = measure(runner, checker, workload, n, seconds, rng)
    return checker, metrics


def result_line(checker, metrics):
    return json.dumps({
        "correct": checker.failed == checker.known,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def describe(workload, n, checker, metrics):
    print("workload %s (max weight %d)" % (workload, n))
    for name, (value, unit, samples) in metrics.items():
        print("  %-32s %14.6g %-5s (%d sample%s)"
              % (name, value, unit, samples, "" if samples == 1 else "s"))
    print("  %-32s %14.6g share (%d failed of %d attempted, %d of them "
          "the recursive route's known defect)"
          % ("failed_share", checker.failed / max(checker.attempted, 1),
             checker.failed, checker.attempted, checker.known))


def main():
    parser = argparse.ArgumentParser(
        description="qstuffle benchmark (run from the repository root)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(MAX_WEIGHT) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-weight", type=int, default=None,
                        help="override the workload's N (self-test only)")
    parser.add_argument("--reference", default=os.path.join(
        HERE, "reference.json"), help="correctness reference to check against")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qstuffle", "cli.py")):
        sys.stderr.write("no qstuffle sources under %s; run from the "
                         "repository root\n" % os.path.join(root, "src"))
        return 2
    with open(args.reference) as fh:
        reference = json.load(fh)

    if args.workload != "all":
        checker, metrics = run_workload(root, reference, args.workload,
                                        args.seed, args.seconds, args.trace,
                                        args.max_weight)
        describe(args.workload, args.max_weight or MAX_WEIGHT[args.workload],
                 checker, metrics)
        print(result_line(checker, metrics))
        return 0
    summary = {}
    for workload in sorted(MAX_WEIGHT):
        checker, metrics = run_workload(root, reference, workload, args.seed,
                                        args.seconds, args.trace,
                                        args.max_weight)
        describe(workload, args.max_weight or MAX_WEIGHT[workload], checker,
                 metrics)
        summary[workload] = json.loads(result_line(checker, metrics))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
