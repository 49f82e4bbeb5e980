"""Self-test of the benchmark at a tiny N (about 30 s).

    python3 perfbench/selftest.py            # from the repository root

Checks that
  * every workload, untraced and traced, prints exactly the metrics that
    BENCHMARK.json names, each with its unit, and no failures at tiny N;
  * a corrupted reference entry makes the failed count rise above 0 on
    every workload, so the correctness check is live;
  * a wrong entry on a word recorded as the recursive route's known defect
    is counted as failed yet leaves `correct` true on that route only: the
    oracle route's wrong entry on the same word still makes `sigma`
    incorrect;
  * in a directory that holds only BENCHMARK.json and the benchmark's own
    files, the benchmark exits nonzero without printing a result.
Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "selftest")
TINY = {"sigma": 4, "recursive": 4, "verify": 3}


def bench(workload, trace, cwd=ROOT, extra=()):
    """Run the benchmark; -> (exit code, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--max-weight", str(TINY[workload])]
        + list(extra), cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def corrupt_reference(path, known=False):
    """Write a reference with the digest of "2,1" and one verify check name
    corrupted; with `known`, "2,1" is also a known recursive-route defect."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    digest = reference["sigma"]["digests"]["2,1"]
    reference["sigma"]["digests"]["2,1"] = digest[::-1]
    reference["verify"][str(TINY["verify"])][0] += " (corrupted)"
    if known:
        reference["sigma"]["known_defects"]["words"].append("2,1")
    with open(path, "w") as fh:
        json.dump(reference, fh)


def bare_copy(path):
    """BENCHMARK.json and the files under its paths, nothing else."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for rel in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), os.path.join(path, rel),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    results = []

    for workload in sorted(TINY):
        for trace in (0, 1):
            code, res = bench(workload, trace)
            printed = {} if res is None else {
                k: v.get("unit") for k, v in res["metrics"].items()}
            ok = (code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] > 0
                  and printed == wanted[trace])
            missing = sorted(set(wanted[trace]) - set(printed))
            results.append(("%s --trace %d prints every metric with its unit"
                            % (workload, trace), ok,
                            "missing %s" % missing if missing else ""))

    corrupted = os.path.join(SCRATCH, "corrupted-reference.json")
    corrupt_reference(corrupted)
    for workload in sorted(TINY):
        code, res = bench(workload, 0, extra=["--reference", corrupted])
        ok = code == 0 and res is not None and res["failed"] > 0 \
            and not res["correct"]
        results.append(("%s counts a corrupted reference entry as failed"
                        % workload, ok,
                        "" if res is None else "failed %d of %d"
                        % (res["failed"], res["attempted"])))

    known = os.path.join(SCRATCH, "known-defect-reference.json")
    corrupt_reference(known, known=True)
    for workload, correct in (("recursive", True), ("sigma", False)):
        code, res = bench(workload, 0, extra=["--reference", known])
        ok = code == 0 and res is not None and res["failed"] > 0 \
            and res["correct"] is correct
        results.append(("%s with a known recursive defect on 2,1: failed, "
                        "correct %s" % (workload, str(correct).lower()), ok,
                        "" if res is None else "failed %d of %d, correct %s"
                        % (res["failed"], res["attempted"], res["correct"])))

    bare = os.path.join(SCRATCH, "bare")
    bare_copy(bare)
    code, res = bench("sigma", 0, cwd=bare)
    results.append(("without the program: nonzero exit and no result",
                     code != 0 and res is None, "exit %d" % code))

    for name, ok, detail in results:
        print("%s: %s%s" % (name, "PASS" if ok else "FAIL",
                            " (%s)" % detail if detail else ""))
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
