"""Write perfbench/reference.json, the correctness reference of the benchmark.

    python3 perfbench/make_reference.py      # from the repository root

It stores a digest of every canonical Sigma entry up to weight 10, computed
by the triangular-solve route (`basis sigma --sigma-method oracle`, the
library's authority for the dual basis), and the list of check lines that
`verify all` prints for each N from 1 to 7.  It also records the words on
which the recursive route (`--sigma-method recursive`) disagrees with those
digests: the known defect of that route, which the benchmark counts as
failed operations without calling the run incorrect.  Run it once; it takes
about 70 s and 100 MB.  The benchmark never regenerates it.
"""

import json
import os
import subprocess
import sys

import outputs

SIGMA_MAX_WEIGHT = 10
VERIFY_MAX_WEIGHTS = range(1, 8)


def _cli(root, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "qstuffle.cli"] + argv,
                          cwd=root, env=env, capture_output=True, text=True,
                          encoding="utf-8", check=True)
    return proc.stdout


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    text = _cli(root, ["basis", "sigma", "--sigma-method", "oracle",
                       "--format", "json",
                       "--max-weight", str(SIGMA_MAX_WEIGHT)])
    entries = outputs.sigma_entries(text, "json")
    digests = {w: outputs.digest(c) for w, c in entries.items()}
    recursive = outputs.sigma_entries(
        _cli(root, ["basis", "sigma", "--sigma-method", "recursive",
                    "--format", "json",
                    "--max-weight", str(SIGMA_MAX_WEIGHT)]), "json")
    known = sorted(w for w in digests
                   if outputs.digest(recursive.get(w, "")) != digests[w])
    verify = {}
    for n in VERIFY_MAX_WEIGHTS:
        checks = outputs.verify_checks(
            _cli(root, ["verify", "all", "--max-weight", str(n)]))
        if not all(passed for _, passed in checks):
            sys.exit("verify all --max-weight %d fails; no reference written"
                     % n)
        verify[str(n)] = [name for name, _ in checks]
    reference = {
        "sigma": {
            "route": "oracle",
            "max_weight": SIGMA_MAX_WEIGHT,
            "digests": digests,
            "known_defects": {"route": "recursive", "words": known},
        },
        "verify": verify,
    }
    with open(os.path.join(here, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d Sigma digests (%d wrong on the recursive route) and "
          "verify check lists for N=%s"
          % (len(entries), len(known), ",".join(verify)))


if __name__ == "__main__":
    main()
