"""The per-layer benchmark's tracer still finds every name it wraps.

perfbench/tracer.py replaces functions of the package by name; a name that
is deleted or shadowed makes it fail or report a layer as taking no time.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv, timed", [
    (["verify", "all", "--max-weight", "3"],
     ["eulerian.projector_s", "bases.pbw_s"]),
    (["basis", "sigma", "--sigma-method", "oracle", "--max-weight", "3"],
     ["bases.pbw_s"]),
])
def test_tracer_times_the_wrapped_layers(tmp_path, argv, timed):
    paths = {name: tmp_path / name for name in ("out", "metrics", "spans")}
    cmd = [sys.executable, os.path.join("perfbench", "tracer.py")]
    for name, path in paths.items():
        cmd += ["--" + name, str(path)]
    proc = subprocess.run(cmd + ["--"] + argv, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert paths["metrics"].exists()
    metrics = json.loads(paths["metrics"].read_text())
    for name in timed:
        assert metrics[name] > 0, name
