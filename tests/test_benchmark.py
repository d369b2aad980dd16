"""One traced round of the benchmark runs to the end.

perfbench/run.py looks up the program's modules, functions and attributes by
name, so a rename in src/hgct can make a benchmark run exit with an
AttributeError that no unit test sees. This runs one round of two workloads
as the benchmark does (in a subprocess, from the repository root) and checks
its exit status, its correctness flag and that every per-layer metric that
BENCHMARK.json declares is reported, and non-zero: a metric that reads 0
usually means the hook it comes from wraps a name the program no longer calls.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["register-n200", "train-n200"])
def test_one_traced_round(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1401",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    missing = {m["name"] for m in declared["per_layer"]} - set(result["metrics"])
    assert not missing
    # pipeline.degenerate_fits counts kabsch_svd calls that raised. The solver
    # masks rank-deficient fits in its `ok` flags (register counts them in
    # n_degenerate_seeds and n_degenerate_windows) and raises only for fewer
    # than 3 point pairs, which the pipeline never passes.
    zero = {m["name"] for m in declared["per_layer"]
            if result["metrics"][m["name"]]["value"] == 0} - {"pipeline.degenerate_fits"}
    assert not zero
