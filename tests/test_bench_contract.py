"""The benchmark's traced mode wraps tcsim entry points by name; a rename that
breaks it must fail here, not only when someone runs ``--trace 1``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["wire-stream", "lattice-verify", "compare-oracle"])
def test_traced_benchmark_run_is_correct(workload):
    result = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, summary
