"""The benchmark calls tcsim entry points by name: its traced mode wraps them,
and its end-to-end mode imports ``tcsim.cli`` and builds its parser in fresh
interpreters.  A rename that breaks either must fail here, not only when
someone runs the benchmark."""

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


def test_end_to_end_benchmark_run_is_correct():
    result = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "compare-oracle",
            "--seconds", "0", "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, summary
    metrics = summary["metrics"]
    for name in ("pulses_per_s", "peak_mem_mb", "mem_bytes_per_pulse", "setup_s"):
        assert metrics[name]["value"] > 0, (name, metrics)
