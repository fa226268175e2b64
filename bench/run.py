"""tcsim's benchmark: one workload through ``tcsim.cli.main``, in-process.

    python3 bench/run.py --workload wire-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: ``pulses_per_s`` over as many
timed ``main(argv)`` calls as fit in ``--seconds``, ``setup_s`` from fresh
interpreters that import ``tcsim.cli`` and build its parser between those
calls, then an untimed ``tracemalloc`` pass at N and about N / 10 for
``peak_mem_mb`` and ``mem_bytes_per_pulse``.  ``--trace 1`` alternates
untraced and traced calls for ``--seconds`` and reports per-layer metrics
(see tracing.py).  Every call's output is checked (see workloads.py).  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Run it from the repository root; tcsim is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

from workloads import WORKLOADS, Outputs, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Covariances here are at most a few hundred rows, where extra BLAS threads
# only add scheduling noise, so every BLAS runs single-threaded.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SETUP_RUNS = 11
MIN_CALLS = 3

END_TO_END_UNITS = {
    "pulses_per_s": "pulses/s",
    "peak_mem_mb": "MB",
    "mem_bytes_per_pulse": "B/pulse",
    "setup_s": "s",
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import tcsim.cli
tcsim.cli.build_parser()
print(time.perf_counter() - t0)
"""


class Bench:
    """Runs one workload's calls against ``tcsim.cli.main`` and checks them.

    Counts the calls attempted and failed, and keeps the first few reasons.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.out = Outputs(OUT / f"{workload.name}.json", OUT / f"{workload.name}.csv")
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def call(self, main: Callable, nodes: int) -> float:
        """One checked ``main(argv)`` call; returns its wall time."""
        argv = self.workload.argv(nodes, self.seed, self.out)
        for path in (self.out.json, self.out.csv):
            path.unlink(missing_ok=True)
        gc.collect()
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            code = repr(exc)
        elapsed = perf_counter() - start
        errors = [] if code == 0 else [f"main ended with {code}"]
        if not errors:
            try:
                errors = self.workload.check(self.workload.reach, nodes, self.seed, self.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append("; ".join(errors))
        return elapsed

    def report_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.out.json, self.out.csv) if p.exists())

    def peak_bytes(self, main: Callable, nodes: int) -> int:
        """Peak traced allocation of one call, above what existed before it."""
        gc.collect()
        tracemalloc.start()
        try:
            self.call(main, nodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def setup_time() -> float:
    """Import-plus-parser time of ``tcsim.cli`` in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))], cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def end_to_end(bench: Bench, seconds: float) -> Dict:
    import tcsim.cli

    main, nodes = tcsim.cli.main, bench.workload.nodes
    setup_time()  # not counted: the first interpreter warms the file cache
    bench.call(main, nodes)  # warm-up: lazy set-up and caches, not timed
    # Set-up samples are spread over the run, between calls, so that they see
    # the same host load as the calls do.
    start = perf_counter()
    setup_due = [start + seconds * (k + 0.5) / SETUP_RUNS for k in range(SETUP_RUNS)]
    times: List[float] = []
    setup: List[float] = []
    while perf_counter() < start + seconds or len(times) < MIN_CALLS:
        times.append(bench.call(main, nodes))
        if setup_due and perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setup.append(setup_time())
    setup += [setup_time() for _ in setup_due]
    small = bench.workload.small_nodes
    peak_small = bench.peak_bytes(main, small)
    peak = bench.peak_bytes(main, nodes)
    # On a shared host, identical calls slow by up to 1.8x in phases that
    # last seconds, as other tenants load the machine, and the share of slow
    # phases differs from run to run.  The fastest call (as with timeit)
    # estimates the program's cost on a quiet host; a slower program slows
    # it too.  Every sample is kept in the results file.
    metrics = {
        "pulses_per_s": nodes / min(times),
        "peak_mem_mb": peak / 1e6,
        "mem_bytes_per_pulse": (peak - peak_small) / (nodes - small),
        "setup_s": min(setup),
    }
    samples = {"call_s": times, "setup_s": setup, "peak_bytes": {nodes: peak, small: peak_small}}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "samples": samples}


def traced(bench: Bench, seconds: float, spans_path: Path) -> Dict:
    import tcsim.cli
    from tracing import Tracer, layer_metrics, layer_unit

    main, nodes = tcsim.cli.main, bench.workload.nodes
    bench.call(main, nodes)  # warm-up, not timed
    plain: List[float] = []
    walls: List[float] = []
    reps: List[Dict[str, float]] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(reps) < MIN_CALLS:
        plain.append(bench.call(main, nodes))
        tracer = Tracer()
        tracer.install()
        try:
            walls.append(bench.call(tracer.wrap(main, "cli.main"), nodes))
        finally:
            tracer.uninstall()
        reps.append(layer_metrics(tracer, bench.report_bytes()))
    tracer.write(spans_path)
    counts = {k: v for k, v in reps[0].items() if layer_unit(k) in ("count", "B")}
    unstable = [k for k in counts if any(r[k] != counts[k] for r in reps)]
    metrics = {k: counts[k] if k in counts else statistics.median(r[k] for r in reps) for k in reps[0]}
    # Each traced call runs right after an untraced one, so their difference
    # sees about the same host load.
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(walls, plain))
    units = {k: layer_unit(k) for k in metrics}
    samples = {"untraced_s": plain, "traced_s": walls}
    return {"metrics": metrics, "units": units, "samples": samples, "unstable_counts": unstable}


def environment() -> Dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tcsim" / "cli.py").is_file():
        print(f"error: no tcsim sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import tcsim

    if Path(tcsim.__file__).resolve().parent != SRC / "tcsim":
        print(f"error: imported tcsim from {tcsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment()
    bench = Bench(workload, args.seed)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced(bench, args.seconds, OUT / f"{stem}-spans.jsonl")
    else:
        result = end_to_end(bench, args.seconds)

    correct = bench.failed == 0 and not result.get("unstable_counts")
    metrics = {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()}
    record = {"workload": workload.name, "nodes": workload.nodes, "seed": args.seed,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": bench.attempted, "failed": bench.failed,
              "errors": bench.errors, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"workload {workload.name}: N={workload.nodes} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':32s} {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} calls)")
    for err in bench.errors:
        print(f"  failed: {err}")
    if result.get("unstable_counts"):
        print(f"  counts changed between identical calls: {result['unstable_counts']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
