"""Spans around the calls into each tcsim layer, recorded from outside.

``Tracer.install`` replaces the layer entry points that tcsim's modules look
up at call time (module globals and class attributes) with timing wrappers,
and ``Tracer.uninstall`` puts the originals back.  No file of the program
changes.  Each span is ``(name, start, end, parent)`` with ``parent`` the
index of the enclosing span, or -1; spans stay in memory until written out.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import tcsim.canonical
import tcsim.cli
import tcsim.gaussian
import tcsim.graphs
import tcsim.pipeline

Span = Tuple[str, float, float, int]
Observer = Callable[[Counter, tuple, object], None]

#: Gaussian-layer functions reported one by one (per-call µs and call count).
GAUSSIAN_OPS = ("append_modes", "apply_cz", "measure_quadrature", "trace_out", "p_squeezed_state")

#: Pipeline spans whose self time is the pipeline's own dispatch and
#: bookkeeping; schedule building and nullifier reads are reported apart.
PIPELINE_SELF = ("pipeline.run_pipeline", "pipeline.equivalence_check", "pipeline.execute")


def _count_cov_bytes(counters: Counter, args: tuple, result: object) -> None:
    n = len(args[0].labels)
    counters["gaussian.cov_bytes_computed"] += 8 * (2 * n) ** 2


def _count_events(counters: Counter, args: tuple, result: object) -> None:
    pipe, events = args[0], args[1]
    counters["pipeline.events"] += len(events)
    counters["pipeline.high_water"] = max(counters["pipeline.high_water"], pipe.high_water)


def _count_modes(counters: Counter, args: tuple, result: object) -> None:
    counters["canonical.modes"] += result.n_modes


def _targets() -> List[Tuple[object, str, str, Optional[Observer]]]:
    """(owner, attribute, span name, observer) for every wrapped entry point."""
    cli, pipeline = tcsim.cli, tcsim.pipeline
    targets = [
        (cli, "run_pipeline", "pipeline.run_pipeline", None),
        (cli, "equivalence_check", "pipeline.equivalence_check", None),
        (pipeline, "build_schedule", "pipeline.build_schedule", None),
        (pipeline.TemporalPipeline, "execute", "pipeline.execute", _count_events),
        (pipeline.TemporalPipeline, "live_nullifier_variance", "pipeline.nullifier", None),
        (pipeline, "build_canonical_cluster", "canonical.build", _count_modes),
        (pipeline, "make_graph", "graphs.make_graph", None),
        (tcsim.graphs.Graph, "sorted_edges", "graphs.sorted_edges", None),
        (tcsim.gaussian.GaussianState, "__post_init__", "gaussian.state_init", _count_cov_bytes),
    ]
    # Every gaussian function the pipeline and the canonical oracle call by
    # their own module-level name.
    for module in (pipeline, tcsim.canonical):
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == "tcsim.gaussian":
                targets.append((module, attr, f"gaussian.{attr}", None))
    return targets


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, observe: Optional[Observer] = None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append((name, 0.0, 0.0, parent))  # holds the index for children
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, observe in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per span name: total self time (duration minus child spans) and calls."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start - child[i]
        calls[name] += 1
    return total, calls


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "count"


def layer_metrics(tracer: Tracer, report_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced ``main`` call (its root span is ``cli.main``)."""
    total, calls = self_times(tracer.spans)
    counters = tracer.counters

    def per_call_us(name: str) -> float:
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    metrics: Dict[str, float] = {
        "cli.self_s": total["cli.main"],
        "cli.report_bytes": report_bytes,
        "pipeline.self_s": sum(total[n] for n in PIPELINE_SELF),
        "pipeline.build_schedule_s": total["pipeline.build_schedule"],
        "pipeline.events": counters["pipeline.events"],
        "pipeline.high_water": counters["pipeline.high_water"],
        "pipeline.nullifier_us": per_call_us("pipeline.nullifier"),
        "pipeline.nullifier_n": calls["pipeline.nullifier"],
        "gaussian.self_s": sum(t for n, t in total.items() if n.startswith("gaussian.")),
        "gaussian.state_init_us": per_call_us("gaussian.state_init"),
        "gaussian.state_init_n": calls["gaussian.state_init"],
        "gaussian.cov_bytes_computed": counters["gaussian.cov_bytes_computed"],
        "canonical.build_s": total["canonical.build"],
        "canonical.modes": counters["canonical.modes"],
        "graphs.make_graph_s": total["graphs.make_graph"],
        "graphs.sorted_edges_s": total["graphs.sorted_edges"],
    }
    for op in GAUSSIAN_OPS:
        metrics[f"gaussian.{op}_us"] = per_call_us(f"gaussian.{op}")
        metrics[f"gaussian.{op}_n"] = calls[f"gaussian.{op}"]
    return metrics
