"""Tick-driven streaming simulator of the one-squeezer, one-CZ experiment.

Each tick a fresh p-squeezed pulse is emitted and CZ-linked with the
loop-resident pulse(s); a pulse that has completed all of its gate passes is
homodyne-measured and removed.  Only a fixed window of modes is ever live,
independent of the total pulse count.

Topologies:
  wire    -- one loop of length 1; pulse i links to i-1 and i+1.
  lattice -- a second pass through the gate via a loop of length M; pulse i
             additionally links to i-M and i+M.  The two passes are modeled
             as deterministic mode routing, not as a physical polarization
             degree of freedom.

Boundary plan: the loop-resident vacuum ancillas (labels <= 0) are traced
out, and the first node (wire) or first vertical stripe of M nodes (lattice)
is measured in the q basis to delete it from the graph.  The trailing stripe
is terminated the same way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import List, Set, Tuple

import numpy as np

from .canonical import build_canonical_cluster
from .gaussian import (
    GaussianState,
    MeasurementRecord,
    append_modes,
    apply_cz,
    measure_quadrature,
    p_squeezed_state,
    permute_modes,
    trace_out,
    vacuum_state,
)
from .graphs import Graph, delete_nodes, make_graph, nullifier_variance

logger = logging.getLogger("tcsim.pipeline")


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one streaming run."""

    topology: str  # "wire" | "lattice"
    n_pulses: int
    width: int = 0  # lattice stripe height M
    squeezing_r: float = 0.0
    mode: str = "compute"  # | "verify"
    seed: int = 0

    def validate(self) -> None:
        if self.topology not in ("wire", "lattice"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.mode not in ("compute", "verify"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_pulses < 1:
            raise ValueError("need at least one pulse")
        if not math.isfinite(self.squeezing_r):
            raise ValueError(f"squeezing parameter must be finite, got {self.squeezing_r}")
        if self.squeezing_r < 0:
            raise ValueError("squeezing parameter must be nonnegative")
        if self.topology == "lattice":
            if self.width < 2:
                raise ValueError("lattice width must be at least 2")
            if self.n_pulses < 2 * self.width:
                raise ValueError("lattice needs at least 2 * width pulses")

    @property
    def offsets(self) -> Tuple[int, ...]:
        """The topology rule: pulse t is CZ-linked to t - d for each offset d."""
        return (1, self.width) if self.topology == "lattice" else (1,)

    @property
    def reach(self) -> int:
        """Largest CZ-partner offset: 1 for a wire, M for a lattice."""
        return self.offsets[-1]

    @property
    def delay(self) -> int:
        """Ticks between a node's emission and its measurement slot.

        One tick more than the reach (the pulse in flight to the detector),
        so the live register holds reach + 2 modes at its high-water mark.
        """
        return self.reach + 1

    @property
    def ancilla_labels(self) -> Tuple[int, ...]:
        """Initial loop occupants: label 0 (wire) or 1-M .. 0 (lattice)."""
        return tuple(range(1 - self.reach, 1))

    @property
    def boundary_nodes(self) -> frozenset:
        """First node / first stripe, deleted by q measurements."""
        return frozenset(range(1, self.reach + 1))

    @property
    def ticks(self) -> range:
        """Every tick of the run: N emissions, then ``delay`` flush ticks."""
        return range(1, self.n_pulses + self.delay + 1)

    def node_neighbors(self, node: int) -> Set[int]:
        """Graph neighbors of a node among 1..N: node -/+ each offset."""
        partners = {node + s * d for d in self.offsets for s in (-1, 1)}
        return {nb for nb in partners if 1 <= nb <= self.n_pulses}


@dataclass(frozen=True)
class PipelineEvent:
    """One scheduled step: emit | cz | measure | trace."""

    tick: int
    kind: str
    labels: Tuple[int, ...]


@dataclass
class RunReport:
    """Aggregate result of one streaming run."""

    config: PipelineConfig
    records: List[MeasurementRecord]
    high_water: int
    nullifier_checks: List[Tuple[int, float]]


def tick_events(config: PipelineConfig, t: int) -> List[PipelineEvent]:
    """The events of tick t, in order.

    While pulses remain, tick t emits pulse t and applies cz(t-d, t) for each
    topology offset d; then the measurement slot finalizes the pulse emitted
    ``delay`` ticks earlier (a trace for ancillas).  Ticks beyond the last
    emission only flush the remaining pulses.
    """
    events: List[PipelineEvent] = []
    if t <= config.n_pulses:
        events.append(PipelineEvent(t, "emit", (t,)))
        for d in config.offsets:
            events.append(PipelineEvent(t, "cz", (t - d, t)))
    slot = t - config.delay
    if 1 <= slot <= config.n_pulses:
        events.append(PipelineEvent(t, "measure", (slot,)))
    elif slot in config.ancilla_labels:
        events.append(PipelineEvent(t, "trace", (slot,)))
    return events


def build_schedule(config: PipelineConfig) -> List[PipelineEvent]:
    """The whole run's event stream: :func:`tick_events` over every tick."""
    config.validate()
    return [e for t in config.ticks for e in tick_events(config, t)]


class TemporalPipeline:
    """Executes the run tick by tick against the Gaussian-state substrate.

    In compute mode each node is q-measured as soon as its slot comes up,
    with the conditional mean shift cancelled by feedforward (pinned
    convention).  In verify mode the nullifier variance of each non-boundary
    node is evaluated on the live register just before the node is measured
    in the q basis.
    """

    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        ancillas = config.ancilla_labels
        self.state = vacuum_state(len(ancillas), labels=ancillas)
        self.records: List[MeasurementRecord] = []
        self.nullifier_checks: List[Tuple[int, float]] = []
        self.high_water = self.state.n_modes

    def snapshot(self) -> GaussianState:
        """The live register (GaussianState values are immutable)."""
        return self.state

    def execute(self, events: List[PipelineEvent]) -> None:
        for event in events:
            self._apply(event)

    def run(self) -> RunReport:
        for t in self.config.ticks:
            self.execute(tick_events(self.config, t))
        if self.state.n_modes:
            raise RuntimeError(f"schedule left live modes {self.state.labels}")
        return RunReport(
            config=self.config,
            records=self.records,
            high_water=self.high_water,
            nullifier_checks=self.nullifier_checks,
        )

    def _apply(self, event: PipelineEvent) -> None:
        if event.kind == "emit":
            pulse = p_squeezed_state(self.config.squeezing_r, label=event.labels[0])
            self.state = append_modes(self.state, pulse)
        elif event.kind == "cz":
            self.state = apply_cz(self.state, *event.labels)
        elif event.kind == "trace":
            self.state = trace_out(self.state, event.labels)
        elif event.kind == "measure":
            self._finalize(event.labels[0])
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")
        if self.state.n_modes > self.high_water:
            self.high_water = self.state.n_modes
            logger.debug("high water %d at tick %d", self.high_water, event.tick)

    def _finalize(self, node: int) -> None:
        config = self.config
        if config.mode == "verify" and node not in config.boundary_nodes:
            variance = self.live_nullifier_variance(node)
            self.nullifier_checks.append((node, variance))
        self.state, record = measure_quadrature(self.state, node, 0.0, rng=self.rng)
        self.records.append(record)

    def live_nullifier_variance(self, node: int) -> float:
        """Variance of p_node - sum(q over live graph neighbors).

        Already-measured neighbors drop out of the reduced nullifier; since
        they were measured in the q basis, the variance is unchanged.
        """
        live_neighbors = self.config.node_neighbors(node) & set(self.state.labels)
        return nullifier_variance(self.state, node, live_neighbors)


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Build and execute one streaming run."""
    return TemporalPipeline(config).run()


def pipeline_interaction_graph(config: PipelineConfig, up_to: int) -> Graph:
    """Graph of all CZ links the pipeline applies among pulses 1..up_to.

    Includes the vacuum ancillas (labels <= 0) that contaminate the boundary.
    """
    nodes = list(config.ancilla_labels) + list(range(1, up_to + 1))
    edges = [(t - d, t) for t in range(1, up_to + 1) for d in config.offsets]
    return make_graph(nodes, edges)


def equivalence_check(config: PipelineConfig, node_range: Tuple[int, int]) -> float:
    """Max discrepancy between the pipeline output and the canonical cluster.

    Runs the pipeline with measurements of nodes in ``node_range`` deferred
    (everything earlier is q-measured as usual) and with no pulse beyond the
    range end, until every remaining slot has come up.  The oracle is the
    closed-form canonical cluster on the same interaction graph, with the
    ancillas at r = 0 and then traced out.  A q measurement deletes its node
    from the graph, so the measured nodes are simply deleted; no outcome is
    replayed.  Returns the max entrywise difference between the covariances
    (both states are zero-mean).
    """
    config.validate()
    first, last = node_range
    if not (1 <= first <= last <= config.n_pulses):
        raise ValueError(f"node range {node_range} outside 1..{config.n_pulses}")

    base = replace(config, mode="compute")
    pipe = TemporalPipeline(base)
    deferred = set(range(first, last + 1))
    for t in range(1, last + base.delay + 1):
        pipe.execute(
            [
                e
                for e in tick_events(base, t)
                if max(e.labels) <= last
                and not (e.kind == "measure" and e.labels[0] in deferred)
            ]
        )
    if set(pipe.state.labels) != deferred:
        raise RuntimeError(f"unexpected live register {pipe.state.labels}")

    squeezing = {lbl: 0.0 for lbl in config.ancilla_labels}
    squeezing.update({node: config.squeezing_r for node in range(1, last + 1)})
    graph = delete_nodes(
        pipeline_interaction_graph(config, last), [rec.node for rec in pipe.records]
    )
    oracle = trace_out(build_canonical_cluster(graph, squeezing), config.ancilla_labels)

    order = sorted(deferred)
    got = permute_modes(pipe.state, order)
    want = permute_modes(oracle, order)
    return float(np.max(np.abs(got.cov - want.cov)))


def events_to_text(events: List[PipelineEvent]) -> str:
    """Line-oriented event log: ``tick kind labels...``."""
    lines = [f"{e.tick} {e.kind} " + " ".join(map(str, e.labels)) for e in events]
    return "\n".join(lines) + "\n"
