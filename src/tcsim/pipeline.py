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

import math
from dataclasses import dataclass, replace
from typing import List, Set, Tuple

import numpy as np

from .canonical import build_canonical_cluster
from .gaussian import (
    GaussianState,
    MeasurementRecord,
    _check_symmetric,
    clear_slot,
    cz_slots,
    measure_slot,
    squeeze_slot,
    trace_out,
)
from .graphs import Graph, delete_nodes, make_graph


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
        events.append(PipelineEvent("emit", (t,)))
        for d in config.offsets:
            events.append(PipelineEvent("cz", (t - d, t)))
    slot = t - config.delay
    if 1 <= slot <= config.n_pulses:
        events.append(PipelineEvent("measure", (slot,)))
    elif slot in config.ancilla_labels:
        events.append(PipelineEvent("trace", (slot,)))
    return events


def build_schedule(config: PipelineConfig) -> List[PipelineEvent]:
    """The whole run's event stream: :func:`tick_events` over every tick."""
    config.validate()
    return [e for t in config.ticks for e in tick_events(config, t)]


class TemporalPipeline:
    """Executes the run tick by tick on a ring-buffer live register.

    The live labels always form one consecutive window, so the mode with
    label l lives in slot l mod K of one preallocated 2K x 2K covariance
    (block ordering), with no label map and no free list; slots outside the
    window hold zeros.  K is reach + 2, the high-water mark, or, for the
    deferred run of :func:`equivalence_check`, enough slots to also hold the
    ``deferred`` labels.  Every event is one in-place kernel of
    :mod:`tcsim.gaussian`: emit writes two diagonal entries, CZ adds two rows
    and two columns, measure is one rank-1 downdate of the buffer, and both
    measure and trace then clear the slot.  The kernels keep the buffer
    exactly symmetric; it is checked (symmetric and finite) once per tick,
    before the tick's measurement.

    In compute mode each node is q-measured as soon as its slot comes up,
    with the conditional mean shift cancelled by feedforward (pinned
    convention), and the feedforward lists the survivors in ascending label
    order.  In verify mode the nullifier variance of each non-boundary node
    is evaluated on the live register just before the node is measured in
    the q basis.
    """

    def __init__(self, config: PipelineConfig, deferred: range = range(0)):
        config.validate()
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.slots = max(len(deferred), config.reach + 2)
        self.cov = np.zeros((2 * self.slots, 2 * self.slots))
        ancillas = config.ancilla_labels
        # the live window is lo..hi; it is empty when hi < lo
        self.lo, self.hi = ancillas[0], ancillas[-1]
        for label in ancillas:
            squeeze_slot(self.cov, label % self.slots, 0.0)
        self.records: List[MeasurementRecord] = []
        self.nullifier_checks: List[Tuple[int, float]] = []
        self.high_water = len(ancillas)

    def snapshot(self) -> GaussianState:
        """A copy of the live register, modes in ascending label order."""
        idx = self._indices(self.lo, self.hi)
        return GaussianState(range(self.lo, self.hi + 1), self.cov[np.ix_(idx, idx)])

    def execute(self, events: List[PipelineEvent]) -> None:
        for event in events:
            self._apply(event)

    def run(self) -> RunReport:
        for t in self.config.ticks:
            self.execute(tick_events(self.config, t))
        if self.hi >= self.lo:
            raise RuntimeError(f"schedule left live modes {self.snapshot().labels}")
        return RunReport(
            config=self.config,
            records=self.records,
            high_water=self.high_water,
            nullifier_checks=self.nullifier_checks,
        )

    def _indices(self, lo: int, hi: int) -> np.ndarray:
        """Buffer positions of labels lo..hi: their q slots, then their p slots."""
        q = np.arange(lo, hi + 1) % self.slots
        return np.concatenate((q, q + self.slots))

    def _apply(self, event: PipelineEvent) -> None:
        kind, labels = event.kind, event.labels
        if kind == "cz":
            cz_slots(self.cov, labels[0] % self.slots, labels[1] % self.slots)
        elif kind == "emit":
            self._emit(labels[0])
        elif kind == "measure":
            self._finalize(labels[0])
        elif kind == "trace":
            clear_slot(self.cov, self._retire(labels[0]))
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    def _emit(self, label: int) -> None:
        if label != self.hi + 1 or label - self.lo >= self.slots:
            raise RuntimeError(f"cannot emit {label} into window {self.lo}..{self.hi}")
        self.hi = label
        squeeze_slot(self.cov, label % self.slots, self.config.squeezing_r)
        if label - self.lo + 1 > self.high_water:
            self.high_water = label - self.lo + 1

    def _retire(self, label: int) -> int:
        """Take the oldest live label out of the window; returns its slot.

        The slot's rows and columns still hold the mode until a kernel
        clears them.
        """
        if label != self.lo or label > self.hi:
            raise RuntimeError(f"cannot finalize {label} in window {self.lo}..{self.hi}")
        self.lo = label + 1
        return label % self.slots

    def _finalize(self, node: int) -> None:
        config = self.config
        slot = self._retire(node)
        _check_symmetric(self.cov)
        if config.mode == "verify" and node not in config.boundary_nodes:
            variance = self.live_nullifier_variance(node)
            self.nullifier_checks.append((node, variance))
        keep = self._indices(self.lo, self.hi)
        record = measure_slot(self.cov, slot, keep, node, rng=self.rng)
        self.records.append(record)

    def live_nullifier_variance(self, node: int) -> float:
        """Variance of p_node - sum(q over live graph neighbors).

        Already-measured neighbors drop out of the reduced nullifier; since
        they were measured in the q basis, the variance is unchanged.  The
        quadratic form runs over the gathered q slots of the live neighbors,
        in ascending label order, and then the node's p slot.
        """
        live = sorted(nb for nb in self.config.node_neighbors(node) if self.lo <= nb <= self.hi)
        idx = [nb % self.slots for nb in live] + [self.slots + node % self.slots]
        v = np.full(len(idx), -1.0)
        v[-1] = 1.0
        return float(v @ self.cov[idx][:, idx] @ v)


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


def _deferred_run(config: PipelineConfig, deferred: range) -> Tuple[GaussianState, List[int]]:
    """Run with the measurements of ``deferred`` skipped and no pulse beyond
    its end; return the live register, which then holds exactly the deferred
    nodes, and the nodes that were measured."""
    base = replace(config, mode="compute")
    pipe = TemporalPipeline(base, deferred)
    for t in range(1, deferred[-1] + base.delay + 1):
        pipe.execute(
            [
                e
                for e in tick_events(base, t)
                if max(e.labels) <= deferred[-1]
                and not (e.kind == "measure" and e.labels[0] in deferred)
            ]
        )
    state = pipe.snapshot()
    if state.labels != tuple(deferred):
        raise RuntimeError(f"unexpected live register {state.labels}")
    return state, [rec.node for rec in pipe.records]


def equivalence_check(config: PipelineConfig, node_range: Tuple[int, int]) -> float:
    """Max discrepancy between the pipeline output and the canonical cluster.

    Runs the pipeline with measurements of nodes in ``node_range`` deferred
    (everything earlier is q-measured as usual) and with no pulse beyond the
    range end, until every remaining slot has come up.  The deferred run goes
    through the same ``execute`` dispatch and ring register as any run; its
    capacity, max(last - first + 1, reach + 2) slots, follows from the range.
    The oracle is the closed-form canonical cluster on the same interaction
    graph, with the ancillas at r = 0 and then traced out.  A q measurement
    deletes its node from the graph, so the measured nodes are simply
    deleted; no outcome is replayed.  Returns the max entrywise difference
    between the covariances (both states are zero-mean).
    """
    config.validate()
    first, last = node_range
    if not (1 <= first <= last <= config.n_pulses):
        raise ValueError(f"node range {node_range} outside 1..{config.n_pulses}")

    got, measured = _deferred_run(config, range(first, last + 1))
    squeezing = {lbl: 0.0 for lbl in config.ancilla_labels}
    squeezing.update({node: config.squeezing_r for node in range(1, last + 1)})
    graph = delete_nodes(pipeline_interaction_graph(config, last), measured)
    oracle = trace_out(build_canonical_cluster(graph, squeezing), config.ancilla_labels)
    if oracle.labels != got.labels:
        raise RuntimeError(f"oracle modes {oracle.labels} differ from {got.labels}")
    return float(np.max(np.abs(got.cov - oracle.cov)))

