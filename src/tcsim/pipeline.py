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
import numbers
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

import numpy as np

# build_canonical_cluster is bound here, though no run calls it, because the
# benchmark's tracer wraps it by this name; it goes when the tracer is
# updated (ROADMAP item 2).
from .canonical import build_canonical_cluster, canonical_entries, squeezed_variances
from .gaussian import GaussianState, MeasurementRecord
from .graphs import Graph, make_graph
from .register import DiagonalRegister


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one streaming run, valid by construction:
    ``__post_init__`` rejects a bad one, so no consumer re-checks it.

    The topology's derived values (``offsets``, ``reach``, ``delay``,
    ``ancilla_labels``) are computed once per config, on first read, and
    kept outside the fields, so ``==``, ``hash`` and ``replace`` see only
    the fields."""

    topology: str  # "wire" | "lattice"
    n_pulses: int
    width: int = 0  # lattice stripe height M
    squeezing_r: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.topology not in ("wire", "lattice"):
            raise ValueError(f"unknown topology {self.topology!r}")
        for name in ("n_pulses", "width", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_pulses < 1:
            raise ValueError("need at least one pulse")
        r = self.squeezing_r
        if isinstance(r, bool) or not isinstance(r, numbers.Real):
            raise ValueError(f"squeezing_r must be a real number, got {r!r}")
        if not math.isfinite(r):
            raise ValueError(f"squeezing parameter must be finite, got {r}")
        if r < 0:
            raise ValueError("squeezing parameter must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.topology == "wire" and self.width:
            raise ValueError("width applies only to a lattice")
        if self.topology == "lattice":
            if self.width < 2:
                raise ValueError("lattice width must be at least 2")
            if self.n_pulses < 2 * self.width:
                raise ValueError("lattice needs at least 2 * width pulses")

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        """The topology rule: pulse t is CZ-linked to t - d for each offset d."""
        return (1, self.width) if self.topology == "lattice" else (1,)

    @cached_property
    def reach(self) -> int:
        """Largest CZ-partner offset: 1 for a wire, M for a lattice."""
        return self.offsets[-1]

    @cached_property
    def delay(self) -> int:
        """Ticks between a node's emission and its measurement slot.

        One tick more than the reach (the pulse in flight to the detector),
        so the live register holds reach + 2 modes at its high-water mark.
        """
        return self.reach + 1

    @cached_property
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


@dataclass(frozen=True)
class PipelineEvent:
    """One scheduled step: emit | cz | measure | trace."""

    kind: str
    labels: Tuple[int, ...]


@dataclass
class Stretch:
    """Measurements of n consecutive nodes that share one (var, b_keep,
    nullifier): a kernel tick's (n = 1) or a certified stretch's
    (:meth:`TemporalPipeline._repeat`), outcomes by ``_draw``.  ``b_keep`` is
    on the pinned feedforward convention, each entry +0.0 or var, as
    :meth:`DiagonalRegister.measure` checked it.  Record j is
    ``MeasurementRecord(first + j, 0.0, outcomes[j], -(b_keep * (outcomes[j] / var)))``
    and, past the boundary, its nullifier check is ``(first + j, nullifier)``.
    """

    first: int
    var: float
    b_keep: np.ndarray
    nullifier: Optional[float]
    outcomes: np.ndarray

    @property
    def nodes(self) -> range:
        return range(self.first, self.first + len(self.outcomes))

    def record(self, j: int) -> MeasurementRecord:
        outcome = self.outcomes[j]
        feedforward = -(self.b_keep * (outcome / self.var))
        return MeasurementRecord(self.first + j, 0.0, float(outcome), feedforward)

    def check(self, j: int) -> Tuple[int, float]:
        return self.first + j, self.nullifier

    def feedforward(self) -> np.ndarray:
        """Every record's feedforward as one n x len(b_keep) array, row j
        bitwise record j's (IEEE multiplication commutes).  It does not
        warn: a value that overflows is left for the caller to refuse."""
        with np.errstate(all="ignore"):
            return -((self.outcomes / self.var)[:, None] * self.b_keep)


class Rows(Sequence):
    """A read-only view of a run's records or nullifier checks, in node
    order: ``row(s, j)`` for each row j of each of ``stretches``, built when
    read."""

    def __init__(self, stretches: List[Stretch], row: Callable[[Stretch, int], object]) -> None:
        self.stretches = stretches
        self._row = row
        # the index of each stretch's first row, then the row count
        self._starts = [0, *accumulate(len(s.outcomes) for s in stretches)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # counts a negative i from the end; IndexError past it
        b = bisect_right(self._starts, i) - 1
        return self._row(self.stretches[b], i - self._starts[b])

    def __iter__(self):
        for s in self.stretches:
            for j in range(len(s.outcomes)):
                yield self._row(s, j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rows, list)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class RunReport:
    """Aggregate result of one streaming run.

    ``records`` (``MeasurementRecord``s) and ``nullifier_checks``
    (``(node, variance)`` pairs) are ``Rows`` views of the run's stretches.
    """

    config: PipelineConfig
    records: Rows
    high_water: int
    nullifier_checks: Rows


def tick_events(
    config: PipelineConfig, t: int, deferred: range = range(0)
) -> List[PipelineEvent]:
    """The events of tick t, in order.

    While pulses remain, tick t emits pulse t and applies cz(t-d, t) for each
    topology offset d; then the measurement slot finalizes the pulse emitted
    ``delay`` ticks earlier (a trace for ancillas).  Ticks beyond the last
    emission only flush the remaining pulses.  A nonempty ``deferred`` range
    makes its last label the last pulse and withholds the measurements of its
    labels, which then stay live.
    """
    last = deferred[-1] if deferred else config.n_pulses
    events: List[PipelineEvent] = []
    if t <= last:
        events.append(PipelineEvent("emit", (t,)))
        for d in config.offsets:
            events.append(PipelineEvent("cz", (t - d, t)))
    slot = t - config.delay
    if 1 <= slot <= last and slot not in deferred:
        events.append(PipelineEvent("measure", (slot,)))
    elif slot in config.ancilla_labels:
        events.append(PipelineEvent("trace", (slot,)))
    return events


def build_schedule(config: PipelineConfig) -> List[PipelineEvent]:
    """The whole run's event stream: :func:`tick_events` over every tick."""
    return [e for t in config.ticks for e in tick_events(config, t)]


class TemporalPipeline:
    """Executes the run tick by tick on a ring-buffer live register.

    The live labels always form one consecutive window, which the register,
    a :class:`~tcsim.register.DiagonalRegister`, owns and keeps on a ring of
    K slots with no label map and no free list; its kernels take the labels.
    Each run builds one register and keeps it: K is reach + 2, a stream's
    high-water mark, or len(range) if that is larger for a run with a
    nonempty ``deferred`` range (see :func:`tick_events`), which ends
    holding the whole range.  The register stores only the slot-offset
    diagonals of the covariance that the topology can fill, so it holds
    O(K) values, not (2K)^2.  Every event is one in-place kernel of the
    register, each the dense kernel of :mod:`tcsim.gaussian` on the stored
    entries, bit for bit: emit writes two diagonal entries, CZ adds two rows
    and two columns, measure is one rank-1 downdate of the p rows of the
    measured node's live graph neighbours, and both measure and trace then
    clear the mode.  The kernels keep the register exactly symmetric;
    every stored entry is checked (mirrored and finite) once per tick that
    runs kernels, before the tick's measurement.  A tick that :meth:`run`
    certifies as steady runs no kernel: it repeats a checked register one
    label on.  ``measured`` holds every measurement, in node order, as
    :class:`Stretch`es; ``records`` and ``nullifier_checks`` view it.

    Each node is q-measured as soon as its slot comes up, with the
    conditional mean shift cancelled by feedforward that lists the survivors
    in ascending label order: one call, the register's ``measure``, reads
    the q row, refuses one off the pinned feedforward convention, downdates
    and clears.  Just before, a non-boundary node's nullifier variance is
    read by one more kernel, the register's ``nullifier``, which writes no
    entry.  No kernel draws: :meth:`_draw` draws each outcome.
    """

    def __init__(self, config: PipelineConfig, deferred: range = range(0)):
        self.config = config
        self.deferred = deferred
        self.rng = np.random.default_rng(config.seed)
        self.register = DiagonalRegister(config.offsets, max(config.reach + 2, len(deferred)))
        for label in config.ancilla_labels:
            self.register.emit(label, 0.0)
        self.measured: List[Stretch] = []
        # an open candidate's diagonals, rolled one slot (see run), or None
        self._kept = None

    @property
    def high_water(self) -> int:
        return self.register.high_water

    @property
    def records(self) -> Rows:
        return Rows(self.measured, Stretch.record)

    @property
    def nullifier_checks(self) -> Rows:
        return Rows([s for s in self.measured if s.nullifier is not None], Stretch.check)

    def snapshot(self) -> GaussianState:
        """A copy of the live register, modes in ascending label order."""
        lo, hi = self.register.lo, self.register.hi
        return GaussianState(range(lo, hi + 1), self.register.window(lo, hi))

    def execute(self, events: List[PipelineEvent]) -> None:
        for event in events:
            kind, labels = event.kind, event.labels
            if kind == "cz":
                self.register.cz(*labels)
            elif kind == "emit":
                self.register.emit(labels[0], self.config.squeezing_r)
            elif kind == "measure":
                self._finalize(labels[0])
            elif kind == "trace":
                self.register.clear(labels[0])
            else:
                raise ValueError(f"unknown event kind {kind!r}")

    def run(self) -> RunReport:
        """The one run loop, for a stream and for a deferred run alike.

        It runs every tick up to the run's last, ``last + delay`` with
        ``last`` the last pulse (the deferred range's last label, else N):
        past it :func:`tick_events` schedules nothing.  Either way the run
        must end with exactly ``deferred`` live (nothing, for a stream).

        Both runs certify their steady state.  No kernel takes an outcome (a
        covariance update does not depend on one), so the register is the
        state of a deterministic machine; past the boundary, tick t + 1's
        events are tick t's shifted by one label; and every kernel maps a
        cyclic relabelling of the slots to the same relabelling of its
        output, bit for bit, on a ring of any size (a diagonal's slot offset
        does not change under it, the q measurement computes each entry on
        its own, the keep order and the nullifier follow label order, and
        the symmetry check's max does not depend on order).  So after a
        steady emission tick t the register's diagonals are kept, rolled one
        slot; if they equal it bit for bit after tick t + 1, every later
        emission tick up to ``stop`` repeats tick t + 1 one label on and is
        stored with its measurement (:meth:`_repeat`), else a new candidate
        opens.  A stream's ticks are all such ticks, so ``stop`` is N; a
        deferred run's are a stream's until the first deferred label reaches
        the measurement slot, so ``stop`` is the tick before, or its last
        emission if that comes first.  The first candidate opens after
        tick 2 reach + 1, since tick 2 reach + 2 already measures a
        non-boundary node with all its neighbours live, and the last after
        tick stop - 2, so that one tick is left to repeat.  When it passes, a
        stream runs kernels on 3 reach + 3 ticks for any N >= 2 reach + 2,
        flush included (N = 2 reach + 2 has no emission left to repeat and
        runs them all), and a deferred run on 2 reach + 2 ticks plus the
        last + delay - stop after its stretch, whatever N.  Its ring is
        sized once, when the run is built, so the certificate compares
        registers of one size throughout.
        """
        config, deferred = self.config, self.deferred
        last = deferred[-1] if deferred else config.n_pulses
        stop = min(deferred[0] + config.delay - 1, last) if deferred else last
        # tick t + 1 after one of these emits and measures a non-boundary node,
        # and at least one emission tick of the stretch follows it
        steady = range(2 * config.reach + 1, stop - 1)
        t = 1
        while t <= last + config.delay:
            self.execute(tick_events(config, t, deferred))
            # bitwise, since the kernels never store a -0.0; a NaN fails it
            if self._kept is not None and np.array_equal(self.register.diagonals, self._kept):
                t = self._repeat(t, stop)
            self._kept = None
            if t in steady:
                self._kept = self.register.rolled(1)  # slot s takes slot s - 1
            t += 1
        live = range(self.register.lo, self.register.hi + 1)
        if live != deferred:
            raise RuntimeError(f"schedule left live modes {tuple(live)}")
        return RunReport(self.config, self.records, self.high_water, self.nullifier_checks)

    def _finalize(self, node: int) -> None:
        self.register.check()
        variance = self.live_nullifier_variance(node) if node > self.config.reach else None
        var, b_keep = self.register.measure(node)
        self.measured.append(Stretch(node, var, b_keep, variance, self._draw(1, var)))

    def _repeat(self, t: int, stop: int) -> int:
        """Store ticks t + 1 .. stop after a certified tick t as one
        :class:`Stretch`, tick t's with n = stop - t new outcomes and no
        kernel run; returns tick stop.

        Tick t + j repeats tick t's measurement j labels on: the register is
        rolled n slots to tick stop's phase, the window moves with it, and
        the n outcomes are drawn in node order (:meth:`_draw`).
        """
        last = self.measured[-1]
        self._kept = None  # released before the outcomes are drawn
        n = stop - t
        self.register.roll(n)  # slot s takes slot s - n
        outcomes = self._draw(n, last.var)
        self.measured.append(replace(last, first=last.first + 1, outcomes=outcomes))
        return t + n

    def _draw(self, n: int, var: float) -> np.ndarray:
        """n outcomes of variance var: the run's next n normal draws, times sqrt(var)."""
        outcomes = self.rng.standard_normal(n)
        outcomes *= math.sqrt(var)
        return outcomes

    def live_nullifier_variance(self, node: int) -> float:
        """Variance of p_node - sum(q over live graph neighbors).

        Its neighbours node - d are measured, in the q basis, so they drop
        out and the variance is unchanged: the register reads the live ones.
        """
        return self.register.nullifier(node)


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


def range_oracle(config: PipelineConfig, nodes: range) -> Tuple[np.ndarray, ...]:
    """The canonical cluster that a run leaves on ``nodes`` once every
    earlier pulse is measured and the ancillas are traced out, entry by
    entry: :func:`~tcsim.canonical.canonical_entries`'s (block, row label,
    column label, value) arrays, the same form as the register's
    ``entries`` read.

    A q measurement deletes its node from the graph, so this is the closed
    form on the interaction graph induced on the unmeasured labels: the
    nodes and the ancillas still linked to them, at r = 0 (a = b = 1/2),
    which enter the pp sums but list no entry of their own: the trace-out.
    The graph is read from ``config.offsets``, so its size is the range's,
    whatever N, and so are the entries, O(len(nodes) reach) of them; a
    range past the first stripe links no ancilla.
    """
    first = nodes[0]
    t = np.arange(first, nodes[-1] + 1)
    # the links of each node t to t - d, unless t - d is measured
    edges = np.concatenate([
        np.stack([t - d, t], axis=1)[(t - d < 1) | (t - d >= first)] for d in config.offsets
    ])
    ancillas = np.unique(edges[edges[:, 0] < 1, 0])
    labels = np.concatenate([ancillas, t])
    a, b = squeezed_variances(np.where(labels < 1, 0.0, config.squeezing_r))
    return canonical_entries(labels, a, b, edges, traced=len(ancillas))


def equivalence_check(config: PipelineConfig, node_range: Tuple[int, int]) -> float:
    """Max discrepancy between the pipeline output and the canonical cluster.

    Runs :meth:`TemporalPipeline.run` with ``node_range`` deferred (see
    :func:`tick_events`), so it ends holding exactly the range's nodes,
    reads its register's stored entries on the range (the register's
    ``entries``) and releases it before building the oracle,
    :func:`range_oracle`, entry by entry; no outcome is replayed.  Neither
    grows with N: the run certifies like a stream until the range's first
    node reaches the measurement slot, so it runs kernels on a fixed number
    of ticks around one certified stretch, on one register of
    max(reach + 2, len(range)) slots; the oracle's graph is the range's.
    Each stored entry is compared with the oracle's value at its (block,
    row, column), or with 0 where the oracle has none, and an oracle entry
    that the register does not store counts at its full value: the max
    entrywise difference of the two covariances (both states are
    zero-mean), with no dense matrix built, so memory is
    O(len(range) reach).
    """
    first, last = node_range
    if not (1 <= first <= last <= config.n_pulses):
        raise ValueError(
            f"node range {first}..{last}: need 1 <= first <= last <= {config.n_pulses}"
        )

    nodes = range(first, last + 1)
    pipe = TemporalPipeline(config, nodes)
    pipe.run()
    register = pipe.register
    register.check()  # mirrored and finite, as before each measurement
    got = register.entries(register.lo, register.hi)
    del pipe, register
    want = range_oracle(config, nodes)
    # one int64 key per (block, row, column), labels counted from first
    n = len(nodes)
    got_key, want_key = ((e[0] * n + e[1] - first) * n + e[2] - first for e in (got, want))
    order = np.argsort(got_key)
    at = np.minimum(np.searchsorted(got_key, want_key, sorter=order), len(order) - 1)
    stored = got_key[order[at]] == want_key
    expected = np.zeros(len(got_key))
    expected[order[at[stored]]] = want[3][stored]
    gaps = np.concatenate([np.abs(got[3] - expected), np.abs(want[3][~stored])])
    return float(np.max(gaps))
