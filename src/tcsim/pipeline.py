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
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

import numpy as np

# build_canonical_cluster is bound here, though no run calls it, because the
# benchmark's tracer wraps it by this name, as it wraps build_schedule and
# TemporalPipeline.execute, which no run calls either: run drives tick.  They
# go when the tracer is updated (ROADMAP items 2 and 9).
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
    """The events of tick t, in order: the calls :meth:`TemporalPipeline.tick`
    makes, recorded by a stand-in pipeline and register that run no kernel."""
    events: List[PipelineEvent] = []

    def record(kind: str) -> Callable:
        return lambda *labels: events.append(PipelineEvent(kind, labels))

    register = SimpleNamespace(
        emit=lambda label, r: record("emit")(label), cz=record("cz"), clear=record("trace")
    )
    last = deferred[-1] if deferred else config.n_pulses
    stand_in = SimpleNamespace(
        config=config, deferred=deferred, last=last, register=register, _finalize=record("measure")
    )
    TemporalPipeline.tick(stand_in, t)
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
    nonempty ``deferred`` range (see :meth:`tick`), which ends holding the
    whole range.  The register stores only the slot-offset diagonals of the
    covariance that the topology can fill, so it holds O(K) values, not
    (2K)^2.  :meth:`tick` states what each tick does; each of its steps is
    one in-place kernel of the register, the dense kernel of
    :mod:`tcsim.gaussian` on the stored entries, bit for bit: emit writes
    two diagonal entries, CZ adds two rows and two columns, measure is one
    rank-1 downdate of the p rows of the measured node's live graph
    neighbours, and both measure and trace then clear the mode.  The
    kernels keep the register exactly symmetric; every stored entry is
    checked (mirrored and finite) once per tick that runs kernels, before
    the tick's measurement.  A tick that :meth:`run` certifies runs no
    kernel: it repeats a register one label on.  ``measured`` holds every
    measurement, in node order, as :class:`Stretch`es; ``records`` and
    ``nullifier_checks`` view it.

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
        # the last pulse: the deferred range's last label, else N
        self.last = deferred[-1] if deferred else config.n_pulses
        self.rng = np.random.default_rng(config.seed)
        self.register = DiagonalRegister(config.offsets, max(config.reach + 2, len(deferred)))
        for label in config.ancilla_labels:
            self.register.emit(label, 0.0)
        self.measured: List[Stretch] = []
        # an open candidate's diagonals, moved one label on (see run), or None
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

    def tick(self, t: int) -> None:
        """Tick t: the one statement of the per-tick rule.

        While pulses remain, tick t emits pulse t and applies cz(t - d, t)
        for each topology offset d; then the measurement slot finalizes the
        pulse emitted ``delay`` ticks earlier (a trace for an ancilla).
        Ticks past the last pulse only flush the remaining ones.  A nonempty
        ``deferred`` range makes its last label the last pulse and withholds
        the measurements of its labels, which then stay live.
        """
        config, register = self.config, self.register
        if t <= self.last:
            register.emit(t, config.squeezing_r)
            for d in config.offsets:
                register.cz(t - d, t)
        slot = t - config.delay
        if 1 <= slot <= self.last and slot not in self.deferred:
            self._finalize(slot)
        elif slot in config.ancilla_labels:
            register.clear(slot)

    def execute(self, events: List[PipelineEvent]) -> None:
        """Run a list of events, such as :func:`tick_events` gives, on the
        register.  No run calls it: like :func:`build_schedule`, it is kept
        because the benchmark's tracer wraps it by name (ROADMAP item 9)."""
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

        It runs :meth:`tick` on every tick up to the run's last,
        ``last + delay``, and must end with exactly ``deferred`` live
        (nothing, for a stream).

        Both runs certify the ticks that repeat.  No kernel takes an outcome
        (a covariance update does not depend on one), so the register is the
        state of a deterministic machine, and every kernel maps a cyclic
        relabelling of the slots to the same relabelling of its output, bit
        for bit, on a ring of any size (a diagonal's slot offset does not
        change under it, the q measurement computes each entry on its own,
        the keep order and the nullifier follow label order).  Two stretches
        of ticks repeat one label on: a stream's steady ticks, each of which
        emits, links and measures, and a deferred run's growth, whose ticks
        only emit and link once the range's first node has reached the
        measurement slot.  A tick of either reads and writes only entries of
        two modes among its last 2 reach + 1 labels, the register's front
        block (2 reach is the largest pp offset; empty slots hold zeros).
        So there is one certificate rule: after a candidate tick t the
        register's diagonals are kept as :meth:`DiagonalRegister.moved`
        gives them, the front block one label on; if they equal that copy
        bit for bit after tick t + 1, every later tick up to the stretch's
        end repeats tick t + 1 one label on, and :meth:`_repeat` moves the
        register there in one step, else a new candidate opens.  While the
        window lies in the block, as it always does on a stream's ring, which
        the block spans, the move is a roll of the ring; in the growth the
        block leaves the range's older labels in place, and each label it
        passes keeps the block's oldest column.

        A stream's steady stretch ends at N.  A deferred run's ticks are a
        stream's until the first deferred label reaches the measurement
        slot, so its steady stretch ends at ``stop``, the tick before, or
        at its last emission if that comes first; its growth ends at its
        last emission.  A steady candidate opens after each tick from
        2 reach + 1, since tick 2 reach + 2 already measures a non-boundary
        node with all its neighbours live, and a growth candidate after
        each growth tick whose window holds the front block; the last of
        either opens two ticks before its stretch ends, so that one tick is
        left to repeat.  When they pass, a stream runs kernels on
        3 reach + 3 ticks for any N >= 2 reach + 2, flush included
        (N = 2 reach + 2 has no emission left to repeat and runs them all),
        and a deferred run on a number of ticks that grows with neither N
        nor len(range): 5 reach + 4 (44 at M = 8) for a range of at least
        3 reach + 3 nodes from node reach + 3 on, whose growth certificate
        passes at tick first + 3 reach + 1.  Its ring is sized
        once, when the run is built, so the certificate compares registers
        of one size throughout.
        """
        config, deferred, last = self.config, self.deferred, self.last
        stop = min(deferred[0] + config.delay - 1, last) if deferred else last
        # the candidate ticks of the steady stretch and of the growth, whose
        # window must hold the whole front block: a move of a shorter one
        # would take lo on, which no growth tick does
        steady = range(2 * config.reach + 1, stop - 1)
        growth = range(deferred[0] + self.register.front - 1, last - 1) if deferred else range(0)
        t = 1
        while t <= last + config.delay:
            self.tick(t)
            # bitwise, since the kernels never store a -0.0; a NaN fails it
            if self._kept is not None and np.array_equal(self.register.diagonals, self._kept):
                t = self._repeat(t, stop if t < stop else last)
            self._kept = None
            if t in steady or t in growth:
                self._kept = self.register.moved()
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
        """Repeat ticks t + 1 .. stop after a certified tick t with no kernel
        run; returns tick stop.

        Tick t + j repeats tick t j labels on: the register moves
        n = stop - t labels on (its ``move``), and if tick t measured a
        node, each repeat measures the next one, stored as one
        :class:`Stretch`, tick t's with n new outcomes drawn in node order
        (:meth:`_draw`).
        """
        self._kept = None  # released before the register moves
        n = stop - t
        self.register.move(n)
        last = self.measured[-1] if self.measured else None
        if last is not None and last.first == t - self.config.delay:
            outcomes = self._draw(n, last.var)
            self.measured.append(replace(last, first=last.first + 1, outcomes=outcomes))
        return stop

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
    :meth:`TemporalPipeline.tick`), so it ends holding exactly the range's
    nodes, reads its register's stored entries on the range (the register's
    ``entries``) and releases it before building the oracle,
    :func:`range_oracle`, entry by entry; no outcome is replayed.  Neither
    grows with N: the run certifies like a stream until the range's first
    node reaches the measurement slot, then certifies the range's growth,
    so it runs kernels on a number of ticks that grows with neither N nor
    len(range) (5 reach + 4 for a long range from node reach + 3 on),
    on one register of max(reach + 2, len(range)) slots; the oracle's graph
    is the range's.
    Each stored entry is compared with the oracle's value at its (block,
    row, column), or with 0 where the oracle has none, and an oracle entry
    that the register does not store counts at its full value: the max
    entrywise difference of the two covariances (both states are
    zero-mean), with no dense matrix built: the register's keys are sorted
    once and each oracle key is looked up among them.  Memory is
    O(len(range) reach), and each phase frees its scratch as it builds its
    output.
    """
    first, last = node_range
    if not (1 <= first <= last <= config.n_pulses):
        raise ValueError(
            f"node range {first}..{last}: need 1 <= first <= last <= {config.n_pulses}"
        )

    nodes = range(first, last + 1)
    n = len(nodes)
    pipe = TemporalPipeline(config, nodes)
    pipe.run()
    register = pipe.register
    register.check()  # mirrored and finite, as before each measurement
    key, got = _keyed(register.entries(register.lo, register.hi), first, n)
    del pipe, register
    order = np.argsort(key)
    key = key[order]
    got = got[order]
    del order
    want_key, want = _keyed(range_oracle(config, nodes), first, n)
    at = np.searchsorted(key, want_key)
    np.minimum(at, len(key) - 1, out=at)
    stored = key[at] == want_key
    # the oracle's value at each stored entry, 0 where it has none, then the
    # gap there; an oracle entry that is not stored counts at its full value
    expected = np.zeros(len(key))
    expected[at[stored]] = want[stored]
    np.subtract(got, expected, out=expected)
    np.abs(expected, out=expected)
    return float(np.max(np.abs(want[~stored]), initial=np.max(expected)))


def _keyed(entries: Tuple[np.ndarray, ...], first: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """One int64 key per entry of (block, row label, column label, value)
    arrays, (block n + row - first) n + column - first, built in place in
    the block array; and the values."""
    key, row, col, value = entries
    key *= n
    key += row
    key -= first
    key *= n
    key += col
    key -= first
    return key, value
