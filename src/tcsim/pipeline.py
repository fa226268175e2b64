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
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

import numpy as np

# build_canonical_cluster is bound here, though no run calls it, because the
# benchmark's tracer wraps it by this name, as it wraps build_schedule,
# TemporalPipeline.execute and TemporalPipeline.live_nullifier_variance,
# which no run calls either: run drives tick, and the register's finalize
# reads the nullifier.  They go when the tracer is updated (ROADMAP items 2
# and 9).
from .canonical import build_canonical_cluster, canonical_entries, squeezed_variances
from .gaussian import GaussianState, MeasurementRecord
from .graphs import Graph, make_graph
from .register import DiagonalRegister


def _require_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
            _require_integer(name, getattr(self, name))
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

    @cached_property
    def _starts(self) -> np.ndarray:
        """The index of each stretch's first row, then the row count; built
        on the first read by row, which a run's report does not make."""
        lengths = (len(s.outcomes) for s in self.stretches)
        return np.fromiter(accumulate(lengths, initial=0), np.int64, len(self.stretches) + 1)

    def __len__(self) -> int:
        return int(self._starts[-1])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # counts a negative i from the end; IndexError past it
        b = int(np.searchsorted(self._starts, i, side="right")) - 1
        return self._row(self.stretches[b], i - int(self._starts[b]))

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
    config: PipelineConfig, t: int, compared: range = range(0)
) -> List[PipelineEvent]:
    """The events of tick t, in order: the calls :meth:`TemporalPipeline.tick`
    makes, recorded by a stand-in pipeline and register that run no kernel;
    a compared label's row read is not an event, and its clear is a trace."""
    events: List[PipelineEvent] = []

    def record(kind: str) -> Callable:
        return lambda *labels: events.append(PipelineEvent(kind, labels))

    def emit_linked(label: int, r: float) -> None:
        record("emit")(label)
        for d in config.offsets:
            record("cz")(label - d, label)

    register = SimpleNamespace(emit_linked=emit_linked, clear=record("trace"))
    last = compared[-1] if compared else config.n_pulses
    stand_in = SimpleNamespace(
        config=config, compared=compared, last=last, register=register,
        _finalize=record("measure"), _compare=record("trace"),
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
    high-water mark, or for a run with a nonempty ``compared`` range (see
    :meth:`tick`) 2 reach + 1, the labels a compared row reaches.  It stores
    only the slot-offset diagonals of the covariance that the topology can
    fill, O(K) values, not (2K)^2.  :meth:`tick` states what each tick does,
    in at most two register calls, each with one window check:
    ``emit_linked`` emits the pulse and links it, and ``finalize``
    (``clear`` for an ancilla, ``take`` for a compared label) takes the
    oldest label.  Each of their steps is one in-place kernel of the
    register, the dense kernel of :mod:`tcsim.gaussian` on the stored
    entries, bit for bit.  The kernels keep the register exactly symmetric;
    every stored entry is checked (mirrored and finite) once per tick that
    runs kernels, before its measurement or row read.  A tick that
    :meth:`run` certifies runs no kernel: it repeats a register one label
    on.  A stream's ``measured`` holds every measurement, in node order, as
    :class:`Stretch`es, which ``records`` and ``nullifier_checks`` view; a
    comparison keeps none, and ``gap`` is its result.

    Each node is q-measured as soon as its slot comes up, with the
    conditional mean shift cancelled by feedforward that lists the survivors
    in ascending label order: one call, the register's ``finalize``, checks
    the register, reads a stream's non-boundary node's nullifier variance
    (a read that writes no entry), then reads the q row, refuses one off the pinned
    feedforward convention, downdates and clears.  No kernel draws:
    :meth:`_draw` draws each outcome.
    """

    def __init__(self, config: PipelineConfig, compared: range = range(0)):
        self.config = config
        self.compared = compared
        # the last pulse: the compared range's last label, else N
        self.last = compared[-1] if compared else config.n_pulses
        # a comparison draws nothing, so it builds no generator
        self.rng = None if compared else np.random.default_rng(config.seed)
        slots = 2 * config.reach + 1 if compared else config.reach + 2
        self.register = DiagonalRegister(config.offsets, slots)
        self.register.emit_range(range(1 - config.reach, 1), 0.0)  # config.ancilla_labels
        self.measured: List[Stretch] = []
        self.gap = 0.0  # the largest gap of a compared row to the closed form's
        self._oracle = None  # built at the first row compared, after the first checks
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
        ``compared`` range makes its last label the last pulse, and none of
        its labels is measured: label i's row is final once tick i + 2 reach
        has emitted (2 reach is the largest pp offset, and every earlier
        node is measured by then), so that tick compares it and traces the
        label out (:meth:`_compare`).
        """
        config = self.config
        if t <= self.last:
            self.register.emit_linked(t, config.squeezing_r)
        slot = t - config.delay
        if 1 <= slot <= self.last and slot not in self.compared:
            self._finalize(slot)
        elif 1 - config.reach <= slot <= 0:  # an ancilla
            self.register.clear(slot)
        elif t - 2 * config.reach in self.compared:
            self._compare(t - 2 * config.reach)

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
        """The one run loop, for a stream and for a comparison alike: it runs
        :meth:`tick` on every tick up to ``last + delay`` (a comparison's
        last row, ``last + 2 reach``) and must end with no label live.

        Both runs certify the ticks that repeat.  No kernel takes an outcome,
        so the register is the state of a deterministic machine, and every
        kernel maps a cyclic relabelling of the slots to the same
        relabelling of its output, bit for bit, on a ring of any size (a
        diagonal's slot offset does not change under it, the q measurement
        computes each entry on its own, the keep order and the nullifier
        follow label order).  Two stretches repeat one label on: a stream's
        steady ticks (emit, link, measure) and a comparison's range ticks
        (emit, link, compare a row, clear it).  So there is one certificate
        rule: after a candidate tick t the diagonals are kept rolled one slot
        on (:meth:`DiagonalRegister.moved`); if they equal that copy bit for
        bit after tick t + 1, every later tick up to the stretch's end
        repeats tick t + 1 one label on, and :meth:`_repeat` moves the
        register there in one step, else a new candidate opens.

        A stream's steady stretch ends at N; a comparison's at ``stop``,
        the tick before the range's first node reaches the measurement slot
        (or its last emission), and its range stretch at its last emission.
        Steady candidates open after each tick from 2 reach + 1 (tick
        2 reach + 2 measures a non-boundary node with all its neighbours
        live), range candidates from first + 3 reach - 1, so that the
        certifying row and every row it stands for, up to last - 2 reach,
        have all their neighbours and columns in the range: their
        closed-form rows are one another's bit for bit, so each certified
        row's gap is the certifying row's.  The last candidate of either
        opens two ticks before its stretch ends.  When they pass, a stream
        runs kernels on 3 reach + 3 ticks for any N >= 2 reach + 2, and a
        comparison of first..last on

          min(stop, 2 reach + 2) + min(first + 3 reach, last) - stop + 2 reach

        ticks, stop = min(first + reach, last): 6 reach + 2 (50 at M = 8)
        for a range of more than 3 reach + 1 nodes from node reach + 3 on.
        """
        config, compared, last = self.config, self.compared, self.last
        reach = config.reach
        stop = min(compared[0] + reach, last) if compared else last
        steady = range(2 * reach + 1, stop - 1)
        rows = range(compared[0] + 3 * reach - 1, last - 1) if compared else range(0)
        end = last + (2 * reach if compared else config.delay)
        t = 1
        while t <= end:
            self.tick(t)
            # bitwise, since the kernels never store a -0.0; a NaN fails it
            if self._kept is not None and np.array_equal(self.register.diagonals, self._kept):
                t = self._repeat(t, stop if t < stop else last)
            self._kept = None
            if t in steady or t in rows:
                self._kept = self.register.moved()
            t += 1
        lo, hi = self.register.lo, self.register.hi
        if lo <= hi:
            raise RuntimeError(f"schedule left live modes {tuple(range(lo, hi + 1))}")
        return RunReport(self.config, self.records, self.high_water, self.nullifier_checks)

    def _finalize(self, node: int) -> None:
        # a comparison keeps no record, so it reads no nullifier and draws none
        keep = not self.compared
        variance, var, b_keep = self.register.finalize(node, keep and node > self.config.reach)
        if keep:
            self.measured.append(Stretch(node, var, b_keep, variance, self._draw(1, var)))

    def _compare(self, label: int) -> None:
        """Compare the oldest label's row (one checked ``take``) with the closed form's."""
        cells = self.register.take(label)
        self._oracle = self._oracle or OracleRows(self.config, self.compared, self.register)
        self.gap = max(self.gap, self._oracle.gap(label, cells))

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
        """n outcomes of variance var: the run's next n normal draws, times
        sqrt(var); scaled in place for a certified stretch, whose n can be
        10^7, and by the allocating product, the cheaper, for one."""
        if n == 1:
            return self.rng.standard_normal(1) * math.sqrt(var)
        outcomes = self.rng.standard_normal(n)
        outcomes *= math.sqrt(var)
        return outcomes

    def live_nullifier_variance(self, node: int) -> float:
        """Variance of p_node - sum(q over live graph neighbors).

        Its neighbours node - d are measured, in the q basis, so they drop
        out and the variance is unchanged: the register reads the live ones.
        No run calls it (a measurement's ``finalize`` reads it): it is kept
        because the benchmark's tracer wraps it by name (ROADMAP item 9).
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


def range_oracle(
    config: PipelineConfig, nodes: range, kept: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, ...]:
    """The canonical cluster that a run leaves on ``nodes`` once every
    earlier pulse is measured and the ancillas are traced out, entry by
    entry: :func:`~tcsim.canonical.canonical_entries`'s (block, row label,
    column label, value) arrays.

    A q measurement deletes its node from the graph, so this is the closed
    form on the interaction graph induced on the unmeasured labels: the
    nodes and the ancillas still linked to them, at r = 0 (a = b = 1/2),
    which enter the pp sums but list no entry of their own: the trace-out.
    The graph is read from ``config.offsets``, so its size is the range's,
    whatever N, and so are the entries, O(len(nodes) reach) of them; a
    range past the first stripe links no ancilla.  With ``kept``, ascending
    labels of ``nodes``, the graph is the one induced on them (and their
    ancillas): an entry whose two labels and every common neighbour are
    kept has the same value, bit for bit.
    """
    t = np.arange(nodes[0], nodes[-1] + 1) if kept is None else kept
    # the links of each node t to t - d, unless t - d is measured (or not
    # kept): t is ascending and t - d < t, so t - d's search lands in t
    links = []
    for d in config.offsets:
        u = t - d
        links.append(np.stack([u, t], axis=1)[(u < 1) | (t[np.searchsorted(t, u)] == u)])
    edges = np.concatenate(links)
    ancillas = np.unique(edges[edges[:, 0] < 1, 0])
    labels = np.concatenate([ancillas, t])
    a, b = squeezed_variances(np.where(labels < 1, 0.0, config.squeezing_r))
    return canonical_entries(labels, a, b, edges, traced=len(ancillas))


def _labels(blocks: Sequence[range]) -> np.ndarray:
    """The sorted labels of ``blocks``, nonempty ranges of step 1."""
    return np.unique(np.concatenate([np.arange(r.start, r.stop) for r in blocks]))


class OracleRows:
    """The closed form's rows of a compared range ``nodes``, each in the
    cell order of the register's row read (:meth:`DiagonalRegister.take`).

    Row i's entries are the ones of :func:`range_oracle` whose smaller
    label is i.  Its pp sums run over i's neighbours and its columns reach
    i + 2 reach, so its values are the same, bit for bit, on the graph
    induced on the labels i - reach .. i + 2 reach.  The rows a run whose
    certificates pass compares at kernel ticks, the first reach + 1 and the
    last 2 reach, are built by one ``range_oracle`` call on the labels they
    reach; a row past a certificate that did not pass, by one more.
    """

    def __init__(self, config: PipelineConfig, nodes: range, register: DiagonalRegister) -> None:
        self.config, self.nodes = config, nodes
        self._slots = register.slots
        self._order = np.argsort(register.row_keys)
        self._keys = register.row_keys[self._order]
        first, last, reach = nodes[0], nodes[-1], config.reach
        head, flush = min(first + reach, last), max(first, last - 2 * reach + 1)
        self._build(range(first, head + 1), range(flush, last + 1))

    def gap(self, label: int, cells: np.ndarray) -> float:
        """The max gap of row ``label``'s register cells (overwritten) to the
        closed form's row, or the full value of an oracle entry no cell holds."""
        if label not in self._at:  # a row past a certificate that did not pass
            self._build(range(label, min(label + 2 * self.config.reach, self.nodes[-1] + 1)))
        j = self._at[label]
        cells -= self._want[j]
        np.abs(cells, out=cells)
        return max(float(cells.max()), self._missed[j])

    def _build(self, *blocks: range) -> None:
        nodes, reach, k = self.nodes, self.config.reach, self._slots
        rows = _labels(blocks)
        reached = [range(max(nodes[0], r[0] - reach), min(nodes[-1], r[-1] + 2 * reach) + 1) for r in blocks]
        block, row, col, value = range_oracle(self.config, nodes, _labels(reached))
        smaller = np.minimum(row, col)
        at = np.searchsorted(rows, smaller)
        np.minimum(at, len(rows) - 1, out=at)
        mine = rows[at] == smaller
        at, value = at[mine], value[mine]
        offset = col[mine] - row[mine]
        key = block[mine] * 2 * k + offset + k
        pos = np.searchsorted(self._keys, key)
        np.minimum(pos, len(self._keys) - 1, out=pos)
        stored = (self._keys[pos] == key) & (np.abs(offset) < k)
        self._want = np.zeros((len(rows), len(self._keys)))
        self._want[at[stored], self._order[pos[stored]]] = value[stored]
        missed = np.zeros(len(rows))
        unstored = ~stored
        if unstored.any():  # an oracle entry no register cell holds: only a failing run has one
            np.maximum.at(missed, at[unstored], np.abs(value[unstored]))
        self._missed = missed.tolist()
        self._at = dict(zip(rows.tolist(), range(len(rows))))


def equivalence_check(config: PipelineConfig, node_range: Tuple[int, int]) -> float:
    """Max discrepancy between the pipeline output and the canonical cluster.

    Runs :meth:`TemporalPipeline.run` with ``node_range`` compared: each
    range label's row, its entries with the range's labels on both sides,
    is compared with the closed form's (:class:`OracleRows`) once it is
    final, and the label is then traced out.  So the run holds at most
    2 reach + 1 labels and O(reach) memory whatever N and len(range), draws
    no outcome, and runs kernels on

      min(stop, 2 reach + 2) + min(first + 3 reach, last) - stop + 2 reach

    ticks, stop = min(first + reach, last).  A register entry with no
    oracle entry counts at its own value, and an oracle entry that the
    register does not store at its full value: the max entrywise difference
    of the two covariances on the range (both are zero-mean), with no dense
    matrix built.  Each bound must be an integer, as ``PipelineConfig``'s
    counts must: a bool or any other value raises ``ValueError``.
    """
    first, last = node_range
    _require_integer("node range first", first)
    _require_integer("node range last", last)
    if not (1 <= first <= last <= config.n_pulses):
        raise ValueError(
            f"node range {first}..{last}: need 1 <= first <= last <= {config.n_pulses}"
        )
    pipe = TemporalPipeline(config, range(first, last + 1))
    pipe.run()
    return pipe.gap
