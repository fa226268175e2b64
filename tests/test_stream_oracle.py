"""The diagonal live register along the whole stream.

Two references that do not use the register: the closed-form canonical
cluster after every tick, and a tick-by-tick replay of the same events on
``GaussianState`` values, which must match ``run_pipeline`` bit for bit.
A third, which runs every tick's kernels, checks the certified steady state
that lets ``run`` skip them, in a stream and in ``compare``'s deferred run.
Every stored outcome is checked against numpy's normal stream for the seed.
"""

import math

import numpy as np
import pytest

from tcsim.canonical import build_canonical_cluster
from tcsim.gaussian import (
    append_modes,
    apply_cz,
    db_to_r,
    measure_quadrature,
    p_squeezed_state,
    permute_modes,
    trace_out,
    vacuum_state,
)
from tcsim.graphs import delete_nodes, nullifier_variance, sheared_cylinder_graph, wire_graph
from tcsim.pipeline import (
    PipelineConfig,
    PipelineEvent,
    TemporalPipeline,
    equivalence_check,
    pipeline_interaction_graph,
    range_oracle,
    run_pipeline,
    tick_events,
)
from tcsim.register import DiagonalRegister

#: Max |register - closed form| / max |closed form| along a stream, set from
#: float64 rounding (about 100 eps) before measuring; a relative fault of
#: 1e-3 in any update is ten orders of magnitude above it.
STREAM_REL_TOL = 100 * np.finfo(float).eps


def wire(n, db, seed=1):
    return PipelineConfig("wire", n, squeezing_r=db_to_r(db), seed=seed)


def lattice(m, db, seed=1):
    return PipelineConfig("lattice", 10 * m, width=m, squeezing_r=db_to_r(db), seed=seed)


STREAMS = [wire(60, db) for db in (10, 40)] + [lattice(m, db) for m in (3, 4, 8) for db in (10, 40)]
STREAM_IDS = [f"{c.topology}-{c.width}-{c.squeezing_r:.2f}" for c in STREAMS]


def stream_gap(config: PipelineConfig) -> float:
    """Worst relative gap between the live register and the closed form,
    over every tick of the run."""
    pipe = TemporalPipeline(config)
    n = config.n_pulses
    squeezing = {a: 0.0 for a in config.ancilla_labels}
    squeezing.update({node: config.squeezing_r for node in range(1, n + 1)})
    worst = 0.0
    for t in config.ticks:
        pipe.execute(tick_events(config, t))
        got = pipe.snapshot()
        if not got.labels:
            continue
        measured = [rec.node for rec in pipe.records]
        graph = delete_nodes(pipeline_interaction_graph(config, min(t, n)), measured)
        traced = [a for a in config.ancilla_labels if a not in got.labels]
        oracle = trace_out(build_canonical_cluster(graph, squeezing), traced)
        assert set(oracle.labels) == set(got.labels), t
        want = permute_modes(oracle, got.labels)
        scale = float(np.max(np.abs(want.cov)))
        worst = max(worst, float(np.max(np.abs(got.cov - want.cov))) / scale)
    return worst


@pytest.mark.parametrize("config", STREAMS, ids=STREAM_IDS)
def test_register_matches_closed_form_after_every_tick(config):
    assert stream_gap(config) <= STREAM_REL_TOL


def reference_run(config: PipelineConfig):
    """The copy-per-op register: one GaussianState per event, the same
    events and the same generator; nullifiers through graphs, with the
    neighbours taken from the graph builders, not from ``config.offsets``."""
    rng = np.random.default_rng(config.seed)
    n = config.n_pulses
    if config.topology == "wire":
        graph = wire_graph(n)
    else:
        graph = sheared_cylinder_graph(n, config.width)
    ancillas = config.ancilla_labels
    state = vacuum_state(len(ancillas), labels=ancillas)
    records, nullifiers = [], []
    for t in config.ticks:
        for event in tick_events(config, t):
            if event.kind == "emit":
                pulse = p_squeezed_state(config.squeezing_r, label=event.labels[0])
                state = append_modes(state, pulse)
            elif event.kind == "cz":
                state = apply_cz(state, *event.labels)
            elif event.kind == "trace":
                state = trace_out(state, event.labels)
            else:
                node = event.labels[0]
                if node not in config.boundary_nodes:
                    live = graph.neighbors(node) & set(state.labels)
                    nullifiers.append((node, nullifier_variance(state, node, live)))
                state, record = measure_quadrature(state, node, 0.0, rng=rng)
                records.append(record)
    assert state.n_modes == 0
    return records, nullifiers


REPLAYS = [wire(40, 10, seed=3), lattice(3, 20, seed=4), lattice(8, 10, seed=5)]


@pytest.mark.parametrize("config", REPLAYS, ids=[f"{c.topology}-{c.width}" for c in REPLAYS])
def test_run_matches_copy_per_op_replay_bitwise(config):
    records, nullifiers = reference_run(config)
    report = run_pipeline(config)
    assert [r.node for r in report.records] == [r.node for r in records]
    for got, want in zip(report.records, records):
        assert got.outcome.hex() == want.outcome.hex()
        assert got.angle == want.angle == 0.0
        assert got.feedforward.tobytes() == want.feedforward.tobytes()
    assert [(n, v.hex()) for n, v in report.nullifier_checks] == [
        (n, v.hex()) for n, v in nullifiers
    ]
    assert len(nullifiers) == config.n_pulses - config.reach


def poke(register: DiagonalRegister, i: int, j: int, value) -> None:
    """Set entry (i, j) of the register's dense buffer (slot order) to
    ``value(entry)``, leaving its mirror (j, i) as it is."""
    cov = register.dense()
    cov[i, j] = value(cov[i, j])
    register.load(cov)


def scale_q_row(register: DiagonalRegister, slot: int, factor: float) -> None:
    """Scale slot ``slot``'s q variance, its q row's p entries and their
    mirrors by ``factor``, in the register's dense buffer (slot order)."""
    cov = register.dense()
    k = register.slots
    cov[slot, slot] *= factor
    cov[slot, k:] *= factor
    cov[k:, slot] *= factor
    register.load(cov)


class TestRegisterChecks:
    def test_corrupted_register_rejected_at_next_measurement(self):
        # (q_0, p_1), label offset 1: an entry the register stores
        config = lattice(3, 10)
        pipe = TemporalPipeline(config)
        for t in range(1, 5):
            pipe.execute(tick_events(config, t))
        poke(pipe.register, 0, pipe.register.slots + 1, lambda x: x + 1e-6)
        with pytest.raises(ValueError, match="symmetric"):
            pipe.execute(tick_events(config, 5))

    @pytest.mark.parametrize("fault", ["nudge", "-nudge", "nan", "inf", "-inf"])
    def test_guard_covers_the_whole_buffer(self, fault):
        # Tick 5 measures node 1 (slot 1: rows and columns 1 and K + 1).
        # (q_3, p_4) lies outside them, and tick 5's CZs only add a zero to
        # it, so a check of the measured rows alone would miss the fault.
        # "-nudge" and "-inf" leave the positive defect on (p_4, q_3), the
        # other side of the diagonal.
        config = lattice(3, 10)
        pipe = TemporalPipeline(config)
        for t in range(1, 5):
            pipe.execute(tick_events(config, t))
        k = pipe.register.slots
        fault = {
            "nudge": lambda x: x + 1e-6, "-nudge": lambda x: x - 1e-6,
            "nan": lambda x: np.nan, "inf": lambda x: np.inf, "-inf": lambda x: -np.inf,
        }[fault]
        poke(pipe.register, 3 % k, k + 4 % k, fault)
        with pytest.raises(ValueError, match="symmetric"):
            pipe.execute(tick_events(config, 5))

    @pytest.mark.parametrize("topology", ["wire", "lattice"])
    def test_overflowing_squeezing_rejected(self, topology):
        width = 4 if topology == "lattice" else 0
        config = PipelineConfig(topology, 8, width=width, squeezing_r=200.0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="symmetric and finite"):
            run_pipeline(config)

    def test_register_keeps_reach_plus_two_slots(self):
        pipe = TemporalPipeline(lattice(8, 10))
        assert pipe.register.slots == 10
        pipe.run()
        assert pipe.register.slots == 10
        assert not np.any(pipe.register.diagonals)


# Certified steady state.  ``run`` keeps the buffer after a steady emission
# tick t0 >= 2 reach + 1 with t0 < N, rolled one slot, and certifies at
# t0 + 1 if the buffer equals it; on every stock config the first candidate
# succeeds, so the kernels run up to tick 2 reach + 2, then the flush.


def kernel_ticks_of(config: PipelineConfig) -> int:
    """Ticks an unperturbed stream runs kernels on: all of them when N is
    too short to certify, else up to the certificate at 2 reach + 2 and the
    ``delay`` flush ticks, 3 reach + 3 for any longer N."""
    return min(len(config.ticks), 3 * config.reach + 3)


def kernel_run(config: PipelineConfig) -> TemporalPipeline:
    """Every tick through the kernels: ``execute`` driven tick by tick."""
    pipe = TemporalPipeline(config)
    for t in config.ticks:
        pipe.execute(tick_events(config, t))
    return pipe


def assert_same_run(report, pipe: TemporalPipeline) -> None:
    assert [r.node for r in report.records] == [r.node for r in pipe.records]
    for got, want in zip(report.records, pipe.records):
        assert got.outcome.hex() == want.outcome.hex()
        assert got.angle == want.angle == 0.0
        assert got.feedforward.tobytes() == want.feedforward.tobytes()
    assert [(n, v.hex()) for n, v in report.nullifier_checks] == [
        (n, v.hex()) for n, v in pipe.nullifier_checks
    ]
    assert report.high_water == pipe.high_water


@pytest.fixture
def kernel_ticks(monkeypatch):
    """Counts the ticks that run kernels (``TemporalPipeline.execute`` calls)."""
    calls = []
    execute = TemporalPipeline.execute

    def counted(self, events):
        calls.append(events)
        execute(self, events)

    monkeypatch.setattr(TemporalPipeline, "execute", counted)
    return calls


# For each stream: N = 2 reach + 1 and 2 reach + 2, too short to repeat a
# tick, N certified with one tick to repeat, N at each phase of the K-slot
# ring a few ticks on, and long streams.
CERTIFIED = [
    PipelineConfig(topology, n, width=width, squeezing_r=db_to_r(10), seed=seed)
    for topology, width, ns in (
        ("wire", 0, (3, 4, 5, 6, 7, 8, 9, 40, 10_000)),
        ("lattice", 3, (7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 36, 10_000)),
        ("lattice", 4, (9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 45)),
        ("lattice", 8, (17, 18, 19, 20, 27, 28, 33, 97, 10_000)),
    )
    for n in ns
    for seed in (1, 7919)
    if n < 10_000 or seed == 1  # their kernel runs take most of this module's time
]


@pytest.mark.parametrize(
    "config",
    CERTIFIED,
    ids=[f"{c.topology}-{c.width}-N{c.n_pulses}-s{c.seed}" for c in CERTIFIED],
)
def test_certified_run_matches_kernel_run_bitwise(config, kernel_ticks):
    report = run_pipeline(config)
    ran = len(kernel_ticks)
    assert_same_run(report, kernel_run(config))
    assert ran == kernel_ticks_of(config)


@pytest.mark.parametrize(
    "config",
    CERTIFIED,
    ids=[f"{c.topology}-{c.width}-N{c.n_pulses}-s{c.seed}" for c in CERTIFIED],
)
def test_every_run_reads_each_nullifier_at_the_squeezed_variance(config):
    # Every run reads the nullifier of each node past the boundary, the
    # certified stretches included, and each read is the closed form
    # e^(-2r) / 2: checked against the physics, not against a second run.
    report = run_pipeline(config)
    checked = list(report.nullifier_checks)
    assert [n for n, _ in checked] == list(range(config.reach + 1, config.n_pulses + 1))
    target = np.exp(-2 * config.squeezing_r) / 2
    assert max(abs(v - target) for _, v in checked) <= 1e-9


SQUEEZED = [
    PipelineConfig(topology, n, width=width, squeezing_r=db_to_r(db), seed=1)
    for topology, width, n in (("wire", 0, 40), ("lattice", 3, 36), ("lattice", 8, 97))
    for db in (0, 10, 20, 60, 80)
]


@pytest.mark.parametrize(
    "config",
    SQUEEZED,
    ids=[f"{c.topology}-{c.width}-r{c.squeezing_r:.2f}" for c in SQUEEZED],
)
def test_certificate_tick_does_not_depend_on_squeezing(config, kernel_ticks):
    report = run_pipeline(config)
    ran = len(kernel_ticks)
    assert_same_run(report, kernel_run(config))
    assert ran == 3 * config.reach + 3


def test_long_wire_runs_a_handful_of_kernel_ticks(kernel_ticks):
    report = run_pipeline(wire(10_000, 10))
    assert len(kernel_ticks) == kernel_ticks_of(wire(10_000, 10)) == 6
    assert [r.node for r in report.records] == list(range(1, 10_001))


PERTURBED = [wire(40, 10, seed=3), lattice(3, 20, seed=4), lattice(8, 10, seed=5)]


@pytest.mark.parametrize("config", PERTURBED, ids=[f"{c.topology}-{c.width}" for c in PERTURBED])
def test_candidate_period_that_is_not_periodic_is_refused(config, monkeypatch):
    # The first candidate opens after tick t0.  Scaling, at the end of that
    # tick, the q variance of the node that tick t0 + 1 measures makes tick
    # t0 + 1's measurement one the stream never repeats: certifying it would
    # copy the perturbed records into every later tick.  The node's live qp
    # entries and their mirrors are scaled with it, so its q row stays on
    # the pinned feedforward convention and the register stays symmetric.
    t0 = 2 * config.reach + 2
    node = t0 + 1 - config.delay
    unperturbed = run_pipeline(config)
    clean = TemporalPipeline(config)
    for t in range(1, t0 + config.delay + 1):
        clean.execute(tick_events(config, t))
    execute = TemporalPipeline.execute
    runs, healed = [], []

    def perturbed(self, events):
        execute(self, events)
        runs.append(events)
        if events[0] == PipelineEvent("emit", (t0,)):
            scale_q_row(self.register, node % self.register.slots, 1.5)
        if len(runs) == t0 + config.delay:
            healed.append(np.array_equal(self.register.diagonals, clean.register.diagonals))

    monkeypatch.setattr(TemporalPipeline, "execute", perturbed)
    report = run_pipeline(config)
    ran = len(runs)
    assert_same_run(report, kernel_run(config))
    assert report.records[node - 1].outcome != unperturbed.records[node - 1].outcome
    # The perturbed downdate reaches only the p rows of the node's live
    # neighbours, the last of which, t0, tick t0 + delay measures.  So each
    # candidate through that tick is refused, and the one opened after it
    # certifies at t0 + delay + 1 = t0 + K: then the flush.
    assert healed == [True]
    assert ran == t0 + (config.reach + 2) + config.delay


RULES = [wire(60, 10)] + [lattice(m, 10) for m in (2, 3, 8)]


def shifted(events, by):
    return [PipelineEvent(e.kind, tuple(l + by for l in e.labels)) for e in events]


@pytest.mark.parametrize("config", RULES, ids=[f"{c.topology}-{c.width}" for c in RULES])
def test_steady_ticks_repeat_with_period_k(config):
    k = config.reach + 2
    steady = range(2 * config.reach + 2, config.n_pulses - k + 1)
    assert len(steady) > k
    for t in steady:
        assert tick_events(config, t + k) == shifted(tick_events(config, t), k)


@pytest.mark.parametrize("config", RULES, ids=[f"{c.topology}-{c.width}" for c in RULES])
def test_steady_ticks_repeat_one_label_on(config):
    # the rule half of the certificate: past it, tick t + 1 is tick t shifted
    steady = range(2 * config.reach + 2, config.n_pulses)
    for t in steady:
        assert tick_events(config, t + 1) == shifted(tick_events(config, t), 1)


# Certified deferred runs.  ``compare``'s run defers a range of nodes, which
# stay live.  Until the range's first node reaches the measurement slot its
# ticks are a stream's, so it certifies like one and stores the ticks up to
# stop = min(first + delay - 1, last) as one stretch; its loop ends at its
# last tick, last + delay, even when the range ends before N.


def deferred_kernel_ticks_of(config: PipelineConfig, nodes: range) -> int:
    """Ticks a deferred run of ``nodes`` runs kernels on: every tick up to
    last + delay when no emission tick is left to repeat after the
    certificate (stop <= 2 reach + 2), else the 2 reach + 2 up to it and the
    ticks after stop, whatever N."""
    stop = min(nodes[0] + config.delay - 1, nodes[-1])
    end = nodes[-1] + config.delay
    return end if stop <= 2 * config.reach + 2 else 2 * config.reach + 2 + end - stop


def kernel_deferred_run(config: PipelineConfig, nodes: range) -> TemporalPipeline:
    """Every tick of the stream through the kernels, ``nodes`` deferred."""
    pipe = TemporalPipeline(config, nodes)
    for t in config.ticks:
        pipe.execute(tick_events(config, t, nodes))
    return pipe


def replayed_oracle(config: PipelineConfig, nodes: range, measured):
    """The oracle as the whole interaction graph up to the range's last
    node builds it: the measured nodes deleted, the ancillas traced out."""
    squeezing = {a: 0.0 for a in config.ancilla_labels}
    squeezing.update({node: config.squeezing_r for node in range(1, nodes[-1] + 1)})
    graph = delete_nodes(pipeline_interaction_graph(config, nodes[-1]), measured)
    return trace_out(build_canonical_cluster(graph, squeezing), config.ancilla_labels)


def deferred_ranges(reach: int, n: int):
    """Ranges at the start (touching the ancillas), too early to certify
    (stop = 2 reach + 2) and just late enough (one tick to repeat), in the
    middle, short ones (30..35 ends before its first node's slot), and at
    the end."""
    return [
        (1, 1), (1, 3 * reach), (reach, 2 * reach + 3),
        (reach + 2, 3 * reach + 5), (reach + 3, 3 * reach + 5),
        (40, 80), (30, 35), (60, 61),
        (n - 2 * reach - 5, n), (n - 1, n), (n, n),
    ]


DEFERRED_CONFIGS = [
    PipelineConfig(topology, 120, width=width, squeezing_r=db_to_r(10), seed=seed)
    for topology, width in (("wire", 0), ("lattice", 3), ("lattice", 4), ("lattice", 8))
    for seed in (1, 7919)
]
DEFERRED = [
    (config, range(first, last + 1))
    for config in DEFERRED_CONFIGS
    for first, last in deferred_ranges(config.reach, config.n_pulses)
]
DEFERRED += [  # certified stretches longer than the range, and one past N / 3
    (PipelineConfig("lattice", n, width=8, squeezing_r=db_to_r(10), seed=1), range(first, last + 1))
    for n, first, last in ((400, 100, 300), (2000, 1900, 2000))
]
DEFERRED_IDS = [
    f"{c.topology}-{c.width}-N{c.n_pulses}-{r[0]}..{r[-1]}-s{c.seed}" for c, r in DEFERRED
]


@pytest.mark.parametrize("config, nodes", DEFERRED, ids=DEFERRED_IDS)
def test_certified_deferred_run_matches_kernel_run_bitwise(config, nodes, kernel_ticks):
    pipe = TemporalPipeline(config, nodes)
    report = pipe.run()
    ran = len(kernel_ticks)
    want = kernel_deferred_run(config, nodes)
    got, ref = pipe.snapshot(), want.snapshot()
    assert got.labels == ref.labels == tuple(nodes)
    assert got.cov.tobytes() == ref.cov.tobytes()
    assert [r.node for r in report.records] == [r.node for r in want.records]
    for a, b in zip(report.records, want.records):
        assert a.outcome.hex() == b.outcome.hex()
        assert [x.hex() for x in a.feedforward.tolist()] == [x.hex() for x in b.feedforward.tolist()]
    assert [(n, v.hex()) for n, v in report.nullifier_checks] == [
        (n, v.hex()) for n, v in want.nullifier_checks
    ]
    assert report.high_water == want.high_water
    assert ran == deferred_kernel_ticks_of(config, nodes)
    oracle = replayed_oracle(config, nodes, [r.node for r in want.records])
    discrepancy = float(np.max(np.abs(ref.cov - oracle.cov)))
    assert equivalence_check(config, (nodes[0], nodes[-1])).hex() == discrepancy.hex()


def test_deferred_run_certifies():
    # 40..120 of an M = 8 lattice: ticks 19..48 repeat tick 18, and the
    # stretch holds the records of nodes 10..39
    config = lattice(8, 10)
    report = TemporalPipeline(config, range(40, 121)).run()
    [stretch] = [s for s in report.records.stretches if len(s.outcomes) > 1]
    assert stretch.nodes == range(10, 40)
    assert [r.node for r in report.records] == list(range(1, 40))


# The ring.  A deferred run keeps a stream's reach + 2 slots until an
# emission would overflow them, which first happens one tick after the
# range's first node was withheld from its slot (tick first + delay + 1);
# then it re-lays its window out once on len(range) slots.


@pytest.mark.parametrize("config, nodes", DEFERRED, ids=DEFERRED_IDS)
def test_deferred_ring_grows_once_after_its_first_withheld_label(config, nodes, monkeypatch):
    small = k = config.reach + 2
    large = len(nodes)
    pipe = TemporalPipeline(config, nodes)
    ticks = range(1, nodes[-1] + config.delay + 1)
    shapes = []
    for t in ticks:
        pipe.execute(tick_events(config, t, nodes))
        shapes.append(pipe.register.slots)
    if len(nodes) <= k:
        assert shapes == [small] * len(ticks)
    else:
        grow = nodes[0] + config.delay + 1
        assert shapes == [small] * (grow - 1) + [large] * (len(ticks) - grow + 1)
    want = range_oracle(config, nodes).cov  # the grown ring holds the right state
    assert np.max(np.abs(pipe.snapshot().cov - want)) / np.max(np.abs(want)) <= STREAM_REL_TOL

    # the certified run, on the ticks it runs kernels on
    execute, registers = TemporalPipeline.execute, []

    def recorded(self, events):
        execute(self, events)
        if not registers or registers[-1] is not self.register:
            registers.append(self.register)

    monkeypatch.setattr(TemporalPipeline, "execute", recorded)
    TemporalPipeline(config, nodes).run()
    assert [r.slots for r in registers] == ([small] if len(nodes) <= k else [small, large])


# Deterministic, so one sweep per topology; small streams take every range.
ORACLE_RANGES = [
    (config, range(first, last + 1))
    for config in DEFERRED_CONFIGS
    if config.seed == 1
    for first, last in deferred_ranges(config.reach, config.n_pulses)
] + [
    (config, range(first, last + 1))
    for config in (wire(12, 10), PipelineConfig("lattice", 14, width=3, squeezing_r=db_to_r(10)))
    for first in range(1, config.n_pulses + 1)
    for last in range(first, config.n_pulses + 1)
]


@pytest.mark.parametrize(
    "config, nodes",
    ORACLE_RANGES,
    ids=[f"{c.topology}-{c.width}-N{c.n_pulses}-{r[0]}..{r[-1]}" for c, r in ORACLE_RANGES],
)
def test_induced_graph_oracle_equals_replayed_oracle_bitwise(config, nodes):
    got = range_oracle(config, nodes)
    want = replayed_oracle(config, nodes, range(1, nodes[0]))
    assert got.labels == want.labels == tuple(nodes)
    assert got.cov.tobytes() == want.cov.tobytes()


def test_deferred_run_costs_the_same_kernel_ticks_at_any_n(kernel_ticks):
    # a 100-node range at the end of the stream
    ran = []
    for n in (1_000, 1_000_000):
        config = PipelineConfig("lattice", n, width=8, squeezing_r=db_to_r(10), seed=1)
        TemporalPipeline(config, range(n - 99, n + 1)).run()
        ran.append(len(kernel_ticks))
        kernel_ticks.clear()
    assert ran[0] == ran[1] == deferred_kernel_ticks_of(config, range(n - 99, n + 1))


STORED = {
    "wire": lambda n: TemporalPipeline(PipelineConfig("wire", n, squeezing_r=db_to_r(10), seed=1)),
    "lattice-8": lambda n: TemporalPipeline(
        PipelineConfig("lattice", n, width=8, squeezing_r=db_to_r(10), seed=1)
    ),
    "lattice-8-deferred": lambda n: TemporalPipeline(
        PipelineConfig("lattice", n, width=8, squeezing_r=db_to_r(10), seed=1), range(n - 99, n + 1)
    ),
}


@pytest.mark.parametrize("make", STORED.values(), ids=STORED.keys())
def test_certified_run_stores_the_same_blocks_at_any_n(make, kernel_ticks):
    # one block of one per measurement a kernel tick made, and one certified
    # block of every other measured node
    stored = []
    for n in (10_000, 100_000):
        pipe = make(n)
        pipe.run()
        measures = sum(e.kind == "measure" for events in kernel_ticks for e in events)
        kernel_ticks.clear()
        lengths = [len(s.outcomes) for s in pipe.measured]
        assert lengths.count(1) == measures == len(lengths) - 1
        assert sum(lengths) == n - len(pipe.deferred)
        stored.append(len(pipe.measured))
    assert stored[0] == stored[1]


def test_range_that_ends_early_runs_no_tick_past_its_last(monkeypatch):
    ticks = []

    def counted(config, t, deferred=range(0)):
        ticks.append(t)
        return tick_events(config, t, deferred)

    monkeypatch.setattr("tcsim.pipeline.tick_events", counted)
    config = PipelineConfig("lattice", 1_000_000, width=8, squeezing_r=db_to_r(10), seed=1)
    TemporalPipeline(config, range(40, 121)).run()
    assert max(ticks) == 120 + config.delay


# The pinned feedforward convention.  With one unit-weight CZ and q-basis
# deletion, a measured node's q row holds var on the p of each live CZ
# partner and +0.0 elsewhere; the register refuses a row off it.  Checked
# here against the topology, not against the register: node t's survivors
# are labels t + 1 ... and its live partners t + d among them.


def off_convention(stretches, config):
    """The first node of each stretch off the convention."""
    off = []
    for s in stretches:
        n = len(s.b_keep) // 2  # the survivors
        want = np.zeros(2 * n)
        want[[n + d - 1 for d in config.offsets if d <= n]] = s.var
        if not (s.var > 0 and s.b_keep.tobytes() == want.tobytes()):
            off.append(s.first)
    return off


STORED = [(config, range(0)) for config in CERTIFIED] + DEFERRED
STORED_IDS = [
    f"{c.topology}-{c.width}-N{c.n_pulses}-s{c.seed}" for c in CERTIFIED
] + DEFERRED_IDS


@pytest.mark.parametrize("config, nodes", STORED, ids=STORED_IDS)
def test_every_stored_measurement_is_on_the_feedforward_convention(config, nodes):
    assert off_convention(TemporalPipeline(config, nodes).run().records.stretches, config) == []


@pytest.mark.parametrize("config, nodes", STORED, ids=STORED_IDS)
def test_outcomes_are_the_seeds_normal_stream_in_node_order(config, nodes):
    # Checked against numpy, not against a second run: a reordered, skipped
    # or extra draw fails it, on kernel ticks and certified stretches alike.
    stretches = TemporalPipeline(config, nodes).run().records.stretches
    count = nodes[0] - 1 if nodes else config.n_pulses
    assert [node for s in stretches for node in s.nodes] == list(range(1, count + 1))
    z = np.random.default_rng(config.seed).standard_normal(count)
    for s in stretches:
        want = z[s.first - 1 : s.first - 1 + len(s.outcomes)] * math.sqrt(s.var)
        assert np.array_equal(s.outcomes.view(np.int64), want.view(np.int64)), s.first


def weighted_cz(weight):
    """``DiagonalRegister.cz`` with a CZ of ``weight`` in place of 1: the
    dense kernel ``gaussian.cz_slots``, weighted, on the register's buffer."""
    def cz(register, i, j):
        cov = register.dense()
        n = len(cov) // 2
        cov[n + i, :] += weight * cov[j, :]
        cov[n + j, :] += weight * cov[i, :]
        cov[:, n + i] += weight * cov[:, j]
        cov[:, n + j] += weight * cov[:, i]
        cov[n + j, n + i] = cov[n + i, n + j]
        register.load(cov)
    return cz


@pytest.mark.parametrize("config, nodes", [STORED[0], STORED[-1]], ids=["wire", "lattice-deferred"])
def test_wrong_cz_weight_is_off_the_convention(config, nodes, monkeypatch):
    # node 1's q row holds var * (1 + 2**-50) on its partner's p
    monkeypatch.setattr(DiagonalRegister, "cz", weighted_cz(1 + 2**-50))
    with pytest.raises(ValueError, match="^node 1: stored measurement is off the pinned feedforward convention"):
        TemporalPipeline(config, nodes).run()
