"""The diagonal live register along the whole stream.

Two references that do not use the register: the closed-form canonical
cluster after every tick, and a tick-by-tick replay of the same events on
``GaussianState`` values, which must match ``run_pipeline`` bit for bit.
A third, which runs every tick's kernels, checks the certificate that lets
``run`` skip them, in a stream's steady state and in ``compare``'s run,
through its steady state and its range ticks; ``compare``'s row-by-row
result is checked against the whole range held live and compared densely.
Every stored outcome is checked against numpy's normal stream for the seed.
"""

import math

import numpy as np
import pytest

from tcsim.canonical import build_canonical_cluster, canonical_entries, squeezed_variances
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
    Stretch,
    TemporalPipeline,
    equivalence_check,
    pipeline_interaction_graph,
    range_oracle,
    run_pipeline,
    tick_events,
)
from tcsim.register import DiagonalRegister

from dense_entries import assert_lists_every_nonzero_entry, dense
from register_faults import weighted_cz

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
        pipe.tick(t)
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
    """Every tick through the kernels: ``tick`` driven tick by tick."""
    pipe = TemporalPipeline(config)
    for t in config.ticks:
        pipe.tick(t)
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
    """Counts the ticks that run kernels (``TemporalPipeline.tick`` calls on
    a pipeline), each as its events."""
    calls = []
    tick = TemporalPipeline.tick

    def counted(self, t):
        if isinstance(self, TemporalPipeline):  # not ``tick_events``' stand-in
            calls.append(tick_events(self.config, t, self.compared))
        tick(self, t)

    monkeypatch.setattr(TemporalPipeline, "tick", counted)
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
        clean.tick(t)
    tick = TemporalPipeline.tick
    runs, healed = [], []

    def perturbed(self, t):
        tick(self, t)
        runs.append(t)
        if t == t0:
            scale_q_row(self.register, node % self.register.slots, 1.5)
        if len(runs) == t0 + config.delay:
            healed.append(np.array_equal(self.register.diagonals, clean.register.diagonals))

    monkeypatch.setattr(TemporalPipeline, "tick", perturbed)
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


# Certified comparisons.  ``compare``'s run compares range label i's row
# with the closed form's once it is final, at tick i + 2 reach, and then
# traces the label out.  Until the range's first node reaches the
# measurement slot its ticks are a stream's, so it certifies like one and
# skips to stop = min(first + reach, last).  Its range ticks (emit, link,
# compare a row, clear) certify too, from the candidate after tick
# first + 3 reach - 1 on, whose certifying row has every neighbour in the
# range.  Its flush compares the last 2 reach rows.  Its loop ends at its
# last tick, last + 2 reach, even when the range ends before N.


def compare_kernel_ticks_of(config: PipelineConfig, nodes: range) -> int:
    """Ticks a comparison of ``nodes`` runs kernels on: up to stop, every
    tick if no emission tick is left to repeat after the steady certificate
    (stop <= 2 reach + 2), else the 2 reach + 2 up to it; then its range
    ticks, up to the range certificate at tick first + 3 reach if an
    emission tick is left to repeat after it, else up to its last emission;
    then the 2 reach flush ticks.  Neither N nor len(range) moves it once
    both certify."""
    first, last = nodes[0], nodes[-1]
    stop = min(first + config.reach, last)
    certified = min(first + 3 * config.reach, last)  # the range certificate's tick
    return min(stop, 2 * config.reach + 2) + certified - stop + 2 * config.reach


def kernel_compare_run(config: PipelineConfig, nodes: range) -> TemporalPipeline:
    """Every tick of the comparison of ``nodes`` through the kernels."""
    pipe = TemporalPipeline(config, nodes)
    for t in range(1, nodes[-1] + 2 * config.reach + 1):
        pipe.tick(t)
    return pipe


def held_range(config: PipelineConfig, nodes: range) -> np.ndarray:
    """The range's covariance, label order, as a run that measures every
    earlier node and keeps the whole range live leaves it: the per-tick rule
    of a stream, driven by register calls on a ring of len(range) slots,
    with no range node measured."""
    register = DiagonalRegister(config.offsets, max(config.reach + 2, len(nodes)))
    register.emit_range(range(1 - config.reach, 1), 0.0)
    for t in range(1, nodes[-1] + config.delay + 1):
        if t <= nodes[-1]:
            register.emit_linked(t, config.squeezing_r)
        slot = t - config.delay
        if 1 <= slot < nodes[0]:
            register.finalize(slot, False)
        elif 1 - config.reach <= slot <= 0:
            register.clear(slot)
    assert (register.lo, register.hi) == (nodes[0], nodes[-1])
    register.check()
    return register.window(nodes[0], nodes[-1])


def replayed_oracle(config: PipelineConfig, nodes: range, measured):
    """The oracle as the whole interaction graph up to the range's last
    node builds it: the measured nodes deleted, the ancillas traced out."""
    squeezing = {a: 0.0 for a in config.ancilla_labels}
    squeezing.update({node: config.squeezing_r for node in range(1, nodes[-1] + 1)})
    graph = delete_nodes(pipeline_interaction_graph(config, nodes[-1]), measured)
    return trace_out(build_canonical_cluster(graph, squeezing), config.ancilla_labels)


def held_discrepancy(config: PipelineConfig, nodes: range) -> float:
    """The max entrywise gap of the range held live to the replayed oracle,
    from two dense matrices."""
    oracle = replayed_oracle(config, nodes, range(1, nodes[0]))
    return float(np.max(np.abs(held_range(config, nodes) - oracle.cov)))


def compared_ranges(reach: int, n: int):
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


COMPARED_CONFIGS = [
    PipelineConfig(topology, 120, width=width, squeezing_r=db_to_r(10), seed=seed)
    for topology, width in (("wire", 0), ("lattice", 3), ("lattice", 4), ("lattice", 8))
    for seed in (1, 7919)
]
COMPARED = [
    (config, range(first, last + 1))
    for config in COMPARED_CONFIGS
    for first, last in compared_ranges(config.reach, config.n_pulses)
]
COMPARED += [  # certified stretches longer than the range, and one past N / 3
    (PipelineConfig("lattice", n, width=8, squeezing_r=db_to_r(10), seed=1), range(first, last + 1))
    for n, first, last in ((400, 100, 300), (2000, 1900, 2000))
]
COMPARED_IDS = [
    f"{c.topology}-{c.width}-N{c.n_pulses}-{r[0]}..{r[-1]}-s{c.seed}" for c, r in COMPARED
]


@pytest.mark.parametrize("config, nodes", COMPARED, ids=COMPARED_IDS)
def test_certified_comparison_matches_kernel_run_and_held_range_bitwise(config, nodes, kernel_ticks):
    # the certified run against every tick's kernels, and both against the
    # range held live to the end and compared densely, the design that
    # row-by-row comparison replaced: the same max gap, bit for bit
    pipe = TemporalPipeline(config, nodes)
    pipe.run()
    ran = len(kernel_ticks)
    want = kernel_compare_run(config, nodes)
    assert pipe.gap.hex() == want.gap.hex() == held_discrepancy(config, nodes).hex()
    assert equivalence_check(config, (nodes[0], nodes[-1])).hex() == pipe.gap.hex()
    assert pipe.high_water == want.high_water <= 2 * config.reach + 1
    assert ran == compare_kernel_ticks_of(config, nodes)


def test_comparison_certifies_its_steady_ticks_and_its_range_ticks(monkeypatch):
    # 40..120 of an M = 8 lattice: ticks 19..48 repeat tick 18, the
    # stream's steady ticks; ticks 65..120 repeat tick 64, whose row 48 is
    # the first with every neighbour in the range
    repeat, certified = TemporalPipeline._repeat, []

    def recorded(self, t, stop):
        certified.append((t, stop))
        return repeat(self, t, stop)

    monkeypatch.setattr(TemporalPipeline, "_repeat", recorded)
    TemporalPipeline(lattice(8, 10), range(40, 121)).run()
    assert certified == [(18, 48), (64, 120)]


# The ring.  A run builds one register and keeps it: a comparison's ring
# holds 2 reach + 1 slots from its first tick, the labels a compared row
# reaches, whatever the range.


@pytest.mark.parametrize("config, nodes", COMPARED, ids=COMPARED_IDS)
def test_comparison_keeps_one_register_of_2_reach_plus_1_slots(config, nodes, monkeypatch):
    slots = 2 * config.reach + 1
    pipe = TemporalPipeline(config, nodes)
    register = pipe.register
    assert register.slots == slots
    for t in range(1, nodes[-1] + 2 * config.reach + 1):
        pipe.tick(t)
        assert pipe.register is register and register.slots == slots
    assert register.hi < register.lo  # every label measured, traced or compared
    want = dense(range_oracle(config, nodes), nodes)
    assert pipe.gap / np.max(np.abs(want)) <= STREAM_REL_TOL

    # the certified run builds one register too
    init, built = DiagonalRegister.__init__, []

    def recorded(self, offsets, k):
        init(self, offsets, k)
        built.append(k)

    monkeypatch.setattr(DiagonalRegister, "__init__", recorded)
    TemporalPipeline(config, nodes).run()
    assert built == [slots]


@pytest.mark.parametrize("config, nodes", COMPARED, ids=COMPARED_IDS)
def test_comparison_keeps_no_record_and_draws_no_outcome(config, nodes):
    pipe = TemporalPipeline(config, nodes)
    report = pipe.run()
    assert list(report.records) == [] == list(report.nullifier_checks) == pipe.measured
    assert pipe.rng is None  # it builds no generator, so it can draw nothing


# Deterministic, so one sweep per topology; small streams take every range.
ORACLE_RANGES = [
    (config, range(first, last + 1))
    for config in COMPARED_CONFIGS
    if config.seed == 1
    for first, last in compared_ranges(config.reach, config.n_pulses)
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
    got = dense(range_oracle(config, nodes), nodes)
    want = replayed_oracle(config, nodes, range(1, nodes[0]))
    assert want.labels == tuple(nodes)
    assert got.tobytes() == want.cov.tobytes()


# The per-entry oracle against the dense closed form, entry by entry, on
# ranges of both topologies from the boundary on, up to 70 dB.
ENTRY_RANGES = [
    (PipelineConfig(topology, 120, width=width, squeezing_r=db_to_r(db)), range(first, last + 1))
    for topology, width in (("wire", 0), ("lattice", 3), ("lattice", 8))
    for db in (0, 10, 40, 70)
    for first, last in compared_ranges(max(width, 1), 120) + [(1, 120)]
]


@pytest.mark.parametrize(
    "config, nodes",
    ENTRY_RANGES,
    ids=[f"{c.topology}-{c.width}-r{c.squeezing_r:.2f}-{r[0]}..{r[-1]}" for c, r in ENTRY_RANGES],
)
def test_range_oracle_lists_every_nonzero_entry_of_the_closed_form(config, nodes):
    want = replayed_oracle(config, nodes, range(1, nodes[0]))
    assert_lists_every_nonzero_entry(range_oracle(config, nodes), nodes, want.cov)


def isin_range_oracle(config, nodes, kept=None):
    """:func:`range_oracle` with its link test written with ``np.isin``."""
    t = np.arange(nodes[0], nodes[-1] + 1) if kept is None else kept
    edges = np.concatenate([
        np.stack([t - d, t], axis=1)[(t - d < 1) | np.isin(t - d, t)] for d in config.offsets
    ])
    ancillas = np.unique(edges[edges[:, 0] < 1, 0])
    labels = np.concatenate([ancillas, t])
    a, b = squeezed_variances(np.where(labels < 1, 0.0, config.squeezing_r))
    return canonical_entries(labels, a, b, edges, traced=len(ancillas))


@pytest.mark.parametrize("width", [0, 2, 3, 8])
def test_range_oracle_equals_its_isin_formulation(width):
    # random sorted subsets of ranges from node 1 on (whose first rows
    # reach the ancillas) and past the first stripe, and the whole ranges
    config = PipelineConfig("lattice" if width else "wire", 60, width=width, squeezing_r=db_to_r(10))
    rng = np.random.default_rng(width)
    for first, last in ((1, 60), (1, 2), (2, 20), (config.reach, 30), (config.reach + 1, 40), (25, 60)):
        nodes = range(first, last + 1)
        subsets = [None] + [
            np.flatnonzero(rng.random(len(nodes)) < p) + first for p in (0.2, 0.5, 0.9, 1.0) for _ in range(5)
        ]
        for kept in subsets:
            if kept is not None and not kept.size:
                continue
            got, want = range_oracle(config, nodes, kept), isin_range_oracle(config, nodes, kept)
            assert [x.dtype for x in got] == [x.dtype for x in want]
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], (nodes, kept)


def test_comparison_costs_the_same_kernel_ticks_at_any_n(kernel_ticks):
    # a 100-node range at the end of the stream
    ran = []
    for n in (1_000, 1_000_000):
        config = PipelineConfig("lattice", n, width=8, squeezing_r=db_to_r(10), seed=1)
        TemporalPipeline(config, range(n - 99, n + 1)).run()
        ran.append(len(kernel_ticks))
        kernel_ticks.clear()
    assert ran[0] == ran[1] == compare_kernel_ticks_of(config, range(n - 99, n + 1))


def test_comparison_costs_the_same_kernel_ticks_at_any_range_length(kernel_ticks):
    # ranges of 100, 1000 and 10^4 nodes at the end of an M = 8 lattice:
    # 2 reach + 2 ticks up to the steady certificate, 2 reach range ticks
    # up to the range certificate, then the 2 reach flush ticks
    config = PipelineConfig("lattice", 1_000_000, width=8, squeezing_r=db_to_r(10), seed=1)
    ran = []
    for length in (100, 1_000, 10_000):
        TemporalPipeline(config, range(1_000_001 - length, 1_000_001)).run()
        ran.append(len(kernel_ticks))
        kernel_ticks.clear()
    assert ran == [6 * config.reach + 2] * 3 == [50] * 3


def assert_same_comparison(pipe: TemporalPipeline, want: TemporalPipeline) -> None:
    """Bitwise the same max gap and final register (diagonals, window,
    high water)."""
    assert pipe.gap.hex() == want.gap.hex()
    got_register, want_register = pipe.register, want.register
    assert got_register.diagonals.tobytes() == want_register.diagonals.tobytes()
    assert (got_register.lo, got_register.hi) == (want_register.lo, want_register.hi)
    assert pipe.high_water == want.high_water


# The range certificate, on the wire and on lattices of M = 2 .. 16: ranges
# that start at the first node (their rows reach the ancillas), at M and
# M + 1 (the last stripe node and the first past it), at 2M, at N / 3 and at
# N - 3M (too short to certify its range ticks), squeezed from 0 to 40 dB.
RANGE_STRETCHES = [
    (PipelineConfig(topology, n, width=m, squeezing_r=db_to_r(db), seed=1), range(first, n + 1))
    for topology, m, n in [("wire", 0, 40)] + [("lattice", m, 10 * m + 10) for m in (2, 3, 4, 8, 16)]
    for db in (0, 10, 20, 40)
    for first in sorted({1, max(m, 1), max(m, 1) + 1, 2 * max(m, 1), n // 3, n - 3 * max(m, 1)})
]


@pytest.mark.parametrize(
    "config, nodes",
    RANGE_STRETCHES,
    ids=[f"{c.topology}-{c.width}-r{c.squeezing_r:.2f}-{r[0]}..{r[-1]}" for c, r in RANGE_STRETCHES],
)
def test_certified_range_ticks_match_kernel_run_and_held_range_bitwise(config, nodes):
    pipe = TemporalPipeline(config, nodes)
    pipe.run()
    assert_same_comparison(pipe, kernel_compare_run(config, nodes))
    assert pipe.gap.hex() == held_discrepancy(config, nodes).hex()


FAULTY_RANGES = [
    (wire(60, 10, seed=3), range(20, 61)),
    (lattice(3, 20, seed=4), range(10, 31)),
    (lattice(8, 10, seed=5), range(40, 81)),
]


@pytest.mark.parametrize("after", [0, 1], ids=["candidate", "next"])
@pytest.mark.parametrize(
    "config, nodes", FAULTY_RANGES, ids=[f"{c.topology}-{c.width}" for c, _ in FAULTY_RANGES]
)
def test_fault_in_a_range_tick_comes_out_as_in_a_kernel_run(config, nodes, after, monkeypatch):
    # The range candidate that certifies opens after tick g = first +
    # 3 reach - 1.  A fault planted at the end of tick f = g + after scales
    # the q row of label f - reach, which no later tick reads or writes
    # until tick f + reach compares its row and clears it.  The certificate
    # must refuse every candidate whose register or successor holds it, so
    # the certified run of the faulty machine compares the faulty row at a
    # kernel tick and ends bitwise as its all-kernel run does.
    faulty_tick = nodes[0] + 3 * config.reach - 1 + after
    label = faulty_tick - config.reach
    tick = TemporalPipeline.tick
    ran = []

    def faulty(self, t):
        tick(self, t)
        ran.append(t)
        if t == faulty_tick:
            scale_q_row(self.register, label % self.register.slots, 1.5)

    monkeypatch.setattr(TemporalPipeline, "tick", faulty)
    pipe = TemporalPipeline(config, nodes)
    pipe.run()
    count = len(ran)
    want = kernel_compare_run(config, nodes)
    assert_same_comparison(pipe, want)
    assert pipe.gap > 1e-3
    # the candidates after ticks f - 1 .. f + reach - 1 are refused (f - 1
    # is not one when after = 0): reach + after more kernel ticks than a
    # clean run's
    assert count == compare_kernel_ticks_of(config, nodes) + config.reach + after


# The oracle half of a certified range stretch: each certified row's gap is
# the certifying row's because the closed form's rows first + reach ..
# last - 2 reach, each with every neighbour and every column in the range,
# are one another's bit for bit, one label on.
INTERIOR = [
    (PipelineConfig(topology, n, width=m, squeezing_r=db_to_r(db)), range(first, last + 1))
    for topology, m, n in [("wire", 0, 40)] + [("lattice", m, 10 * m + 10) for m in (2, 3, 8, 16)]
    for db in (0, 10, 40, 70)
    for first, last in ((1, n), (max(m, 1) + 1, n - 1), (n // 3, n))
]


@pytest.mark.parametrize(
    "config, nodes",
    INTERIOR,
    ids=[f"{c.topology}-{c.width}-r{c.squeezing_r:.2f}-{r[0]}..{r[-1]}" for c, r in INTERIOR],
)
def test_interior_oracle_rows_are_bitwise_equal_one_label_apart(config, nodes):
    block, row, col, value = range_oracle(config, nodes)
    smaller = np.minimum(row, col)

    def row_of(i):  # row i's entries, its labels taken relative to i
        at = smaller == i
        return [x.tobytes() for x in (block[at], row[at] - i, col[at] - i, value[at])]

    interior = range(nodes[0] + config.reach, nodes[-1] - 2 * config.reach + 1)
    assert len(interior) >= 2
    want = row_of(interior[0])
    assert all(row_of(i) == want for i in interior[1:])
    # and no further: the next row has a column past the range, and the one
    # before a neighbour that is measured (or, from node 1, an unsqueezed
    # ancilla, which at r = 0 has the squeezed nodes' variances)
    assert row_of(interior[-1] + 1) != want
    if nodes[0] > 1 or config.squeezing_r:
        assert row_of(interior[0] - 1) != want


STORED = {
    "wire": lambda n: TemporalPipeline(PipelineConfig("wire", n, squeezing_r=db_to_r(10), seed=1)),
    "lattice-8": lambda n: TemporalPipeline(
        PipelineConfig("lattice", n, width=8, squeezing_r=db_to_r(10), seed=1)
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
        assert sum(lengths) == n
        stored.append(len(pipe.measured))
    assert stored[0] == stored[1]


def test_range_that_ends_early_runs_no_tick_past_its_last(monkeypatch):
    ticks = []
    tick = TemporalPipeline.tick

    def counted(self, t):
        ticks.append(t)
        tick(self, t)

    monkeypatch.setattr(TemporalPipeline, "tick", counted)
    config = PipelineConfig("lattice", 1_000_000, width=8, squeezing_r=db_to_r(10), seed=1)
    TemporalPipeline(config, range(40, 121)).run()
    assert max(ticks) == 120 + 2 * config.reach


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


CERTIFIED_IDS = [f"{c.topology}-{c.width}-N{c.n_pulses}-s{c.seed}" for c in CERTIFIED]


@pytest.mark.parametrize("config", CERTIFIED, ids=CERTIFIED_IDS)
def test_every_stored_measurement_is_on_the_feedforward_convention(config):
    assert off_convention(run_pipeline(config).records.stretches, config) == []


@pytest.mark.parametrize("config, nodes", COMPARED, ids=COMPARED_IDS)
def test_every_measurement_of_a_comparison_is_on_the_feedforward_convention(config, nodes, monkeypatch):
    # A comparison stores none, so each is read as the register returns it:
    # the kernel ticks' measurements of nodes before the range, with no
    # nullifier read.
    finalize, made = DiagonalRegister.finalize, []

    def recorded(self, label, nullifier):
        variance, var, b_keep = finalize(self, label, nullifier)
        made.append((variance, Stretch(label, var, b_keep, variance, np.zeros(1))))
        return variance, var, b_keep

    monkeypatch.setattr(DiagonalRegister, "finalize", recorded)
    TemporalPipeline(config, nodes).run()
    nodes_made = [s.first for _, s in made]
    assert nodes_made == sorted(set(nodes_made)) and set(nodes_made) <= set(range(1, nodes[0]))
    assert nodes_made[:1] == [1][: nodes[0] - 1]
    assert all(variance is None for variance, _ in made)
    assert off_convention([s for _, s in made], config) == []


@pytest.mark.parametrize("config", CERTIFIED, ids=CERTIFIED_IDS)
def test_outcomes_are_the_seeds_normal_stream_in_node_order(config):
    # Checked against numpy, not against a second run: a reordered, skipped
    # or extra draw fails it, on kernel ticks and certified stretches alike.
    stretches = run_pipeline(config).records.stretches
    count = config.n_pulses
    assert [node for s in stretches for node in s.nodes] == list(range(1, count + 1))
    z = np.random.default_rng(config.seed).standard_normal(count)
    for s in stretches:
        want = z[s.first - 1 : s.first - 1 + len(s.outcomes)] * math.sqrt(s.var)
        assert np.array_equal(s.outcomes.view(np.int64), want.view(np.int64)), s.first


@pytest.mark.parametrize("config, nodes", [(CERTIFIED[0], range(0)), COMPARED[-1]], ids=["wire", "lattice-compared"])
def test_wrong_cz_weight_is_off_the_convention(config, nodes, monkeypatch):
    # node 1's q row holds var * (1 + 2**-50) on its partner's p
    monkeypatch.setattr(DiagonalRegister, "_cz", weighted_cz(1 + 2**-50))
    with pytest.raises(ValueError, match="^node 1: stored measurement is off the pinned feedforward convention"):
        TemporalPipeline(config, nodes).run()
