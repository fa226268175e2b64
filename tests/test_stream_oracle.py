"""The ring-buffer live register along the whole stream.

Two references that do not use the register: the closed-form canonical
cluster after every tick, and a tick-by-tick replay of the same events on
``GaussianState`` values, which must match ``run_pipeline`` bit for bit.
A third, which runs every tick's kernels, checks the certified periodic
steady state that lets ``run`` skip them.
"""

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
    pipeline_interaction_graph,
    run_pipeline,
    tick_events,
)

#: Max |register - closed form| / max |closed form| along a stream, set from
#: float64 rounding (about 100 eps) before measuring; a relative fault of
#: 1e-3 in any update is ten orders of magnitude above it.
STREAM_REL_TOL = 100 * np.finfo(float).eps


def wire(n, db, mode="compute", seed=1):
    return PipelineConfig("wire", n, squeezing_r=db_to_r(db), mode=mode, seed=seed)


def lattice(m, db, mode="compute", seed=1):
    return PipelineConfig("lattice", 10 * m, width=m, squeezing_r=db_to_r(db), mode=mode, seed=seed)


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
                if config.mode == "verify" and node not in config.boundary_nodes:
                    live = graph.neighbors(node) & set(state.labels)
                    nullifiers.append((node, nullifier_variance(state, node, live)))
                state, record = measure_quadrature(state, node, 0.0, rng=rng)
                records.append(record)
    assert state.n_modes == 0
    return records, nullifiers


REPLAYS = [
    config
    for mode in ("compute", "verify")
    for config in (wire(40, 10, mode, seed=3), lattice(3, 20, mode, seed=4), lattice(8, 10, mode, seed=5))
]


@pytest.mark.parametrize(
    "config", REPLAYS, ids=[f"{c.topology}-{c.width}-{c.mode}" for c in REPLAYS]
)
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
    assert len(nullifiers) == (config.n_pulses - config.reach if config.mode == "verify" else 0)


class TestRegisterChecks:
    def test_corrupted_register_rejected_at_next_measurement(self):
        config = lattice(3, 10)
        pipe = TemporalPipeline(config)
        for t in range(1, 5):
            pipe.execute(tick_events(config, t))
        pipe.cov[0, 1] += 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            pipe.execute(tick_events(config, 5))

    @pytest.mark.parametrize("poke", ["nudge", "nan", "inf"])
    def test_guard_covers_the_whole_buffer(self, poke):
        # Tick 5 measures node 1 (slot 1: rows and columns 1 and K + 1).
        # (q_3, p_4) lies outside them, and tick 5's CZs only add a zero to
        # it, so a check of the measured rows alone would miss the fault.
        config = lattice(3, 10)
        pipe = TemporalPipeline(config)
        for t in range(1, 5):
            pipe.execute(tick_events(config, t))
        k = pipe.slots
        i, j = 3 % k, k + 4 % k
        pipe.cov[i, j] = {"nudge": pipe.cov[i, j] + 1e-6, "nan": np.nan, "inf": np.inf}[poke]
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
        assert pipe.cov.shape == (20, 20)
        pipe.run()
        assert not np.any(pipe.cov)


# Certified periodic steady state.  ``run`` keeps the buffer after a steady
# tick t0 >= 2 reach + 2 with t0 + K <= N, and certifies at t0 + K if the
# buffer repeats; on every stock config the first candidate succeeds.


def first_certificate(config: PipelineConfig) -> int:
    """The tick at which an unperturbed stream certifies: t0 + K."""
    return (2 * config.reach + 2) + (config.reach + 2)


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


# For each stream: N one tick too short to certify, then N at the first
# certificate plus every remainder mod K, then N spanning many periods.
CERTIFIED = [
    PipelineConfig(topology, n, width=width, squeezing_r=db_to_r(10), mode=mode, seed=seed)
    for topology, width, ns in (
        ("wire", 0, (6, 7, 8, 9, 40)),
        ("lattice", 3, (12, 13, 14, 15, 16, 17, 36)),
        ("lattice", 8, (27, 28, 33, 97)),
    )
    for n in ns
    for mode in ("compute", "verify")
    for seed in (1, 7919)
]


@pytest.mark.parametrize(
    "config",
    CERTIFIED,
    ids=[f"{c.topology}-{c.width}-N{c.n_pulses}-{c.mode}-s{c.seed}" for c in CERTIFIED],
)
def test_certified_run_matches_kernel_run_bitwise(config, kernel_ticks):
    report = run_pipeline(config)
    ran = len(kernel_ticks)
    assert_same_run(report, kernel_run(config))
    k = config.reach + 2
    if config.n_pulses < first_certificate(config):
        assert ran == len(config.ticks)
    else:
        skipped = (config.n_pulses - first_certificate(config)) // k * k
        assert ran == len(config.ticks) - skipped


def test_long_wire_runs_a_handful_of_kernel_ticks(kernel_ticks):
    report = run_pipeline(wire(10_000, 10))
    assert len(kernel_ticks) < 30
    assert [r.node for r in report.records] == list(range(1, 10_001))


PERTURBED = [
    config
    for mode in ("compute", "verify")
    for config in (wire(40, 10, mode, seed=3), lattice(3, 20, mode, seed=4), lattice(8, 10, mode, seed=5))
]


@pytest.mark.parametrize(
    "config", PERTURBED, ids=[f"{c.topology}-{c.width}-{c.mode}" for c in PERTURBED]
)
def test_candidate_period_that_is_not_periodic_is_refused(config, monkeypatch):
    # The first candidate period opens after tick t0.  Scaling, at the end of
    # that tick, the q variance of the node that tick t0 + 1 measures makes
    # the kept buffer one the stream never returns to, and the captured
    # period one that does not repeat: certifying it would copy the
    # perturbed records into every later period.
    t0 = 2 * config.reach + 2
    node = t0 + 1 - config.delay
    unperturbed = run_pipeline(config)
    execute = TemporalPipeline.execute
    runs = []

    def perturbed(self, events):
        execute(self, events)
        runs.append(events)
        if events[0] == PipelineEvent("emit", (t0,)):
            slot = node % self.slots
            self.cov[slot, slot] *= 1.5

    monkeypatch.setattr(TemporalPipeline, "execute", perturbed)
    report = run_pipeline(config)
    ran = len(runs)
    assert_same_run(report, kernel_run(config))
    assert report.records[node - 1].outcome != unperturbed.records[node - 1].outcome
    # refused at t0 + K, certified one period later
    k = config.reach + 2
    skipped = (config.n_pulses - first_certificate(config)) // k * k - k
    assert ran == len(config.ticks) - skipped


RULES = [wire(60, 10)] + [lattice(m, 10) for m in (2, 3, 8)]


@pytest.mark.parametrize("config", RULES, ids=[f"{c.topology}-{c.width}" for c in RULES])
def test_steady_ticks_repeat_with_period_k(config):
    k = config.reach + 2
    steady = range(2 * config.reach + 2, config.n_pulses - k + 1)
    assert len(steady) > k
    for t in steady:
        shifted = [PipelineEvent(e.kind, tuple(l + k for l in e.labels)) for e in tick_events(config, t)]
        assert tick_events(config, t + k) == shifted
