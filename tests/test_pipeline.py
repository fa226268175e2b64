import math
import re
from collections import Counter

import numpy as np
import pytest

from tcsim.gaussian import db_to_r, states_equal, vacuum_state
from tcsim.graphs import sheared_cylinder_graph, wire_graph
from tcsim.pipeline import (
    PipelineConfig,
    PipelineEvent,
    TemporalPipeline,
    build_schedule,
    equivalence_check,
    pipeline_interaction_graph,
    run_pipeline,
    tick_events,
)


def wire_config(n, r=1.0, mode="compute", seed=0, **kw):
    return PipelineConfig("wire", n, squeezing_r=r, mode=mode, seed=seed, **kw)


def lattice_config(n, m, r=1.0, mode="compute", seed=0, **kw):
    return PipelineConfig("lattice", n, width=m, squeezing_r=r, mode=mode, seed=seed, **kw)


class TestConfig:
    def test_lattice_needs_width(self):
        with pytest.raises(ValueError):
            PipelineConfig("lattice", 20, width=1).validate()

    def test_lattice_needs_enough_pulses(self):
        with pytest.raises(ValueError):
            PipelineConfig("lattice", 5, width=4).validate()

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            PipelineConfig("ring", 5).validate()

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_squeezing(self, r):
        with pytest.raises(ValueError):
            wire_config(4, r=r).validate()


class TestSchedule:
    def test_wire_n3_cz_pairs(self):
        events = build_schedule(wire_config(3))
        czs = [e.labels for e in events if e.kind == "cz"]
        assert czs == [(0, 1), (1, 2), (2, 3)]

    def test_wire_boundary_deletion(self):
        config = wire_config(3)
        assert config.boundary_nodes == frozenset({1})
        pipe = TemporalPipeline(config)
        pipe.run()
        first = next(r for r in pipe.records if r.node == 1)
        assert first.angle == 0.0

    def test_lattice_partner_sets(self):
        events = build_schedule(lattice_config(40, 4))
        partners = {}
        for e in events:
            if e.kind == "cz":
                a, b = e.labels
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
        assert partners[10] == {9, 11, 6, 14}

    def test_lattice_first_stripe(self):
        assert lattice_config(40, 4).boundary_nodes == frozenset({1, 2, 3, 4})

    def test_every_node_finalized_exactly_once(self):
        events = build_schedule(lattice_config(30, 3))
        emitted = [e.labels[0] for e in events if e.kind == "emit"]
        finalized = [e.labels[0] for e in events if e.kind in ("measure", "trace")]
        counts = Counter(finalized)
        assert all(counts[node] == 1 for node in emitted)
        ancillas = lattice_config(30, 3).ancilla_labels
        assert all(counts[a] == 1 for a in ancillas)
        assert sum(counts.values()) == len(emitted) + len(ancillas)

    def test_tick_ordering(self):
        order = {"emit": 0, "cz": 1, "measure": 2, "trace": 2}
        config = lattice_config(20, 4)
        for t in config.ticks:
            phases = [order[e.kind] for e in tick_events(config, t)]
            assert phases == sorted(phases)


class TestTopologyRule:
    """The one offsets rule, read three ways, against the graph builders."""

    @pytest.mark.parametrize(
        "config, reference",
        [
            (wire_config(12), wire_graph(12)),
            (lattice_config(20, 4), sheared_cylinder_graph(20, 4)),
            (lattice_config(30, 3), sheared_cylinder_graph(30, 3)),
        ],
        ids=["wire-12", "lattice-20-4", "lattice-30-3"],
    )
    def test_neighbor_sets_match_builder(self, config, reference):
        n = config.n_pulses
        events = build_schedule(config)
        partners = {node: set() for node in range(1, n + 1)}
        for e in events:
            if e.kind == "cz" and e.labels[0] >= 1:  # links to ancillas are not graph edges
                a, b = e.labels
                partners[a].add(b)
                partners[b].add(a)
        interaction = pipeline_interaction_graph(config, n)
        for node in range(1, n + 1):
            expected = reference.neighbors(node)
            assert partners[node] == expected
            assert config.node_neighbors(node) == expected
            assert {nb for nb in interaction.neighbors(node) if nb >= 1} == expected
        assert {e.kind for e in events} == {"emit", "cz", "measure", "trace"}


class TestVerifyMode:
    def test_wire_nullifiers_exact(self):
        r = 0.7
        report = run_pipeline(wire_config(12, r=r, mode="verify"))
        target = math.exp(-2 * r) / 2
        checked = dict(report.nullifier_checks)
        assert set(checked) == set(range(2, 13))
        for v in checked.values():
            assert v == pytest.approx(target, abs=1e-9)

    def test_lattice_nullifiers_exact(self):
        r = 1.0
        report = run_pipeline(lattice_config(40, 4, r=r, mode="verify"))
        target = math.exp(-2 * r) / 2
        checked = dict(report.nullifier_checks)
        assert set(checked) == set(range(5, 41))
        for v in checked.values():
            assert v == pytest.approx(target, abs=1e-9)

    def test_boundary_reported_as_deleted(self):
        report = run_pipeline(lattice_config(24, 3, mode="verify"))
        assert report.config.boundary_nodes == frozenset({1, 2, 3})
        assert all(n not in report.config.boundary_nodes for n, _ in report.nullifier_checks)


class TestMemoryBound:
    def test_wire_high_water(self):
        for n in (10, 100):
            assert run_pipeline(wire_config(n)).high_water == 3

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_lattice_high_water_is_width_plus_two(self, m):
        assert run_pipeline(lattice_config(20 * m, m)).high_water == m + 2

    def test_independent_of_length(self):
        values = {
            run_pipeline(lattice_config(n, 4)).high_water for n in (100, 500, 1000)
        }
        assert values == {6}


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_pipeline(lattice_config(40, 4, mode="verify", seed=7))
        b = run_pipeline(lattice_config(40, 4, mode="verify", seed=7))
        assert a.high_water == b.high_water
        assert a.nullifier_checks == b.nullifier_checks
        for ra, rb in zip(a.records, b.records):
            assert ra.node == rb.node and ra.outcome == rb.outcome
            assert np.array_equal(ra.feedforward, rb.feedforward)

    def test_different_seed_different_outcomes(self):
        a = run_pipeline(wire_config(10, seed=1))
        b = run_pipeline(wire_config(10, seed=2))
        assert any(ra.outcome != rb.outcome for ra, rb in zip(a.records, b.records))


class TestWindowGuards:
    """The ring register refuses events that would leave its one window."""

    @staticmethod
    def refuses(events, exc, message):
        pipe = TemporalPipeline(wire_config(10))  # ancilla 0 live, K = 3 slots
        with pytest.raises(exc, match=re.escape(message)):
            pipe.execute([PipelineEvent(kind, labels) for kind, labels in events])

    def test_out_of_order_emit(self):
        self.refuses([("emit", (2,))], RuntimeError, "cannot emit 2 into window 0..0")

    def test_measure_of_a_newer_label(self):
        self.refuses(
            [("emit", (1,)), ("measure", (1,))],
            RuntimeError,
            "cannot finalize 1 in window 0..1",
        )

    def test_trace_of_a_newer_label(self):
        self.refuses(
            [("emit", (1,)), ("trace", (1,))],
            RuntimeError,
            "cannot finalize 1 in window 0..1",
        )

    def test_emit_past_the_ring(self):
        self.refuses(
            [("emit", (1,)), ("emit", (2,)), ("emit", (3,))],
            RuntimeError,
            "cannot emit 3 into window 0..2",
        )

    def test_unknown_event_kind(self):
        self.refuses([("divert", (0,))], ValueError, "unknown event kind 'divert'")


class TestSnapshot:
    def test_initial_snapshot_is_loop_vacua(self):
        pipe = TemporalPipeline(lattice_config(20, 4))
        snap = pipe.snapshot()
        assert states_equal(snap, vacuum_state(4, labels=pipe.config.ancilla_labels))

    def test_snapshot_tracks_live_register(self):
        config = wire_config(5)
        pipe = TemporalPipeline(config)
        pipe.execute(tick_events(config, 1))
        assert set(pipe.snapshot().labels) == {0, 1}


class TestEquivalence:
    @pytest.mark.parametrize("r", [0.0, 1.0, db_to_r(40)])
    def test_wire(self, r):
        assert equivalence_check(wire_config(20, r=r, seed=5), (5, 10)) < 1e-9

    @pytest.mark.parametrize("m", [3, 4])
    def test_lattice(self, m):
        config = lattice_config(10 * m, m, r=1.0, seed=5)
        assert equivalence_check(config, (2 * m + 1, 4 * m)) < 1e-9

    def test_range_at_boundary_still_matches(self):
        # the ancilla contamination is part of the interaction graph, so even
        # a range touching the first stripe agrees with the replayed oracle
        assert equivalence_check(lattice_config(30, 3, r=0.8, seed=2), (2, 8)) < 1e-9

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            equivalence_check(wire_config(10), (5, 11))
        with pytest.raises(ValueError):
            equivalence_check(wire_config(10), (0, 3))
