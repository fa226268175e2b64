import dataclasses
import gc
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsim.gaussian import db_to_r, states_equal, vacuum_state
from tcsim.graphs import sheared_cylinder_graph, wire_graph
from tcsim.pipeline import (
    PipelineConfig,
    PipelineEvent,
    Rows,
    Stretch,
    TemporalPipeline,
    build_schedule,
    equivalence_check,
    pipeline_interaction_graph,
    run_pipeline,
    tick_events,
)


def wire_config(n, r=1.0, seed=0, **kw):
    return PipelineConfig("wire", n, squeezing_r=r, seed=seed, **kw)


def lattice_config(n, m, r=1.0, seed=0, **kw):
    return PipelineConfig("lattice", n, width=m, squeezing_r=r, seed=seed, **kw)


class TestConfig:
    def test_lattice_needs_width(self):
        with pytest.raises(ValueError):
            PipelineConfig("lattice", 20, width=1)

    def test_lattice_needs_enough_pulses(self):
        with pytest.raises(ValueError):
            PipelineConfig("lattice", 5, width=4)

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            PipelineConfig("ring", 5)

    def test_a_run_has_no_mode(self):
        # every run reads its nullifiers; the CLI's --verify only reports them
        with pytest.raises(TypeError, match="mode"):
            PipelineConfig("wire", 5, mode="verify")
        assert [n for n, _ in run_pipeline(wire_config(5)).nullifier_checks] == [2, 3, 4, 5]

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            PipelineConfig("wire", 5, seed=-1)
        assert PipelineConfig("wire", 5, seed=0).seed == 0

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n_pulses": 5.5}, "n_pulses"),
            ({"n_pulses": 5.0}, "n_pulses"),
            ({"n_pulses": True}, "n_pulses"),
            ({"seed": 1.5}, "seed"),
            ({"seed": False}, "seed"),
            ({"topology": "lattice", "n_pulses": 10, "width": 2.5}, "width"),
            ({"topology": "lattice", "n_pulses": 10, "width": True}, "width"),
        ],
        ids=["n-float", "n-integral-float", "n-bool", "seed-float", "seed-bool",
             "width-float", "width-bool"],
    )
    def test_integer_fields_reject_other_types(self, kwargs, field):
        kwargs = {"topology": "wire", "n_pulses": 5, **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            PipelineConfig(**kwargs)

    def test_integer_fields_accept_numpy_integers(self):
        config = PipelineConfig("lattice", np.int64(10), width=np.int32(2), seed=np.uint8(3))
        assert [r.node for r in run_pipeline(config).records] == list(range(1, 11))

    def test_wire_rejects_width(self):
        with pytest.raises(ValueError, match="width applies only to a lattice"):
            PipelineConfig("wire", 20, width=5)

    @pytest.mark.parametrize("r", [True, False, "1.0", None, 1j, [1.0]], ids=repr)
    def test_squeezing_rejects_other_types(self, r):
        with pytest.raises(ValueError, match="^squeezing_r must be a real number, got "):
            PipelineConfig("wire", 5, squeezing_r=r)

    def test_squeezing_accepts_real_numbers(self):
        for r in (1, np.float32(0.5), np.int64(2)):
            assert PipelineConfig("wire", 5, squeezing_r=r).squeezing_r == r

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_squeezing(self, r):
        with pytest.raises(ValueError):
            wire_config(4, r=r)

    def test_derived_values_are_computed_once_outside_the_fields(self):
        read, fresh = lattice_config(20, 4), lattice_config(20, 4)
        derived = (read.offsets, read.reach, read.delay, read.ancilla_labels)
        assert derived == ((1, 4), 4, 5, (-3, -2, -1, 0))
        assert read.offsets is read.offsets and read.ancilla_labels is read.ancilla_labels
        # a config that has cached them equals and hashes like one that has not
        assert read == fresh and hash(read) == hash(fresh)
        assert {read, fresh} == {fresh}
        assert read != lattice_config(20, 5)
        # replace builds a new config from the fields: nothing cached carries over
        wider = dataclasses.replace(read, width=6)
        assert (wider.offsets, wider.reach, wider.delay) == ((1, 6), 6, 7)
        assert wider.ancilla_labels == tuple(range(-5, 1))
        assert wider == lattice_config(20, 6)
        assert dataclasses.replace(wire_config(5), n_pulses=9).reach == 1
        for name in ("width", "reach", "offsets"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(read, name, 3)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"width": 1}, "lattice width must be at least 2"),
            ({"n_pulses": 7}, "lattice needs at least 2 \\* width pulses"),
            ({"topology": "ring"}, "unknown topology 'ring'"),
            ({"squeezing_r": -1.0}, "squeezing parameter must be nonnegative"),
            ({"squeezing_r": math.nan}, "squeezing parameter must be finite"),
        ],
    )
    def test_replace_of_a_read_config_still_rejects(self, change, message):
        config = lattice_config(20, 4)
        assert config.reach == 4  # cached before the replace
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(config, **change)


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

    def test_deferred_range_stops_emission_and_withholds_measurements(self):
        config = wire_config(20)
        deferred = range(5, 11)
        events = [e for t in config.ticks for e in tick_events(config, t, deferred)]
        emitted = [e.labels[0] for e in events if e.kind == "emit"]
        measured = [e.labels[0] for e in events if e.kind == "measure"]
        assert emitted == list(range(1, 11))
        assert max(max(e.labels) for e in events) == 10
        assert measured == [1, 2, 3, 4]

    def test_deferred_run_ends_holding_the_range(self):
        config = lattice_config(30, 3)
        pipe = TemporalPipeline(config, range(7, 13))
        report = pipe.run()
        assert pipe.snapshot().labels == tuple(range(7, 13))
        assert [r.node for r in report.records] == list(range(1, 7))

    def test_tick_ordering(self):
        order = {"emit": 0, "cz": 1, "measure": 2, "trace": 2}
        config = lattice_config(20, 4)
        for t in config.ticks:
            phases = [order[e.kind] for e in tick_events(config, t)]
            assert phases == sorted(phases)


class TestTopologyRule:
    """The one offsets rule, read two ways, against the graph builders."""

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
            assert {nb for nb in interaction.neighbors(node) if nb >= 1} == expected
        assert {e.kind for e in events} == {"emit", "cz", "measure", "trace"}


class TestVerifyMode:
    def test_wire_nullifiers_exact(self):
        r = 0.7
        report = run_pipeline(wire_config(12, r=r))
        target = math.exp(-2 * r) / 2
        checked = dict(report.nullifier_checks)
        assert set(checked) == set(range(2, 13))
        for v in checked.values():
            assert v == pytest.approx(target, abs=1e-9)

    def test_lattice_nullifiers_exact(self):
        r = 1.0
        report = run_pipeline(lattice_config(40, 4, r=r))
        target = math.exp(-2 * r) / 2
        checked = dict(report.nullifier_checks)
        assert set(checked) == set(range(5, 41))
        for v in checked.values():
            assert v == pytest.approx(target, abs=1e-9)

    def test_boundary_reported_as_deleted(self):
        report = run_pipeline(lattice_config(24, 3))
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

    @pytest.mark.parametrize(
        "config",
        [
            lambda n: wire_config(n, r=db_to_r(10)),
            lambda n: lattice_config(n, 8, r=db_to_r(10)),
        ],
        ids=["wire", "lattice-8"],
    )
    def test_run_grows_by_at_most_32_bytes_per_pulse(self, config):
        # The certified stretch keeps one float64 outcome per pulse; the
        # draws for it are a transient array of the same size.
        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                run_pipeline(config(n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_pipeline(config(1_000))  # lazy set-up outside the measured peaks
        growth = (peak(100_000) - peak(1_000)) / (100_000 - 1_000)
        assert growth <= 32

    def test_wide_lattice_register_is_not_dense(self):
        # M = 256: a dense 2K x 2K register (K = 258) is 2.1 MB, and a run
        # that held it, its certificate copy and the guard's temporaries
        # peaked at 7.6 MB.  The diagonals are 19 x 258 values; most of what
        # is left is the kernel ticks' b_keep rows, about 1.6 MB.
        config = lattice_config(1024, 256, r=db_to_r(10))
        gc.collect()
        tracemalloc.start()
        try:
            run_pipeline(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_pipeline(lattice_config(40, 4, seed=7))
        b = run_pipeline(lattice_config(40, 4, seed=7))
        assert a.high_water == b.high_water
        assert a.nullifier_checks == b.nullifier_checks
        assert a.records == b.records and not a.records != b.records
        for ra, rb in zip(a.records, b.records):
            assert ra.node == rb.node and ra.outcome == rb.outcome
            assert np.array_equal(ra.feedforward, rb.feedforward)

    def test_different_seed_different_outcomes(self):
        a = run_pipeline(wire_config(10, seed=1))
        b = run_pipeline(wire_config(10, seed=2))
        assert any(ra.outcome != rb.outcome for ra, rb in zip(a.records, b.records))
        assert a.records != b.records


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

    def test_deferred_ring_holds_the_range_from_construction(self):
        pipe = TemporalPipeline(wire_config(10), range(1, 5))  # K = max(3, 4)
        assert pipe.register.slots == 4
        pipe.execute([PipelineEvent("emit", (label,)) for label in (1, 2, 3)])
        assert pipe.register.slots == 4
        with pytest.raises(RuntimeError, match=re.escape("cannot emit 4 into window 0..3")):
            pipe.execute([PipelineEvent("emit", (4,))])

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
        # both ends lie in 1..40, but in the wrong order
        with pytest.raises(ValueError, match=r"^node range 20\.\.10: need 1 <= first <= last <= 40$"):
            equivalence_check(wire_config(40), (20, 10))


# Blocks of 0 to 4 rows each, the ones of a run (1, or any n) among them.
BLOCKS = st.lists(
    st.builds(
        lambda first, n: Stretch(first, 1.0, np.zeros(0), None, np.arange(n, dtype=float)),
        st.integers(-50, 50),
        st.integers(0, 4),
    ),
    max_size=6,
)


def first_and_outcome(s, j):
    return s.first + j, s.outcomes[j]


class TestRows:
    """A ``Rows`` view reads as the flat list of its blocks' rows."""

    @given(blocks=BLOCKS, data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_reads_as_the_flattened_rows(self, blocks, data):
        rows = Rows(blocks, first_and_outcome)
        flat = [first_and_outcome(s, j) for s in blocks for j in range(len(s.outcomes))]
        assert len(rows) == len(flat)
        assert list(rows) == flat
        assert rows == flat and not rows != flat
        assert rows != flat + [(0, 0.0)]
        for i in range(-len(flat), len(flat)):
            assert rows[i] == flat[i]
        cut = data.draw(st.slices(len(flat)))
        assert rows[cut] == flat[cut]
        for past in (len(flat), -len(flat) - 1):
            with pytest.raises(IndexError):
                rows[past]
