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

from tcsim import graphs
from tcsim.cli import main
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
    range_oracle,
    run_pipeline,
    tick_events,
)
from tcsim.register import DiagonalRegister

from interaction_graph import pipeline_interaction_graph


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

    def test_compared_range_stops_emission_and_traces_each_label_2_reach_ticks_on(self):
        config = lattice_config(30, 3)
        compared = range(7, 13)
        events = {t: tick_events(config, t, compared) for t in range(1, 13 + 2 * 3)}
        emitted = [e.labels[0] for es in events.values() for e in es if e.kind == "emit"]
        measured = {e.labels[0]: t for t, es in events.items() for e in es if e.kind == "measure"}
        traced = {e.labels[0]: t for t, es in events.items() for e in es if e.kind == "trace"}
        assert emitted == list(range(1, 13))
        assert measured == {node: node + config.delay for node in range(1, 7)}
        assert traced == {**{a: a + config.delay for a in (-2, -1, 0)}, **{i: i + 6 for i in compared}}
        assert tick_events(config, 12 + 2 * 3, compared) != [] == tick_events(config, 13 + 2 * 3, compared)

    def test_comparison_ends_holding_nothing(self):
        pipe = TemporalPipeline(lattice_config(30, 3), range(7, 20))
        report = pipe.run()
        assert pipe.snapshot().labels == ()
        assert report.high_water == pipe.register.slots == 2 * 3 + 1

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


    def test_one_statement_of_the_rule(self, tmp_path, monkeypatch):
        # Patched to link a lattice's pulses 1 and M + 1 apart, the one
        # definition changes the run's offsets, the graph builder and the
        # unfolding check alike, and the cylinder no longer unfolds.
        def argv():
            return ["unfold", "--width", "4", "--cols", "4", "--out", str(tmp_path / "r.json")]

        assert lattice_config(16, 4).offsets == (1, 4)
        assert sheared_cylinder_graph(16, 4).neighbors(1) == {2, 5}
        assert main(argv()) == 0

        def skewed(topology, width=0):
            return (1, width + 1) if topology == "lattice" else (1,)

        monkeypatch.setattr(graphs.link_offsets, "__code__", skewed.__code__)
        assert PipelineConfig("lattice", 16, width=4).offsets == (1, 5)
        assert sheared_cylinder_graph(16, 4).neighbors(1) == {2, 6}
        assert main(argv()) == 1


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
        # A run keeps one float64 outcome per pulse, from its one draw.
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

    def test_outcomes_are_one_array_scaled_in_place(self):
        # 10^6 outcomes are 8 MB; with 10% on top there is no room for a
        # second N-sized array, not even a transient one.
        config = lattice_config(10**6, 8, r=db_to_r(10))
        run_pipeline(lattice_config(1_000, 8, r=db_to_r(10)))  # lazy set-up outside the measured peak
        gc.collect()
        tracemalloc.start()
        try:
            run_pipeline(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.8e6, peak

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

    def test_comparison_ring_holds_2_reach_plus_1_labels(self):
        pipe = TemporalPipeline(lattice_config(30, 3), range(7, 20))  # K = 7
        assert pipe.register.slots == 7
        pipe.execute([PipelineEvent("emit", (label,)) for label in (1, 2, 3, 4)])
        assert pipe.register.slots == 7
        with pytest.raises(RuntimeError, match=re.escape("cannot emit 5 into window -2..4")):
            pipe.execute([PipelineEvent("emit", (5,))])

    def test_unknown_event_kind(self):
        self.refuses([("divert", (0,))], ValueError, "unknown event kind 'divert'")

    def test_run_that_leaves_a_mode_live_names_it_without_a_dense_read(self, monkeypatch):
        # A tick that never measures node 5 leaves it live.  The error
        # names the labels alone: a dense read of a long range's register
        # would need a 2L x 2L matrix.
        finalize = TemporalPipeline._finalize

        def skip_node_5(self, node):
            if node != 5:
                finalize(self, node)

        def dense_read(*args):
            raise AssertionError("the error path must not read the register densely")

        monkeypatch.setattr(TemporalPipeline, "_finalize", skip_node_5)
        monkeypatch.setattr(DiagonalRegister, "window", dense_read)
        with pytest.raises(RuntimeError, match=r"^schedule left live modes \(5,\)$"):
            TemporalPipeline(wire_config(5)).run()


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

    @staticmethod
    def compared_peak(config, node_range, warm_up):
        """The traced peak of one passing ``equivalence_check``, after a
        warm-up check that does numpy's lazy set-up outside it."""
        equivalence_check(config, warm_up)
        gc.collect()
        tracemalloc.start()
        try:
            assert equivalence_check(config, node_range) < 1e-9
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_check_of_a_4000_node_range_peaks_under_90_kb(self):
        # Compared row by row on a ring of 2 reach + 1 slots, O(reach): a
        # dense 2L x 2L pair would peak at 2 GB here, and holding the whole
        # range peaked at 8.0 MB.  With the oracle rows built on top of the
        # register it peaked at 101.4 kB; built first, each build keeping
        # only its output, 73.9 kB.  The bound is that plus about 20%.
        config = lattice_config(10_000, 8, r=db_to_r(10), seed=1)
        assert self.compared_peak(config, (6_001, 10_000), (9_901, 10_000)) <= 90e3

    def test_check_of_a_501_node_range_of_an_m_64_lattice_peaks_under_450_kb(self):
        # The oracle's build scratch was 435 of the 609 kB peak when it ran
        # on top of the live register; built before it, the peak is 368 kB.
        config = lattice_config(2000, 64, r=db_to_r(10), seed=1)
        assert self.compared_peak(config, (1500, 2000), (1900, 2000)) <= 0.45e6

    def test_check_of_a_10_to_the_5_node_range_peaks_under_2_mb_on_2_reach_plus_1_labels(self, monkeypatch):
        # The range at the end of a 10^6-pulse lattice: holding it live,
        # the check peaked at 206 MB.  Compared row by row, neither N nor
        # len(range) moves the peak, and the run never holds more than
        # 2 reach + 1 labels.
        config = lattice_config(10**6, 8, r=db_to_r(10), seed=1)
        equivalence_check(config, (10**6 - 99, 10**6))  # lazy set-up outside the measured peak
        held = []
        run = TemporalPipeline.run

        def recorded(self):
            report = run(self)
            held.append(report.high_water)
            return report

        monkeypatch.setattr(TemporalPipeline, "run", recorded)
        gc.collect()
        tracemalloc.start()
        try:
            assert equivalence_check(config, (900_001, 10**6)) < 1e-9
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        assert held == [2 * 8 + 1]

    def test_an_entry_on_one_side_only_counts_at_its_full_value(self, monkeypatch):
        # as in a dense difference, where the other side holds 0 there
        config = lattice_config(40, 4, r=1.0, seed=5)
        assert equivalence_check(config, (17, 30)) < 1e-9

        def extra(*args):  # qq(17, 30), which no register stores
            block, row, col, value = range_oracle(*args)
            return [np.append(x, v) for x, v in zip((block, row, col, value), (0, 17, 30, 0.25))]

        def missing(*args):  # without qq(17, 17), which every register stores
            entries = range_oracle(*args)
            kept = ~((entries[0] == 0) & (entries[1] == 17) & (entries[2] == 17))
            return [x[kept] for x in entries]

        monkeypatch.setattr("tcsim.pipeline.range_oracle", extra)
        assert equivalence_check(config, (17, 30)) == 0.25
        monkeypatch.setattr("tcsim.pipeline.range_oracle", missing)
        assert equivalence_check(config, (17, 30)) == math.exp(2.0) / 2

    def test_register_that_turns_asymmetric_before_a_row_read_is_refused(self, monkeypatch):
        # tick 24 runs no check; tick 25 checks before it reads row 17
        tick = TemporalPipeline.tick

        def corrupted(self, t):
            tick(self, t)
            if t == 24:
                k = self.register.slots
                cov = self.register.dense()
                cov[23 % k, k + 24 % k] += 1e-6  # (q_23, p_24), not its mirror
                self.register.load(cov)

        monkeypatch.setattr(TemporalPipeline, "tick", corrupted)
        with pytest.raises(ValueError, match="symmetric and finite"):
            equivalence_check(lattice_config(40, 4, r=1.0, seed=5), (17, 30))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            equivalence_check(wire_config(10), (5, 11))
        with pytest.raises(ValueError):
            equivalence_check(wire_config(10), (0, 3))
        # both ends lie in 1..40, but in the wrong order
        with pytest.raises(ValueError, match=r"^node range 20\.\.10: need 1 <= first <= last <= 40$"):
            equivalence_check(wire_config(40), (20, 10))

    @pytest.mark.parametrize(
        "node_range, name",
        [((True, 40), "first"), ((10, 40.0), "last"), ((1.0, 3), "first"), ((2, False), "last"), (("1", 3), "first")],
    )
    def test_range_bounds_must_be_integers(self, node_range, name):
        # as PipelineConfig refuses a bool or non-integer n_pulses
        with pytest.raises(ValueError, match=rf"^node range {name} must be an integer, got "):
            equivalence_check(wire_config(40), node_range)

    def test_numpy_integer_range_bounds(self):
        config = wire_config(20, r=1.0, seed=5)
        assert equivalence_check(config, (np.int64(5), np.int32(10))) == equivalence_check(config, (5, 10))


# Blocks of 0 to 4 rows each, the ones of a run (1, or any n) among them.
BLOCKS = st.lists(
    st.builds(
        lambda first, n: Stretch(first, n, 1.0, np.zeros(0), None, np.arange(n, dtype=float)),
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
