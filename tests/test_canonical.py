import gc
import math
import tracemalloc

import numpy as np
import pytest

import tcsim
import tcsim.canonical
import tcsim.gaussian
import tcsim.pipeline
import tcsim.register
from tcsim.canonical import (
    build_canonical_cluster,
    canonical_covariance,
    canonical_entries,
    squeezed_variances,
)
from tcsim.gaussian import (
    GaussianState,
    append_modes,
    apply_cz,
    check_physicality,
    db_to_r,
    p_squeezed_state,
    states_equal,
    trace_out,
)
from tcsim.graphs import make_graph, nullifier_variances, sheared_cylinder_graph, wire_graph
from tcsim.pipeline import PipelineConfig, equivalence_check, range_oracle

from dense_entries import assert_lists_every_nonzero_entry
from register_faults import weighted_cz


def random_graph(n_nodes, edge_prob, rng):
    nodes = list(range(1, n_nodes + 1))
    edges = [
        (i, j)
        for i in nodes
        for j in nodes
        if i < j and rng.random() < edge_prob
    ]
    return make_graph(nodes, edges)


def constructive_cluster(graph, r, edges=None):
    """The canonical cluster by its definition, gate by gate: one p-squeezed
    mode per node, then one CZ per edge (in ``edges`` order if given)."""
    per_node = r if isinstance(r, dict) else {v: r for v in graph.nodes}
    state = GaussianState((), np.zeros((0, 0)))
    for node in graph.nodes:
        state = append_modes(state, p_squeezed_state(per_node[node], label=node))
    for u, v in graph.sorted_edges() if edges is None else edges:
        state = apply_cz(state, u, v)
    return state


def max_gap(cov, reference):
    return float(np.max(np.abs(cov - reference)))


class TestClosedForm:
    def test_wire2_entries(self):
        r = 0.6
        state = build_canonical_cluster(wire_graph(2), r)
        a = math.exp(2 * r) / 2
        b = math.exp(-2 * r) / 2
        # cov(q_1, p_2) = e^{2r}/2 and var(p_1) = e^{2r}/2 + e^{-2r}/2
        assert state.cov[0, 3] == pytest.approx(a, abs=1e-14)
        assert state.cov[2, 2] == pytest.approx(a + b, abs=1e-14)

    def test_r0_blocks(self):
        g = sheared_cylinder_graph(8, 3)
        adj = g.adjacency_matrix()
        state = build_canonical_cluster(g, 0.0)
        n = g.n_nodes
        assert np.allclose(state.cov[:n, :n], 0.5 * np.eye(n), atol=1e-14)
        assert np.allclose(state.cov[:n, n:], 0.5 * adj, atol=1e-14)
        assert np.allclose(state.cov[n:, n:], 0.5 * (adj @ adj + np.eye(n)), atol=1e-14)

    def test_empty_graph_is_product_state(self):
        g = make_graph([1, 2, 3], [])
        state = build_canonical_cluster(g, 0.9)
        assert max_gap(state.cov, constructive_cluster(g, 0.9).cov) < 1e-14
        assert np.count_nonzero(state.cov - np.diag(np.diagonal(state.cov))) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_match_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng.integers(2, 13), 0.4, rng)
        r = float(rng.uniform(0, 1.2))
        reference = constructive_cluster(g, r).cov
        assert max_gap(canonical_covariance(g, r), reference) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_per_node_squeezing_matches_construction(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(rng.integers(2, 13), 0.4, rng)
        # about a third of the nodes, and always the first, are vacuum (r = 0)
        r = {v: float(rng.uniform(0, 1.2)) if rng.random() > 0.3 else 0.0 for v in g.nodes}
        r[g.nodes[0]] = 0.0
        reference = constructive_cluster(g, r).cov
        assert max_gap(canonical_covariance(g, r), reference) < 1e-12

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError):
            canonical_covariance(wire_graph(3), {1: 0.5, 2: -0.1, 3: 0.5})


class TestPerEntryClosedForm:
    """``canonical_entries`` lists the nonzero entries of
    ``canonical_covariance``, bitwise, on arbitrary graphs; the ranges of
    both topologies are in ``tests/test_stream_oracle.py``."""

    @pytest.mark.parametrize("db", [0, 10, 40, 70])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed, db):
        rng = np.random.default_rng(200 + seed)
        g = random_graph(rng.integers(1, 16), rng.uniform(0.1, 0.9), rng)
        edges = np.array(g.sorted_edges()).reshape(-1, 2)
        want = canonical_covariance(g, db_to_r(db))
        a, b = squeezed_variances(np.full(len(g.nodes), db_to_r(db)))
        assert_lists_every_nonzero_entry(canonical_entries(g.nodes, a, b, edges), g.nodes, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_node_squeezing_and_traced_labels(self, seed):
        # the first labels at r = 0, some of them traced out, as the
        # ancillas of a range are
        rng = np.random.default_rng(300 + seed)
        g = random_graph(rng.integers(2, 16), 0.4, rng)
        traced = int(rng.integers(0, len(g.nodes)))
        r = {v: 0.0 if i < traced else db_to_r(float(rng.choice([0, 10, 40, 70])))
             for i, v in enumerate(g.nodes)}
        want = trace_out(build_canonical_cluster(g, r), g.nodes[:traced])
        edges = np.array(g.sorted_edges()).reshape(-1, 2)
        a, b = squeezed_variances(np.array([r[v] for v in g.nodes]))
        got = canonical_entries(g.nodes, a, b, edges, traced=traced)
        assert_lists_every_nonzero_entry(got, want.labels, want.cov)

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], []], ids=["path", "no-edges"])
    def test_every_label_traced_lists_no_entry(self, edges):
        # four empty arrays, of the dtypes a call that lists entries returns
        labels = np.array([0, 1, 2])
        a, b = squeezed_variances(np.full(3, db_to_r(10)))
        got = canonical_entries(labels, a, b, edges, traced=len(labels))
        listed = canonical_entries(labels, a, b, [(0, 1), (1, 2)])
        assert [len(x) for x in got] == [0, 0, 0, 0]
        assert [x.dtype for x in got] == [x.dtype for x in listed]

    @pytest.mark.parametrize("traced", [0, 1, 2])
    def test_graph_with_no_edges_lists_each_kept_diagonal(self, traced):
        # a product state: qq a_i and pp b_i of each label not traced out
        g = make_graph([0, 1, 2], [])
        r = {0: 0.0, 1: db_to_r(10), 2: db_to_r(40)}
        want = trace_out(build_canonical_cluster(g, r), g.nodes[:traced])
        a, b = squeezed_variances(np.array([r[v] for v in g.nodes]))
        got = canonical_entries(g.nodes, a, b, [], traced=traced)
        assert_lists_every_nonzero_entry(got, want.labels, want.cov)

    @pytest.mark.parametrize("n, p", [(200, 0.3), (300, 0.1), (300, 0.2), (400, 0.1)])
    def test_long_sums_agree_bitwise_with_the_dense_closed_form(self, n, p):
        # pp sums of tens of terms, each node at its own squeezing: a BLAS
        # product adj @ qp splits such sums into blocks and rounds them
        # otherwise, so both forms must add each term in ascending k
        rng = np.random.default_rng(n + int(10 * p))
        g = random_graph(n, p, rng)
        rs = rng.uniform(0.0, db_to_r(20), n)
        want = canonical_covariance(g, dict(zip(g.nodes, rs)))
        a, b = squeezed_variances(rs)
        edges = np.array(g.sorted_edges()).reshape(-1, 2)
        assert_lists_every_nonzero_entry(canonical_entries(g.nodes, a, b, edges), g.nodes, want)

    def test_memory_is_within_two_and_a_half_times_its_output(self):
        # A 10^4-node range of an M = 8 lattice, past the first stripe: 17
        # paths per node (sum of squared degrees, and the diagonal's b) for
        # 18 listed entries.  Holding every path array at once, it peaked
        # at 3.8x its output; freeing each as the next is built, at 2.05x.
        labels = np.arange(10_001, 20_001)
        edges = np.concatenate([
            np.stack([labels - d, labels], axis=1)[labels - d >= labels[0]] for d in (1, 8)
        ])
        a, b = squeezed_variances(np.full(len(labels), db_to_r(10)))
        gc.collect()
        tracemalloc.start()
        try:
            entries = canonical_entries(labels, a, b, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sum(x.nbytes for x in entries)

    def test_refuses_an_edge_off_the_labels(self):
        a = b = np.full(3, 0.5)
        with pytest.raises(ValueError, match="not a label"):
            canonical_entries([1, 2, 3], a, b, [(1, 4)])
        with pytest.raises(ValueError, match="itself"):
            canonical_entries([1, 2, 3], a, b, [(2, 2)])


class TestOrderIndependence:
    def test_shuffled_edge_order(self):
        rng = np.random.default_rng(7)
        g = sheared_cylinder_graph(10, 4)
        closed = canonical_covariance(g, 1.0)
        edges = g.sorted_edges()
        for _ in range(3):
            perm = [edges[i] for i in rng.permutation(len(edges))]
            shuffled = constructive_cluster(g, 1.0, edges=perm)
            assert max_gap(shuffled.cov, closed) < 1e-12


class TestIndependentOracle:
    def test_shared_cz_fault_is_caught(self, monkeypatch):
        """A CZ of weight 1 + 1e-3 patched into every module that binds the
        in-place CZ kernel ``cz_slots`` (which ``apply_cz`` also runs) and
        into the pipeline's register: an oracle built from the same gate
        would share the fault and report 0.  A run that measures a node
        refuses its q row, which is off the pinned feedforward convention;
        a range from node 1 measures none, so the oracle must catch it."""

        def skewed_cz(cov, i, j):
            n = len(cov) // 2
            s = np.eye(2 * n)
            s[n + i, j] = s[n + j, i] = 1.0 + 1e-3
            cov[:] = s @ cov @ s.T

        for module in (tcsim, tcsim.gaussian, tcsim.canonical, tcsim.pipeline):
            monkeypatch.setattr(module, "cz_slots", skewed_cz, raising=False)
        monkeypatch.setattr(tcsim.register.DiagonalRegister, "_cz", weighted_cz(1.0 + 1e-3))
        wire = PipelineConfig("wire", 20, squeezing_r=1.0, seed=5)
        lattice = PipelineConfig("lattice", 30, width=3, squeezing_r=1.0, seed=5)
        for config, node_range in ((wire, (5, 10)), (lattice, (7, 12))):
            with pytest.raises(ValueError, match="^node 1: stored measurement is off the pinned"):
                equivalence_check(config, node_range)
        for config, node_range in ((wire, (1, 10)), (lattice, (1, 12))):
            assert equivalence_check(config, node_range) > 1e-6

    def test_range_oracle_uses_neither_the_register_nor_the_dense_closed_form(self, monkeypatch):
        configs = [
            (PipelineConfig("wire", 20, squeezing_r=1.0), range(1, 10)),
            (PipelineConfig("lattice", 30, width=3, squeezing_r=1.0), range(2, 12)),
            (PipelineConfig("lattice", 80, width=8, squeezing_r=1.0), range(40, 80)),
        ]
        want = [range_oracle(config, nodes) for config, nodes in configs]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not call this")

        monkeypatch.setattr(tcsim.register, "DiagonalRegister", refuse)
        monkeypatch.setattr(tcsim.register, "pattern", refuse)
        monkeypatch.setattr(tcsim.canonical, "canonical_covariance", refuse)
        for (config, nodes), entries in zip(configs, want):
            got = range_oracle(config, nodes)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in entries]


class TestPurityAndNullifiers:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.15])
    def test_purity(self, r):
        state = build_canonical_cluster(sheared_cylinder_graph(12, 4), r)
        assert check_physicality(state) == pytest.approx(0.5, abs=1e-9)

    def test_wire_10db(self):
        g = wire_graph(10)
        report = nullifier_variances(build_canonical_cluster(g, db_to_r(10.0)), g)
        for v in report.values():
            assert v == pytest.approx(0.05, abs=1e-10)

    def test_any_graph_r0(self):
        g = sheared_cylinder_graph(9, 3)
        report = nullifier_variances(build_canonical_cluster(g, 0.0), g)
        for v in report.values():
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_cylinder_r1(self):
        g = sheared_cylinder_graph(20, 4)
        report = nullifier_variances(build_canonical_cluster(g, 1.0), g)
        for v in report.values():
            assert v == pytest.approx(math.exp(-2.0) / 2, abs=1e-10)

    def test_per_node_squeezing(self):
        g = wire_graph(3)
        state = build_canonical_cluster(g, {1: 0.0, 2: 1.0, 3: 0.5})
        uniform = build_canonical_cluster(g, 1.0)
        assert not states_equal(state, uniform, tol=1e-9)
