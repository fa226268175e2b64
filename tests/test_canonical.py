import math

import numpy as np
import pytest

from tcsim.canonical import (
    build_canonical_cluster,
    canonical_covariance,
    canonical_nullifier_report,
)
from tcsim.gaussian import check_physicality, db_to_r, states_equal
from tcsim.graphs import make_graph, sheared_cylinder_graph, wire_graph


def random_graph(n_nodes, edge_prob, rng):
    nodes = list(range(1, n_nodes + 1))
    edges = [
        (i, j)
        for i in nodes
        for j in nodes
        if i < j and rng.random() < edge_prob
    ]
    return make_graph(nodes, edges)


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
        expected = canonical_covariance(g, 0.9)
        assert np.allclose(state.cov, expected, atol=1e-14)
        assert np.count_nonzero(state.cov - np.diag(np.diagonal(state.cov))) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_match_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng.integers(2, 13), 0.4, rng)
        r = float(rng.uniform(0, 1.2))
        state = build_canonical_cluster(g, r)
        assert np.max(np.abs(state.cov - canonical_covariance(g, r))) < 1e-12


class TestOrderIndependence:
    def test_shuffled_edge_order(self):
        rng = np.random.default_rng(7)
        g = sheared_cylinder_graph(10, 4)
        reference = build_canonical_cluster(g, 1.0)
        edges = g.sorted_edges()
        for _ in range(3):
            perm = [edges[i] for i in rng.permutation(len(edges))]
            shuffled = build_canonical_cluster(
                make_graph(g.nodes, perm), 1.0
            )
            assert np.max(np.abs(shuffled.cov - reference.cov)) < 1e-12


class TestPurityAndNullifiers:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.15])
    def test_purity(self, r):
        state = build_canonical_cluster(sheared_cylinder_graph(12, 4), r)
        assert check_physicality(state) == pytest.approx(0.5, abs=1e-9)

    def test_wire_10db(self):
        report = canonical_nullifier_report(wire_graph(10), db_to_r(10.0))
        for v in report.values():
            assert v == pytest.approx(0.05, abs=1e-10)

    def test_any_graph_r0(self):
        report = canonical_nullifier_report(sheared_cylinder_graph(9, 3), 0.0)
        for v in report.values():
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_cylinder_r1(self):
        report = canonical_nullifier_report(sheared_cylinder_graph(20, 4), 1.0)
        for v in report.values():
            assert v == pytest.approx(math.exp(-2.0) / 2, abs=1e-10)

    def test_per_node_squeezing(self):
        g = wire_graph(3)
        state = build_canonical_cluster(g, {1: 0.0, 2: 1.0, 3: 0.5})
        uniform = build_canonical_cluster(g, 1.0)
        assert not states_equal(state, uniform, tol=1e-9)
