import math

import numpy as np
import pytest

import tcsim
import tcsim.canonical
import tcsim.gaussian
import tcsim.pipeline
import tcsim.register
from tcsim.canonical import build_canonical_cluster, canonical_covariance
from tcsim.gaussian import (
    GaussianState,
    append_modes,
    apply_cz,
    check_physicality,
    db_to_r,
    p_squeezed_state,
    states_equal,
)
from tcsim.graphs import make_graph, nullifier_variances, sheared_cylinder_graph, wire_graph
from tcsim.pipeline import PipelineConfig, equivalence_check

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
        monkeypatch.setattr(tcsim.register.DiagonalRegister, "cz", weighted_cz(1.0 + 1e-3))
        wire = PipelineConfig("wire", 20, squeezing_r=1.0, seed=5)
        lattice = PipelineConfig("lattice", 30, width=3, squeezing_r=1.0, seed=5)
        for config, node_range in ((wire, (5, 10)), (lattice, (7, 12))):
            with pytest.raises(ValueError, match="^node 1: stored measurement is off the pinned"):
                equivalence_check(config, node_range)
        for config, node_range in ((wire, (1, 10)), (lattice, (1, 12))):
            assert equivalence_check(config, node_range) > 1e-6


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
