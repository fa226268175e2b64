import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsim.canonical import build_canonical_cluster
from tcsim.gaussian import permute_modes, vacuum_state
from tcsim.graphs import (
    Graph,
    delete_nodes,
    make_graph,
    nullifier_variances,
    sheared_cylinder_graph,
    square_lattice_graph,
    unfolds_to_grid,
    wire_graph,
)


class TestWire:
    def test_adjacency_n3(self):
        a = wire_graph(3).adjacency_matrix()
        assert np.array_equal(a, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_single_node(self):
        assert wire_graph(1).edges == frozenset()

    def test_path_edge_count(self):
        assert len(wire_graph(5).edges) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            wire_graph(0)


class TestShearedCylinder:
    def test_node1_neighbors_m4(self):
        g = sheared_cylinder_graph(10, 4)
        assert g.neighbors(1) == {2, 5}

    def test_edge_count(self):
        # (N-1) wire links + (N-M) threadings
        assert len(sheared_cylinder_graph(10, 4).edges) == 9 + 6

    def test_n_equals_m_is_wire(self):
        g = sheared_cylinder_graph(4, 4)
        assert g.edges == wire_graph(4).edges

    def test_degree_bound(self):
        g = sheared_cylinder_graph(30, 5)
        degrees = [g.degree(v) for v in g.nodes]
        assert max(degrees) <= 4
        interior = [v for v in g.nodes if 5 < v <= 25]
        assert all(g.degree(v) == 4 for v in interior)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            sheared_cylinder_graph(10, 1)
        with pytest.raises(ValueError):
            sheared_cylinder_graph(3, 4)


class TestSquareLattice:
    def test_2x2(self):
        assert len(square_lattice_graph(2, 2).edges) == 4

    def test_1xk_is_wire(self):
        g = square_lattice_graph(1, 6)
        w = wire_graph(6)
        mapping = {(1, c): c for c in range(1, 7)}
        mapped = {frozenset((mapping[u], mapping[v])) for u, v in g.sorted_edges()}
        assert mapped == w.edges

    def test_3x4_edge_count(self):
        # rows*(cols-1) + cols*(rows-1)
        assert len(square_lattice_graph(3, 4).edges) == 2 * 4 + 3 * 3

    def test_zero_dimension(self):
        with pytest.raises(ValueError):
            square_lattice_graph(0, 3)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_graph([1, 2], [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            make_graph([1, 2], [(1, 3)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate node labels"):
            make_graph([1, 2, 1], [(1, 2)])

    def test_neighbors_of_unknown_node(self):
        with pytest.raises(KeyError):
            wire_graph(2).neighbors(9)


class TestNullifierVariances:
    def test_isolated_vacuum_node(self):
        state = vacuum_state(1)
        assert nullifier_variances(state, make_graph([1], []))[1] == pytest.approx(0.5)

    def test_independent_vacua_sum(self):
        state = vacuum_state(2)
        nv = nullifier_variances(state, wire_graph(2))
        assert nv[1] == pytest.approx(1.0, abs=1e-14)

    def test_canonical_wire_exact(self):
        r = 0.8
        g = wire_graph(6)
        nv = nullifier_variances(build_canonical_cluster(g, r), g)
        for v in nv.values():
            assert v == pytest.approx(np.exp(-2 * r) / 2, abs=1e-12)

    def test_missing_node(self):
        with pytest.raises(KeyError):
            nullifier_variances(vacuum_state(1), wire_graph(2))

    @given(order=st.permutations(range(1, 10)))
    @settings(max_examples=30, deadline=None)
    def test_label_order_differs_from_position_order(self, order):
        r = 0.8
        g = sheared_cylinder_graph(9, 3)
        state = permute_modes(build_canonical_cluster(g, r), order)
        for v in nullifier_variances(state, g).values():
            assert v == pytest.approx(np.exp(-2 * r) / 2, abs=1e-12)


class TestDeleteNodes:
    def test_delete_middle_of_wire(self):
        g = delete_nodes(wire_graph(3), [2])
        assert g.nodes == (1, 3)
        assert g.edges == frozenset()

    def test_delete_nothing(self):
        g = wire_graph(4)
        assert delete_nodes(g, []) == g

    def test_delete_endpoint(self):
        g = delete_nodes(wire_graph(2), [1])
        assert g.nodes == (2,)
        assert g.edges == frozenset()

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            delete_nodes(wire_graph(2), [9])

    @given(
        s=st.sets(st.integers(1, 8), max_size=4),
        t=st.sets(st.integers(1, 8), max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_deletion_commutes(self, s, t):
        g = sheared_cylinder_graph(8, 3)
        assert delete_nodes(delete_nodes(g, s), t - s) == delete_nodes(g, s | t)


class TestUnfolding:
    @pytest.mark.parametrize("m,k", [(4, 4), (4, 2)])
    def test_paper_cases(self, m, k):
        g = sheared_cylinder_graph(m * k, m)
        reduced = delete_nodes(g, [j for j in g.nodes if j % m == 0])
        result = unfolds_to_grid(reduced, m)
        assert result.unfolds
        assert result.grid_shape == (m - 1, k)

    def test_mapping_is_explicit_grid_relabeling(self):
        m, k = 4, 3
        g = sheared_cylinder_graph(m * k, m)
        reduced = delete_nodes(g, [j for j in g.nodes if j % m == 0])
        result = unfolds_to_grid(reduced, m)
        assert result.mapping[1] == (1, 1)
        assert result.mapping[m + 1] == (1, 2)
        assert result.mapping[m - 1] == (m - 1, 1)

    def test_undeleted_cylinder_fails(self):
        # the undeleted m-th nodes 4, 8, ... land in row 0, outside the grid
        g = sheared_cylinder_graph(16, 4)
        result = unfolds_to_grid(g, 4)
        assert not result.unfolds
        assert result.offending_edge == ((0, 1), (0, 2))

    def test_extra_deleted_node_fails(self):
        m, k = 4, 4
        g = sheared_cylinder_graph(m * k, m)
        reduced = delete_nodes(g, [j for j in g.nodes if j % m == 0] + [6])
        result = unfolds_to_grid(reduced, m)
        assert not result.unfolds
        assert result.mapping is None
        # node 6 was grid point (2, 2); the smallest missing edge joins it to (1, 2)
        assert result.offending_edge == ((1, 2), (2, 2))

    def test_width_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            unfolds_to_grid(wire_graph(4), 1)

    def test_empty_graph_does_not_unfold(self):
        assert unfolds_to_grid(make_graph([], []), 3).unfolds is False

    def test_all_small_cases(self):
        for m in range(2, 7):
            for k in range(1, 9):
                g = sheared_cylinder_graph(m * k, m)
                reduced = delete_nodes(g, [j for j in g.nodes if j % m == 0])
                assert unfolds_to_grid(reduced, m).unfolds, (m, k)

