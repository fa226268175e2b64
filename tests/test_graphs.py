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
    link_offsets,
    links,
    nullifier_variances,
    sheared_cylinder_graph,
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


class TestLinks:
    def test_wire_links(self):
        assert links(4, link_offsets("wire")).tolist() == [[1, 2], [2, 3], [3, 4]]

    def test_lattice_links_offset_by_offset(self):
        assert links(5, link_offsets("lattice", 3)).tolist() == [
            [1, 2], [2, 3], [3, 4], [4, 5], [1, 4], [2, 5]
        ]

    def test_offset_past_the_labels_adds_no_link(self):
        assert links(3, (1, 4)).tolist() == [[1, 2], [2, 3]]
        assert links(1, (1,)).shape == (0, 2)


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


def every_mth_deleted(m, k):
    g = sheared_cylinder_graph(m * k, m)
    return delete_nodes(g, [j for j in g.nodes if j % m == 0])


def reference_unfolding(graph, m):
    """The check on sets of (row, col) points, with no integer key: whether
    the relabeled graph is the (m - 1) x k grid, and if not the smallest
    edge of the symmetric difference."""
    point = {j: (j % m, -(-j // m)) for j in graph.nodes}
    k = max(col for _, col in point.values())
    grid = {(r, c) for r in range(1, m) for c in range(1, k + 1)}
    grid_edges = {frozenset({(r, c), (r + 1, c)}) for r, c in grid if r < m - 1}
    grid_edges |= {frozenset({(r, c), (r, c + 1)}) for r, c in grid if c < k}
    mapped = {frozenset({point[u], point[v]}) for u, v in graph.sorted_edges()}
    if set(point.values()) == grid and mapped == grid_edges:
        return True, None
    return False, min((tuple(sorted(e)) for e in mapped ^ grid_edges), default=None)


class TestUnfolding:
    @pytest.mark.parametrize("m,k", [(4, 4), (4, 2)])
    def test_paper_cases(self, m, k):
        reduced = every_mth_deleted(m, k)
        result = unfolds_to_grid(reduced.nodes, reduced.sorted_edges(), m)
        assert result.unfolds
        assert result.grid_shape == (m - 1, k)

    @pytest.mark.parametrize(
        "node, edge",
        [(1, ((1, 1), (1, 2))), (5, ((1, 1), (1, 2))), (3, ((2, 1), (3, 1)))],
        ids=["node-1", "node-m+1", "node-m-1"],
    )
    def test_offending_edge_is_in_grid_coordinates(self, node, edge):
        # node j is grid point (j mod m, ceil(j / m)): deleting node 1
        # (1, 1), m + 1 (1, 2) or m - 1 (3, 1) loses the grid's first edge at it
        m, k = 4, 3
        g = delete_nodes(every_mth_deleted(m, k), [node])
        result = unfolds_to_grid(g.nodes, g.sorted_edges(), m)
        assert not result.unfolds
        assert result.offending_edge == edge

    def test_undeleted_cylinder_fails(self):
        # the undeleted m-th nodes 4, 8, ... land in row 0, outside the grid
        g = sheared_cylinder_graph(16, 4)
        result = unfolds_to_grid(g.nodes, g.sorted_edges(), 4)
        assert not result.unfolds
        assert result.offending_edge == ((0, 1), (0, 2))
        assert all(type(x) is int for point in result.offending_edge for x in point)

    def test_extra_deleted_node_fails(self):
        m, k = 4, 4
        g = delete_nodes(every_mth_deleted(m, k), [6])
        result = unfolds_to_grid(g.nodes, g.sorted_edges(), m)
        assert not result.unfolds
        assert result.grid_shape is None
        # node 6 was grid point (2, 2); the smallest missing edge joins it to (1, 2)
        assert result.offending_edge == ((1, 2), (2, 2))

    def test_arrays_and_graph_agree(self):
        m, k = 5, 3
        g = every_mth_deleted(m, k)
        edges = np.array(g.sorted_edges())
        assert unfolds_to_grid(np.array(g.nodes), edges[:, ::-1], m) == unfolds_to_grid(
            g.nodes, g.sorted_edges(), m
        )

    def test_width_below_two_rejected(self):
        g = wire_graph(4)
        with pytest.raises(ValueError, match="at least 2"):
            unfolds_to_grid(g.nodes, g.sorted_edges(), 1)

    def test_empty_graph_does_not_unfold(self):
        assert unfolds_to_grid([], [], 3).unfolds is False

    def test_all_small_cases(self):
        for m in range(2, 7):
            for k in range(1, 9):
                reduced = every_mth_deleted(m, k)
                assert unfolds_to_grid(reduced.nodes, reduced.sorted_edges(), m).unfolds, (m, k)

    @given(
        m=st.integers(2, 5),
        k=st.integers(1, 5),
        kept=st.sets(st.integers(1, 25)),
        deleted=st.sets(st.integers(1, 25)),
    )
    @settings(max_examples=200, deadline=None)
    def test_keys_agree_with_point_sets(self, m, k, kept, deleted):
        # any stripe left undeleted and any extra node deleted
        g = sheared_cylinder_graph(m * k, m)
        targets = {j for j in g.nodes if j % m == 0 and j not in kept} | (deleted & set(g.nodes))
        g = delete_nodes(g, targets)
        result = unfolds_to_grid(g.nodes, g.sorted_edges(), m)
        if not g.nodes:
            assert result.unfolds is False
            return
        assert (result.unfolds, result.offending_edge) == reference_unfolding(g, m)
