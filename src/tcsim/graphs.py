"""Cluster-graph topologies, nullifier evaluation, and graph rewrites.

Graphs are unweighted and undirected, with hashable node labels.  The two
rewrites used by the streaming construction are node deletion (the effect of
a q-basis measurement) and the unfolding of a sheared cylinder into an
ordinary square lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from .gaussian import GaussianState

Edge = FrozenSet


@dataclass(frozen=True)
class Graph:
    """Ordered node labels plus a set of unordered edges (no self-loops)."""

    nodes: tuple
    edges: frozenset

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node labels")
        node_set = set(nodes)
        edges = frozenset(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {set(e)} is not a pair of distinct nodes")
            if not e <= node_set:
                raise ValueError(f"edge {set(e)} references unknown nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def neighbors(self, node) -> set:
        if node not in self.nodes:
            raise KeyError(f"unknown node {node!r}")
        return {next(iter(e - {node})) for e in self.edges if node in e}

    def degree(self, node) -> int:
        return len(self.neighbors(node))

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric 0/1 matrix in the order of ``nodes``."""
        index = {v: i for i, v in enumerate(self.nodes)}
        a = np.zeros((self.n_nodes, self.n_nodes))
        for e in self.edges:
            u, v = tuple(e)
            a[index[u], index[v]] = 1.0
            a[index[v], index[u]] = 1.0
        return a

    def sorted_edges(self) -> list:
        """Edges as (u, v) tuples in deterministic node order."""
        index = {v: i for i, v in enumerate(self.nodes)}
        pairs = []
        for e in self.edges:
            u, v = sorted(e, key=index.__getitem__)
            pairs.append((u, v))
        return sorted(pairs, key=lambda p: (index[p[0]], index[p[1]]))


def make_graph(nodes: Iterable, edges: Iterable) -> Graph:
    return Graph(tuple(nodes), frozenset(frozenset(e) for e in edges))


def wire_graph(n: int) -> Graph:
    """Path graph on nodes 1..n (a quantum wire)."""
    if n < 1:
        raise ValueError("wire needs at least one node")
    return make_graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def sheared_cylinder_graph(n: int, m: int) -> Graph:
    """Line graph on 1..n with extra links between nodes m apart.

    Equivalent to a square lattice on a cylinder with one unit of shear.
    """
    if m < 2:
        raise ValueError("cylinder width must be at least 2")
    if n < m:
        raise ValueError("need at least m nodes")
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(i, i + m) for i in range(1, n - m + 1)]
    return make_graph(range(1, n + 1), edges)


def square_lattice_graph(rows: int, cols: int) -> Graph:
    """Grid graph with (row, col) labels, 1-based."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    nodes = [(r, c) for c in range(1, cols + 1) for r in range(1, rows + 1)]
    edges = []
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if r < rows:
                edges.append(((r, c), (r + 1, c)))
            if c < cols:
                edges.append(((r, c), (r, c + 1)))
    return make_graph(nodes, edges)


def delete_nodes(graph: Graph, targets: Iterable) -> Graph:
    """Remove nodes and all their incident edges."""
    targets = set(targets)
    unknown = targets - set(graph.nodes)
    if unknown:
        raise KeyError(f"unknown nodes {sorted(map(repr, unknown))}")
    nodes = tuple(v for v in graph.nodes if v not in targets)
    edges = frozenset(e for e in graph.edges if not (e & targets))
    return Graph(nodes, edges)


def nullifier_variances(state: GaussianState, graph: Graph) -> Dict:
    """Variance of n_i = p_i - sum_j A_ij q_j for every graph node.

    Each variance is v^T cov v for the coefficient vector v of n_i; graph
    nodes must be a subset of the state's mode labels.
    """
    missing = set(graph.nodes) - set(state.labels)
    if missing:
        raise KeyError(f"graph nodes missing from state: {sorted(map(repr, missing))}")
    return {
        node: nullifier_variance(state, node, graph.neighbors(node))
        for node in graph.nodes
    }


def nullifier_variance(state: GaussianState, node, neighbors: Iterable) -> float:
    """Variance v^T cov v of n = p_node - sum of q over ``neighbors``."""
    v = np.zeros(2 * state.n_modes)
    v[state.p_index(node)] = 1.0
    for nb in neighbors:
        v[state.index(nb)] -= 1.0
    return float(v @ state.cov @ v)


@dataclass(frozen=True)
class UnfoldResult:
    """Outcome of the sheared-cylinder -> square-lattice unfolding check."""

    unfolds: bool
    mapping: Optional[Dict] = None  # node -> (row, col) when unfolds
    grid_shape: Optional[Tuple[int, int]] = None
    offending_edge: Optional[tuple] = None


def unfolds_to_grid(graph: Graph, m: int) -> UnfoldResult:
    """Check that a cylinder with every m-th node deleted is an (m-1)-row grid.

    Surviving node j maps to row = j mod m, col = ceil(j / m); verification is
    exact edge-set equality against :func:`square_lattice_graph` under this
    relabeling, not a general isomorphism search.  On mismatch the first
    offending edge (in deterministic order) is reported.
    """
    if m < 2:
        raise ValueError("width must be at least 2")
    if not graph.nodes:
        return UnfoldResult(False)
    mapping = {j: (j % m, math.ceil(j / m)) for j in graph.nodes}
    rows = {rc[0] for rc in mapping.values()}
    cols = {rc[1] for rc in mapping.values()}
    if 0 in rows:
        # An undeleted every-m-th node; its edges cannot match the grid.
        bad = min(j for j in graph.nodes if j % m == 0)
        first = sorted(graph.sorted_edges())
        offending = next((e for e in first if bad in e), None)
        return UnfoldResult(False, offending_edge=offending)
    k = max(cols)
    expected = square_lattice_graph(m - 1, k)
    mapped_edges = {frozenset((mapping[u], mapping[v])) for u, v in graph.sorted_edges()}
    if set(mapping.values()) == set(expected.nodes) and mapped_edges == expected.edges:
        return UnfoldResult(True, mapping=mapping, grid_shape=(m - 1, k))
    diff = sorted(
        tuple(sorted(e)) for e in mapped_edges.symmetric_difference(expected.edges)
    )
    return UnfoldResult(False, offending_edge=diff[0] if diff else None)

