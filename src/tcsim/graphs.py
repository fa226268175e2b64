"""Cluster-graph topologies, nullifier evaluation, and graph rewrites.

Graphs are unweighted and undirected, with hashable node labels.  The two
rewrites used by the streaming construction are node deletion (the effect of
a q-basis measurement) and the unfolding of a sheared cylinder into an
ordinary square lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .gaussian import GaussianState, nullifier_slot


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
    return Graph(nodes, edges)  # Graph.__post_init__ normalizes both


def link_offsets(topology: str, width: int = 0) -> Tuple[int, ...]:
    """The topology rule: pulse t is CZ-linked to t - d for each offset d."""
    return (1, width) if topology == "lattice" else (1,)


def links(n: int, offsets: Sequence[int]) -> np.ndarray:
    """The links t - d -> t among labels 1..n, as (E, 2) int64 rows (t - d, t)."""
    t = np.arange(1, n + 1, dtype=np.int64)
    return np.concatenate([np.stack([t[d:] - d, t[d:]], axis=1) for d in offsets])


def wire_graph(n: int) -> Graph:
    """Path graph on nodes 1..n (a quantum wire)."""
    if n < 1:
        raise ValueError("wire needs at least one node")
    return make_graph(range(1, n + 1), links(n, link_offsets("wire")).tolist())


def sheared_cylinder_graph(n: int, m: int) -> Graph:
    """Line graph on 1..n with extra links between nodes m apart.

    Equivalent to a square lattice on a cylinder with one unit of shear.
    """
    if m < 2:
        raise ValueError("cylinder width must be at least 2")
    if n < m:
        raise ValueError("need at least m nodes")
    return make_graph(range(1, n + 1), links(n, link_offsets("lattice", m)).tolist())


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
    """Variance of n = p_node - sum of q over ``neighbors``: ``nullifier_slot``
    on their positions in ascending order."""
    positions = sorted(state.index(nb) for nb in neighbors)
    return nullifier_slot(state.cov, state.index(node), positions)


@dataclass(frozen=True)
class UnfoldResult:
    """Outcome of the sheared-cylinder -> square-lattice unfolding check."""

    unfolds: bool
    grid_shape: Optional[Tuple[int, int]] = None
    offending_edge: Optional[tuple] = None


def unfolds_to_grid(nodes, edges, m: int) -> UnfoldResult:
    """Check that a cylinder with every m-th node deleted is an (m-1)-row grid.

    ``nodes`` are distinct integer labels and ``edges`` distinct (u, v) pairs
    of them, such as a Graph's ``g.nodes, g.sorted_edges()``.  Node j maps to
    row = j mod m, col = ceil(j / m); verification is exact set equality with
    the grid's nodes and edges, as sorted integer keys, not a general
    isomorphism search.  An undeleted m-th node lands in row 0, outside the
    grid.  On mismatch the first edge of the symmetric difference is
    reported, in (row, col) order.
    """
    if m < 2:
        raise ValueError("width must be at least 2")
    nodes = np.asarray(nodes, dtype=np.int64)
    if not nodes.size:
        return UnfoldResult(False)
    # point (row, col) has key row * span + col - lo, ascending in (row, col)
    # order, and edge (p, q), p < q, has key p * points + q
    k, lo = int(-(-nodes.max() // m)), min(int(-(-nodes.min() // m)), 1)
    span = k - lo + 1
    points = m * span
    if points * points > np.iinfo(np.int64).max:
        raise ValueError(f"a grid of {m} x {span} points is too large for int64 edge keys")

    def key(j):
        return j % m * span + (-(-j // m) - lo)

    grid = (np.arange(1, m)[:, None] * span + np.arange(1 - lo, k + 1 - lo)).ravel()
    right, down = grid[grid % span < k - lo], grid[grid < (m - 1) * span]
    grid_edges = np.sort(np.concatenate([right * (points + 1) + 1, down * (points + 1) + span]))
    u, v = key(np.asarray(edges, dtype=np.int64).reshape(-1, 2)).T
    mapped_edges = np.sort(np.minimum(u, v) * points + np.maximum(u, v))
    if np.array_equal(np.sort(key(nodes)), grid) and np.array_equal(mapped_edges, grid_edges):
        return UnfoldResult(True, grid_shape=(m - 1, k))
    diff = np.setxor1d(mapped_edges, grid_edges, assume_unique=True)
    if not diff.size:
        return UnfoldResult(False)
    ends = divmod(int(diff[0]), points)
    return UnfoldResult(False, offending_edge=tuple((p // span, p % span + lo) for p in ends))
