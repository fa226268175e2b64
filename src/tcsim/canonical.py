"""Reference CV cluster states on arbitrary graphs, in closed form.

The canonical cluster is one p-squeezed mode per node linked by one CZ per
edge.  With squeezed variances U = diag(e^{-2r}), which every input here has,
its covariance is closed form (Menicucci, Flammia & van Loock, PRA 83,
042335), so the oracle the streaming pipeline is checked against applies no
Gaussian operation at all.  It is built dense (:func:`canonical_covariance`)
or as its nonzero entries alone (:func:`canonical_entries`), which is what
the streaming check compares, in memory linear in a bounded-degree graph's
size.  The gate-by-gate definition lives in the tests, which check the
closed form against it.
"""

from __future__ import annotations

from typing import Mapping, Tuple, Union

import numpy as np

from .gaussian import GaussianState, VACUUM_VARIANCE
from .graphs import Graph

Squeezing = Union[float, Mapping]


def squeezed_variances(rs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per node, the q and p variances (a, b) = (e^{2r}/2, e^{-2r}/2) of its
    p-squeezed input, for an array of squeezing parameters ``rs``."""
    if np.any(rs < 0):
        raise ValueError("squeezing parameter must be nonnegative")
    return VACUUM_VARIANCE * np.exp(2 * rs), VACUUM_VARIANCE * np.exp(-2 * rs)


def canonical_covariance(graph: Graph, r: Squeezing) -> np.ndarray:
    """Covariance of the canonical cluster, in the order of ``graph.nodes``.

    ``r`` is either a uniform squeezing parameter or a per-node mapping.
    With a_i = e^{2 r_i}/2, b_i = e^{-2 r_i}/2 and adjacency A, the blocks
    are qq = diag(a), qp = diag(a) A, pq = A diag(a) and
    pp = A diag(a) A + diag(b): S diag(a, b) S^T for the CZ network
    S = [[I, 0], [A, I]].  Each pp sum is added one term a_k at a time, in
    ascending k, then b_i on the diagonal: the order
    :func:`canonical_entries` documents, so the two agree bit for bit
    whatever BLAS a matrix product would use.
    """
    per_node = r if isinstance(r, Mapping) else {v: r for v in graph.nodes}
    a, b = squeezed_variances(np.array([per_node[v] for v in graph.nodes], dtype=float))
    adj = graph.adjacency_matrix()
    qp = a[:, None] * adj
    pp = np.zeros_like(adj)
    for k, row in enumerate(adj):
        neighbours = np.flatnonzero(row)
        pp[np.ix_(neighbours, neighbours)] += a[k]  # each path i - k - j
    pp += np.diag(b)
    return np.block([[np.diag(a), qp], [qp.T, pp]])


def build_canonical_cluster(graph: Graph, r: Squeezing) -> GaussianState:
    """Cluster state on ``graph`` at squeezing ``r`` (uniform or per node)."""
    return GaussianState(graph.nodes, canonical_covariance(graph, r))


def canonical_entries(
    labels: np.ndarray, a: np.ndarray, b: np.ndarray, edges: np.ndarray, traced: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of :func:`canonical_covariance`, entry by entry.

    ``labels`` are ascending integers, ``a`` and ``b`` their variances (see
    :func:`squeezed_variances`), and ``edges`` an (E, 2) array of label
    pairs.  The first ``traced`` labels are traced out: they enter the pp
    sums, but no entry on their rows or columns is listed.  Returns, as
    numpy arrays, each
    entry's block (2 * row quadrature + column quadrature, q = 0 and p = 1),
    row label, column label and value, with no entry listed twice:

      qq(i, i) = a_i;  qp(i, j) = a_i A_ij and pq(j, i) = qp(i, j);
      pp(i, j) = sum_k A_ik a_k A_kj, summed in ascending label order,
      plus b_i on the diagonal.

    Each pp sum is added one term at a time, in that order, as
    :func:`canonical_covariance` adds it, so the values are the dense
    blocks' bit for bit.  Memory and time are O(sum of squared degrees), so
    a graph of bounded degree costs O(nodes).
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)

    # the adjacency as directed links (k, i), sorted by k, then i
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ends = np.searchsorted(labels, pairs)
    if np.any(ends >= n) or np.any(labels[np.minimum(ends, n - 1)] != pairs):
        raise ValueError("edge endpoint is not a label")
    if np.any(ends[:, 0] == ends[:, 1]):
        raise ValueError("edge joins a node to itself")
    links = np.unique(np.concatenate([ends, ends[:, ::-1]]) @ np.array([n, 1]))
    k, i = np.divmod(links, n)
    kept = np.arange(n) >= traced

    # qp(k, i) = a_k for each link to a listed pair, and pq its mirror
    listed = kept[k] & kept[i]
    kq, iq = k[listed], i[listed]
    diagonal = np.flatnonzero(kept)
    row, col, pp = _path_sums(k[kept[i]], i[kept[i]], a, b, diagonal, n)

    blocks = np.repeat(np.arange(4), [len(diagonal), len(kq), len(kq), len(row)])
    rows = labels[np.concatenate([diagonal, kq, iq, row])]
    cols = labels[np.concatenate([diagonal, iq, kq, col])]
    values = np.concatenate([a[diagonal], a[kq], a[kq], pp])
    return blocks, rows, cols, values


def _path_sums(
    k: np.ndarray, i: np.ndarray, a: np.ndarray, b: np.ndarray, diagonal: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pp sums of :func:`canonical_entries` over the links (k, i), sorted
    by k, then i, to its listed labels i, with b_i on the ``diagonal``: the
    row, column and sum of each, in ascending (row, column).

    Each path i - k - j adds a_k to (i, j).  The paths come in ascending k,
    the links being sorted, so a stable sort on (i, j) leaves each sum's
    terms in the order they are added, b_i last.  Of the arrays with one
    element per path, each is freed once the next is built from it, so at
    most four are held at once.
    """
    degree = np.bincount(k, minlength=n)
    width = degree[k]  # the paths through the link (k, i): one per link (k, j)
    # each path's link (k, j): k's first link, one on per path through (k, i)
    col = np.repeat(np.cumsum(degree)[k] - degree[k] - (np.cumsum(width) - width), width)
    col += np.arange(len(col))
    col = i[col]
    key = np.repeat(i, width)
    key *= n
    key += col
    del col
    key = np.concatenate([key, diagonal * (n + 1)])
    terms = np.concatenate([np.repeat(a[k], width), b[diagonal]])
    order = np.argsort(key, kind="stable")
    key = key[order]
    terms = terms[order]
    del order
    starts = np.flatnonzero(np.concatenate(([len(key) > 0], key[1:] != key[:-1])))
    sizes = np.diff(np.concatenate((starts, [len(key)])))
    pp = terms[starts]
    for step in range(1, sizes.max(initial=0)):
        longer = np.flatnonzero(sizes > step)
        pp[longer] += terms[starts[longer] + step]
    row, col = np.divmod(key[starts], n)
    return row, col, pp
