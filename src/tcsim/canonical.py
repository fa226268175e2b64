"""Reference CV cluster states on arbitrary graphs, in closed form.

The canonical cluster is one p-squeezed mode per node linked by one CZ per
edge.  With squeezed variances U = diag(e^{-2r}), which every input here has,
its covariance is closed form (Menicucci, Flammia & van Loock, PRA 83,
042335), so the oracle the streaming pipeline is checked against applies no
Gaussian operation at all.  The gate-by-gate definition lives in the tests,
which check the closed form against it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

import numpy as np

from .gaussian import GaussianState, VACUUM_VARIANCE
from .graphs import Graph, nullifier_variances

Squeezing = Union[float, Mapping]


def canonical_covariance(graph: Graph, r: Squeezing) -> np.ndarray:
    """Covariance of the canonical cluster, in the order of ``graph.nodes``.

    ``r`` is either a uniform squeezing parameter or a per-node mapping.
    With a_i = e^{2 r_i}/2, b_i = e^{-2 r_i}/2 and adjacency A, the blocks
    are qq = diag(a), qp = diag(a) A, pq = A diag(a) and
    pp = A diag(a) A + diag(b): S diag(a, b) S^T for the CZ network
    S = [[I, 0], [A, I]].
    """
    per_node = r if isinstance(r, Mapping) else {v: r for v in graph.nodes}
    rs = np.array([per_node[v] for v in graph.nodes], dtype=float)
    if np.any(rs < 0):
        raise ValueError("squeezing parameter must be nonnegative")
    a = VACUUM_VARIANCE * np.exp(2 * rs)
    b = VACUUM_VARIANCE * np.exp(-2 * rs)
    adj = graph.adjacency_matrix()
    qp = a[:, None] * adj
    return np.block([[np.diag(a), qp], [qp.T, adj @ qp + np.diag(b)]])


def build_canonical_cluster(graph: Graph, r: Squeezing) -> GaussianState:
    """Cluster state on ``graph`` at squeezing ``r`` (uniform or per node)."""
    return GaussianState(graph.nodes, canonical_covariance(graph, r))


def canonical_nullifier_report(graph: Graph, r: float) -> Dict:
    """Per-node nullifier variances of the canonical cluster.

    All entries equal e^{-2r}/2 by construction (each nullifier maps back to
    the squeezed input p of its node).
    """
    return nullifier_variances(build_canonical_cluster(graph, r), graph)
