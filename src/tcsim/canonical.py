"""Reference construction of CV cluster states on arbitrary graphs.

One p-squeezed mode per node, one CZ gate per edge.  This is the oracle the
streaming pipeline is checked against; it also admits a closed-form
covariance used to cross-check the constructive path.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Union

import numpy as np

from .gaussian import (
    GaussianState,
    VACUUM_VARIANCE,
    append_modes,
    apply_cz,
    p_squeezed_state,
)
from .graphs import Graph, nullifier_variances

Squeezing = Union[float, Mapping]


def empty_state() -> GaussianState:
    return GaussianState((), np.zeros((0, 0)))


def build_canonical_cluster(graph: Graph, r: Squeezing) -> GaussianState:
    """Cluster state on ``graph``: squeezed inputs linked by one CZ per edge.

    ``r`` is either a uniform squeezing parameter or a per-node mapping.
    Edges are applied in deterministic order; CZ gates commute, so the order
    is irrelevant to the result.
    """
    per_node = r if isinstance(r, Mapping) else {v: r for v in graph.nodes}
    state = empty_state()
    for node in graph.nodes:
        state = append_modes(state, p_squeezed_state(per_node[node], label=node))
    for u, v in graph.sorted_edges():
        state = apply_cz(state, u, v)
    return state


def canonical_covariance(graph: Graph, r: float) -> np.ndarray:
    """Closed-form covariance of the canonical cluster at uniform squeezing.

    With a = e^{2r}/2 and b = e^{-2r}/2:
    qq-block = a I, qp-block = a A, pp-block = a A A + b I.
    """
    a = VACUUM_VARIANCE * math.exp(2 * r)
    b = VACUUM_VARIANCE * math.exp(-2 * r)
    adj = graph.adjacency_matrix()
    n = graph.n_nodes
    cov = np.zeros((2 * n, 2 * n))
    cov[:n, :n] = a * np.eye(n)
    cov[:n, n:] = a * adj
    cov[n:, :n] = a * adj
    cov[n:, n:] = a * (adj @ adj) + b * np.eye(n)
    return cov


def canonical_nullifier_report(graph: Graph, r: float) -> Dict:
    """Per-node nullifier variances of the canonical cluster.

    All entries equal e^{-2r}/2 by construction (each nullifier maps back to
    the squeezed input p of its node).
    """
    return nullifier_variances(build_canonical_cluster(graph, r), graph)
