"""From a sheared cylinder to a square lattice.

The streaming lattice pipeline natively produces the cluster state of a
"multiply threaded line": a line graph with extra links M nodes apart, i.e.
a square lattice on a cylinder with one unit of shear.  Measuring q on every
M-th node deletes it (and its links) and unfolds the graph into an ordinary
square lattice with M-1 rows.  This script performs the rewrite on the graph
and on the Gaussian state itself.
"""

import math

from tcsim import (
    build_canonical_cluster,
    delete_nodes,
    measure_quadrature,
    nullifier_variances,
    sheared_cylinder_graph,
    unfolds_to_grid,
)

M, K = 4, 6
N = M * K
r = 1.0

graph = sheared_cylinder_graph(N, M)
print(f"sheared cylinder: {N} nodes, threading distance M={M}")
print(f"  node 1 neighbors: {sorted(graph.neighbors(1))}")
print(f"  interior degree: {graph.degree(2 * M + 1)}")

# --- graph-level unfolding -------------------------------------------------
every_mth = [j for j in graph.nodes if j % M == 0]
reduced = delete_nodes(graph, every_mth)
result = unfolds_to_grid(reduced.nodes, reduced.sorted_edges(), M)
rows, cols = result.grid_shape
print(f"\ndeleting every {M}th node {every_mth}:")
print(f"  unfolds to an ordinary grid: {result.unfolds} ({rows}x{cols})")
print(f"  node j -> (row, col) = (j mod {M}, ceil(j / {M})), "
      f"e.g. node 5 -> {(5 % M, math.ceil(5 / M))}")

# --- state-level deletion --------------------------------------------------
state = build_canonical_cluster(graph, r)
for node in every_mth:
    state, record = measure_quadrature(state, node, angle=0.0, outcome=0.7)
    # the feedforward displacement pins the surviving means at zero
print(f"\nq-measured {len(every_mth)} nodes on the {N}-mode cluster state")
variances = nullifier_variances(state, reduced)
ideal = 0.5 * math.exp(-2 * r)
print(f"  grid nullifier variances: {min(variances.values()):.6f} .. "
      f"{max(variances.values()):.6f} (ideal {ideal:.6f})")
assert max(variances.values()) <= ideal + 1e-9
print("the surviving modes carry an exact (M-1)-row square-lattice cluster.")
