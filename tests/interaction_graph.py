"""The graph of every CZ link a run applies, shared by the tests that build
the canonical cluster a run should leave."""

from tcsim.graphs import Graph, make_graph
from tcsim.pipeline import PipelineConfig


def pipeline_interaction_graph(config: PipelineConfig, up_to: int) -> Graph:
    """Graph of all CZ links the pipeline applies among pulses 1..up_to.

    Includes the vacuum ancillas (labels <= 0) that contaminate the boundary.
    """
    nodes = list(config.ancilla_labels) + list(range(1, up_to + 1))
    edges = [(t - d, t) for t in range(1, up_to + 1) for d in config.offsets]
    return make_graph(nodes, edges)
