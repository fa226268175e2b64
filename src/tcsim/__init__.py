"""Streaming simulator for temporal-mode continuous-variable cluster states.

A desk-scale verification harness showing that a single squeezer and a
single CZ gate, reused over a stream of temporal modes, produce the same
cluster states as the canonical one-squeezer-per-node construction while
keeping only a constant number of modes live.
"""

from .gaussian import (
    GaussianState,
    MeasurementRecord,
    VACUUM_VARIANCE,
    append_modes,
    apply_cz,
    apply_phase_rotation,
    check_physicality,
    db_to_r,
    measure_quadrature,
    p_squeezed_state,
    r_to_db,
    states_equal,
    symplectic_form,
    trace_out,
    vacuum_state,
)
from .graphs import (
    Graph,
    delete_nodes,
    link_offsets,
    make_graph,
    nullifier_variances,
    sheared_cylinder_graph,
    unfolds_to_grid,
    wire_graph,
)
from .canonical import build_canonical_cluster, canonical_covariance
from .pipeline import (
    PipelineConfig,
    RunReport,
    TemporalPipeline,
    equivalence_check,
    run_pipeline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
