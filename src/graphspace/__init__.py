"""Exact graph edit kernels and the geometry of their metric spaces.

Attributed graphs of bounded order, the matrix representation under
simultaneous row/column permutations, exact edit kernels and the induced
quotient metric, Dirichlet fundamental domains with alignments and isometry
cones, geodesic midpoints, and iterative Fréchet sample means; exhaustive
oracles verify every construction at desk scale.
"""

from .alignment import (
    Alignment,
    ConicIsometryCheck,
    CorrespondenceReport,
    ExpansionCheck,
)
from .bruteforce import (
    common_subgraph_maximum,
    dirichlet_boundary_distance,
    exhaustive_mean_optimum,
    subperm_metric,
)
from .geometry import (
    MeanResult,
    angle_cosine,
    cauchy_schwarz_gap,
    is_orthogonal,
    is_orthogonal_to_set,
    kernel_value,
    length,
    metric,
    midpoint,
    sample_mean,
    scalar_mult,
)
from .graphs import (
    AttributedGraph,
    GraphFormatError,
    GraphMatrix,
    from_matrix,
    load_graph,
    pad_to_order,
    padded_order,
    parse_graph,
    serialize_graph,
    strip_null_nodes,
    to_matrix,
)
from .kernels import (
    DELTA,
    DOT,
    EditCost,
    EditScore,
    GreedyBound,
    McsKernel,
    edit_kernel,
    general_ged,
    greedy_bound,
    induced_metric,
    induced_metric_via_kernel,
    mcs_kernel,
    transformation_cost,
    transformation_score,
)
from .orbits import (
    DEFAULT_ORDER_GUARD,
    Orbit,
    OrderGuardError,
    Permutation,
    Witnessed,
    apply_action,
    is_ordinary,
    isotropy_group,
    orbit,
    quotient_distance,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph",
    "GraphFormatError",
    "GraphMatrix",
    "parse_graph",
    "serialize_graph",
    "load_graph",
    "pad_to_order",
    "padded_order",
    "strip_null_nodes",
    "to_matrix",
    "from_matrix",
    "Permutation",
    "Orbit",
    "Witnessed",
    "OrderGuardError",
    "DEFAULT_ORDER_GUARD",
    "apply_action",
    "orbit",
    "isotropy_group",
    "is_ordinary",
    "quotient_distance",
    "EditScore",
    "EditCost",
    "DOT",
    "DELTA",
    "transformation_score",
    "transformation_cost",
    "edit_kernel",
    "induced_metric",
    "induced_metric_via_kernel",
    "general_ged",
    "mcs_kernel",
    "McsKernel",
    "subperm_metric",
    "greedy_bound",
    "GreedyBound",
    "kernel_value",
    "metric",
    "scalar_mult",
    "length",
    "angle_cosine",
    "is_orthogonal",
    "is_orthogonal_to_set",
    "cauchy_schwarz_gap",
    "midpoint",
    "sample_mean",
    "MeanResult",
    "Alignment",
    "ExpansionCheck",
    "ConicIsometryCheck",
    "CorrespondenceReport",
    "common_subgraph_maximum",
    "dirichlet_boundary_distance",
    "exhaustive_mean_optimum",
    "SUITE_NAMES",
    "run_suite",
]
