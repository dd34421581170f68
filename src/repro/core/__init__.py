"""The paper's core contribution: automated PR partitioning.

Pipeline: design model -> connectivity matrix -> agglomerative clustering
(base partitions) -> covering (candidate partition sets) -> merge search
(region allocation) -> minimum-total-reconfiguration-time scheme.
"""

from .allocation import AllocationOptions, groups_to_scheme, search_candidate_set
from .baselines import (
    baseline_schemes,
    one_module_per_region_scheme,
    single_region_scheme,
    static_scheme,
)
from .clustering import (
    AgglomerationEvent,
    BasePartition,
    agglomerate,
    enumerate_base_partitions,
    partitions_by_label,
)
from .compatibility import are_compatible
from .cost import (
    DEFAULT_POLICY,
    SchemeCost,
    TransitionPolicy,
    evaluate,
    percentage_change,
    total_reconfiguration_frames,
    transition_frames,
    transition_matrix,
    weighted_total_frames,
    worst_case_frames,
)
from .covering import CandidatePartitionSet, CoveringError, candidate_partition_sets, cover
from .exact import ExactOutcome, exact_candidate_set, partition_exact
from .fingerprint import canonical_problem, problem_key
from .matrix import ConnectivityMatrix, connectivity_matrix
from .model import (
    Configuration,
    DesignError,
    Mode,
    Module,
    PRDesign,
    design_from_tables,
)
from .pareto import ParetoPoint, best_by_worst_case, pareto_front, render_front
from .partitioner import (
    DevicePartitionResult,
    InfeasibleError,
    PartitionResult,
    PartitionerOptions,
    minimum_footprint,
    partition,
    partition_with_device_selection,
    select_device,
    smallest_device_for_scheme,
)
from .result import PartitioningScheme, Region, SchemeError, merge_regions, regions_from_partitions

__all__ = [
    "AgglomerationEvent",
    "AllocationOptions",
    "BasePartition",
    "CandidatePartitionSet",
    "Configuration",
    "ConnectivityMatrix",
    "CoveringError",
    "DEFAULT_POLICY",
    "DesignError",
    "DevicePartitionResult",
    "ExactOutcome",
    "InfeasibleError",
    "Mode",
    "Module",
    "PRDesign",
    "PartitionResult",
    "PartitionerOptions",
    "ParetoPoint",
    "PartitioningScheme",
    "Region",
    "SchemeCost",
    "SchemeError",
    "TransitionPolicy",
    "agglomerate",
    "are_compatible",
    "baseline_schemes",
    "best_by_worst_case",
    "candidate_partition_sets",
    "canonical_problem",
    "connectivity_matrix",
    "cover",
    "design_from_tables",
    "enumerate_base_partitions",
    "evaluate",
    "exact_candidate_set",
    "groups_to_scheme",
    "merge_regions",
    "minimum_footprint",
    "one_module_per_region_scheme",
    "pareto_front",
    "partition",
    "partition_exact",
    "partition_with_device_selection",
    "partitions_by_label",
    "percentage_change",
    "problem_key",
    "regions_from_partitions",
    "render_front",
    "search_candidate_set",
    "select_device",
    "single_region_scheme",
    "smallest_device_for_scheme",
    "static_scheme",
    "total_reconfiguration_frames",
    "transition_frames",
    "transition_matrix",
    "weighted_total_frames",
    "worst_case_frames",
]
