"""Exact solvers for multi-layer and temporal cluster editing."""

from .core import (
    MLCE,
    TCE,
    InputError,
    Instance,
    LayerGraph,
    P3Witness,
    Solution,
    VerifyReport,
    apply_edits,
    consistent_after_removal,
    count_p3_through_pair,
    find_p3,
    is_cluster_graph,
    layer_from_edges,
    pair,
    verify,
)
from .branching import Constraint, SearchStats, solve_mlce
from .kernelize import KernelResult, back_transform, kernelize
from .oracle import CapabilityError, oracle_mlce, oracle_tce, structured_mlce
from .tcepath import enumerate_cluster_editing_sets, solve_tce_xp
from .twolayer import max_weight_matching, solve_two_layer_zero_edit
from .fileio import (
    Formula223,
    ParseError,
    PlantedParams,
    generate_planted,
    generate_sat_reduction,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
