"""Exact and greedy solvers for placing scalable rectangular service zones
over weighted rectangular demand, maximizing the covered reward."""

from .geometry import EPS, Axis, Rect, area, intersect, trim_out
from .model import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    Instance,
    Placement,
    QosSet,
    Solution,
    reward_rate,
    service_rect,
)
from .critical import (
    CriticalValueSet,
    contains_value,
    dedup_sorted,
    demand_breakpoints,
    inner_demand_grid,
    service_breakpoints,
)
from .reward import (
    RewardMatrix,
    build_reward_matrix,
    covered_reward,
    planar_form,
    single_zone_reward,
    solve_single_zone,
)
from .greedy import GreedyTrace, greedy, pseudo_greedy
from .bnb import CandidateGrids, Node, SolverConfig, SolverStats, partition, solve, upper_bound
from .bnb1d import Node1D, solve_1d
from .oracle import OracleResult, OracleSizeError, brute_force_1d, brute_force_2d
from .instgen import GenConfig, generate, generate_1d

__all__ = [
    "EPS",
    "Axis",
    "Rect",
    "area",
    "intersect",
    "trim_out",
    "BaseServiceZone",
    "DemandZone",
    "Dimension",
    "Eta",
    "Instance",
    "Placement",
    "QosSet",
    "Solution",
    "reward_rate",
    "service_rect",
    "CriticalValueSet",
    "contains_value",
    "dedup_sorted",
    "demand_breakpoints",
    "inner_demand_grid",
    "service_breakpoints",
    "RewardMatrix",
    "build_reward_matrix",
    "covered_reward",
    "planar_form",
    "single_zone_reward",
    "solve_single_zone",
    "GreedyTrace",
    "greedy",
    "pseudo_greedy",
    "CandidateGrids",
    "Node",
    "SolverConfig",
    "SolverStats",
    "partition",
    "solve",
    "upper_bound",
    "Node1D",
    "solve_1d",
    "OracleResult",
    "OracleSizeError",
    "brute_force_1d",
    "brute_force_2d",
    "GenConfig",
    "generate",
    "generate_1d",
]

__version__ = "0.1.0"
