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
    contains_value,
    dedup_sorted,
    demand_breakpoints,
    inner_demand_grid,
    service_breakpoints,
)
from .reward import (
    build_reward_matrix,
    covered_reward,
    planar_form,
    single_zone_reward,
    solve_single_zone,
)
from .greedy import greedy, pseudo_greedy
from .bnb import partition, solve
from .bnb1d import solve_1d
from .oracle import OracleSizeError, brute_force_1d, brute_force_2d
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
    "contains_value",
    "dedup_sorted",
    "demand_breakpoints",
    "inner_demand_grid",
    "service_breakpoints",
    "build_reward_matrix",
    "covered_reward",
    "planar_form",
    "single_zone_reward",
    "solve_single_zone",
    "greedy",
    "pseudo_greedy",
    "partition",
    "solve",
    "solve_1d",
    "OracleSizeError",
    "brute_force_1d",
    "brute_force_2d",
    "GenConfig",
    "generate",
    "generate_1d",
]

__version__ = "0.1.0"
