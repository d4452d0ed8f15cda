"""Exact and greedy solvers for placing scalable rectangular service zones
over weighted rectangular demand, maximizing the covered reward.

The top level holds the paper's model, the instance generators and the
solvers; everything else is imported from its module."""

from .geometry import Rect
from .model import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    Instance,
    Placement,
    QosSet,
    Solution,
)
from .reward import covered_reward
from .greedy import greedy, pseudo_greedy
from .bnb import solve
from .bnb1d import solve_1d
from .oracle import OracleSizeError, brute_force_1d, brute_force_2d
from .instgen import GenConfig, generate, generate_1d

__all__ = [
    "Rect",
    "BaseServiceZone",
    "DemandZone",
    "Dimension",
    "Eta",
    "Instance",
    "Placement",
    "QosSet",
    "Solution",
    "covered_reward",
    "greedy",
    "pseudo_greedy",
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
