"""Exact solver for the line variant: the planar search on the lifted demand.

Segments replace rectangles and every zone has a single admissible scale.
``bnb.solve`` searches a line instance as its demand lifted to unit-height
boxes (``Instance.planar``), whose y grids hold the one value 0: each zone
starts at its scale on its whole x grid, the zones of one scale form a
class, and the next zone on x is chosen among the lowest-indexed unplaced
zone of each class (``bnb`` module docstring).  Every y set is a singleton,
so the residual-demand bound runs on x from the root on.
"""

from __future__ import annotations

from .model import Dimension, Instance, Solution
from .bnb import CandidateGrids, Node, SolverConfig, SolverStats, branch, solve, upper_bound

#: The bound is ``bnb.upper_bound``; this name stays for the benchmark's tracer.
upper_bound_1d = upper_bound


def branch_1d(node: Node, instance: Instance, grids: CandidateGrids, config: SolverConfig) -> list[Node]:
    """``bnb.branch``, under the name the benchmark's tracer wraps; no solver calls it.

    The line is branched by ``bnb.branch`` itself, so the tracer's count of
    ``bnb.branch`` calls covers line searches and this layer reads zero.
    """
    return branch(node, instance, grids, config)


def solve_1d(instance: Instance, config: SolverConfig | None = None) -> tuple[Solution, SolverStats]:
    """Exact solve of a line instance (per-zone fixed scales) with ``bnb.solve``."""
    if instance.dimension is not Dimension.ONE_D:
        raise ValueError("solve_1d() handles line instances; use solve() in the plane")
    return solve(instance, config)
