"""Workloads, reference answers and the measured loop of the benchmark.

Each workload draws seeded instances from ``rectcover.instgen`` and hands
only the generated ``Instance`` objects to the public solvers
(``bnb.solve``, ``bnb1d.solve_1d`` or ``greedy.greedy``), one call at a time
in a closed loop.  Every answer is checked against the reference file of the
workload (``refs/<workload>.json``), which records, per instance seed, the
proven optimum, the node count, the greedy seed reward and the reference
solve time measured when the benchmark was defined.

A run takes consecutive instance seeds from the seed base (wrapping around
the recorded pool), passing over any instance that would overfill the pass
budget, until their recorded costs (node counts, see ``costs``) fill it.
Budgeting by work rather than by instance count keeps the work per pass
about equal for every seed base, although single instances differ by three
orders of magnitude in nodes.  Seed bases only rotate over the recorded
pool: there are no held-out instances.  The window is solved in a fixed
number of passes (``PASSES``), each budgeted to a share of ``--seconds``,
and ``total_s`` takes each instance at its fastest solve: load from other
processes on a shared machine only ever slows a solve, by tens of percent
and for seconds to minutes at a time, so the fastest of several solves
spread over the run is the steadiest estimate of the solver's own cost.
The pass count is fixed so that this minimum is always taken over the same
number of samples, whatever the load or the program's speed.  Spells that
cover a whole run remain; ``total_norm_s`` scales every solve by the speed
of a fixed pure-Python loop timed right after it, which follows them in
part.
"""

from __future__ import annotations

import os

# One process on a shared machine is what gets measured: pin native thread
# pools before numpy is first imported.  Child processes inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Callable, Sequence

import rectcover.bnb
import rectcover.bnb1d
import rectcover.instgen
from rectcover.bnb import SolverConfig
from rectcover.instgen import GenConfig
from rectcover.model import Dimension, Instance, Placement
from rectcover.reward import covered_reward

# The package re-exports the function ``greedy`` under the module's name.
greedy_module = import_module("rectcover.greedy")

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Relative tolerance for every reward comparison.
REL_TOL = 1e-9
#: Per-solve time limit of a run; a solve that hits it counts at the cap.
#: A window holds only instances whose recorded time fits the pass budget,
#: far below the limit, so the set of proven instances, and with it
#: ``nodes``, does not depend on machine load; the limit bounds the
#: fallback window of a single slow instance.
CAP_S = 30.0
#: Passes over the window in one run.
PASSES = 6
#: Share of ``--seconds`` the recorded cost of all passes fills; the rest
#: leaves room for solves slower than recorded.
FILL = 0.6
#: A window closes after this many consecutive instances that do not fit.
MAX_MISSES = 20
#: Iterations of the calibration loop, and the loop's duration on an idle
#: machine of the kind the references were recorded on.  The constant only
#: sets the scale of ``total_norm_s``.
CAL_LOOP = 30_000
CAL_REF_S = 0.002
#: Runs of the calibration loop per probe.  A probe takes the fastest, so
#: that an interrupt during one run does not read as a slow machine.
CAL_RUNS = 3


@dataclass(frozen=True)
class Workload:
    """One family of seeded instances and the solver it exercises.

    Instances have ``n`` demand zones, ``p`` service zones and (in the plane)
    the scale menu ``1..m``; the recorded pool holds seeds ``0 .. pool - 1``.
    """

    name: str
    solver: str  # "plane", "line" or "greedy"
    p: int
    m: int
    n: int
    pool: int

    def config(self, seed: int, n: int | None = None) -> GenConfig:
        n = self.n if n is None else n
        if self.solver == "line":
            return GenConfig(seed=seed, n=n, p=self.p, dimension=Dimension.ONE_D)
        return GenConfig(seed=seed, n=n, p=self.p, m=self.m)

    def make(self, config: GenConfig) -> Instance:
        # Looked up at call time so that the traced run sees the call.
        if self.solver == "line":
            return rectcover.instgen.generate_1d(config)
        return rectcover.instgen.generate(config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plane-wide", "plane", p=2, m=2, n=30, pool=100),
        Workload("line", "line", p=3, m=1, n=12, pool=60),
        Workload("greedy-large", "greedy", p=3, m=3, n=150, pool=60),
    )
}


@dataclass(frozen=True)
class Reference:
    seed: int
    n: int
    reward: float
    nodes: int
    greedy_reward: float
    ref_s: float


@dataclass(frozen=True)
class Outcome:
    """What one solver call returned, as the benchmark sees it."""

    seed: int
    reward: float
    placements: tuple[Placement, ...]
    nodes: int
    proven: bool
    greedy_reward: float
    incumbent_updates: int
    seconds: float


def load_refs(workload: Workload) -> list[Reference]:
    data = json.loads((REFS_DIR / f"{workload.name}.json").read_text())
    refs = [Reference(**e) for e in data["entries"]]
    if [r.seed for r in refs] != list(range(len(refs))) or not refs:
        raise ValueError(f"reference file of {workload.name} must list seeds 0..k-1")
    return refs


def costs(refs: Sequence[Reference]) -> list[float]:
    """What each reference instance costs a window, in recorded seconds.

    An exact solve takes time close to proportional to its explored nodes,
    and node counts are exact, while a recorded time carries the load the
    machine had while recording.  So a search instance costs its nodes at
    the pool's recorded node rate.  The greedy explores no nodes; its
    instances, all of one size, each cost the pool's mean recorded time,
    so that a window holds the same number of them from every seed base.
    A cost is capped at the time limit.
    """
    timed = [r for r in refs if r.ref_s <= CAP_S]
    nodes = sum(r.nodes for r in timed)
    if not nodes:
        return [statistics.fmean(min(r.ref_s, CAP_S) for r in refs)] * len(refs)
    rate = nodes / sum(r.ref_s for r in timed)
    return [min(r.nodes / rate, CAP_S) for r in refs]


def window(refs: Sequence[Reference], base: int, budget_s: float) -> list[Reference]:
    """Consecutive references from seed ``base`` whose costs fill ``budget_s``.

    Instances that would overfill the budget are passed over; the window
    closes after ``MAX_MISSES`` of them in a row or at the end of the pool.
    Seeds wrap around the pool, and a window is never empty.
    """
    cost = costs(refs)
    out: list[Reference] = []
    total = 0.0
    misses = 0
    for i in range(len(refs)):
        k = (base + i) % len(refs)
        if total + cost[k] > budget_s:
            misses += 1
            if misses == MAX_MISSES:
                break
            continue
        misses = 0
        out.append(refs[k])
        total += cost[k]
    return out or [refs[base % len(refs)]]


def solve_one(workload: Workload, instance: Instance, seed: int, cap: float = CAP_S) -> Outcome:
    """Run the workload's solver once with time limit ``cap``; time the call and nothing else."""
    if workload.solver == "greedy":
        start = time.perf_counter()
        trace = greedy_module.greedy(instance)
        seconds = time.perf_counter() - start
        sol = trace.solution
        return Outcome(seed, sol.reward, sol.placements, 0, True, sol.reward, 0, seconds)
    solve = rectcover.bnb.solve if workload.solver == "plane" else rectcover.bnb1d.solve_1d
    start = time.perf_counter()
    sol, stats = solve(instance, SolverConfig(time_limit_s=cap))
    seconds = time.perf_counter() - start
    return Outcome(
        seed,
        sol.reward,
        sol.placements,
        stats.nodes_explored,
        stats.optimal,
        stats.best_reward_history[0][1],
        len(stats.best_reward_history) - 1,
        seconds if stats.optimal else cap,
    )


def failure(workload: Workload, out: Outcome, ref: Reference, covered: float) -> str | None:
    """Why ``out`` is wrong, or ``None`` when it is right.

    ``covered`` is the recomputed ``covered_reward`` of ``out.placements``.
    An exact solver must claim exactly that.  The greedy claims the sum of
    its per-round gains, which ``greedy.py`` documents as a certified lower
    bound: a later smaller-scale zone that overlaps an earlier one is paid
    less for the overlap than ``covered_reward`` pays.  So a greedy claim
    may fall short of ``covered`` but never exceed it; how often it falls
    short is reported as ``underclaim_frac``.
    """
    if workload.solver == "greedy":
        if out.reward > covered * (1 + REL_TOL):
            return f"claimed reward {out.reward!r} but the placements cover only {covered!r}"
        if not math.isclose(out.reward, ref.greedy_reward, rel_tol=REL_TOL):
            return f"greedy reward {out.reward!r}, reference {ref.greedy_reward!r}"
        return None
    if not math.isclose(covered, out.reward, rel_tol=REL_TOL):
        return f"claimed reward {out.reward!r} but the placements cover {covered!r}"
    if out.proven and not math.isclose(out.reward, ref.reward, rel_tol=REL_TOL):
        return f"proven reward {out.reward!r}, reference optimum {ref.reward!r}"
    if not out.proven and out.reward > ref.reward * (1 + REL_TOL):
        return f"unproven reward {out.reward!r} exceeds reference optimum {ref.reward!r}"
    return None


@dataclass
class Pass:
    outcomes: list[Outcome]
    failures: list[str]
    #: Calls whose claimed reward falls short of what their placements cover.
    underclaims: int = 0
    #: Calibration probe taken right after each solve.
    calibration: list[float] = field(default_factory=list)


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now: a probe of machine speed."""
    best = math.inf
    for _ in range(CAL_RUNS):
        start = time.perf_counter()
        acc = 0
        for k in range(CAL_LOOP):
            acc += k * k
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(
    workload: Workload,
    instances: Sequence[tuple[Reference, Instance]],
    around_solve: Callable[[], object] | None = None,
) -> Pass:
    """Solve every instance once and check each answer after its timing ends.

    ``around_solve`` returns a context manager entered around each solver
    call; the traced run uses it to open a span per solve.
    """
    done = Pass([], [])
    for ref, instance in instances:
        try:
            if around_solve is None:
                out = solve_one(workload, instance, ref.seed)
            else:
                with around_solve():
                    out = solve_one(workload, instance, ref.seed)
            why = None
        except Exception as exc:  # noqa: BLE001 - a raising solve is a counted failure
            out = Outcome(ref.seed, 0.0, (), 0, False, 0.0, 0, CAP_S)
            why = f"raised {exc!r}"
        done.outcomes.append(out)
        if why is None:
            covered = covered_reward(instance.dzs, out.placements, instance.base, instance.eta)
            done.underclaims += out.reward < covered and not math.isclose(out.reward, covered, rel_tol=REL_TOL)
            why = failure(workload, out, ref, covered)
        if why is not None:
            done.failures.append(f"seed {ref.seed}: {why}")
        done.calibration.append(calibrate())
    return done


def pass_budget(seconds: float) -> float:
    """Recorded cost one pass may hold in a run of ``seconds``."""
    return seconds * FILL / PASSES


def measure(workload: Workload, instances: Sequence[tuple[Reference, Instance]]) -> list[Pass]:
    """``PASSES`` passes over ``instances``."""
    return [run_pass(workload, instances) for _ in range(PASSES)]


def total_s(passes: Sequence[Pass]) -> float:
    """Sum over the window of each instance's fastest solve across passes."""
    per_instance = zip(*(p.outcomes for p in passes))
    return sum(min(o.seconds for o in solves) for solves in per_instance)


def total_norm_s(passes: Sequence[Pass]) -> float:
    """``total_s`` with every solve scaled to the reference machine speed.

    A solve's time is multiplied by ``CAL_REF_S`` over the calibration
    probe taken right after it, so that a solve made during a slow spell of
    the machine is scaled down with it, however short the spell.
    """
    per_instance = zip(*(zip(p.outcomes, p.calibration) for p in passes))
    return sum(min(o.seconds * CAL_REF_S / c for o, c in solves) for solves in per_instance)


def tail_percentile(samples: Sequence[float]) -> tuple[int, float] | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return q, cuts[q - 1]
    return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, passes: Sequence[Pass]) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric that has a meaning on ``workload``, with its unit."""
    calls = [o for p in passes for o in p.outcomes]
    attempted = len(calls)
    failed = sum(len(p.failures) for p in passes)
    times = [o.seconds for o in calls]
    calibration = statistics.median(c for p in passes for c in p.calibration)
    metrics: dict[str, tuple[float, str]] = {
        "total_s": (total_s(passes), "s"),
        "total_norm_s": (total_norm_s(passes), "s"),
        "calibration_s": (calibration, "s"),
        "solve_s.p50": (statistics.median(times), "s"),
    }
    tail = tail_percentile(times)
    if tail is not None:
        metrics[f"solve_s.p{tail[0]}"] = (tail[1], "s")
    if workload.solver != "greedy":
        first = passes[0].outcomes
        proven = [o for o in first if o.proven]
        metrics["nodes"] = (sum(o.nodes for o in proven), "count")
        metrics["nodes_per_s"] = (sum(o.nodes for o in calls) / sum(times), "1/s")
        metrics["proven_frac"] = (sum(o.proven for o in calls) / attempted, "ratio")
        ratios = [o.greedy_reward / o.reward for o in proven if o.reward > 0]
        if ratios:
            metrics["greedy_ratio"] = (statistics.fmean(ratios), "ratio")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    metrics["underclaim_frac"] = (sum(p.underclaims for p in passes) / attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics
