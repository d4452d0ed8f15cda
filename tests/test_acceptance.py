"""Acceptance gate: ten end-to-end checks of the solver stack.

Each check prints a one-line ``[PASS]``/``[FAIL]`` summary (run ``pytest -s``
to watch them as they complete).  The exact solvers are compared against an
independent brute-force reference on seeded instance batches; the documented
approximation guarantees, structural invariants, bench sweep, and file
formats are exercised end to end.  Tests run in file order: the final check
re-validates every instance and solution produced by the earlier ones.
"""

import csv
import json
import math
import random
from itertools import combinations

import pytest

from rectcover import (
    Dimension,
    GenConfig,
    Solution,
    generate,
    generate_1d,
    greedy,
    pseudo_greedy,
    solve,
    solve_1d,
)
from rectcover.bnb import (
    CandidateGrids,
    Node,
    SolverConfig,
    SolverStats,
    branch,
    is_leaf,
    leaf_placements,
    root_node,
    upper_bound,
)
from rectcover.cli import (
    BenchReport,
    instance_from_dict,
    instance_to_dict,
    run_bench,
    solution_from_dict,
    solution_to_dict,
)
from rectcover.geometry import Rect, area, intersect, trim_out
from rectcover.oracle import brute_force_1d, brute_force_2d
from rectcover.reward import build_reward_matrix, covered_reward, solve_single_zone

from conftest import square_instance

REL = 1e-9
SMALL_GEOM = dict(region=100.0, r=27.0, dim_range=(1.0, 10.0), base_dims=(10.0, 8.0))

# Every instance (and any solutions computed for it) produced by checks 1-9
# lands here; check 10 round-trips and re-validates the lot.
_REGISTRY: list[tuple[object, list[tuple[Solution, SolverStats]]]] = []


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {label}: {detail}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def _stats(nodes: int, optimal: bool) -> SolverStats:
    return SolverStats(
        nodes_explored=nodes, wall_time=0.0, optimal_found_time=0.0, optimal=optimal
    )


@pytest.fixture(scope="module")
def planar_cases():
    """30 seeded planar instances solved exactly, by brute force, and greedily."""
    cases = []
    combos = [(n, seed, 1) for n in range(3, 9) for seed in range(3)]
    combos += [(n, seed, 2) for n in range(3, 6) for seed in range(4)]
    for n, seed, m in combos:
        inst = generate(GenConfig(seed=seed, n=n, p=2, m=m, **SMALL_GEOM))
        sol, stats = solve(inst)
        ref = brute_force_2d(inst)
        trace = greedy(inst)
        cases.append((inst, sol, stats, ref, trace))
        _REGISTRY.append((inst, [
            (sol, stats),
            (Solution(ref.placements, ref.reward), _stats(ref.evaluations, True)),
            (trace.solution, _stats(0, False)),
        ]))
    return cases


@pytest.fixture(scope="module")
def line_cases():
    """30 seeded 1D instances with per-zone scales j = 1..p, solved three ways."""
    cases = []
    combos = [(n, seed, 2) for n in range(3, 11) for seed in (0, 1)]
    combos += [(n, seed, 3) for n in range(3, 10) for seed in (0, 1)]
    for n, seed, p in combos:
        inst = generate_1d(
            GenConfig(seed=seed, n=n, p=p, dimension=Dimension.ONE_D, **SMALL_GEOM)
        )
        sol, stats = solve_1d(inst)
        ref = brute_force_1d(inst)
        trace = greedy(inst)
        cases.append((inst, sol, stats, ref, trace))
        _REGISTRY.append((inst, [
            (sol, stats),
            (Solution(ref.placements, ref.reward), _stats(ref.evaluations, True)),
            (trace.solution, _stats(0, False)),
        ]))
    return cases


def test_01_exact_matches_brute_force_2d(planar_cases):
    worst = 0.0
    for inst, sol, _, ref, _ in planar_cases:
        assert _close(sol.reward, ref.reward), (
            f"n={len(inst.dzs)} reward {sol.reward} vs reference {ref.reward}"
        )
        scale = max(1.0, abs(ref.reward))
        worst = max(worst, abs(sol.reward - ref.reward) / scale)
    _report(1, "planar exact vs brute force", True,
            f"{len(planar_cases)}/30 agree, worst rel err {worst:.2e}")


def test_02_exact_matches_brute_force_1d(line_cases):
    worst = 0.0
    for inst, sol, _, ref, _ in line_cases:
        assert _close(sol.reward, ref.reward), (
            f"n={len(inst.dzs)} p={inst.p} reward {sol.reward} vs {ref.reward}"
        )
        scale = max(1.0, abs(ref.reward))
        worst = max(worst, abs(sol.reward - ref.reward) / scale)
    _report(2, "line exact vs brute force", True,
            f"{len(line_cases)}/30 agree, worst rel err {worst:.2e}")


def test_03_hand_checked_micro_instance():
    # One unit-rate 4x4 demand square, 2x2 base zone, two zones, scales {1,2}:
    # the exact optimum covers everything once at z=2 plus a quarter again at
    # z=1 (16/2 + 4/2 + ... = 10); greedy grabs the z=2 blanket first (8) and
    # finds nothing fresh for its second zone.
    inst = square_instance()
    sol, stats = solve(inst)
    trace = greedy(inst)
    assert stats.optimal
    assert math.isclose(sol.reward, 10.0, abs_tol=1e-9)
    assert math.isclose(trace.solution.reward, 8.0, abs_tol=1e-9)
    assert trace.rewards == (8.0, 0.0)
    _report(3, "micro instance", True, "exact=10, greedy=8")


def _half_oracle(dzs, qos, base, eta):
    """Single-zone solver degraded to a guaranteed 0.5-approximation.

    Returns the *worst* grid candidate whose reward is still at least half
    the true single-zone optimum, making the factor tight in practice.
    """
    best = solve_single_zone(dzs, qos, base, eta)
    if best[0] <= 0:
        return best
    worst = None
    for z in qos.factors:
        mat = build_reward_matrix(dzs, z, base, eta)
        for i, x in enumerate(mat.xs.values):
            for j, y in enumerate(mat.ys.values):
                r = float(mat.entries[i, j])
                if r >= 0.5 * best[0] and (worst is None or r < worst[0]):
                    worst = (r, x, y, z)
    return worst


def test_04_approximation_bounds(planar_cases, line_cases):
    checked = 0
    worst_ratio = 1.0
    worst_pseudo = 1.0
    for inst, sol, _, _, trace in planar_cases + line_cases:
        p = inst.p
        opt = sol.reward
        ratio = trace.solution.reward / opt if opt > 0 else 1.0
        lo_p = 1.0 - ((p - 1) / p) ** p
        lo_e = 1.0 - 1.0 / math.e
        assert ratio >= lo_p - 1e-12, f"greedy ratio {ratio} < {lo_p} (p={p})"
        assert ratio >= lo_e - 1e-12, f"greedy ratio {ratio} < 1-1/e"
        pseudo = pseudo_greedy(inst, _half_oracle)
        pratio = pseudo.solution.reward / opt if opt > 0 else 1.0
        lo_h = 1.0 - ((p - 0.5) / p) ** p
        assert pratio >= lo_h - 1e-12, f"pseudo ratio {pratio} < {lo_h} (p={p})"
        checked += 1
        worst_ratio = min(worst_ratio, ratio)
        worst_pseudo = min(worst_pseudo, pratio)
    _report(4, "approximation bounds", True,
            f"{checked} instances, min greedy ratio {worst_ratio:.4f}, "
            f"min half-oracle ratio {worst_pseudo:.4f}, 0 violations")


def test_05_reward_non_decreasing_in_menu_size():
    for seed in range(10):
        rewards = []
        for m in (1, 2, 3):
            inst = generate(GenConfig(seed=seed, n=4, p=2, m=m, **SMALL_GEOM))
            sol, stats = solve(inst)
            assert stats.optimal
            rewards.append(sol.reward)
            _REGISTRY.append((inst, [(sol, stats)]))
        for lo, hi in zip(rewards, rewards[1:]):
            assert hi >= lo - REL * max(1.0, lo), (
                f"seed={seed} optimum dropped when the menu grew: {rewards}"
            )
    _report(5, "monotone in menu size", True,
            "10 seeds x m in {1,2,3}, 0 violations")


def test_06_pruned_candidate_grids_explore_fewer_nodes():
    checked = 0
    saved = []
    for n in (5, 10, 15, 20):
        for seed in range(5):
            inst = generate(GenConfig(seed=seed, n=n, p=2, m=1, **SMALL_GEOM))
            sol_outer, st_outer = solve(inst, SolverConfig(scv_mode="outer"))
            sol_full, st_full = solve(inst, SolverConfig(scv_mode="full"))
            assert st_outer.optimal and st_full.optimal
            assert _close(sol_outer.reward, sol_full.reward), (
                f"n={n} seed={seed}: {sol_outer.reward} vs {sol_full.reward}"
            )
            assert st_outer.nodes_explored <= st_full.nodes_explored, (
                f"n={n} seed={seed}: outer {st_outer.nodes_explored} nodes "
                f"> full {st_full.nodes_explored}"
            )
            saved.append(st_full.nodes_explored - st_outer.nodes_explored)
            checked += 1
            _REGISTRY.append((inst, [(sol_outer, st_outer)]))
    _report(6, "outer-only candidate pruning", True,
            f"{checked} instances, node savings {min(saved)}..{max(saved)}")


def test_07_trim_out_properties():
    rng = random.Random(20260814)
    tol = 1e-6

    def rand_rect():
        return Rect(
            round(rng.uniform(-50.0, 50.0), 3),
            round(rng.uniform(-50.0, 50.0), 3),
            round(rng.uniform(0.0, 30.0), 3),
            round(rng.uniform(0.0, 30.0), 3),
        )

    failures = 0
    for _ in range(10_000):
        d, s = rand_rect(), rand_rect()
        pieces = trim_out(d, s)
        overlap = intersect(d, s)
        covered = area(overlap) if overlap else 0.0
        ok = abs(area(d) - (sum(area(p) for p in pieces) + covered)) <= tol
        for a, b in combinations(pieces, 2):
            both = intersect(a, b)
            if both is not None and area(both) > tol:
                ok = False
        for piece in pieces:
            inside = (
                d.x - tol <= piece.x and piece.x2 <= d.x2 + tol
                and d.y - tol <= piece.y and piece.y2 <= d.y2 + tol
            )
            if not inside:
                ok = False
            hit = intersect(piece, s)
            if hit is not None and area(hit) > tol:
                ok = False
        if not ok:
            failures += 1
    assert failures == 0
    _report(7, "trim-out geometry properties", True,
            "10000 random pairs, 0 failures")


def _max_leaf_vs_bound(inst, cap=400_000):
    """Walk the whole search tree; return the worst UB slack and node count.

    Post-order pass: the best leaf reward under each node must never exceed
    the node's upper bound.
    """
    cfg = SolverConfig()
    grids = CandidateGrids.from_instance(inst, cfg.epsilon)
    mats = {
        z: build_reward_matrix(inst.dzs, z, inst.base, inst.eta)
        for z in inst.scale_values()
    }
    root = root_node(inst, grids)
    order: list[Node] = []
    kids: dict[int, list[Node]] = {}
    stack = [(root, False)]
    count = 0
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        count += 1
        if count > cap:
            raise RuntimeError(f"search tree exceeded {cap} nodes")
        stack.append((node, True))
        children = [] if is_leaf(node) else branch(node, inst, grids, cfg)
        kids[id(node)] = children
        for child in children:
            stack.append((child, False))
    best_under: dict[int, float] = {}
    worst = math.inf
    for node in order:
        if is_leaf(node):
            value = covered_reward(inst.dzs, leaf_placements(node, mats), inst.base, inst.eta)
        else:
            value = max((best_under[id(c)] for c in kids[id(node)]), default=0.0)
        best_under[id(node)] = value
        worst = min(worst, upper_bound(node, grids, inst) - value)
    return worst, count


def test_08_upper_bound_dominates_every_leaf():
    tiny = dict(region=40.0, r=12.0, dim_range=(1.0, 8.0), base_dims=(10.0, 8.0))
    worst = math.inf
    total = 0
    for seed in range(5):
        for m in (1, 2):
            inst = generate(GenConfig(seed=seed, n=2, p=2, m=m, **tiny))
            slack, count = _max_leaf_vs_bound(inst)
            assert slack >= -1e-9, f"seed={seed} m={m}: bound below a leaf by {-slack}"
            worst = min(worst, slack)
            total += count
            sol, stats = solve(inst)
            _REGISTRY.append((inst, [(sol, stats)]))
    _report(8, "upper-bound soundness", True,
            f"10 full trees ({total} nodes), worst slack {worst:.3g}")


def test_09_bench_sweep(tmp_path):
    report = run_bench(ps=[2], ms=[2, 3], ns=[10, 50], seeds=3)
    assert len(report.rows) == 12
    lo = 1.0 - 1.0 / math.e
    for row in report.rows:
        assert row.error is None, f"row n={row.n} m={row.m} seed={row.seed}: {row.error}"
        assert row.stats.optimal
        assert row.alpha >= lo - 1e-12
        assert row.stats.optimal_found_time <= row.stats.wall_time + 1e-9
    out = tmp_path / "bench.csv"
    report.write_csv(out)
    with open(out, newline="") as fh:
        header = tuple(next(csv.reader(fh)))
    assert header == BenchReport.COLUMNS
    # the sweep's instances join the re-validation pool (same seeded draws)
    for p in (2,):
        for m in (2, 3):
            for n in (10, 50):
                for seed in range(3):
                    inst = generate(GenConfig(seed=seed, n=n, p=p, m=m))
                    trace = greedy(inst)
                    _REGISTRY.append((inst, [(trace.solution, _stats(0, False))]))
    alphas = sorted(row.alpha for row in report.rows)
    _report(9, "bench sweep", True,
            f"12/12 rows optimal, alpha range {alphas[0]:.4f}..{alphas[-1]:.4f}")


def test_10_files_round_trip_and_revalidate(planar_cases, line_cases):
    assert len(_REGISTRY) >= 132, (
        f"only {len(_REGISTRY)} instances registered; earlier checks were skipped?"
    )
    solutions = 0
    for inst, sols in _REGISTRY:
        blob = json.loads(json.dumps(instance_to_dict(inst)))
        assert instance_from_dict(blob) == inst
        for sol, stats in sols:
            data = json.loads(json.dumps(solution_to_dict(sol, stats)))
            back, _ = solution_from_dict(data)
            recomputed = covered_reward(inst.dzs, back.placements, inst.base, inst.eta)
            assert abs(back.reward - recomputed) <= 1e-6 * max(1.0, abs(recomputed)), (
                f"stored reward {back.reward} vs recomputed {recomputed}"
            )
            solutions += 1
    _report(10, "file round-trip + re-validation", True,
            f"{len(_REGISTRY)} instances, {solutions} solutions, 0 mismatches")
