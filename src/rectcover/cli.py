"""Command-line interface and file formats.

Subcommands: ``generate`` (random instance to JSON), ``solve`` (greedy, exact,
or brute-force reference on an instance file), ``bench`` (seeded sweep with a
CSV report and a human-readable table), ``render`` (SVG drawing of an
instance plus an optional solution).

Exit codes: 0 on success (exact results are proven optimal), 2 when the time
limit stopped the exact solver with a feasible-but-unproven solution, 1 on
any error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from .geometry import EPS, Rect
from .model import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    Eta,
    Instance,
    Placement,
    QosSet,
    Solution,
    service_rect,
)
from .bnb import SolverConfig, SolverStats, solve
from .bnb1d import solve_1d
from .greedy import greedy
from .instgen import GenConfig, generate, generate_1d
from .oracle import OracleSizeError, brute_force_1d, brute_force_2d
from .reward import covered_reward


class CliError(Exception):
    """Any user-facing failure: bad flags, bad files, oversized oracle calls."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CliError(message)


# ---------------------------------------------------------------------------
# JSON formats


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    if isinstance(instance.qos, QosSet):
        qos: dict[str, Any] = {"shared": list(instance.qos.factors)}
    else:
        qos = {"per_sz": [list(q.factors) for q in instance.qos]}
    return {
        "dimension": instance.dimension.value,
        "base_sz": {"w": instance.base.w0, "l": instance.base.l0},
        "p": instance.p,
        "eta": instance.eta.value,
        "qos": qos,
        "dzs": [
            {"x": d.rect.x, "y": d.rect.y, "w": d.rect.w, "l": d.rect.l, "v": d.v}
            for d in instance.dzs
        ],
    }


def _need(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise CliError(f"{path}: missing field '{key}'")
    return obj[key]


def _number(v: Any, where: str) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            value = float(v)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise CliError(f"{where}: expected a finite number, got {v!r}")


def _num(obj: dict, key: str, path: str) -> float:
    return _number(_need(obj, key, path), f"{path}.{key}")


@contextmanager
def _validated(where: str) -> Iterator[None]:
    """Report a model constructor's ``ValueError`` as a ``CliError`` at ``where``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from None


def _menu(raw: Any, where: str) -> QosSet:
    if not isinstance(raw, list):
        raise CliError(f"{where}: expected a list of scale factors")
    factors = tuple(_number(z, f"{where}[{k}]") for k, z in enumerate(raw))
    with _validated(where):
        return QosSet(factors)


def instance_from_dict(data: Any, path: str = "instance") -> Instance:
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected an object")
    dim_raw = _need(data, "dimension", path)
    try:
        dimension = Dimension(dim_raw)
    except ValueError:
        raise CliError(f"{path}.dimension: unknown value {dim_raw!r}") from None
    eta_raw = _need(data, "eta", path)
    try:
        eta = Eta(eta_raw)
    except ValueError:
        raise CliError(f"{path}.eta: unknown value {eta_raw!r}") from None
    base_obj = _need(data, "base_sz", path)
    if not isinstance(base_obj, dict):
        raise CliError(f"{path}.base_sz: expected an object")
    w0 = _num(base_obj, "w", f"{path}.base_sz")
    l0 = _num(base_obj, "l", f"{path}.base_sz")
    with _validated(f"{path}.base_sz"):
        base = BaseServiceZone(w0, l0)
    p = _need(data, "p", path)
    if not isinstance(p, int) or isinstance(p, bool):
        raise CliError(f"{path}.p: expected an integer, got {p!r}")
    qos_obj = _need(data, "qos", path)
    if not isinstance(qos_obj, dict):
        raise CliError(f"{path}.qos: expected an object")
    qos: QosSet | tuple[QosSet, ...]
    if "shared" in qos_obj:
        qos = _menu(qos_obj["shared"], f"{path}.qos.shared")
    elif "per_sz" in qos_obj:
        rows = qos_obj["per_sz"]
        if not isinstance(rows, list):
            raise CliError(f"{path}.qos.per_sz: expected a list of menus")
        qos = tuple(_menu(row, f"{path}.qos.per_sz[{k}]") for k, row in enumerate(rows))
    else:
        raise CliError(f"{path}.qos: needs 'shared' or 'per_sz'")
    dzs_raw = _need(data, "dzs", path)
    if not isinstance(dzs_raw, list):
        raise CliError(f"{path}.dzs: expected a list")
    dzs = []
    for i, item in enumerate(dzs_raw):
        where = f"{path}.dzs[{i}]"
        if not isinstance(item, dict):
            raise CliError(f"{where}: expected an object")
        x, y, w, l, v = (_num(item, key, where) for key in ("x", "y", "w", "l", "v"))
        with _validated(where):
            dzs.append(DemandZone(Rect(x, y, w, l), v))
    with _validated(path):
        return Instance(tuple(dzs), base, p, qos, eta, dimension)


def solution_to_dict(solution: Solution, stats: SolverStats) -> dict[str, Any]:
    """JSON form of a solution; ``stats`` carries ``upper_bound`` and ``gap`` when known."""
    data = {
        "reward": solution.reward,
        "optimal": stats.optimal,
        "placements": [{"x": pl.x, "y": pl.y, "z": pl.z} for pl in solution.placements],
        "stats": {
            "nodes": stats.nodes_explored,
            "time_s": stats.wall_time,
            "t1_s": stats.optimal_found_time,
        },
    }
    if stats.upper_bound is not None:
        data["stats"]["upper_bound"] = stats.upper_bound
        data["stats"]["gap"] = stats.gap
    return data


def solution_from_dict(data: Any, path: str = "solution") -> tuple[Solution, bool]:
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected an object")
    reward = _num(data, "reward", path)
    optimal = _need(data, "optimal", path)
    if not isinstance(optimal, bool):
        raise CliError(f"{path}.optimal: expected a boolean")
    raw = _need(data, "placements", path)
    if not isinstance(raw, list):
        raise CliError(f"{path}.placements: expected a list")
    placements = []
    for i, item in enumerate(raw):
        where = f"{path}.placements[{i}]"
        if not isinstance(item, dict):
            raise CliError(f"{where}: expected an object")
        x, y, z = (_num(item, key, where) for key in ("x", "y", "z"))
        if z < 1:
            raise CliError(f"{where}.z: scale factors must be >= 1, got {z!r}")
        placements.append(Placement(x, y, z))
    return Solution(tuple(placements), reward), optimal


def _read_json(path: str | Path, what: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{what} file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(_read_json(path, "instance"))


def dump_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def load_solution(path: str | Path) -> tuple[Solution, bool]:
    return solution_from_dict(_read_json(path, "solution"))


def dump_solution(solution: Solution, stats: SolverStats, path: str | Path) -> None:
    Path(path).write_text(json.dumps(solution_to_dict(solution, stats), indent=2) + "\n")


# ---------------------------------------------------------------------------
# bench


@dataclass(frozen=True)
class BenchRow:
    n: int
    p: int
    m: int | None
    seed: int
    nodes: int | None = None
    t: float | None = None
    t1: float | None = None
    t_h: float | None = None
    alpha: float | None = None
    optimal: bool = False
    error: str | None = None
    upper_bound: float | None = None
    gap: float | None = None


@dataclass(frozen=True)
class BenchReport:
    """Rows of a sweep; the CSV names each row's instance and says how far it is from proven.

    ``upper_bound`` and ``gap`` are the exact solve's certified bound and
    relative gap (``SolverStats``), written in full precision: a proven row
    has gap 0, a timed-out one a positive gap.
    """

    rows: tuple[BenchRow, ...]

    COLUMNS = (
        "n", "p", "m", "seed", "nodes", "T", "T1", "T1_over_T", "T_H", "alpha",
        "optimal", "upper_bound", "gap",
    )

    def csv_rows(self) -> list[dict[str, Any]]:
        out = []
        for row in self.rows:
            rec = dict.fromkeys(self.COLUMNS, "-")
            rec.update({"n": row.n, "p": row.p, "seed": row.seed, "optimal": row.optimal})
            if row.m is not None:
                rec["m"] = row.m
            if row.error is None:
                rec.update({
                    "nodes": row.nodes,
                    "T": f"{row.t:.6f}",
                    "T1": f"{row.t1:.6f}",
                    "T1_over_T": f"{row.t1 / row.t:.6f}" if row.t else "-",
                    "T_H": f"{row.t_h:.6f}",
                    "alpha": f"{row.alpha:.6f}" if row.optimal else "-",
                    "upper_bound": row.upper_bound if row.upper_bound is not None else "-",
                    "gap": row.gap if row.gap is not None else "-",
                })
            out.append(rec)
        return out

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.COLUMNS)
            writer.writeheader()
            writer.writerows(self.csv_rows())

    def human_table(self) -> str:
        header = f"{'n':>5} {'p':>3} {'m':>3} {'nodes':>8} {'T':>10} {'T1':>10} {'T1/T':>8} {'T_H':>10} {'alpha':>8}"
        lines = [header, "-" * len(header)]
        for rec in self.csv_rows():
            lines.append(
                f"{rec['n']:>5} {rec['p']:>3} {rec['m']:>3} {rec['nodes']:>8} "
                f"{rec['T']:>10} {rec['T1']:>10} {rec['T1_over_T']:>8} {rec['T_H']:>10} {rec['alpha']:>8}"
            )
        groups: dict[tuple, list[BenchRow]] = {}
        for row in self.rows:
            if row.error is None and row.optimal:
                groups.setdefault((row.p, row.m, row.n), []).append(row)
        if groups:
            lines.append("")
            lines.append("group means (optimal rows):")
            for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
                rows = groups[key]
                k = len(rows)
                mean = lambda f: sum(f(r) for r in rows) / k
                lines.append(
                    f"  p={key[0]} m={key[1]} n={key[2]}: nodes={mean(lambda r: r.nodes):.1f} "
                    f"T={mean(lambda r: r.t):.4f}s T1={mean(lambda r: r.t1):.4f}s "
                    f"T_H={mean(lambda r: r.t_h):.4f}s alpha={mean(lambda r: r.alpha):.4f}"
                )
        return "\n".join(lines)


def _generate(one_d: bool, **kwargs: Any) -> Instance:
    """``generate_1d`` of a line ``GenConfig(**kwargs)`` when ``one_d``, else ``generate``."""
    if one_d:
        return generate_1d(GenConfig(dimension=Dimension.ONE_D, **kwargs))
    return generate(GenConfig(**kwargs))


def run_bench(
    ps: Sequence[int],
    ms: Sequence[int],
    ns: Sequence[int],
    seeds: int,
    one_d: bool = False,
    config: SolverConfig | None = None,
    gen_overrides: dict[str, Any] | None = None,
    oracle_budget: int = 0,
) -> BenchReport:
    """Seeded sweep over ``ps x ms x ns x seeds``.

    Per instance: exact solver (``nodes``, ``T``, ``T1``), the run time of
    its greedy seed (``T_H``), and the quality ratio ``alpha = greedy /
    exact`` of the seed's claimed reward, so greedy runs once per instance
    (``SolverStats.greedy_time``, ``greedy_reward``).  When ``oracle_budget``
    is positive, instances whose estimated enumeration fits the budget are
    additionally cross-checked against the brute-force reference.  Failures
    are captured as marked rows rather than aborting the sweep.
    """
    config = config or SolverConfig()
    overrides = gen_overrides or {}
    rows: list[BenchRow] = []
    for p in ps:
        for m in ms if not one_d else [None]:
            for n in ns:
                for seed in range(seeds):
                    sizes = {} if one_d else {"m": m}
                    instance = _generate(one_d, seed=seed, n=n, p=p, **sizes, **overrides)
                    try:
                        # the solver's greedy seed gives T_H and alpha
                        solution, stats = (solve_1d if one_d else solve)(instance, config)
                        alpha = min(stats.greedy_reward / solution.reward, 1.0) if solution.reward > 0 else 1.0
                        if oracle_budget > 0 and stats.optimal:
                            ref = brute_force_1d if one_d else brute_force_2d
                            try:
                                check = ref(instance, config.epsilon, oracle_budget)
                            except OracleSizeError:
                                check = None
                            if check is not None:
                                gap = abs(check.reward - solution.reward)
                                if gap > 1e-9 * max(1.0, abs(check.reward)):
                                    raise RuntimeError(
                                        f"reference mismatch: {check.reward} vs {solution.reward}"
                                    )
                        rows.append(
                            BenchRow(
                                n=n, p=p, m=m, seed=seed,
                                nodes=stats.nodes_explored,
                                t=stats.wall_time,
                                t1=stats.optimal_found_time,
                                t_h=stats.greedy_time,
                                alpha=alpha,
                                optimal=stats.optimal,
                                upper_bound=stats.upper_bound,
                                gap=stats.gap,
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - keep the sweep alive
                        print(f"bench: n={n} p={p} m={m} seed={seed} failed: {exc}", file=sys.stderr)
                        rows.append(BenchRow(n=n, p=p, m=m, seed=seed, error=str(exc)))
    return BenchReport(tuple(rows))


# ---------------------------------------------------------------------------
# render


def render_svg(instance: Instance, solution: Solution | None = None) -> str:
    """Deterministic SVG drawing of an instance and optional placements.

    Demand zones are filled with opacity scaled by their rate; service zones
    are outlined and labelled with their scale.  Line instances draw both as
    thin bands around the axis.
    """
    if solution is not None and len(solution.placements) != instance.p:
        raise CliError(
            f"solution has {len(solution.placements)} placements for p={instance.p}"
        )
    one_d = instance.one_d
    band = 12.0
    dz_rects = [d.rect if not one_d else Rect(d.rect.x, -band, d.rect.w, band) for d in instance.dzs]
    sz_rects = []
    for pl in solution.placements if solution is not None else ():
        s = service_rect(instance.base, pl)
        sz_rects.append(s if not one_d else Rect(s.x, 2.0, s.w, band))
    rects = dz_rects + sz_rects
    if rects:
        min_x = min(r.x for r in rects)
        min_y = min(r.y for r in rects)
        max_x = max(r.x2 for r in rects)
        max_y = max(r.y2 for r in rects)
    else:
        min_x = min_y = 0.0
        max_x = max_y = 1.0
    pad = 0.05 * max(max_x - min_x, max_y - min_y, 1.0)
    min_x, min_y, max_x, max_y = min_x - pad, min_y - pad, max_x + pad, max_y + pad
    width = max_x - min_x
    height = max_y - min_y
    scale = 720.0 / max(width, height)

    def sx(x: float) -> float:
        return (x - min_x) * scale

    def sy(y: float) -> float:
        return (max_y - y) * scale  # SVG y grows downward

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    vmax = max((d.v for d in instance.dzs), default=1.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width * scale)}" '
        f'height="{fmt(height * scale)}" viewBox="0 0 {fmt(width * scale)} {fmt(height * scale)}">',
    ]
    for d, r in zip(instance.dzs, dz_rects):
        opacity = 0.15 + 0.6 * (d.v / vmax)
        lines.append(
            f'<rect class="dz" x="{fmt(sx(r.x))}" y="{fmt(sy(r.y2))}" '
            f'width="{fmt(r.w * scale)}" height="{fmt(r.l * scale)}" '
            f'fill="#4878a8" fill-opacity="{opacity:.3f}" stroke="#28506e" stroke-width="0.6"/>'
        )
    if solution is not None:
        for idx, (pl, r) in enumerate(zip(solution.placements, sz_rects)):
            lines.append(
                f'<rect class="sz" x="{fmt(sx(r.x))}" y="{fmt(sy(r.y2))}" '
                f'width="{fmt(r.w * scale)}" height="{fmt(r.l * scale)}" '
                f'fill="none" stroke="#c0392b" stroke-width="1.4"/>'
            )
            lines.append(
                f'<text class="sz-label" x="{fmt(sx(r.x) + 3)}" y="{fmt(sy(r.y2) + 12)}" '
                f'font-size="11" fill="#c0392b">s{idx + 1} z={pl.z:g}</text>'
            )
        lines.append(
            f'<text class="legend" x="4" y="14" font-size="12" fill="#222">'
            f"reward={solution.reward:.6f} | zones={instance.p} | demand={len(instance.dzs)}</text>"
        )
    else:
        lines.append(
            f'<text class="legend" x="4" y="14" font-size="12" fill="#222">'
            f"demand={len(instance.dzs)}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _out_path(text: str) -> Path:
    """An ``--out`` file in a writable directory, checked before any work is done."""
    path = Path(text)
    if path.is_dir() or not os.access(path.parent, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"{text!r} is not a file in an existing, writable directory")
    return path


def _parse_int_list(option: str, text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise CliError(f"{option} needs at least one value, got {text!r}")
    return values


def cmd_generate(args: argparse.Namespace) -> int:
    kwargs = dict(
        seed=args.seed, n=args.n, p=args.p, m=args.m,
        region=args.region, r=args.r,
    )
    if args.base_dims is not None:
        try:
            w, l = (float(part) for part in args.base_dims.split(","))
        except ValueError:
            raise CliError(f"--base-dims expects 'w,l', got {args.base_dims!r}") from None
        kwargs["base_dims"] = (w, l)
    try:
        instance = _generate(args.one_d, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    dump_instance(instance, args.out)
    print(f"wrote {args.out}: {instance.dimension.value}, n={len(instance.dzs)}, p={instance.p}")
    return 0


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    with _validated("solver options"):
        return SolverConfig(
            beta=args.beta, epsilon=args.epsilon, time_limit_s=args.time_limit, scv_mode=args.scv_mode,
        )


def cmd_solve(args: argparse.Namespace) -> int:
    config = _solver_config(args)
    instance = load_instance(args.instance)
    if args.algo == "greedy":
        t0 = time.perf_counter()
        trace = greedy(instance, config.epsilon)
        elapsed = time.perf_counter() - t0
        stats = SolverStats(
            nodes_explored=0, wall_time=elapsed, optimal_found_time=elapsed, optimal=False,
        )
        solution = trace.solution
    elif args.algo == "exact":
        solver = solve_1d if instance.one_d else solve
        try:
            solution, stats = solver(instance, config)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    else:  # oracle
        ref = brute_force_1d if instance.one_d else brute_force_2d
        t0 = time.perf_counter()
        try:
            result = ref(instance, config.epsilon)
        except OracleSizeError as exc:
            raise CliError(f"oracle refused: {exc}") from None
        elapsed = time.perf_counter() - t0
        solution = Solution(result.placements, result.reward)
        stats = SolverStats(
            nodes_explored=result.evaluations,
            wall_time=elapsed,
            optimal_found_time=elapsed,
            optimal=True,
            upper_bound=result.reward,
            gap=0.0,
        )
    dump_solution(solution, stats, args.out)
    if stats.upper_bound is None:
        bound = "upper_bound=- gap=-"
    else:
        bound = f"upper_bound={stats.upper_bound:.9g} gap={stats.gap:.3g}"
    print(
        f"{args.algo}: reward={solution.reward:.9g} optimal={stats.optimal} {bound} "
        f"nodes={stats.nodes_explored} time={stats.wall_time:.3f}s"
    )
    return 0 if stats.optimal or args.algo == "greedy" else 2


def cmd_bench(args: argparse.Namespace) -> int:
    config = _solver_config(args)
    ps = _parse_int_list("--p", args.p)
    ms = _parse_int_list("--m", args.m)
    ns = _parse_int_list("--n", args.n)
    if args.seeds < 1:
        raise CliError(f"--seeds must be >= 1, got {args.seeds}")
    with _validated("bench sizes"):
        for p, m, n in itertools.product(ps, ms, ns):
            GenConfig(n=n, p=p, m=m)
    report = run_bench(
        ps=ps,
        ms=ms,
        ns=ns,
        seeds=args.seeds,
        one_d=args.one_d,
        config=config,
        oracle_budget=args.oracle_budget,
    )
    report.write_csv(args.out)
    print(report.human_table())
    print(f"\nwrote {args.out}")
    return 0 if all(r.error is None for r in report.rows) else 1


def cmd_render(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    solution = None
    if args.solution is not None:
        solution, optimal = load_solution(args.solution)
        # placements past p have no menu; render_svg refuses their count
        for j, pl in enumerate(solution.placements[: instance.p]):
            if pl.z not in instance.qos_for(j).factors:
                raise CliError(f"placement {j} has scale {pl.z!r}, not on its menu; wrong instance/solution pair?")
        recomputed = covered_reward(
            instance.dzs, solution.placements, instance.base, instance.eta
        )
        # A proven file claims exactly what its placements cover.  Any other
        # file may claim less (greedy claims its certified sum of round gains).
        slack = 1e-6 * max(1.0, abs(recomputed))
        too_low = optimal and solution.reward < recomputed - slack
        if solution.reward > recomputed + slack or too_low:
            raise CliError(
                f"solution reward {solution.reward} does not match instance "
                f"(recomputed {recomputed}); wrong instance/solution pair?"
            )
    svg = render_svg(instance, solution)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rectcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--time-limit", type=float, default=18000.0)
    solver_flags.add_argument("--beta", type=float, default=0.5)
    solver_flags.add_argument("--epsilon", type=float, default=EPS)
    solver_flags.add_argument("--scv-mode", choices=("outer", "full"), default="outer")

    gen = sub.add_parser("generate", help="write a random instance as JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=10, help="number of demand zones")
    gen.add_argument("--p", type=int, default=2, help="number of service zones")
    gen.add_argument("--m", type=int, default=2, help="shared scale factors 1..m (planar)")
    gen.add_argument("--region", type=float, default=1000.0)
    gen.add_argument("--r", type=float, default=270.0, help="concentration radius")
    gen.add_argument("--base-dims", default=None, help="base zone as 'w,l'")
    gen.add_argument("--one-d", action="store_true", help="line variant")
    gen.add_argument("--out", required=True, type=_out_path)
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve an instance file", parents=[solver_flags])
    slv.add_argument("--instance", required=True)
    slv.add_argument("--algo", choices=("greedy", "exact", "oracle"), default="exact")
    slv.add_argument("--out", required=True, type=_out_path)
    slv.set_defaults(func=cmd_solve)

    ben = sub.add_parser("bench", help="seeded sweep with CSV report", parents=[solver_flags])
    ben.add_argument("--p", default="2", help="comma-separated list")
    ben.add_argument("--m", default="2", help="comma-separated list (planar)")
    ben.add_argument("--n", default="10", help="comma-separated list")
    ben.add_argument("--seeds", type=int, default=3)
    ben.add_argument("--one-d", action="store_true")
    ben.add_argument("--oracle-budget", type=int, default=0,
                     help="cross-check rows whose enumeration fits this budget (0 = off)")
    ben.add_argument("--out", required=True, type=_out_path)
    ben.set_defaults(func=cmd_bench)

    ren = sub.add_parser("render", help="draw instance (and solution) as SVG")
    ren.add_argument("--instance", required=True)
    ren.add_argument("--solution", default=None)
    ren.add_argument("--out", required=True, type=_out_path)
    ren.set_defaults(func=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
