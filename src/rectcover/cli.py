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
import io
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
    service_rect,
)
from .bnb import SolverConfig, SolverStats, solve
from .greedy import greedy
from .instgen import GenConfig, generate, generate_1d
from .oracle import OracleSizeError, brute_force_1d, brute_force_2d
from .reward import covered_reward


class CliError(Exception):
    """Any user-facing failure: bad flags, bad files, oversized oracle calls."""


#: The most service zones ``solve`` (exact or greedy) and ``bench`` place:
#: greedy runs one round per zone, and a solution lists every zone.
MAX_ZONES = 100_000


def _check_zones(p: int, field: str) -> None:
    """Refuse ``p`` above :data:`MAX_ZONES` before any work, naming ``field``."""
    if p > MAX_ZONES:
        raise CliError(f"{field}: at most {MAX_ZONES} service zones can be placed, got {p}")


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


def _expect(value: Any, where: str, kind: str) -> Any:
    """``value`` if it is a ``list`` (``kind`` "a list ...") or else a ``dict`` ("an object")."""
    if not isinstance(value, list if kind.startswith("a list") else dict):
        raise CliError(f"{where}: expected {kind}")
    return value


def _need(obj: dict, key: str, path: str, kind: str | None = None) -> Any:
    """``obj[key]``, checked to be ``kind`` (see :func:`_expect`) when one is given."""
    if key not in obj:
        raise CliError(f"{path}: missing field '{key}'")
    return obj[key] if kind is None else _expect(obj[key], f"{path}.{key}", kind)


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


def _nums(obj: Any, where: str, keys: str) -> list[float]:
    """The finite numbers under the one-letter ``keys`` of the object ``obj``."""
    obj = _expect(obj, where, "an object")
    return [_num(obj, key, where) for key in keys]


def _enum(kind: type[Dimension] | type[Eta], obj: dict, key: str, path: str) -> Any:
    raw = _need(obj, key, path)
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"{path}.{key}: unknown value {raw!r}") from None


@contextmanager
def _validated(where: str) -> Iterator[None]:
    """Report a model constructor's ``ValueError`` as a ``CliError`` at ``where``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from None


def _menu(raw: Any, where: str) -> QosSet:
    raw = _expect(raw, where, "a list of scale factors")
    factors = tuple(_number(z, f"{where}[{k}]") for k, z in enumerate(raw))
    with _validated(where):
        return QosSet(factors)


def instance_from_dict(data: Any, path: str = "instance") -> Instance:
    _expect(data, path, "an object")
    dimension = _enum(Dimension, data, "dimension", path)
    eta = _enum(Eta, data, "eta", path)
    w0, l0 = _nums(_need(data, "base_sz", path), f"{path}.base_sz", "wl")
    with _validated(f"{path}.base_sz"):
        base = BaseServiceZone(w0, l0)
    p = _need(data, "p", path)
    if not isinstance(p, int) or isinstance(p, bool):
        raise CliError(f"{path}.p: expected an integer, got {p!r}")
    qos_obj = _need(data, "qos", path, "an object")
    qos: QosSet | tuple[QosSet, ...]
    if "shared" in qos_obj:
        qos = _menu(qos_obj["shared"], f"{path}.qos.shared")
    elif "per_sz" in qos_obj:
        rows = _need(qos_obj, "per_sz", f"{path}.qos", "a list of menus")
        qos = tuple(_menu(row, f"{path}.qos.per_sz[{k}]") for k, row in enumerate(rows))
    else:
        raise CliError(f"{path}.qos: needs 'shared' or 'per_sz'")
    dzs = []
    for i, item in enumerate(_need(data, "dzs", path, "a list")):
        x, y, w, l, v = _nums(item, f"{path}.dzs[{i}]", "xywlv")
        with _validated(f"{path}.dzs[{i}]"):
            dzs.append(DemandZone(Rect(x, y, w, l), v))
    with _validated(path):
        return Instance(tuple(dzs), base, p, qos, eta, dimension)


def solution_to_dict(solution: Solution, stats: SolverStats) -> dict[str, Any]:
    """JSON form of a solution.

    ``stats`` carries ``upper_bound`` and ``gap`` when known, and the exact
    search's ``root_bound`` and ``fit_s`` when it bounded a root.
    """
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
    if stats.root_bound is not None:
        data["stats"]["root_bound"] = stats.root_bound
        data["stats"]["fit_s"] = stats.fit_s
    return data


def solution_from_dict(data: Any, path: str = "solution") -> tuple[Solution, bool]:
    reward = _num(_expect(data, path, "an object"), "reward", path)
    optimal = _need(data, "optimal", path)
    if not isinstance(optimal, bool):
        raise CliError(f"{path}.optimal: expected a boolean")
    placements = []
    for i, item in enumerate(_need(data, "placements", path, "a list")):
        x, y, z = _nums(item, f"{path}.placements[{i}]", "xyz")
        if z < 1:
            raise CliError(f"{path}.placements[{i}].z: scale factors must be >= 1, got {z!r}")
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


def _write_text(path: str | Path, what: str, text: str) -> None:
    """Write ``text`` to the ``what`` file ``path``; a failed write is a ``CliError`` (see :func:`_read_json`)."""
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise CliError(f"cannot write {what} file {path}: {exc}") from None


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(_read_json(path, "instance"))


def dump_instance(instance: Instance, path: str | Path) -> None:
    _write_text(path, "instance", json.dumps(instance_to_dict(instance), indent=2) + "\n")


def load_solution(path: str | Path) -> tuple[Solution, bool]:
    return solution_from_dict(_read_json(path, "solution"))


def dump_solution(solution: Solution, stats: SolverStats, path: str | Path) -> None:
    _write_text(path, "solution", json.dumps(solution_to_dict(solution, stats), indent=2) + "\n")


# ---------------------------------------------------------------------------
# bench


@dataclass(frozen=True)
class BenchRow:
    """One instance of a sweep: its key, the exact solve's ``stats`` and greedy's ``alpha``.

    A row whose solve raised keeps the message in ``error`` and no ``stats``
    or ``alpha``.
    """

    n: int
    p: int
    m: int | None
    seed: int
    stats: SolverStats | None = None
    alpha: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class BenchReport:
    """Rows of a sweep; the CSV names each row's instance and says how far it is from proven.

    Each record is read from the row's ``SolverStats``: ``nodes``, ``T``
    (``wall_time``), ``T1`` (``optimal_found_time``) and ``T_H``
    (``greedy_time``).  ``upper_bound`` and ``gap`` are the exact solve's
    certified bound and relative gap, written in full precision: a proven
    row has gap 0, a timed-out one a positive gap.  ``root_bound`` is the
    root's certified bound after the Lagrangian fit and ``fit_s`` the fit's
    time (``-`` when the greedy seed already earns all the demand).  A
    failed row has ``optimal`` False and ``-`` in every other column but
    its key.
    """

    rows: tuple[BenchRow, ...]

    COLUMNS = (
        "n", "p", "m", "seed", "nodes", "T", "T1", "T1_over_T", "T_H", "alpha",
        "optimal", "upper_bound", "gap", "root_bound", "fit_s",
    )

    def csv_rows(self) -> list[dict[str, Any]]:
        out = []
        for row in self.rows:
            rec = dict.fromkeys(self.COLUMNS, "-")
            st = row.stats
            rec.update({"n": row.n, "p": row.p, "seed": row.seed, "optimal": st is not None and st.optimal})
            if row.m is not None:
                rec["m"] = row.m
            if st is not None:
                rec.update({
                    "nodes": st.nodes_explored,
                    "T": f"{st.wall_time:.6f}",
                    "T1": f"{st.optimal_found_time:.6f}",
                    "T1_over_T": f"{st.optimal_found_time / st.wall_time:.6f}" if st.wall_time else "-",
                    "T_H": f"{st.greedy_time:.6f}",
                    "alpha": f"{row.alpha:.6f}" if st.optimal else "-",
                    "upper_bound": st.upper_bound if st.upper_bound is not None else "-",
                    "gap": st.gap if st.gap is not None else "-",
                    "root_bound": st.root_bound if st.root_bound is not None else "-",
                    "fit_s": f"{st.fit_s:.6f}" if st.root_bound is not None else "-",
                })
            out.append(rec)
        return out

    def write_csv(self, path: str | Path) -> None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.COLUMNS)
        writer.writeheader()
        writer.writerows(self.csv_rows())
        _write_text(path, "CSV", buf.getvalue())

    def human_table(self) -> str:
        """The CSV records right-aligned under their column names and a rule."""
        cells = [self.COLUMNS] + [tuple(str(rec[c]) for c in self.COLUMNS) for rec in self.csv_rows()]
        widths = [max(len(row[k]) for row in cells) for k in range(len(self.COLUMNS))]
        lines = [" ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def _generate(one_d: bool, **kwargs: Any) -> Instance:
    """``generate_1d`` of a line ``GenConfig(**kwargs)`` when ``one_d``, else ``generate``."""
    if one_d:
        return generate_1d(GenConfig(dimension=Dimension.ONE_D, **kwargs))
    return generate(GenConfig(**kwargs))


def _cross_check(instance: Instance, reward: float, budget: int) -> None:
    """Raise unless the brute-force optimum equals ``reward``; skip when it exceeds ``budget``."""
    try:
        check = (brute_force_1d if instance.one_d else brute_force_2d)(instance, max_evaluations=budget)
    except OracleSizeError:
        return
    if abs(check.reward - reward) > 1e-9 * abs(check.reward):
        raise RuntimeError(f"reference mismatch: {check.reward} vs {reward}")


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
    for p, m, n, seed in itertools.product(ps, [None] if one_d else ms, ns, range(seeds)):
        sizes = {} if one_d else {"m": m}
        instance = _generate(one_d, seed=seed, n=n, p=p, **sizes, **overrides)
        try:
            # the solver's greedy seed gives T_H and alpha
            solution, stats = solve(instance, config)
            alpha = min(stats.greedy_reward / solution.reward, 1.0) if solution.reward > 0 else 1.0
            if oracle_budget > 0 and stats.optimal:
                _cross_check(instance, solution.reward, oracle_budget)
            rows.append(BenchRow(n, p, m, seed, stats, alpha))
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
    placements = solution.placements if solution is not None else ()
    sz_rects = []
    for pl in placements:
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
    if not (math.isfinite(width) and math.isfinite(height)):
        raise CliError("the drawing's extent overflows")
    scale = 720.0 / max(width, height)

    def sx(x: float) -> float:
        return (x - min_x) * scale

    def sy(y: float) -> float:
        return (max_y - y) * scale  # SVG y grows downward

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    def box(r: Rect) -> str:
        return f'x="{fmt(sx(r.x))}" y="{fmt(sy(r.y2))}" width="{fmt(r.w * scale)}" height="{fmt(r.l * scale)}"'

    vmax = max((d.v for d in instance.dzs), default=1.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width * scale)}" '
        f'height="{fmt(height * scale)}" viewBox="0 0 {fmt(width * scale)} {fmt(height * scale)}">',
    ]
    for d, r in zip(instance.dzs, dz_rects):
        opacity = 0.15 + 0.6 * (d.v / vmax)
        lines.append(
            f'<rect class="dz" {box(r)} '
            f'fill="#4878a8" fill-opacity="{opacity:.3f}" stroke="#28506e" stroke-width="0.6"/>'
        )
    for idx, (pl, r) in enumerate(zip(placements, sz_rects)):
        lines.append(f'<rect class="sz" {box(r)} fill="none" stroke="#c0392b" stroke-width="1.4"/>')
        lines.append(
            f'<text class="sz-label" x="{fmt(sx(r.x) + 3)}" y="{fmt(sy(r.y2) + 12)}" '
            f'font-size="11" fill="#c0392b">s{idx + 1} z={pl.z:g}</text>'
        )
    legend = f"demand={len(instance.dzs)}"
    if solution is not None:
        legend = f"reward={solution.reward:.6f} | zones={instance.p} | {legend}"
    lines.append(f'<text class="legend" x="4" y="14" font-size="12" fill="#222">{legend}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _out_path(text: str) -> Path:
    """An ``--out`` file in a writable directory, and writable if it exists, checked before any work is done."""
    path = Path(text)
    read_only = path.exists() and not os.access(path, os.W_OK)
    if path.is_dir() or read_only or not os.access(path.parent, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"{text!r} is not a writable file in an existing, writable directory")
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
        return SolverConfig(time_limit_s=args.time_limit, scv_mode=args.scv_mode)


def cmd_solve(args: argparse.Namespace) -> int:
    config = _solver_config(args)
    instance = load_instance(args.instance)
    if args.algo != "oracle":  # the oracle refuses a huge p by its own size estimate
        _check_zones(instance.p, "instance.p")
    t0 = time.perf_counter()
    if args.algo == "exact":
        solution, stats = solve(instance, config)
    else:
        if args.algo == "greedy":
            solution, nodes, proven = greedy(instance).solution, 0, False
        else:
            try:
                result = (brute_force_1d if instance.one_d else brute_force_2d)(instance)
            except OracleSizeError as exc:
                raise CliError(f"oracle refused: {exc}") from None
            solution, nodes, proven = Solution(result.placements, result.reward), result.evaluations, True
        elapsed = time.perf_counter() - t0
        stats = SolverStats(
            nodes_explored=nodes, wall_time=elapsed, optimal_found_time=elapsed, optimal=proven,
            upper_bound=solution.reward if proven else None, gap=0.0 if proven else None,
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
    _check_zones(max(ps), "--p")
    ms = _parse_int_list("--m", args.m)
    ns = _parse_int_list("--n", args.n)
    for option, value, low in (("--seeds", args.seeds, 1), ("--oracle-budget", args.oracle_budget, 0)):
        if value < low:
            raise CliError(f"{option} must be >= {low}, got {value}")
    with _validated("bench sizes"):
        for p, m, n in itertools.product(ps, ms, ns):
            GenConfig(n=n, p=p, m=m)
    report = run_bench(
        ps=ps, ms=ms, ns=ns, seeds=args.seeds, one_d=args.one_d, config=config, oracle_budget=args.oracle_budget,
    )
    print(report.human_table())  # before the write, so a failed write keeps the solved rows
    report.write_csv(args.out)
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
        slack = 1e-6 * abs(recomputed)
        too_low = optimal and solution.reward < recomputed - slack
        if solution.reward > recomputed + slack or too_low:
            raise CliError(
                f"solution reward {solution.reward} does not match instance "
                f"(recomputed {recomputed}); wrong instance/solution pair?"
            )
    svg = render_svg(instance, solution)
    _write_text(args.out, "SVG", svg)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rectcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--time-limit", type=float, default=SolverConfig.time_limit_s)
    solver_flags.add_argument("--scv-mode", choices=("outer", "full"), default=SolverConfig.scv_mode)

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
