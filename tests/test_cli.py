"""CLI surface: file formats, subcommands, exit codes, bench and render."""

import csv
import errno
import json
import math
import os
import sys
import time
from dataclasses import replace
from importlib import import_module
from pathlib import Path
from xml.etree import ElementTree

import pytest

from rectcover import (
    BaseServiceZone,
    Dimension,
    GenConfig,
    Instance,
    Placement,
    QosSet,
    Solution,
    brute_force_2d,
    covered_reward,
    generate,
    generate_1d,
    solve,
)
from rectcover.bnb import SolverConfig, SolverStats
from rectcover.bnb1d import solve_1d
from rectcover.cli import (
    MAX_ZONES,
    BenchReport,
    CliError,
    _cross_check,
    _solver_config,
    build_parser,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_solution,
    main,
    render_svg,
    run_bench,
    solution_from_dict,
    solution_to_dict,
)

from conftest import micro_line, moved, small_1d, small_2d, square_instance

# The package re-exports the function ``greedy`` under the module's name.
greedy_module = import_module("rectcover.greedy")


# ------------------------------------------------------------- file formats

def test_instance_round_trip_2d():
    inst = small_2d(seed=7, n=9, m=2, p=3)
    blob = json.loads(json.dumps(instance_to_dict(inst)))
    assert instance_from_dict(blob) == inst


def test_instance_round_trip_1d():
    inst = small_1d(seed=7, n=6, p=3)
    blob = json.loads(json.dumps(instance_to_dict(inst)))
    assert instance_from_dict(blob) == inst


def test_instance_json_field_names():
    data = instance_to_dict(square_instance())
    assert set(data) == {"dimension", "base_sz", "p", "eta", "qos", "dzs"}
    assert set(data["base_sz"]) == {"w", "l"}
    assert data["qos"] == {"shared": [1.0, 2.0]}
    assert set(data["dzs"][0]) == {"x", "y", "w", "l", "v"}
    per_zone = instance_to_dict(micro_line())
    assert per_zone["qos"] == {"per_sz": [[1.0], [2.0]]}


def test_solution_round_trip():
    sol = Solution((Placement(0.0, 0.0, 1.0), Placement(2.5, -1.0, 2.0)), 12.25)
    stats = SolverStats(nodes_explored=42, wall_time=0.5, optimal_found_time=0.25, optimal=True)
    data = solution_to_dict(sol, stats)
    assert set(data) == {"reward", "optimal", "placements", "stats"}
    assert set(data["stats"]) == {"nodes", "time_s", "t1_s"}
    back, optimal = solution_from_dict(json.loads(json.dumps(data)))
    assert back == sol
    assert optimal is True


def test_missing_field_diagnostics():
    data = instance_to_dict(square_instance())
    del data["dzs"][0]["v"]
    with pytest.raises(CliError, match=r"instance\.dzs\[0\]: missing field 'v'"):
        instance_from_dict(data)


def test_wrong_type_diagnostics():
    data = instance_to_dict(square_instance())
    data["p"] = "two"
    with pytest.raises(CliError, match=r"instance\.p: expected an integer"):
        instance_from_dict(data)


def test_qos_needs_a_recognised_key():
    data = instance_to_dict(square_instance())
    data["qos"] = {"menu": [1, 2]}
    with pytest.raises(CliError, match="'shared' or 'per_sz'"):
        instance_from_dict(data)


def test_model_validation_is_wrapped():
    data = instance_to_dict(square_instance())
    data["dimension"] = "1d"  # planar base on a line instance
    with pytest.raises(CliError, match="instance:"):
        instance_from_dict(data)


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": "2d",')
    with pytest.raises(CliError, match=r"not valid JSON \(line 1, column"):
        load_instance(path)


def test_unreadable_file(tmp_path):
    with pytest.raises(CliError, match="cannot read"):
        load_instance(tmp_path / "nope.json")


# ------------------------------------------------------------------ solve

@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    dump_instance(square_instance(), path)
    return path


def test_solve_exact_on_square(square_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(["solve", "--instance", str(square_file), "--out", str(out)])
    assert code == 0
    sol, optimal = load_solution(out)
    assert optimal
    assert math.isclose(sol.reward, 10.0, abs_tol=1e-9)
    assert "reward=10" in capsys.readouterr().out


def test_solve_exact_on_a_planar_per_zone_instance(tmp_path, capsys):
    # a planar instance with per-zone menus ({1} and {1, 2}) solves to a
    # proven optimum, the oracle's
    inst = square_instance()
    inst = Instance(inst.dzs, inst.base, 2, (QosSet((1.0,)), QosSet((1.0, 2.0))))
    path, out = tmp_path / "per-zone.json", tmp_path / "sol.json"
    dump_instance(inst, path)
    assert json.loads(path.read_text())["qos"] == {"per_sz": [[1.0], [1.0, 2.0]]}
    code = main(["solve", "--instance", str(path), "--algo", "exact", "--out", str(out)])
    assert code == 0
    sol, optimal = load_solution(out)
    assert optimal
    assert math.isclose(sol.reward, brute_force_2d(inst).reward, rel_tol=1e-12)
    assert math.isclose(sol.reward, 10.0, abs_tol=1e-9)
    assert "error" not in capsys.readouterr().err


def test_solve_greedy_on_square(square_file, tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve", "--instance", str(square_file), "--algo", "greedy", "--out", str(out)])
    assert code == 0
    sol, optimal = load_solution(out)
    assert not optimal
    assert math.isclose(sol.reward, 8.0, abs_tol=1e-9)


def test_solve_oracle_on_square(square_file, tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve", "--instance", str(square_file), "--algo", "oracle", "--out", str(out)])
    assert code == 0
    sol, optimal = load_solution(out)
    assert optimal
    assert math.isclose(sol.reward, 10.0, abs_tol=1e-9)


def test_solve_reports_upper_bound_and_gap(square_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(square_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["stats"]["upper_bound"] == data["reward"]
    assert data["stats"]["gap"] == 0.0
    assert data["stats"]["root_bound"] >= data["reward"]
    assert data["stats"]["fit_s"] >= 0.0
    assert "upper_bound=10 gap=0 " in capsys.readouterr().out

    assert main(["solve", "--instance", str(square_file), "--algo", "greedy", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["stats"]) == {"nodes", "time_s", "t1_s"}
    assert "upper_bound=- gap=- " in capsys.readouterr().out


def test_solve_timeout_reports_gap(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    dump_instance(small_2d(seed=0, n=8, m=2), inst_path)
    out = tmp_path / "sol.json"
    code = main(["solve", "--instance", str(inst_path), "--out", str(out), "--time-limit", "0"])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["stats"]["upper_bound"] > data["reward"]
    assert 0 < data["stats"]["gap"] < 1
    assert f"gap={data['stats']['gap']:.3g} " in capsys.readouterr().out


def test_solve_timeout_exits_two(tmp_path):
    inst_path = tmp_path / "inst.json"
    dump_instance(small_2d(seed=0, n=8, m=2), inst_path)
    out = tmp_path / "sol.json"
    code = main(["solve", "--instance", str(inst_path), "--out", str(out),
                 "--time-limit", "0"])
    assert code == 2
    sol, optimal = load_solution(out)
    assert not optimal
    assert sol.reward > 0


def test_solve_oracle_refuses_oversized(tmp_path, capsys, monkeypatch):
    # shrink the guard so the refusal path triggers without a huge instance
    import rectcover.cli as cli_mod

    def tiny_guard(instance):
        from rectcover.oracle import brute_force_2d

        return brute_force_2d(instance, max_evaluations=10)

    monkeypatch.setattr(cli_mod, "brute_force_2d", tiny_guard)
    inst_path = tmp_path / "inst.json"
    dump_instance(small_2d(seed=1, n=5, m=2), inst_path)
    code = main(["solve", "--instance", str(inst_path), "--algo", "oracle",
                 "--out", str(tmp_path / "sol.json")])
    assert code == 1
    assert "oracle refused" in capsys.readouterr().err


@pytest.mark.parametrize("p", [3000, 10**30])
def test_solve_oracle_refuses_a_huge_p_at_once(p, tmp_path, capsys):
    # the size estimate stops at the budget instead of multiplying out p factors
    data = instance_to_dict(generate(GenConfig(seed=1, n=3, p=2, m=2)))
    data["p"] = p
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    code = main(["solve", "--instance", str(path), "--algo", "oracle", "--out", str(tmp_path / "s.json")])
    assert time.perf_counter() - t0 < 1.0
    _assert_clean_error(code, capsys.readouterr().err,
                        "oracle refused: more than 100000000 evaluations estimated")
    assert not (tmp_path / "s.json").exists()


def _p_file(tmp_path, p):
    data = instance_to_dict(generate(GenConfig(seed=1, n=4)))
    data["p"] = p
    path = tmp_path / f"p{p}.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["exact", "greedy", "bench"])
def test_a_huge_p_is_refused_before_any_work(command, tmp_path, capsys):
    # greedy runs one round per zone: 10**30 rounds would never end
    out = tmp_path / "out"
    if command == "bench":
        field = "--p"
        args = ["bench", "--p", f"2,{10**30}", "--n", "4", "--seeds", "1", "--out", str(out)]
    else:
        field = "instance.p"
        args = ["solve", "--instance", str(_p_file(tmp_path, 10**30)), "--algo", command, "--out", str(out)]
    t0 = time.perf_counter()
    code = main(args)
    assert time.perf_counter() - t0 < 1.0
    _assert_clean_error(code, capsys.readouterr().err, f"{field}: at most {MAX_ZONES} service zones can be placed")
    assert not out.exists()


@pytest.mark.parametrize("algo", ["exact", "greedy"])
def test_max_zones_is_the_largest_p_solved(algo, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rectcover.cli.MAX_ZONES", 5)
    out = tmp_path / "s.json"
    assert main(["solve", "--instance", str(_p_file(tmp_path, 5)), "--algo", algo, "--out", str(out)]) == 0
    assert len(load_solution(out)[0].placements) == 5
    code = main(["solve", "--instance", str(_p_file(tmp_path, 6)), "--algo", algo, "--out", str(tmp_path / "t.json")])
    _assert_clean_error(code, capsys.readouterr().err, "instance.p: at most 5 service zones can be placed, got 6")


def test_bad_flags_exit_one(square_file, tmp_path, capsys):
    code = main(["solve", "--instance", str(square_file), "--algo", "magic",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- generate

def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "--seed", "7", "--n", "10", "--p", "2", "--m", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = load_instance(a)
    assert len(inst.dzs) == 10 and inst.p == 2
    assert inst.scale_values() == (1.0, 2.0)


def test_generate_one_d_scales(tmp_path):
    out = tmp_path / "line.json"
    code = main(["generate", "--one-d", "--p", "3", "--n", "6", "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.one_d
    assert [q.factors for q in inst.qos] == [(1.0,), (2.0,), (3.0,)]


def test_generate_bad_base_dims(tmp_path, capsys):
    code = main(["generate", "--base-dims", "5", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "base-dims" in capsys.readouterr().err


@pytest.mark.parametrize("one_d", [False, True])
@pytest.mark.parametrize("option", ["--region", "--r"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "0"])
def test_generate_rejects_a_non_finite_or_non_positive_size(tmp_path, capsys, one_d, option, value):
    argv = ["generate", f"{option}={value}", "--out", str(tmp_path / "x.json")]
    assert main(argv + ["--one-d"] * one_d) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite and positive" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("one_d", [False, True])
def test_generate_refuses_demand_that_vanishes_in_floating_point(tmp_path, capsys, one_d):
    # at r = 1e308 every demand zone lies so far out that x + w == x
    argv = ["generate", "--r", "1e308", "--out", str(tmp_path / "x.json")]
    assert main(argv + ["--one-d"] * one_d) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must have extents that do not vanish" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("algo", ["greedy", "exact"])
@pytest.mark.parametrize("one_d, field, far", [(False, "x", 1e300), (False, "y", -1e300), (True, "x", 1e300)])
def test_solve_refuses_demand_that_vanishes_in_floating_point(tmp_path, capsys, algo, one_d, field, far):
    inst = small_1d(seed=0, n=4, p=2) if one_d else small_2d(seed=0, n=4, m=2)
    data = instance_to_dict(inst)
    data["dzs"][1][field] = far  # a width or length of at most 10 vanishes next to 1e300
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    code = main(["solve", "--algo", algo, "--instance", str(path), "--out", str(tmp_path / "s.json")])
    _assert_clean_error(code, capsys.readouterr().err, "instance: dz[1] must have extents that do not vanish")
    assert not (tmp_path / "s.json").exists()


# ------------------------------------------------------------------- bench

def test_run_bench_rows_and_columns(tmp_path):
    report = run_bench(
        ps=[2], ms=[1], ns=[3, 4], seeds=2, one_d=True,
        gen_overrides=dict(region=100.0, r=27.0, dim_range=(1.0, 10.0),
                           base_dims=(10.0, 8.0)),
    )
    assert len(report.rows) == 4  # 2 sizes x 2 seeds
    assert all(r.error is None and r.stats.optimal for r in report.rows)
    for r in report.rows:
        assert 0.0 < r.alpha <= 1.0
        assert r.stats.optimal_found_time <= r.stats.wall_time + 1e-9
    csv_path = tmp_path / "bench.csv"
    report.write_csv(csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == BenchReport.COLUMNS
    assert len(rows) == 1 + 4
    table = report.human_table().splitlines()
    assert [line.split() for line in table[2:]] == rows[1:]


def test_human_table_prints_the_csv_records():
    report = run_bench(ps=[2], ms=[1], ns=[3], seeds=2, one_d=True, gen_overrides=LINE_SWEEP)
    lines = report.human_table().splitlines()
    assert tuple(lines[0].split()) == BenchReport.COLUMNS
    assert set(lines[1]) == {"-"}
    records = report.csv_rows()
    assert len(lines) == 2 + len(records)
    for line, rec in zip(lines[2:], records):
        assert line.split() == [str(rec[c]) for c in BenchReport.COLUMNS]
    # right-aligned: every column ends where its header ends
    assert len({len(line) for line in lines[: 2 + len(records)]}) == 1


def test_run_bench_runs_greedy_once_per_row(monkeypatch):
    # T_H and alpha come from the solver's greedy seed, not from a second run
    real = greedy_module.greedy
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rectcover" or name.startswith("rectcover."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    plane = run_bench(ps=[2], ms=[1, 2], ns=[3], seeds=2, gen_overrides=LINE_SWEEP)
    line = run_bench(ps=[2, 3], ms=[1], ns=[4], seeds=2, one_d=True, gen_overrides=LINE_SWEEP)
    rows = plane.rows + line.rows
    assert len(rows) == 8 and all(r.error is None and r.stats.optimal for r in rows)
    assert len(calls) == len(rows)
    monkeypatch.undo()
    # alpha is still greedy's claimed reward over the optimum
    for r in plane.rows:
        inst = generate(GenConfig(seed=r.seed, n=r.n, p=r.p, m=r.m, **LINE_SWEEP))
        sol, _ = solve(inst)
        assert r.alpha == min(real(inst).solution.reward / sol.reward, 1.0)
        assert r.stats.greedy_time > 0


def test_run_bench_oracle_cross_check():
    report = run_bench(
        ps=[2], ms=[1], ns=[3], seeds=2, one_d=True,
        gen_overrides=dict(region=100.0, r=27.0, dim_range=(1.0, 10.0),
                           base_dims=(10.0, 8.0)),
        oracle_budget=10**7,
    )
    assert all(r.error is None for r in report.rows)


def test_bench_oracle_mismatch_fails_the_row(tmp_path, capsys, monkeypatch):
    # an oracle that claims another reward: the row within the budget fails
    # with the mismatch and bench exits 1; the row above it is not checked
    import rectcover.cli as cli_mod

    def off_by_one(instance, max_evaluations):
        result = brute_force_2d(instance, max_evaluations=max_evaluations)
        return replace(result, reward=result.reward + 1.0)

    monkeypatch.setattr(cli_mod, "brute_force_2d", off_by_one)
    # seed 0 at n=2 and m=1: the oracle estimates 16 evaluations at p=1 and 2,304 at p=2
    out = tmp_path / "bench.csv"
    code = main(["bench", "--p", "1,2", "--m", "1", "--n", "2", "--seeds", "1",
                 "--oracle-budget", "100", "--out", str(out)])
    assert code == 1
    assert "reference mismatch" in capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert (rows[0]["p"], rows[0]["nodes"]) == ("1", "-")
    assert rows[1]["p"] == "2" and rows[1]["nodes"] != "-" and rows[1]["optimal"] == "True"


def test_bench_failure_becomes_marked_row(tmp_path, capsys, monkeypatch):
    import rectcover.cli as cli_mod

    def boom(instance, config):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli_mod, "solve", boom)
    out = tmp_path / "bench.csv"
    code = main(["bench", "--one-d", "--p", "2", "--n", "3", "--seeds", "1",
                 "--out", str(out)])
    assert code == 1
    assert "injected failure" in capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["nodes"] == "-"
    assert rows[0]["alpha"] == "-"
    # the key names the instance; optimal is False and every other column is "-"
    key = {"n": "3", "p": "2", "m": "-", "seed": "0", "optimal": "False"}
    assert rows == [{c: key.get(c, "-") for c in BenchReport.COLUMNS}]


def test_bench_rows_of_a_seed_that_earns_all_demand():
    # five zones over three demand zones: the greedy seed earns all the
    # demand, so no node is explored and no root is bounded
    rows = run_bench(ps=[5], ms=[2], ns=[3], seeds=3).csv_rows()
    assert [(r["n"], r["p"], r["m"], r["seed"]) for r in rows] == [(3, 5, 2, s) for s in range(3)]
    for r in rows:
        assert r["optimal"] is True
        assert r["nodes"] == 0 and r["gap"] == 0.0
        assert r["root_bound"] == "-" and r["fit_s"] == "-"
        assert r["alpha"] == "1.000000"


def test_bench_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--one-d", "--p", "2", "--n", "4", "--seeds", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == rows[0]
    assert [line.split() for line in printed[2 : len(rows) + 1]] == rows[1:]


LINE_SWEEP = dict(region=100.0, r=27.0, dim_range=(1.0, 10.0), base_dims=(10.0, 8.0))


def bench_csv_rows(tmp_path, config):
    report = run_bench(ps=[2], ms=[1], ns=[4], seeds=2, one_d=True, config=config,
                       gen_overrides=LINE_SWEEP)
    path = tmp_path / "bench.csv"
    report.write_csv(path)
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_reward(seed, config):
    # the instance run_bench draws for this row, solved as it solves it
    inst = generate_1d(GenConfig(seed=seed, n=4, p=2, dimension=Dimension.ONE_D, **LINE_SWEEP))
    return solve_1d(inst, config)[0].reward


def test_bench_csv_reports_a_timed_out_search(tmp_path):
    config = SolverConfig(time_limit_s=0)
    rows = bench_csv_rows(tmp_path, config)
    assert [row["seed"] for row in rows] == ["0", "1"]
    for row in rows:
        assert row["optimal"] == "False"
        assert float(row["gap"]) > 0
        assert float(row["upper_bound"]) >= sweep_reward(int(row["seed"]), config)
        # no node was explored: the certified bound is the root's, or the incumbent's times 1 + RTOL
        assert float(row["upper_bound"]) >= float(row["root_bound"])
        assert float(row["fit_s"]) >= 0.0


def test_bench_csv_reports_a_proven_search(tmp_path):
    config = SolverConfig()
    rows = bench_csv_rows(tmp_path, config)
    assert [row["seed"] for row in rows] == ["0", "1"]
    for row in rows:
        assert row["optimal"] == "True"
        assert float(row["gap"]) == 0.0
        assert float(row["upper_bound"]) == sweep_reward(int(row["seed"]), config)
        assert float(row["root_bound"]) >= float(row["upper_bound"])
        assert float(row["fit_s"]) >= 0.0


# ------------------------------------------------------------------ render

def test_render_square_with_solution(square_file, tmp_path):
    sol_path = tmp_path / "sol.json"
    main(["solve", "--instance", str(square_file), "--out", str(sol_path)])
    out = tmp_path / "scene.svg"
    code = main(["render", "--instance", str(square_file),
                 "--solution", str(sol_path), "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.count('class="dz"') == 1
    assert svg.count('class="sz"') == 2
    assert "reward=" in svg


def test_render_instance_only(square_file, tmp_path):
    out = tmp_path / "scene.svg"
    assert main(["render", "--instance", str(square_file), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count('class="dz"') == 1
    assert svg.count('class="sz"') == 0
    assert "demand=1" in svg


def test_render_an_instance_without_demand(tmp_path):
    # no demand zone and no solution: nothing to draw, and still a valid SVG
    path, out = tmp_path / "empty.json", tmp_path / "empty.svg"
    dump_instance(Instance((), BaseServiceZone(10.0, 8.0), 2, QosSet((1.0, 2.0))), path)
    assert main(["render", "--instance", str(path), "--out", str(out)]) == 0
    root = ElementTree.fromstring(out.read_text())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert [el.text for el in root] == ["demand=0"]


def test_render_one_d_band(tmp_path):
    inst_path = tmp_path / "line.json"
    dump_instance(micro_line(), inst_path)
    sol_path = tmp_path / "sol.json"
    main(["solve", "--instance", str(inst_path), "--out", str(sol_path)])
    out = tmp_path / "line.svg"
    assert main(["render", "--instance", str(inst_path),
                 "--solution", str(sol_path), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count('class="dz"') == 1
    assert svg.count('class="sz"') == 2


def test_render_is_deterministic():
    inst = small_2d(seed=3, n=5, m=2)
    assert render_svg(inst) == render_svg(inst)


def test_render_rejects_placement_count_mismatch():
    inst = square_instance()
    with pytest.raises(CliError, match="placements for p=2"):
        render_svg(inst, Solution((Placement(0.0, 0.0, 1.0),), 4.0))


def test_render_rejects_mismatched_pair(square_file, tmp_path, capsys):
    # a stored reward that the placements cannot reproduce is refused
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({
        "reward": 99.0,
        "optimal": True,
        "placements": [{"x": 0.0, "y": 0.0, "z": 1.0}, {"x": 0.0, "y": 0.0, "z": 2.0}],
        "stats": {"nodes": 1, "time_s": 0.0, "t1_s": 0.0},
    }))
    code = main(["render", "--instance", str(square_file),
                 "--solution", str(bogus), "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_render_accepts_greedy_solution_file(tmp_path, capsys):
    # greedy claims its sum of round gains, here less than its placements cover
    inst, sol, svg = (str(tmp_path / name) for name in ("inst.json", "greedy.json", "g.svg"))
    assert main(["generate", "--seed", "24", "--n", "150", "--p", "3", "--m", "3", "--out", inst]) == 0
    assert main(["solve", "--instance", inst, "--algo", "greedy", "--out", sol]) == 0
    claim, optimal = load_solution(sol)
    covered = _covered(load_instance(inst), claim)
    assert not optimal and claim.reward < covered - 1.0
    assert main(["render", "--instance", inst, "--solution", sol, "--out", svg]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("optimal, shift, accepted", [
    (False, -1.0, True),
    (False, 0.0, True),
    (False, 1.0, False),
    (True, -1.0, False),
    (True, 0.0, True),
    (True, 1.0, False),
])
def test_render_claim_rule(optimal, shift, accepted, square_file, tmp_path, capsys):
    # an unproven file may claim less than its placements cover, never more;
    # a proven file must match
    inst = load_instance(square_file)
    placements = (Placement(0.0, 0.0, 1.0), Placement(2.0, 2.0, 1.0))
    covered = _covered(inst, Solution(placements, 0.0))
    path = tmp_path / "sol.json"
    stats = SolverStats(nodes_explored=1, optimal=optimal)
    path.write_text(json.dumps(solution_to_dict(Solution(placements, covered + shift), stats)))
    code = main(["render", "--instance", str(square_file), "--solution", str(path),
                 "--out", str(tmp_path / "x.svg")])
    assert code == (0 if accepted else 1)
    assert ("does not match" in capsys.readouterr().err) == (not accepted)



@pytest.mark.parametrize("z", [1.5, 3.0, 1e308])
def test_render_refuses_a_scale_off_the_menu(z, square_file, tmp_path, capsys):
    # an unproven claim of 0 passes the reward check, so only the menu check
    # stands between z = 1e308 and an infinite service rectangle
    placements = (Placement(0.0, 0.0, 1.0), Placement(2.0, 2.0, z))
    path = tmp_path / "sol.json"
    stats = SolverStats(nodes_explored=1, optimal=False)
    path.write_text(json.dumps(solution_to_dict(Solution(placements, 0.0), stats)))
    code = main(["render", "--instance", str(square_file), "--solution", str(path),
                 "--out", str(tmp_path / "x.svg")])
    _assert_clean_error(code, capsys.readouterr().err, "not on its menu; wrong instance/solution pair?")
    assert not (tmp_path / "x.svg").exists()


def _covered(inst, solution):
    return covered_reward(inst.dzs, solution.placements, inst.base, inst.eta)


@pytest.mark.parametrize("optimal", [False, True])
def test_render_claim_rule_is_relative(optimal, tmp_path, capsys):
    # at lengths times 1e-6 the optimum is 2.17e-8: a claim 5e-7 above it,
    # 24 times too much, passed an absolute slack of 1e-6
    inst = moved(generate(GenConfig(seed=2, n=15, p=2, m=2)), s=1e-6)
    sol, stats = solve(inst)
    assert stats.optimal and math.isclose(sol.reward, 2.17e-8, rel_tol=1e-3)
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    dump_instance(inst, inst_path)
    argv = ["render", "--instance", str(inst_path), "--solution", str(sol_path), "--out", str(tmp_path / "x.svg")]
    claimed = SolverStats(nodes_explored=1, optimal=optimal)
    sol_path.write_text(json.dumps(solution_to_dict(Solution(sol.placements, sol.reward), claimed)))
    assert main(argv) == 0
    sol_path.write_text(json.dumps(solution_to_dict(Solution(sol.placements, sol.reward + 5e-7), claimed)))
    assert main(argv) == 1
    assert "does not match" in capsys.readouterr().err


def test_oracle_cross_check_is_relative():
    # a line optimum of 1.2e-7 at lengths times 1e-9: a claim 0.1% above it
    # lies within an absolute slack of 1e-9
    inst = moved(small_1d(seed=0, n=4, p=2), s=1e-9)
    optimum = solve_1d(inst)[0].reward
    assert math.isclose(optimum, 1.2e-7, rel_tol=1e-2)
    _cross_check(inst, optimum, 10**7)
    with pytest.raises(RuntimeError, match="reference mismatch"):
        _cross_check(inst, optimum * 1.001, 10**7)


# ------------------------------------------------------- malformed input files

def _assert_clean_error(code: int, err: str, where: str) -> None:
    # ``main`` turns only ``CliError`` into exit code 1; any other exception
    # escapes it and fails the test with its traceback.
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors and where in errors[0], err



@pytest.mark.parametrize("algo", ["greedy", "exact"])
@pytest.mark.parametrize("edit", ["footprint", "far edge"])
def test_solve_refuses_an_instance_whose_edges_overflow(tmp_path, capsys, algo, edit):
    data = instance_to_dict(small_2d(seed=0, n=4, m=2))
    if edit == "footprint":
        data["base_sz"]["w"] = 1e308  # w0 * z_max = 2e308 is infinite
    else:
        data["dzs"][1].update(x=1e308, w=1e308)  # x + w = 2e308 is infinite
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code = main(["solve", "--algo", algo, "--instance", str(path), "--out", str(tmp_path / "s.json")])
    _assert_clean_error(code, capsys.readouterr().err, "overflows")
    assert not (tmp_path / "s.json").exists()


def _one_zone_file(tmp_path, one_d, zone, base):
    data = {
        "dimension": "1d" if one_d else "2d",
        "eta": "linear",
        "base_sz": base,
        "p": 1,
        "qos": {"per_sz": [[1]]} if one_d else {"shared": [1]},
        "dzs": [zone],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    return path


# each solved to reward=inf optimal=True before the area and reward checks
AREA_OVERFLOWS = {
    "plane area": (False, {"x": 0, "y": 0, "w": 1e200, "l": 1e200, "v": 1}, {"w": 1e200, "l": 1e200}),
    "line reward": (True, {"x": 0, "y": 0, "w": 1e300, "l": 0, "v": 1e10}, {"w": 1e300, "l": 0}),
}


@pytest.mark.parametrize("algo", ["exact", "greedy", "oracle"])
@pytest.mark.parametrize("case", sorted(AREA_OVERFLOWS))
def test_solve_refuses_an_instance_whose_area_or_reward_overflows(tmp_path, capsys, algo, case):
    path = _one_zone_file(tmp_path, *AREA_OVERFLOWS[case])
    code = main(["solve", "--algo", algo, "--instance", str(path), "--out", str(tmp_path / "s.json")])
    _assert_clean_error(code, capsys.readouterr().err, "overflows: its area or reward is not finite")
    assert not (tmp_path / "s.json").exists()


def test_render_refuses_a_drawing_whose_extent_overflows(tmp_path, capsys):
    # a valid instance with demand 3e308 apart: the padded width is infinite
    data = {
        "dimension": "2d",
        "eta": "linear",
        "base_sz": {"w": 1e296, "l": 8},
        "p": 2,
        "qos": {"shared": [1]},
        "dzs": [{"x": x, "y": 0, "w": 1e300, "l": 5, "v": 1} for x in (-1.5e308, 1.5e308)],
    }
    far = tmp_path / "far.json"
    far.write_text(json.dumps(data))
    code = main(["render", "--instance", str(far), "--out", str(tmp_path / "far.svg")])
    _assert_clean_error(code, capsys.readouterr().err, "the drawing's extent overflows")
    assert not (tmp_path / "far.svg").exists()
    # a placement at the float maximum: its far edges are infinite
    inst = square_instance()
    top = 1.7976931348623157e308
    solution = Solution((Placement(0.0, 0.0, 1.0), Placement(top, top, 1.0)), 0.0)
    with pytest.raises(CliError, match="the drawing's extent overflows"):
        render_svg(inst, solution)


@pytest.mark.parametrize("one_d", [False, True])
def test_generate_refuses_a_base_whose_footprint_overflows(tmp_path, capsys, one_d):
    argv = ["generate", "--base-dims", "1e308,40", "--m", "2", "--p", "2", "--out", str(tmp_path / "x.json")]
    _assert_clean_error(main(argv + ["--one-d"] * one_d), capsys.readouterr().err, "overflows")
    assert not (tmp_path / "x.json").exists()


INSTANCE_MUTATIONS = {
    "negative extent": (lambda d: d["dzs"][0].update(w=-1), "instance.dzs[0]"),
    "menu not increasing": (lambda d: d["qos"].update(shared=[2, 1]), "instance.qos.shared"),
    "factor below one": (lambda d: d["qos"].update(shared=[0.5]), "instance.qos.shared"),
    "non-numeric factor": (lambda d: d["qos"].update(shared=["a"]), "instance.qos.shared[0]"),
    "menu not a list": (lambda d: d["qos"].update(shared=2), "instance.qos.shared"),
    "zero base width": (lambda d: d["base_sz"].update(w=0), "instance.base_sz"),
    "zero base length in the plane": (
        lambda d: d["base_sz"].update(l=0), "instance: 2d instances need a positive-length base",
    ),
    "negative base length": (lambda d: d["base_sz"].update(l=-1), "instance.base_sz: base length must be non-negative"),
    "zero rate": (lambda d: d["dzs"][0].update(v=0), "instance.dzs[0]"),
    "non-finite coordinate": (lambda d: d["dzs"][1].update(x=float("nan")), "instance.dzs[1].x"),
    "integer beyond float range": (lambda d: d["dzs"][1].update(l=10**400), "instance.dzs[1].l"),
    "unknown dimension": (lambda d: d.update(dimension="3d"), "instance.dimension: unknown value '3d'"),
    "unknown eta": (lambda d: d.update(eta="cubic"), "instance.eta: unknown value 'cubic'"),
    "base not an object": (lambda d: d.update(base_sz=[10, 8]), "instance.base_sz: expected an object"),
    "qos not an object": (lambda d: d.update(qos=[1, 2]), "instance.qos: expected an object"),
    "per-zone menus not a list": (
        lambda d: d.update(qos={"per_sz": {"0": [1]}}), "instance.qos.per_sz: expected a list",
    ),
    "demand not a list": (lambda d: d.update(dzs={"x": 0}), "instance.dzs: expected a list"),
    "demand zone not an object": (lambda d: d["dzs"].insert(2, [0, 0, 1, 1, 1]), "instance.dzs[2]: expected an object"),
}


@pytest.mark.parametrize("mutation", sorted(INSTANCE_MUTATIONS))
def test_malformed_instance_file_gives_error_line(mutation, tmp_path, capsys):
    mutate, where = INSTANCE_MUTATIONS[mutation]
    data = instance_to_dict(generate(GenConfig(seed=1, n=5, p=2, m=2)))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["solve", "--algo", "greedy", "--instance", str(path), "--out", str(tmp_path / "s.json")])
    _assert_clean_error(code, capsys.readouterr().err, where)


SOLUTION_MUTATIONS = {
    "negative scale": (lambda d: d["placements"][0].update(z=-1.0), "solution.placements[0].z"),
    "scale below one": (lambda d: d["placements"][1].update(z=0.5), "solution.placements[1].z"),
    "non-finite coordinate": (lambda d: d["placements"][0].update(x=float("inf")), "solution.placements[0].x"),
    "optimal not a boolean": (lambda d: d.update(optimal="yes"), "solution.optimal: expected a boolean"),
    "placements not a list": (lambda d: d.update(placements={"x": 0}), "solution.placements: expected a list"),
    "placement not an object": (lambda d: d["placements"].insert(1, 3), "solution.placements[1]: expected an object"),
}


@pytest.mark.parametrize("mutation", sorted(SOLUTION_MUTATIONS))
def test_malformed_solution_file_gives_error_line(mutation, square_file, tmp_path, capsys):
    mutate, where = SOLUTION_MUTATIONS[mutation]
    sol = Solution((Placement(0.0, 0.0, 1.0), Placement(2.0, 2.0, 1.0)), 8.0)
    data = solution_to_dict(sol, SolverStats(nodes_explored=1, optimal=True))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["render", "--instance", str(square_file), "--solution", str(path),
                 "--out", str(tmp_path / "x.svg")])
    _assert_clean_error(code, capsys.readouterr().err, where)


@pytest.mark.parametrize("what", ["instance", "solution"])
def test_file_that_is_not_an_object_gives_error_line(what, square_file, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    argv = ["render", "--instance", str(square_file), "--out", str(tmp_path / "x.svg")]
    code = main(argv + ["--instance" if what == "instance" else "--solution", str(path)])
    _assert_clean_error(code, capsys.readouterr().err, f"{what}: expected an object")


# ------------------------------------------------------- bad command-line values

BAD_OPTIONS = {
    "generate base dims not numbers": (["generate", "--base-dims", "a,b"], "--base-dims"),
    # the interval step cuts a slice into a fixed number of equal runs: --beta is no flag
    "solve beta refused": (["solve", "--beta", "0.5"], "unrecognized arguments: --beta"),
    "generate out in missing directory": (["generate", "--out", "{tmp}/missing/x.json"], "--out"),
    "solve out in missing directory": (["solve", "--out", "{tmp}/missing/x.json"], "--out"),
    "bench out in missing directory": (["bench", "--out", "{tmp}/missing/x.csv"], "--out"),
    "render out in missing directory": (["render", "--out", "{tmp}/missing/x.svg"], "--out"),
    "bench p zero": (["bench", "--p", "0"], "bench sizes"),
    "bench n negative": (["bench", "--n", "-1"], "bench sizes"),
    "bench m zero": (["bench", "--m", "0"], "bench sizes"),
    "bench line p zero": (["bench", "--one-d", "--p", "0"], "bench sizes"),
    "bench line n negative": (["bench", "--one-d", "--n", "-1"], "bench sizes"),
    "bench line m zero": (["bench", "--one-d", "--m", "0"], "bench sizes"),
    "bench seeds negative": (["bench", "--seeds", "-1"], "--seeds"),
    "bench seeds zero": (["bench", "--seeds", "0"], "--seeds"),
    "bench p empty": (["bench", "--p", ""], "--p"),
    "bench m empty": (["bench", "--m", ""], "--m"),
    "bench n empty": (["bench", "--n", ""], "--n"),
    "bench line p empty": (["bench", "--one-d", "--p", ","], "--p"),
    "bench oracle budget negative": (["bench", "--oracle-budget", "-1"], "--oracle-budget must be >= 0"),
    "bench p not integers": (["bench", "--p", "2,x"], "expected a comma-separated integer list, got '2,x'"),
    "generate base dims zero": (["generate", "--base-dims", "0,5"], "bad base_dims (0.0, 5.0)"),
}


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_solver_flag_defaults_are_the_config_defaults(command, tmp_path):
    argv = [command, "--out", str(tmp_path / "out.txt")] + (["--instance", "x.json"] if command == "solve" else [])
    assert _solver_config(build_parser().parse_args(argv)) == SolverConfig()


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_bad_option_gives_error_line(case, square_file, tmp_path, capsys):
    argv, where = BAD_OPTIONS[case]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    command = argv[0]
    if command in ("solve", "render"):
        argv += ["--instance", str(square_file)]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out.txt")]
    _assert_clean_error(main(argv), capsys.readouterr().err, where)


# ------------------------------------------------------------ failed writes

#: Per command: the arguments beside ``--out`` and the file kind its error names.
WRITES = {
    "generate": ([], "instance"),
    "solve": (["--instance", "{square}", "--algo", "greedy"], "solution"),
    "bench": (["--n", "3", "--seeds", "1"], "CSV"),
    "render": (["--instance", "{square}"], "SVG"),
}


@pytest.mark.parametrize("command", sorted(WRITES))
def test_failed_write_gives_error_line(command, square_file, tmp_path, capsys, monkeypatch):
    # a full disk fails the write after the work is done
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full)
    args, what = WRITES[command]
    out = tmp_path / "out.txt"
    code = main([command] + [a.format(square=square_file) for a in args] + ["--out", str(out)])
    _assert_clean_error(code, capsys.readouterr().err, f"cannot write {what} file {out}: [Errno {errno.ENOSPC}]")


def test_failed_bench_write_still_prints_the_solved_rows(tmp_path, capsys, monkeypatch):
    # the sweep's table is printed before the CSV is written, so a full disk
    # loses only the file: the rows stay on stdout, and the exit code is 1
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full)
    out = tmp_path / "out.csv"
    code = main(["bench", "--n", "3", "--seeds", "2", "--out", str(out)])
    captured = capsys.readouterr()
    _assert_clean_error(code, captured.err, f"cannot write CSV file {out}")
    lines = captured.out.splitlines()
    header = next(k for k, line in enumerate(lines) if line.split()[:4] == ["n", "p", "m", "seed"])
    rows = [line.split() for line in lines[header + 2 :] if line.strip()]
    assert [row[:4] for row in rows] == [["3", "2", "2", "0"], ["3", "2", "2", "1"]]
    assert "wrote" not in captured.out and not out.exists()


@pytest.mark.parametrize(
    "deny",
    [
        pytest.param(
            "chmod",
            marks=pytest.mark.skipif(
                hasattr(os, "geteuid") and os.geteuid() == 0, reason="root may write a read-only file"
            ),
        ),
        "access",  # for any user: the access check the CLI makes denies writing the file
    ],
)
@pytest.mark.parametrize("command", sorted(WRITES))
def test_read_only_out_file_is_refused_before_any_work(command, deny, square_file, tmp_path, capsys, monkeypatch):
    import rectcover.cli as cli_mod

    args, _ = WRITES[command]
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    if deny == "chmod":
        out.chmod(0o444)
    else:
        access = os.access
        monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: Path(path) != out and access(path, mode))
    code = main([command] + [a.format(square=square_file) for a in args] + ["--out", str(out)])
    _assert_clean_error(code, capsys.readouterr().err, "--out")
    assert out.read_text() == "kept\n"
