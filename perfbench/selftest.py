"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

1. Oracle: tiny instances of every workload family (n <= 6) are recorded
   through the same path as the reference files and compared against the
   brute-force oracle; the benchmark's own check accepts the recorded answers.
2. Result line: every metric that ``BENCHMARK.json`` names appears with its
   unit for every workload, in both modes, when the command runs for one
   second; the exit code is 0.
3. A deliberately wrong reference reward is counted in ``failed`` and
   ``failed_frac`` and makes the command exit non-zero.
4. A traced run restores every patched attribute, and its layer self times
   plus the remainder add up to the traced total.
5. In a directory holding only ``BENCHMARK.json`` and the benchmark's files
   the command fails without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (first: pins native thread pools)
import record  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from rectcover.oracle import brute_force_1d, brute_force_2d  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: ``(demand zones, seeds)`` of the oracle instances per workload.  The
#: oracle's enumeration grows steeply with p and m: at p=3, m=3 one n=2
#: instance already takes about 20 s.
ORACLE_CASES = {
    "plane-wide": (6, range(3)),
    "line": (6, range(3)),
    "greedy-large": (2, range(1)),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_in_process(argv: list[str], refs=None) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, refs=refs)
    return code, buf.getvalue()


def oracle_agreement() -> None:
    for name, w in harness.WORKLOADS.items():
        n, seeds = ORACLE_CASES[name]
        for seed in seeds:
            [ref] = record.record_entries(w, [seed], repeats=1, n=n)
            instance = w.make(w.config(seed, n))
            best = (brute_force_1d if w.solver == "line" else brute_force_2d)(instance).reward
            if w.solver == "greedy":
                p = w.p
                ok = best * (1 - ((p - 1) / p) ** p) * (1 - harness.REL_TOL) <= ref.reward <= best * (1 + harness.REL_TOL)
            else:
                ok = math.isclose(ref.reward, best, rel_tol=harness.REL_TOL)
            out = harness.run_pass(w, [(ref, instance)])
            check(ok and not out.failures,
                  f"oracle {name} seed={seed} n={n}: recorded {ref.reward:.6f}, oracle {best:.6f}")


def result_metrics() -> None:
    for name in harness.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            res = result_line(done.stdout) if done.stdout.strip() else {}
            got = res.get("metrics", {})
            missing = [m["name"] for m in SPEC[key]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            check(done.returncode == 0 and res.get("correct") is True and res.get("attempted", 0) >= 1
                  and not missing and set(got) == {m["name"] for m in SPEC[key]},
                  f"result line {name} trace={trace}: exit {done.returncode}, missing or wrong unit {missing}")


def wrong_reference() -> None:
    for name, w in harness.WORKLOADS.items():
        refs = harness.load_refs(w)
        k = harness.window(refs, 0, harness.pass_budget(1))[0].seed
        field = "greedy_reward" if w.solver == "greedy" else "reward"
        refs[k] = dataclasses.replace(refs[k], **{field: getattr(refs[k], field) * 1.001})
        code, out = run_in_process(["--workload", name, "--seed", "0", "--seconds", "1"], refs=refs)
        res = result_line(out)
        frac = [float(l.split()[3]) for l in out.splitlines() if l.startswith("metric failed_frac ")]
        check(code != 0 and res["failed"] >= 1 and not res["correct"] and frac and frac[0] > 0,
              f"wrong reference {name}: exit {code}, failed {res['failed']}, failed_frac {frac}")


def traced_restore() -> None:
    for name in harness.WORKLOADS:
        before = tracing.bindings()
        code, out = run_in_process(["--workload", name, "--seed", "0", "--seconds", "1", "--trace", "1"])
        after = tracing.bindings()
        changed = [k for k in before.keys() | after.keys() if before.get(k) is not after.get(k)]
        m = {k: v["value"] for k, v in result_line(out)["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS if layer != "instgen.generate")
        total = m["trace.total_s"]
        check(code == 0 and not changed and math.isclose(layers + m["trace.remainder_s"], total, rel_tol=1e-9),
              f"traced {name}: restored (changed {changed[:3]}), self times {layers:.6f} + "
              f"remainder {m['trace.remainder_s']:.6f} = total {total:.6f}, overhead {m['trace.overhead_frac']:.3f}")


def bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "line", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          f"bare directory: exit {done.returncode}, stdout {done.stdout.strip()[:60]!r}")


def main() -> int:
    oracle_agreement()
    result_metrics()
    wrong_reference()
    traced_restore()
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
