"""Benchmark of the exact and greedy rectcover solvers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plane-wide --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` times every layer by wrapping the solver's module functions
(see ``tracing.py``) and reports the per-layer metrics.  The human-readable
report comes first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every answer matched its reference.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: End-to-end metrics printed in the result line (``--trace 0``): the ones
#: that have a meaning on every workload and do not depend on which
#: instances a seed base selects.  The report above it prints all of them.
RESULT_METRICS = ("total_norm_s", "setup_s", "peak_rss_mb")

#: Per-layer metrics printed in the result line (``--trace 1``).
LAYERS = (
    "instgen.generate", "greedy.greedy", "bnb.CandidateGrids.from_instance",
    "reward.build_reward_matrix", "reward.solve_single_zone", "reward.covered_reward",
    "reward.planar_form", "critical.inner_demand_grid", "bnb.upper_bound", "bnb.branch",
    "bnb.partition", "bnb.priority_score", "bnb1d.upper_bound_1d", "bnb1d.branch_1d",
)
COUNTS = (
    "bnb.branch.children", "bnb1d.branch_1d.children", "reward.build_reward_matrix.cells",
    "critical.grid_values", "bnb.leaves", "bnb.incumbent_updates", "nodes",
)
RATIOS = ("bnb.pruned_frac", "trace.overhead_frac")
TIMES = ("trace.total_s", "trace.untraced_total_s", "trace.remainder_s")

#: Set-up repetitions; ``setup_s`` is the fastest, each scaled to the
#: reference machine speed like ``total_norm_s``.  Load from other
#: processes only slows a set-up, as it does a solve.
SETUP_REPS = 11
#: Instance seed and demand zones of the warm-up instance solved during
#: set-up; fixed, so that the warm-up costs the same for every seed base.
WARMUP_SEED = 0
WARMUP_N = 4

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import numpy, rectcover.bnb, rectcover.bnb1d, rectcover.greedy, rectcover.instgen\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Import time of numpy and the solver modules, measured in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def parse_args(argv):
    from harness import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="seed base: first instance seed")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup(workload, refs):
    """Generate the window's instances and warm up; return them and ``setup_s``."""
    import harness

    times = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        start = time.perf_counter()
        instances = [(ref, workload.make(workload.config(ref.seed))) for ref in refs]
        harness.solve_one(workload, workload.make(workload.config(WARMUP_SEED, WARMUP_N)), WARMUP_SEED)
        elapsed = imported + time.perf_counter() - start
        times.append(elapsed * harness.CAL_REF_S / harness.calibrate())
    for ref, instance in instances:
        if len(instance.dzs) != ref.n:
            raise ValueError(f"seed {ref.seed}: generated {len(instance.dzs)} demand zones, reference has {ref.n}")
    return instances, min(times)


def traced_metrics(workload, instances, untraced):
    """Run one traced pass; return it, the tracer and every per-layer metric."""
    import harness
    from tracing import Tracer

    tracer = Tracer()
    with tracer.patched():
        with tracer.span("setup"):
            instances = [(ref, workload.make(workload.config(ref.seed))) for ref, _ in instances]
        traced = harness.run_pass(workload, instances, around_solve=lambda: tracer.span("solve"))
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.s"] = (tracer.total_s[layer], "s")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    nodes = sum(o.nodes for o in traced.outcomes)
    counts = dict(tracer.counts)
    counts["bnb.incumbent_updates"] = sum(o.incumbent_updates for o in traced.outcomes)
    counts["nodes"] = nodes
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    expanded = tracer.calls["bnb.branch"] + tracer.calls["bnb1d.branch_1d"] + counts.get("bnb.leaves", 0)
    metrics["bnb.pruned_frac"] = (1 - expanded / nodes if nodes else 0.0, "ratio")
    total = tracer.total_s["solve"]
    metrics["trace.total_s"] = (total, "s")
    metrics["trace.untraced_total_s"] = (harness.total_s([untraced]), "s")
    metrics["trace.remainder_s"] = (tracer.self_s["solve"], "s")
    metrics["trace.overhead_frac"] = (total / harness.total_s([untraced]) - 1, "ratio")
    return traced, tracer, metrics


def main(argv=None, refs=None) -> int:
    """Run one workload; ``refs`` replaces the recorded reference answers (self-test)."""
    if not (SRC / "rectcover" / "__init__.py").is_file():
        print(f"perfbench: no rectcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # first: pins native thread pools before numpy loads
    import numpy
    import rectcover

    if not Path(rectcover.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: rectcover was imported from {rectcover.__file__}, not {SRC}", file=sys.stderr)
        return 2

    args = parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    refs = harness.load_refs(workload) if refs is None else refs
    win = harness.window(refs, args.seed, harness.pass_budget(args.seconds))
    print(f"perfbench workload={workload.name} seed_base={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__} native_threads={os.environ['OMP_NUM_THREADS']}")
    print(f"window instance_seeds={[r.seed for r in win]} recorded_nodes={sum(r.nodes for r in win)}")

    instances, setup_s = setup(workload, win)
    if args.trace == 0:
        passes = harness.measure(workload, instances)
        failures = [f for p in passes for f in p.failures]
        attempted = sum(len(p.outcomes) for p in passes)
        metrics = harness.end_to_end(workload, passes)
        metrics["setup_s"] = (setup_s, "s")
        print(f"passes={len(passes)} solver_calls={attempted}")
        result_names = RESULT_METRICS
    else:
        untraced = harness.run_pass(workload, instances)
        traced, tracer, metrics = traced_metrics(workload, instances, untraced)
        failures = untraced.failures + traced.failures
        attempted = len(untraced.outcomes) + len(traced.outcomes)
        layer_self = sum(tracer.self_s[layer] for layer in LAYERS if layer != "instgen.generate")
        print(f"self-time check: layers {layer_self:.6f} s + remainder {tracer.self_s['solve']:.6f} s"
              f" = {layer_self + tracer.self_s['solve']:.6f} s; traced total_s {tracer.total_s['solve']:.6f} s")
        print(f"tracing overhead: traced total_s {tracer.total_s['solve']:.6f} s vs untraced "
              f"{harness.total_s([untraced]):.6f} s")
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        result_names = tuple(f"{layer}.{stat}" for layer in LAYERS for stat in ("calls", "s", "self_s"))
        result_names += COUNTS + RATIOS + TIMES

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in result_names},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
