"""Record the reference answers of the benchmark's workloads.

    python3 perfbench/record.py                      # every workload
    python3 perfbench/record.py --workload line      # one workload

For every instance seed of a workload's pool this solves the instance
``REPEATS`` times with the workload's solver and writes
``refs/<workload>.json``: the proven optimum, its node count, the greedy
seed reward, and the fastest solve time ``ref_s``.  The solve time only
decides which instances make up a run's window (see ``harness.window``); it
is never compared against.  Recording refuses an instance that is not proven
or that gives different answers across repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402  (first: pins native thread pools)
import numpy  # noqa: E402

#: Time limit while recording: long enough to prove every pool instance,
#: including those a run stops at ``harness.CAP_S``.
RECORD_CAP_S = 1800.0
#: Solves per instance; ``ref_s`` is the fastest.
REPEATS = 3


def record_entries(workload: harness.Workload, seeds, repeats: int, n: int | None = None) -> list[harness.Reference]:
    """Reference answers of ``seeds``, each solved in ``repeats`` rounds over all of them.

    ``ref_s`` is an instance's fastest solve.  Rounds run over the whole
    seed list, so the solves of one instance lie minutes apart and a slow
    spell of a shared machine does not inflate a run of consecutive seeds.
    Every solve has a long time limit, so that each instance is proven; an
    instance beyond a run's time limit is solved only once, since a window
    charges it at the limit anyway.
    """
    configs = [workload.config(seed, n) for seed in seeds]
    instances = [workload.make(config) for config in configs]
    outs = [[harness.solve_one(workload, inst, seed, cap=RECORD_CAP_S)]
            for seed, inst in zip(seeds, instances)]
    for _ in range(repeats - 1):
        for seed, inst, tries in zip(seeds, instances, outs):
            if tries[0].seconds <= harness.CAP_S:
                tries.append(harness.solve_one(workload, inst, seed, cap=RECORD_CAP_S))
    refs = []
    for seed, config, tries in zip(seeds, configs, outs):
        first = tries[0]
        if not all(o.proven for o in tries):
            raise RuntimeError(f"{workload.name} seed {seed}: not proven within {RECORD_CAP_S} s")
        if any((o.reward, o.nodes, o.greedy_reward) != (first.reward, first.nodes, first.greedy_reward)
               for o in tries):
            raise RuntimeError(f"{workload.name} seed {seed}: answers differ between repeats")
        refs.append(harness.Reference(
            seed=seed, n=config.n, reward=first.reward, nodes=first.nodes,
            greedy_reward=first.greedy_reward, ref_s=min(o.seconds for o in tries),
        ))
    return refs


def record(workload: harness.Workload) -> dict:
    refs = record_entries(workload, range(workload.pool), REPEATS)
    for ref in refs:
        print(f"{workload.name} seed={ref.seed} n={ref.n} nodes={ref.nodes} ref_s={ref.ref_s:.4f}")
    return {
        "workload": workload.name,
        "recorded_with": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "repeats": REPEATS,
        },
        "entries": [vars(ref) for ref in refs],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Record reference answers of the benchmark's workloads.")
    ap.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(harness.WORKLOADS)
    harness.REFS_DIR.mkdir(exist_ok=True)
    for name in names:
        data = record(harness.WORKLOADS[name])
        (harness.REFS_DIR / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
