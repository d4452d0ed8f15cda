"""Record the solvers' behavioural fingerprint, or compare two records.

Usage::

    python tools/fingerprint.py [--out FILE]   # solve the five sets, print their totals
    python tools/fingerprint.py --diff A B     # list the instances whose records differ, sum up each set

The four exact sets are the ones node totals are compared on:
``plane-wide`` (planar p=2 m=2 n=30, seeds 0-99), ``line`` (line p=3 n=12,
seeds 0-59), ``plane-p3`` (planar p=3 m=2 n=8, seeds 0-9) and ``line-p4``
(line p=4 n=12, seeds 0-9), each instance drawn by ``rectcover.instgen`` and
solved with the default ``SolverConfig``.  Per instance the record holds the
explored-node count, the optimum, the placements, the incumbent history and
the root's bound.  The fifth set, ``greedy-large`` (planar p=3 m=3 n=150,
seeds 0-59, the benchmark's greedy workload), is run by ``greedy`` alone;
per instance the record holds the round rewards, the claimed reward and the
placements, and its total is the sum of the claimed rewards.  Every float
is recorded as ``float.hex``, so two records are equal only when the runs
agree bit for bit.  ``--out`` writes the record as JSON.

``rectcover`` is imported from wherever Python finds it (``PYTHONPATH=src``
for a checkout), so one copy of this script records any checkout.  Native
thread pools are pinned to one thread before numpy loads, as in the
benchmark, so that matrix products sum in one order on every machine.
``--diff`` ends with one line per set: for an exact set, the node totals of
A and B, how many of the instances both hold took more nodes in B and how
many fewer, and how many of their optima and of their root bounds differ
as ``float.hex``; for the greedy set, how many of the traces both hold
differ.  It exits 1 when some instance differs or is missing from one side.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: ``name -> (line?, n, p, m, seeds)``; ``m`` is the planar scale menu ``1..m``.
SETS = {
    "plane-wide": (False, 30, 2, 2, range(100)),
    "line": (True, 12, 3, None, range(60)),
    "plane-p3": (False, 8, 3, 2, range(10)),
    "line-p4": (True, 12, 4, None, range(10)),
    "greedy-large": (False, 150, 3, 3, range(60)),
}
#: The sets run by ``greedy`` alone; the others are solved exactly.
GREEDY_SETS = {"greedy-large"}


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def fingerprint() -> dict[str, dict[str, dict]]:
    """Every set's records, keyed by set name and then by seed (as a string, as JSON keys are)."""
    # imported here, after the thread pins, so that --diff needs no rectcover
    from rectcover import Dimension, GenConfig, generate, generate_1d, greedy, solve

    runs: dict[str, dict[str, dict]] = {}
    for name, (line, n, p, m, seeds) in SETS.items():
        runs[name] = {}
        for seed in seeds:
            if line:
                instance = generate_1d(GenConfig(seed=seed, n=n, p=p, dimension=Dimension.ONE_D))
            else:
                instance = generate(GenConfig(seed=seed, n=n, p=p, m=m))
            if name in GREEDY_SETS:
                trace = greedy(instance)
                sol = trace.solution
                record = {"rewards": [_hex(r) for r in trace.rewards], "reward": _hex(sol.reward)}
            else:
                sol, stats = solve(instance)
                record = {
                    "nodes": stats.nodes_explored,
                    "optimum": _hex(sol.reward),
                    "history": [[k, _hex(r)] for k, r in stats.best_reward_history],
                    "root_bound": _hex(stats.root_bound),
                }
            record["placements"] = [[_hex(pl.x), _hex(pl.y), _hex(pl.z)] for pl in sol.placements]
            runs[name][str(seed)] = record
    return runs


def differences(a: dict, b: dict) -> list[str]:
    """``set seed: fields`` for each instance whose records differ, or that one side lacks."""
    out = []
    for name in sorted(a.keys() | b.keys()):
        runs_a, runs_b = a.get(name, {}), b.get(name, {})
        for seed in sorted(runs_a.keys() | runs_b.keys(), key=int):
            ra, rb = runs_a.get(seed), runs_b.get(seed)
            if ra is None or rb is None:
                out.append(f"{name} {seed}: only in {'A' if rb is None else 'B'}")
            elif ra != rb:
                fields = [k for k in sorted(ra.keys() | rb.keys()) if ra.get(k) != rb.get(k)]
                out.append(f"{name} {seed}: {', '.join(fields)}")
    return out


def summary(a: dict, b: dict) -> list[str]:
    """Per exact set: A's and B's node totals, the instances that rose and fell, the optima and root bounds that differ.

    Per greedy set: how many of the traces both records hold differ.
    """
    out = []
    for name in sorted(a.keys() | b.keys()):
        runs_a, runs_b = a.get(name, {}), b.get(name, {})
        both = runs_a.keys() & runs_b.keys()
        if name in GREEDY_SETS:
            out.append(f"{name}: {sum(runs_a[seed] != runs_b[seed] for seed in both)} of {len(both)} traces differ")
            continue
        moves = [runs_b[seed]["nodes"] - runs_a[seed]["nodes"] for seed in both]
        optima, roots = (sum(runs_a[s][key] != runs_b[s][key] for s in both) for key in ("optimum", "root_bound"))
        total_a, total_b = (sum(r["nodes"] for r in runs.values()) for runs in (runs_a, runs_b))
        out.append(
            f"{name}: {total_a} -> {total_b} nodes, {sum(m > 0 for m in moves)} rose, "
            f"{sum(m < 0 for m in moves)} fell, {optima} optima and {roots} root bounds differ"
        )
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record to this JSON file")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two recorded JSON files")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(path).read_text()) for path in args.diff)
        lines = differences(a, b)
        for line in lines + summary(a, b):
            print(line)
        print(f"{len(lines)} instances differ")
        return 1 if lines else 0
    runs = fingerprint()
    for name, per_seed in runs.items():
        if name in GREEDY_SETS:
            total = sum(float.fromhex(r["reward"]) for r in per_seed.values())
            print(f"{name}: claimed reward {total!r} over {len(per_seed)} instances")
        else:
            print(f"{name}: {sum(r['nodes'] for r in per_seed.values())} nodes over {len(per_seed)} instances")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
