"""The exact search's greedy seed against a plain greedy run, bit for bit.

``bnb.solve`` builds its reward matrices before greedy runs, and greedy's
first round reads them (``solve_single_zone``'s ``tables``) instead of
deriving the same grids again.  The seed must still be ``greedy(instance)``
exactly: its placements, its round rewards and its claimed reward.
"""

from dataclasses import replace

import pytest

from rectcover import (
    BaseServiceZone,
    DemandZone,
    Dimension,
    GenConfig,
    Instance,
    QosSet,
    Rect,
    generate,
    generate_1d,
    greedy,
    solve,
)
from rectcover import bnb
from rectcover.bnb import CandidateGrids


def trace_bits(trace):
    """A greedy trace as ``float.hex``: placements, round rewards and claimed reward."""
    placements = tuple((p.x.hex(), p.y.hex(), p.z.hex()) for p in trace.solution.placements)
    return placements, tuple(r.hex() for r in trace.rewards), trace.solution.reward.hex()


def per_zone(inst, menus):
    return replace(inst, qos=tuple(QosSet(m) for m in menus))


def tied_plateau():
    # 8x8 disjoint 6x6 squares and a 4x4 zone: it pays 16 flush anywhere in
    # any square, so 256 cells of the scale-1 grid tie exactly
    dzs = tuple(DemandZone(Rect(10.0 * i, 10.0 * j, 6.0, 6.0), 1.0) for j in range(8) for i in range(8))
    return Instance(dzs, BaseServiceZone(4.0, 4.0), 3, QosSet((1.0, 2.0)))


def order_dependent_tie(first, second):
    # two unit squares, each listed five times with the same rates in
    # another order: the exact sums are equal, the in-order sum of the
    # second is one ulp larger, so greedy must place its first zone on the
    # second square; the matrix product sums in another order, which with
    # some BLAS kernels ties the two cells
    dzs = [DemandZone(Rect(0.0, 0.0, 1.0, 1.0), v) for v in first]
    dzs += [DemandZone(Rect(10.0, 0.0, 1.0, 1.0), v) for v in second]
    return Instance(tuple(dzs), BaseServiceZone(1.0, 1.0), 2, QosSet((1.0,)))


ORDER_TIES = {
    "a": ((0.2, 0.7, 0.13, 0.9, 0.13), (0.13, 0.2, 0.9, 0.7, 0.13)),
    "b": ((0.7, 0.7, 0.13, 0.13, 0.3), (0.13, 0.13, 0.7, 0.3, 0.7)),
}


def line(seed, n, p):
    return generate_1d(GenConfig(seed=seed, n=n, p=p, dimension=Dimension.ONE_D))


INSTANCES = {
    **{f"plane-m{m}-seed{s}": generate(GenConfig(seed=s, n=30, p=3, m=m)) for m in (1, 2, 3) for s in (0, 5)},
    "plane-large": generate(GenConfig(seed=52, n=150, p=3, m=3)),
    "per-zone-1-12": per_zone(generate(GenConfig(seed=2, n=20, p=2, m=2)), [(1.0,), (1.0, 2.0)]),
    "per-zone-2-1-123": per_zone(generate(GenConfig(seed=4, n=20, p=3, m=3)), [(2.0,), (1.0,), (1.0, 2.0, 3.0)]),
    "per-zone-23-1": per_zone(generate(GenConfig(seed=7, n=25, p=2, m=3)), [(2.0, 3.0), (1.0,)]),
    "line-p3": line(3, 12, 3),
    "line-p4": line(38, 40, 4),
    "plane-n0": generate(GenConfig(seed=1, n=0, p=2, m=2)),
    "plane-n1": generate(GenConfig(seed=1, n=1, p=2, m=2)),
    "line-n0": line(1, 0, 2),
    "line-n1": line(1, 1, 2),
    "tied-plateau": tied_plateau(),
    **{f"order-dependent-tie-{k}": order_dependent_tie(*rates) for k, rates in ORDER_TIES.items()},
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_greedy_reading_the_solve_tables_equals_greedy(name):
    inst = INSTANCES[name]
    tables = CandidateGrids.from_instance(inst).matrices
    assert trace_bits(greedy(inst, tables)) == trace_bits(greedy(inst))


@pytest.mark.parametrize("key", sorted(ORDER_TIES))
def test_order_dependent_tie_places_the_first_zone_by_the_in_order_sum(key):
    inst = order_dependent_tie(*ORDER_TIES[key])
    tables = CandidateGrids.from_instance(inst).matrices
    assert greedy(inst, tables).solution.placements[0].x == 10.0


@pytest.mark.parametrize("name", sorted(k for k in INSTANCES if k != "plane-large"))
def test_solve_seed_equals_greedy(name, monkeypatch):
    inst = INSTANCES[name]
    seeds = []

    def recorded(instance, tables=None):
        trace = greedy(instance, tables)
        seeds.append((tables, trace))
        return trace

    monkeypatch.setattr(bnb, "greedy", recorded)
    _, stats = solve(inst)
    [(tables, trace)] = seeds
    assert tables is not None  # the first round read the solve's matrices
    assert trace_bits(trace) == trace_bits(greedy(inst))
    assert stats.greedy_reward.hex() == trace.solution.reward.hex()
