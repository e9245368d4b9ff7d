import json
import warnings
from fractions import Fraction

import pytest

from placer.generate import GenSpec, generate
from placer.ip import build_dp_ip, read_lp, write_lp
from placer.oracle import optimal_gdp, optimal_placement
from placer.partition import PartitionConfig
from placer.pipeline import balance_sweep, load_ratio_cap, plan_view_dag, plan_workload
from placer.workload import parse_workload

from helpers import solve_ip

FAST = PartitionConfig(seeds=(0, 1), slack_factors=(Fraction(0), Fraction(1, 4)))


def test_plan_fig2_matches_oracle(fig2):
    outcome = plan_workload(fig2)
    assert outcome.report.total_cost == optimal_placement(fig2).cost
    assert not outcome.report.violations


# Optima of random n x n workloads on 4 servers, keyed by (n, generator
# seed), beyond the branch-and-bound oracle.  HiGHS proves them on the
# exported LP text: the 10x10 ones in a few seconds each, the larger ones
# in about 10 and 30 s, so only the slow test re-proves those.
PROVEN_OPTIMA = {(10, 1): 406, (10, 2): 283, (10, 3): 289}
SLOW_PROVEN_OPTIMA = {(12, 1): 584, (20, 1): 567}


def _random_square(n: int, seed: int):
    return generate(GenSpec(shape="random", n_tables=n, n_queries=n,
                            n_servers=4, seed=seed))


def _proven_optimum(w) -> int:
    return solve_ip(read_lp(write_lp(build_dp_ip(w))))[0]


def test_plan_within_five_percent_of_proven_optimum():
    for (n, seed), optimum in {**PROVEN_OPTIMA, **SLOW_PROVEN_OPTIMA}.items():
        w = _random_square(n, seed)
        if (n, seed) in PROVEN_OPTIMA:
            assert _proven_optimum(w) == optimum
        report = plan_workload(w).report
        assert not report.violations
        assert report.total_cost <= 1.05 * optimum


@pytest.mark.slow
def test_larger_optima_are_proven():
    for (n, seed), optimum in SLOW_PROVEN_OPTIMA.items():
        assert _proven_optimum(_random_square(n, seed)) == optimum


def test_plan_single_server(fig2):
    from placer.workload import Server, Workload

    w = Workload(fig2.tables, fig2.queries, (Server("S1", 100),))
    outcome = plan_workload(w)
    assert outcome.report.total_cost == 0


def test_plan_gdp_example(gdp_example):
    outcome = plan_view_dag(gdp_example)
    assert outcome.report.total_cost == optimal_gdp(gdp_example).cost == 16
    assert not outcome.report.violations


def test_pin_views_costs_at_least_unpinned(gdp_example):
    # On this instance the partitioner hits the oracle optimum for both
    # variants, so the comparison reflects the true restriction cost.
    from dataclasses import replace

    from placer.common import INFINITE
    from placer.gdp import ViewClass, ViewDag

    pinned_views = tuple(
        replace(v, transfer_cost=INFINITE)
        if v.kind is ViewClass.MATERIALIZED_VIEW
        else v
        for v in gdp_example.views
    )
    pinned_dag = ViewDag(pinned_views, gdp_example.arcs, gdp_example.servers)
    unpinned = plan_view_dag(gdp_example)
    pinned = plan_view_dag(gdp_example, pin_views=True)
    assert unpinned.report.total_cost == optimal_gdp(gdp_example).cost
    assert pinned.report.total_cost == optimal_gdp(pinned_dag).cost
    assert pinned.report.total_cost >= unpinned.report.total_cost


def test_load_ratio_cap_bounds():
    # ratio 1 over l servers caps at the even split; ratio 0 means no cap
    assert load_ratio_cap(100, 4, Fraction(1)) == 25
    assert load_ratio_cap(100, 4, Fraction(0)) is None
    assert load_ratio_cap(100, 4, Fraction(1, 2)) == 28  # floor(100/3.5)
    # caps at or below the even split guarantee the ratio outright:
    # min >= L - (l-1)*cap and max <= cap
    cap = load_ratio_cap(100, 4, Fraction(1, 2))
    assert Fraction(100 - 3 * cap, cap) >= Fraction(1, 2)


def test_plan_with_ratio_respects_cap(fig2):
    outcome = plan_workload(fig2, FAST, min_max_ratio=Fraction(1, 2))
    total_load = sum(q.frequency * q.exec_cost for q in fig2.queries)
    cap = load_ratio_cap(total_load, len(fig2.servers), Fraction(1, 2))
    loads = [load for _, load in outcome.report.per_server]
    if not outcome.report.violations:
        assert max(loads) <= cap


def test_balance_sweep_monotone_tpcds():
    ratios = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for servers in (4, 8):
        w = generate(GenSpec(shape="tpcds", seed=1, n_servers=servers))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            levels = balance_sweep(w, ratios, FAST)
        costs = [lvl.cost for lvl in levels]
        # tightening the target never lowers the best found cost
        assert all(costs[i] <= costs[i + 1] for i in range(len(costs) - 1))
        assert all(lvl.feasible for lvl in levels)


def test_balance_sweep_tighter_ratio_helps_balance():
    w = generate(GenSpec(shape="tpcds", seed=1, n_servers=4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        levels = balance_sweep(w, [Fraction(0), Fraction(3, 4)], FAST)
    loose, tight = levels
    def ratio(loads):
        busy = [x for x in loads if x]
        return min(busy) / max(busy) if busy else 0
    assert ratio(tight.loads) >= ratio(loose.loads)


def test_balance_sweep_storage_check_ignores_server_names():
    # A load violation on a server whose id contains "storage" is not a
    # storage violation: the level keeps its storage-respecting plan.
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [
            {"id": "Q1", "exec_cost": 10, "refs": [{"table": "T1", "cost": 1}]},
            {"id": "Q2", "exec_cost": 1, "refs": [{"table": "T1", "cost": 1}]},
        ],
        "servers": [{"id": "storage1", "storage_capacity": 10},
                    {"id": "storage2", "storage_capacity": 10}],
    }))
    (level,) = balance_sweep(w, [Fraction(1)], FAST)
    assert level.load_cap == 6
    assert not level.feasible
    assert sorted(level.loads) == [1, 10]


def test_balance_sweep_without_storage_feasible_level():
    # 598 units of tables on 4 x 144: every plan violates storage, so the
    # level falls back to its own outcome instead of an empty pool.
    w = generate(GenSpec(shape="tpcds", seed=1, n_servers=4, server_capacity=144))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (level,) = balance_sweep(w, [Fraction(1, 2)], FAST)
        outcome = plan_workload(w, FAST, min_max_ratio=Fraction(1, 2))
    assert not level.feasible
    assert level.cost == outcome.report.total_cost
    assert level.placement == outcome.placement
