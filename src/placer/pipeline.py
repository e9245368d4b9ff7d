"""End-to-end planning: reduce, partition, decode, evaluate.

Also hosts the load-ratio sweep.  A min-to-max load-ratio target rho is
enforced through the second capacity component: with total load L over l
servers, capping every server's load at floor(L / (rho + l - 1))
guarantees min/max >= rho whenever the caps hold.  Sweeps run from the
tightest ratio to the loosest and carry every candidate forward, so the
best reported cost can only decrease as the target loosens.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from .common import INFINITE
from .evaluate import CostReport, Placement, decode_dp, decode_gdp, dp_cost, gdp_cost
from .gdp import ViewClass, ViewDag
from .partition import PartitionConfig, PartitionResult, partition
from .reduction import build_dp_graph, build_gdp_graph, contract_infinite_edges
from .workload import Server, Workload

__all__ = [
    "PlanOutcome",
    "load_ratio_cap",
    "plan_workload",
    "plan_view_dag",
    "BalanceLevel",
    "balance_sweep",
]


@dataclass(frozen=True)
class PlanOutcome:
    placement: Placement
    report: CostReport
    partition: PartitionResult
    timings: tuple[tuple[str, float], ...]
    warnings: tuple[str, ...]


def load_ratio_cap(total_load: int, servers: int, ratio: Fraction) -> int | None:
    """Per-server load cap enforcing min/max >= ratio; None when the
    target is 0 (no constraint)."""
    if ratio == 0:
        return None
    cap = (total_load * ratio.denominator) // (
        ratio.numerator + (servers - 1) * ratio.denominator
    )
    # Never cap below a perfectly even split, which the bound permits.
    even = -(-total_load // servers)
    return max(cap, even)


def _apply_ratio(w: Workload, ratio: Fraction) -> Workload:
    cap = load_ratio_cap(
        sum(q.frequency * q.exec_cost for q in w.queries), len(w.servers), ratio
    )
    if cap is None:
        return w
    servers = tuple(
        Server(
            s.id,
            s.storage_capacity,
            cap if s.load_capacity is None else min(s.load_capacity, cap),
        )
        for s in w.servers
    )
    return Workload(w.tables, w.queries, servers)


def plan_workload(
    w: Workload,
    cfg: PartitionConfig | None = None,
    with_load: bool = False,
    min_max_ratio: Fraction | None = None,
) -> PlanOutcome:
    """Plan a plain workload: bipartite reduction, partition, decode,
    exact cost report."""
    timings = []
    if min_max_ratio is not None:
        with_load = True
        w = _apply_ratio(w, Fraction(min_max_ratio))
    t0 = time.perf_counter()
    graph = build_dp_graph(w, with_load=with_load)
    timings.append(("reduce", time.perf_counter() - t0))
    t0 = time.perf_counter()
    result = partition(graph, cfg)
    timings.append(("partition", time.perf_counter() - t0))
    t0 = time.perf_counter()
    # Under load constraints queries stay where the partitioner put
    # them; the cheapest-site shortcut would evade the execution caps.
    placement = decode_dp(result.assignment, w, resite=not with_load)
    report = dp_cost(placement, w)
    timings.append(("decode", time.perf_counter() - t0))
    return PlanOutcome(
        placement=placement,
        report=report,
        partition=result,
        timings=tuple(timings),
        warnings=graph.warnings,
    )


def plan_view_dag(
    d: ViewDag,
    cfg: PartitionConfig | None = None,
    with_load: bool = False,
    pin_views: bool = False,
) -> PlanOutcome:
    """Plan a view DAG.  ``pin_views`` forces materialized views to be
    computed and stored on one server by making their results immovable
    before the reduction."""
    if pin_views:
        views = tuple(
            replace(v, transfer_cost=INFINITE)
            if v.kind is ViewClass.MATERIALIZED_VIEW
            else v
            for v in d.views
        )
        d = ViewDag(views, d.arcs, d.servers)
    timings = []
    t0 = time.perf_counter()
    graph = build_gdp_graph(d, with_load=with_load)
    contracted, merge_map = contract_infinite_edges(graph)
    timings.append(("reduce", time.perf_counter() - t0))
    t0 = time.perf_counter()
    result = partition(contracted, cfg)
    timings.append(("partition", time.perf_counter() - t0))
    t0 = time.perf_counter()
    placement = decode_gdp(result.assignment, d, merge_map)
    report = gdp_cost(placement, d)
    timings.append(("decode", time.perf_counter() - t0))
    return PlanOutcome(
        placement=placement,
        report=report,
        partition=result,
        timings=tuple(timings),
        warnings=contracted.warnings,
    )


@dataclass(frozen=True)
class BalanceLevel:
    ratio: Fraction
    load_cap: int | None
    cost: int | float
    loads: tuple[int, ...]
    feasible: bool  # some candidate met this level's load cap
    placement: Placement


def balance_sweep(
    w: Workload,
    ratios: list[Fraction],
    cfg: PartitionConfig | None = None,
) -> list[BalanceLevel]:
    """Plan under each load-ratio target, tightest first, carrying all
    candidates so a looser level never reports a worse cost.  Results
    come back in the order requested."""
    total_load = sum(q.frequency * q.exec_cost for q in w.queries)
    l = len(w.servers)
    pool: list[tuple[int | float, tuple[int, ...], Placement]] = []
    levels: dict[Fraction, BalanceLevel] = {}
    for ratio in sorted({Fraction(r) for r in ratios}, reverse=True):
        outcome = plan_workload(w, cfg, min_max_ratio=ratio)
        per_server = outcome.report.per_server
        own = (
            outcome.report.total_cost,
            tuple(load for _, load in per_server),
            outcome.placement,
        )
        if all(st <= s.storage_capacity for (st, _), s in zip(per_server, w.servers)):
            pool.append(own)
        cap = load_ratio_cap(total_load, l, ratio)
        eligible = [
            c for c in pool if cap is None or all(x <= cap for x in c[1])
        ]
        # With no storage-respecting candidate yet, the level reports its
        # own outcome.
        cost, loads, placement = min(eligible or pool or [own], key=lambda c: c[0])
        levels[ratio] = BalanceLevel(ratio, cap, cost, loads, bool(eligible), placement)
    return [levels[Fraction(r)] for r in ratios]
