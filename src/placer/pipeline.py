"""End-to-end planning: reduce, partition, decode, evaluate.

The one place that maps an instance kind (plain workload or view DAG)
to its reduction, decoder and cost function; planning and the graph
file round trip share them.

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
from typing import Mapping

from .common import INFINITE
from .evaluate import CostReport, Placement, decode_dp, decode_gdp, dp_cost, gdp_cost
from .gdp import ViewClass, ViewDag
from .partition import PartitionConfig, PartitionResult, partition
from .reduction import PartGraph, build_dp_graph, build_gdp_graph, contract_infinite_edges
from .workload import Server, Workload

__all__ = [
    "PlanOutcome",
    "load_ratio_cap",
    "plan_workload",
    "plan_view_dag",
    "graph_of",
    "decode",
    "cost_of",
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
    target is 0 or there is no server (no constraint)."""
    if ratio == 0 or servers == 0:
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


def graph_of(
    instance: Workload | ViewDag, with_load: bool = False
) -> tuple[PartGraph, dict[str, str]]:
    """The graph an instance reduces to, and the merge map that decodes
    a partition of it.  A view DAG's infinite edges are contracted; a
    workload's graph has none, so it comes back as built with an empty
    map."""
    if isinstance(instance, ViewDag):
        return contract_infinite_edges(build_gdp_graph(instance, with_load=with_load))
    return build_dp_graph(instance, with_load=with_load), {}


def decode(assignment: Mapping[str, int], instance: Workload | ViewDag,
           merge_map: dict[str, str], with_load: bool = False) -> Placement:
    """The placement a partition of `graph_of(instance, with_load)`
    stands for."""
    if isinstance(instance, ViewDag):
        return decode_gdp(assignment, instance, merge_map)
    # Under load constraints queries stay where the partitioner put
    # them; the cheapest-site shortcut would evade the execution caps.
    return decode_dp(assignment, instance, resite=not with_load)


def cost_of(placement: Placement, instance: Workload | ViewDag) -> CostReport:
    """The exact cost report of a placement for its instance."""
    if isinstance(instance, ViewDag):
        return gdp_cost(placement, instance)
    return dp_cost(placement, instance)


def _plan(instance: Workload | ViewDag, cfg: PartitionConfig | None,
          with_load: bool) -> PlanOutcome:
    t0 = time.perf_counter()
    graph, merge_map = graph_of(instance, with_load)
    t1 = time.perf_counter()
    result = partition(graph, cfg)
    t2 = time.perf_counter()
    placement = decode(result.assignment, instance, merge_map, with_load)
    report = cost_of(placement, instance)
    t3 = time.perf_counter()
    timings = (("reduce", t1 - t0), ("partition", t2 - t1), ("decode", t3 - t2))
    return PlanOutcome(placement, report, result, timings, graph.warnings)


def plan_workload(
    w: Workload,
    cfg: PartitionConfig | None = None,
    with_load: bool = False,
    min_max_ratio: Fraction | None = None,
) -> PlanOutcome:
    """Plan a plain workload: bipartite reduction, partition, decode,
    exact cost report."""
    if min_max_ratio is not None:
        with_load = True
        w = _apply_ratio(w, Fraction(min_max_ratio))
    return _plan(w, cfg, with_load)


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
    return _plan(d, cfg, with_load)


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
