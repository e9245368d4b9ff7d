"""Decode partitions into placements and compute exact communication costs.

A placement stores each object on one or more servers (replica sets) and
fixes the server where each query or view is computed.  Costs are exact
integers: a query pays its frequency-weighted transfer cost for every
referenced table that has no replica on the chosen site; a view pays for
every dependency whose producer is stored away from the consumer's
computation site, plus its own transfer cost when it is computed and
stored on different servers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .common import INFINITE, ValidationError
from .gdp import ViewDag
from .reduction import PartitionAssignment, compute_node, query_node, storage_node, table_node
from .workload import Query, Workload

__all__ = [
    "Placement",
    "CostReport",
    "best_site",
    "decode_dp",
    "decode_gdp",
    "dp_cost",
    "gdp_cost",
    "storage_usage",
]


@dataclass(frozen=True)
class Placement:
    store: Mapping[str, tuple[int, ...]]  # object id -> sorted server indices
    compute: Mapping[str, int]  # query/view id -> server index


@dataclass(frozen=True)
class CostReport:
    per_query: Mapping[str, tuple[int, int | float]]  # id -> (site, cost)
    total_cost: int | float
    per_server: tuple[tuple[int, int], ...]  # (storage used, load used)
    violations: tuple[str, ...] = ()


def best_site(query: Query, placement: Placement, w: Workload) -> tuple[int, int]:
    """Cheapest execution server for a query given current replica sets.

    A referenced table with any replica on the candidate server costs
    nothing there.  Ties go to the lowest server index.
    """
    best_k, best_cost = 0, None
    for k in range(len(w.servers)):
        cost = 0
        for r in query.refs:
            replicas = placement.store.get(r.table)
            if replicas is None:
                raise ValidationError(f"table {r.table!r} is not placed")
            if k not in replicas:
                cost += r.cost
        cost *= query.frequency
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
    if best_cost is None:
        raise ValidationError("workload has no servers")
    return best_k, best_cost


def site_queries(store: Mapping[str, tuple[int, ...]], w: Workload) -> Placement:
    """The placement with these replica sets and every query at its
    best_site."""
    partial = Placement(store, {})
    return Placement(store, {q.id: best_site(q, partial, w)[0] for q in w.queries})


def _node_part(assignment: PartitionAssignment, node_id: str) -> int:
    try:
        return assignment.part_of[node_id]
    except KeyError:
        raise ValidationError(f"assignment does not cover node {node_id!r}") from None


def decode_dp(
    assignment: PartitionAssignment,
    w: Workload,
    resite: bool = True,
) -> Placement:
    """Tables go where their node landed; every query is then re-sited to
    its cheapest server, which can only reduce the cost below the cut.

    ``resite=False`` keeps each query on the server its node landed on.
    That is what load-balanced planning needs: moving a query to its
    cheapest server would silently undo the execution-capacity
    constraints the partitioner just honored.
    """
    store = {t.id: (_node_part(assignment, table_node(t.id)),) for t in w.tables}
    if resite:
        return site_queries(store, w)
    compute = {q.id: _node_part(assignment, query_node(q.id)) for q in w.queries}
    return Placement(store, compute)


def decode_gdp(
    assignment: PartitionAssignment,
    d: ViewDag,
    merge_map: Mapping[str, str] | None = None,
) -> Placement:
    """Storage side from the plain nodes, computation side from the
    doubled nodes; no re-siting (the cut already equals the cost).
    ``merge_map`` maps node ids to the super-nodes they were contracted
    into."""
    merged = merge_map or {}

    def part(node_id: str) -> int:
        return _node_part(assignment, merged.get(node_id, node_id))

    store = {v.id: (part(storage_node(v.id)),) for v in d.views}
    compute = {v.id: part(compute_node(v.id)) for v in d.views}
    return Placement(store, compute)


def storage_usage(p: Placement, sizes: Mapping[str, int], l: int) -> list[int]:
    """Stored size per server, counting every replica."""
    usage = [0] * l
    for oid, size in sizes.items():
        for k in p.store.get(oid, ()):
            usage[k] += size
    return usage


def _capacity_violations(servers, storage: list[int], load: list[int]) -> list[str]:
    violations = []
    for k, s in enumerate(servers):
        if storage[k] > s.storage_capacity:
            violations.append(
                f"server {s.id!r}: storage {storage[k]} exceeds capacity "
                f"{s.storage_capacity}"
            )
        if s.load_capacity is not None and load[k] > s.load_capacity:
            violations.append(
                f"server {s.id!r}: load {load[k]} exceeds capacity {s.load_capacity}"
            )
    return violations


def dp_cost(p: Placement, w: Workload) -> CostReport:
    """Exact communication cost of a placement for a plain workload.

    Queries with a recorded compute site are charged there; queries
    without one are charged at their cheapest server.
    """
    per_query = {}
    total = 0
    load = [0] * len(w.servers)
    for q in w.queries:
        site = p.compute.get(q.id)
        if site is None:
            site, cost = best_site(q, p, w)
        else:
            cost = q.frequency * sum(
                r.cost for r in q.refs if site not in p.store[r.table]
            )
        per_query[q.id] = (site, cost)
        total += cost
        load[site] += q.frequency * q.exec_cost
    storage = storage_usage(p, {t.id: t.size for t in w.tables}, len(w.servers))
    violations = _capacity_violations(w.servers, storage, load)
    return CostReport(
        per_query=per_query,
        total_cost=total,
        per_server=tuple(zip(storage, load)),
        violations=tuple(violations),
    )


def gdp_cost(p: Placement, d: ViewDag) -> CostReport:
    """Exact generalized objective: arc transfers for producers stored
    away from the consumer's computation site, plus each view's own
    transfer cost when computed and stored apart.  A separated view with
    an infinite transfer cost is reported as a violation and makes the
    total infinite."""
    per_view: dict[str, list] = {v.id: [p.compute[v.id], 0] for v in d.views}
    total: int | float = 0
    violations = []
    for a in d.arcs:
        if p.compute[a.consumer] not in p.store[a.producer]:
            per_view[a.consumer][1] += a.cost
            total += a.cost
    for v in d.views:
        cs = p.compute[v.id]
        if cs in p.store[v.id]:
            continue
        per_view[v.id][1] += v.transfer_cost
        total += v.transfer_cost
        if v.transfer_cost == INFINITE:
            violations.append(
                f"view {v.id!r}: computed on server {cs} but stored on "
                f"{tuple(p.store[v.id])} with an immovable result"
            )
    load = [0] * len(d.servers)
    for v in d.views:
        load[p.compute[v.id]] += v.exec_cost
    storage = storage_usage(p, {v.id: v.size for v in d.views}, len(d.servers))
    violations.extend(_capacity_violations(d.servers, storage, load))
    return CostReport(
        per_query={vid: tuple(rec) for vid, rec in per_view.items()},
        total_cost=total,
        per_server=tuple(zip(storage, load)),
        violations=tuple(violations),
    )
