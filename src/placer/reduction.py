"""Exact reductions from placement instances to weighted graph partitioning.

A plain workload becomes a bipartite graph with one zero-weight node per
query and one size-weighted node per table; each query-table reference
contributes an edge weighted by frequency times transfer cost.  The cut
weight of a legal partition equals the communication cost of the
corresponding placement, in both directions.

A view DAG becomes a doubled bipartite graph: per view a storage-side
node (weight = stored size) and a compute-side node (weight 0), joined
by an edge weighted with the view's transfer cost; each dependency arc
joins the producer's storage node to the consumer's compute node.
Infinite transfer costs pin compute to storage and are eliminated by
contraction, both before partitioning and before file export.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .common import INFINITE
from .gdp import ViewDag
from .workload import Workload

__all__ = [
    "GraphNode",
    "GraphEdge",
    "PartGraph",
    "PartitionAssignment",
    "table_node",
    "query_node",
    "storage_node",
    "compute_node",
    "build_dp_graph",
    "build_gdp_graph",
    "contract_infinite_edges",
]

@dataclass(frozen=True)
class GraphNode:
    id: str
    weights: tuple[int, ...]


@dataclass(frozen=True)
class GraphEdge:
    u: str
    v: str
    weight: int | float  # positive; INFINITE means "never cut"


@dataclass(frozen=True)
class PartGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]
    part_capacities: tuple[tuple[int | float, ...], ...]  # one vector per server
    warnings: tuple[str, ...] = ()

    @property
    def ncon(self) -> int:
        if self.nodes:
            return len(self.nodes[0].weights)
        if self.part_capacities:
            return len(self.part_capacities[0])
        return 1

    def has_infinite_edges(self) -> bool:
        return any(e.weight == INFINITE for e in self.edges)


@dataclass(frozen=True)
class PartitionAssignment:
    part_of: Mapping[str, int]


def table_node(table_id: str) -> str:
    return f"t:{table_id}"


def query_node(query_id: str) -> str:
    return f"q:{query_id}"


def storage_node(view_id: str) -> str:
    return f"s:{view_id}"


def compute_node(view_id: str) -> str:
    return f"c:{view_id}"


def _edge(a: str, b: str, weight: int | float) -> GraphEdge:
    return GraphEdge(a, b, weight) if a < b else GraphEdge(b, a, weight)


def _capacities(servers, with_load: bool) -> tuple[tuple[int | float, ...], ...]:
    """One capacity vector per server: storage, plus load when asked."""
    if not with_load:
        return tuple((s.storage_capacity,) for s in servers)
    return tuple(
        (s.storage_capacity, INFINITE if s.load_capacity is None else s.load_capacity)
        for s in servers
    )


def build_dp_graph(w: Workload, with_load: bool = False) -> PartGraph:
    """Bipartite query/table graph whose min-cut equals the optimal cost.

    With ``with_load`` every node carries a second weight component (the
    frequency-weighted execution cost on query nodes, 0 on table nodes)
    and every capacity vector gains the server's execution capacity.
    """
    nodes = []
    for t in w.tables:
        wv = (t.size, 0) if with_load else (t.size,)
        nodes.append(GraphNode(table_node(t.id), wv))
    for q in w.queries:
        wv = (0, q.exec_cost * q.frequency) if with_load else (0,)
        nodes.append(GraphNode(query_node(q.id), wv))
    edges = []
    for q in w.queries:
        for r in q.refs:
            weight = q.frequency * r.cost
            if weight == 0:
                continue
            edges.append(_edge(query_node(q.id), table_node(r.table), weight))
    return PartGraph(tuple(nodes), tuple(edges), _capacities(w.servers, with_load))


def build_gdp_graph(d: ViewDag, with_load: bool = False) -> PartGraph:
    """Doubled bipartite graph for view DAGs (storage and compute sides).

    Execution cost lands on the compute-side node's second weight
    component: load is incurred where the work runs.
    """
    nodes = []
    for v in d.views:
        wv = (v.size, 0) if with_load else (v.size,)
        nodes.append(GraphNode(storage_node(v.id), wv))
    for v in d.views:
        wv = (0, v.exec_cost) if with_load else (0,)
        nodes.append(GraphNode(compute_node(v.id), wv))
    edges = []
    for v in d.views:
        if v.transfer_cost == 0:
            continue
        edges.append(_edge(storage_node(v.id), compute_node(v.id), v.transfer_cost))
    for a in d.arcs:
        if a.cost == 0:
            continue
        edges.append(_edge(storage_node(a.producer), compute_node(a.consumer), a.cost))
    return PartGraph(tuple(nodes), tuple(edges), _capacities(d.servers, with_load))


def contract_infinite_edges(g: PartGraph) -> tuple[PartGraph, dict[str, str]]:
    """Merge every component connected by infinite edges into a super-node.

    Returns the contracted graph plus the merge map (original node id ->
    super-node id) used for decoding.  Finite edges between merged nodes
    disappear (they can never be cut in a finite-cost partition); finite
    parallel edges arising from merges are summed, which preserves the
    cut weight of every finite-cost partition exactly.  A merged node too
    heavy for every part yields a warning on the output graph, not an
    error: the partitioner is allowed to overload.
    """
    parent = {n.id: n.id for n in g.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        if e.weight == INFINITE:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[ru] = rv

    groups: dict[str, list[GraphNode]] = {}
    for n in g.nodes:
        groups.setdefault(find(n.id), []).append(n)
    rep = {root: min(m.id for m in members) for root, members in groups.items()}
    merge_map = {n.id: rep[find(n.id)] for n in g.nodes}

    ncon = g.ncon
    nodes = []
    emitted: set[str] = set()
    warnings = list(g.warnings)
    for n in g.nodes:
        rid = merge_map[n.id]
        if rid in emitted:
            continue
        emitted.add(rid)
        members = groups[find(n.id)]
        weights = tuple(sum(m.weights[d] for m in members) for d in range(ncon))
        nodes.append(GraphNode(rid, weights))
        if len(members) > 1 and not any(
            all(weights[d] <= cap[d] for d in range(ncon))
            for cap in g.part_capacities
        ):
            warnings.append(
                f"merged node {rid!r} (weights {weights}) exceeds every part capacity"
            )

    merged: dict[tuple[str, str], int] = {}
    for e in g.edges:
        if e.weight == INFINITE:
            continue
        u, v = merge_map[e.u], merge_map[e.v]
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0) + e.weight
    edges = tuple(GraphEdge(u, v, w) for (u, v), w in sorted(merged.items()))

    out = PartGraph(tuple(nodes), edges, g.part_capacities, tuple(warnings))
    return out, merge_map

