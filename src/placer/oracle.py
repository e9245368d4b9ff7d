"""Branch-and-bound optimal solvers for small instances.

These exist to verify: they are the ground truth for the exactness tests
of the two reductions and for partitioner quality checks.  They do not
scale past roughly a dozen objects and are not meant to.

The budget, ``OracleLimit.max_assignments``, is spent one unit per
complete assignment evaluated.  When it runs out the search stops and
returns the best assignment found so far with ``complete`` False.
"""
from __future__ import annotations

from dataclasses import dataclass

from .common import INFINITE, ValidationError
from .evaluate import Placement, site_queries
from .gdp import ViewDag
from .reduction import PartGraph, PartitionAssignment
from .workload import Workload

__all__ = [
    "OracleLimit",
    "OracleResult",
    "optimal_placement",
    "optimal_gdp",
    "optimal_partition",
]


@dataclass(frozen=True)
class OracleLimit:
    max_assignments: int = 100_000_000

    def __post_init__(self) -> None:
        if self.max_assignments < 1:
            raise ValidationError(
                f"oracle budget must be at least 1 assignment, got {self.max_assignments}"
            )


@dataclass(frozen=True)
class OracleResult:
    """`solution` is a Placement for the placement oracles and a
    PartitionAssignment for the partition oracle; None when infeasible
    or when the budget ran out before anything was found."""

    solution: object | None
    cost: int | None
    complete: bool  # search finished within budget
    feasible: bool  # at least one legal solution exists/was found


def _search(n, branch, bound, snapshot, limit: OracleLimit):
    """Depth-first branch and bound over decisions 0..n-1.

    ``branch(i)`` yields once per legal choice of decision i, with the
    choice applied, and undoes it when resumed.  ``bound(i)``, with
    decisions 0..i-1 made, never exceeds the cost of any completion and
    equals the cost at i == n.  A subtree whose bound is no better than
    the best leaf so far is pruned; the first strictly cheaper leaf wins
    and ``snapshot()`` records it.  Each leaf evaluated spends one unit
    of the budget.  Returns (cost, snapshot, complete), with cost and
    snapshot None when no leaf was evaluated.
    """
    best, kept, left = None, None, limit.max_assignments

    def dfs(i: int) -> bool:  # False once the budget is spent
        nonlocal best, kept, left
        if i == n:
            if left == 0:
                return False
            left -= 1
            cost = bound(n)
            if best is None or cost < best:
                best, kept = cost, snapshot()
            return True
        if best is not None and bound(i) >= best:
            return True
        return all(dfs(i + 1) for _ in branch(i))

    complete = dfs(0)
    return best, kept, complete


def _charge(miss, items, k: int, sign: int) -> None:
    """For each (row, cost) in items, add sign * cost to every entry of
    miss[row] except part k."""
    for i, cost in items:
        row = miss[i]
        for k2 in range(len(row)):
            if k2 != k:
                row[k2] += sign * cost


def optimal_placement(w: Workload, limit: OracleLimit = OracleLimit()) -> OracleResult:
    """Exact minimum-cost legal placement (tables to servers obeying
    storage capacities, each query sited at its cheapest server).

    Search assigns tables in descending size order and prunes with the
    partial best-site bound: the sum over queries of the cheapest cost
    counting only already-assigned references never exceeds the final
    cost.
    """
    l = len(w.servers)
    if l == 0:
        if w.tables or w.queries:
            return OracleResult(None, None, True, False)
        return OracleResult(Placement({}, {}), 0, True, True)
    order = sorted(w.tables, key=lambda t: (-t.size, t.id))
    remaining = [s.storage_capacity for s in w.servers]
    refs_by_table: dict[str, list[tuple[int, int]]] = {t.id: [] for t in w.tables}
    for qi, q in enumerate(w.queries):
        for r in q.refs:
            refs_by_table[r.table].append((qi, q.frequency * r.cost))
    miss = [[0] * l for _ in w.queries]  # cost at server k over assigned refs
    chosen = [0] * len(order)

    def branch(i: int):
        t = order[i]
        for k in range(l):
            if remaining[k] < t.size:
                continue
            remaining[k] -= t.size
            chosen[i] = k
            _charge(miss, refs_by_table[t.id], k, 1)
            yield
            _charge(miss, refs_by_table[t.id], k, -1)
            remaining[k] += t.size

    cost, assign, complete = _search(
        len(order), branch, lambda i: sum(min(row) for row in miss),
        chosen.copy, limit,
    )
    if assign is None:
        return OracleResult(None, None, complete, False)
    store = {order[i].id: (k,) for i, k in enumerate(assign)}
    return OracleResult(site_queries(store, w), cost, complete, True)


def optimal_gdp(d: ViewDag, limit: OracleLimit = OracleLimit()) -> OracleResult:
    """Exact optimum over all (computation, storage) server pairs obeying
    storage capacities.

    Only the storage side is branched on: once every producer of a view
    has a storage server, the view's cheapest computation server is
    determined independently, so leaves price computation sites by
    direct minimization.
    """
    l = len(d.servers)
    if l == 0:
        if d.views:
            return OracleResult(None, None, True, False)
        return OracleResult(Placement({}, {}), 0, True, True)
    views = list(d.views)
    order = sorted(views, key=lambda v: (-v.size, v.id))
    pos = {v.id: i for i, v in enumerate(order)}
    producers: dict[str, list[tuple[str, int]]] = {v.id: [] for v in views}
    for a in d.arcs:
        producers[a.consumer].append((a.producer, a.cost))
    remaining = [s.storage_capacity for s in d.servers]
    ss = [-1] * len(order)

    def view_contribution(v, storage_of) -> tuple[int, int]:
        """(cost, chosen compute server) for a view with all inputs stored."""
        own = storage_of[v.id]
        best_cost, best_k = None, 0
        for k in range(l):
            if v.transfer_cost == INFINITE and k != own:
                continue
            cost = 0 if k == own else v.transfer_cost
            for pid, c in producers[v.id]:
                if storage_of[pid] != k:
                    cost += c
            if best_cost is None or cost < best_cost:
                best_cost, best_k = cost, k
        return best_cost, best_k

    def bound(depth: int) -> int:
        storage_of = {order[i].id: ss[i] for i in range(depth)}
        total = 0
        for i in range(depth):
            v = order[i]
            if all(pos[pid] < depth for pid, _ in producers[v.id]):
                total += view_contribution(v, storage_of)[0]
        return total

    def branch(i: int):
        v = order[i]
        for k in range(l):
            if remaining[k] < v.size:
                continue
            remaining[k] -= v.size
            ss[i] = k
            yield
            remaining[k] += v.size

    cost, assign, complete = _search(len(order), branch, bound, ss.copy, limit)
    if assign is None:
        return OracleResult(None, None, complete, False)
    storage_of = {order[i].id: k for i, k in enumerate(assign)}
    store = {vid: (k,) for vid, k in storage_of.items()}
    compute = {v.id: view_contribution(v, storage_of)[1] for v in views}
    return OracleResult(Placement(store, compute), cost, complete, True)


def optimal_partition(g: PartGraph, limit: OracleLimit = OracleLimit()) -> OracleResult:
    """Exact minimum-cut legal ordered partition: the other side of the
    reduction-exactness equalities."""
    if g.has_infinite_edges():
        raise ValidationError("contract infinite edges before the partition oracle")
    l = len(g.part_capacities)
    if l == 0:
        if g.nodes:
            return OracleResult(None, None, True, False)
        return OracleResult(PartitionAssignment({}), 0, True, True)
    ncon = g.ncon
    order = sorted(g.nodes, key=lambda n: (-n.weights[0], n.id))
    index = {n.id: i for i, n in enumerate(order)}
    # later[u]: the edges from u to nodes assigned after it.
    later: list[list[tuple[int, int]]] = [[] for _ in order]
    for e in g.edges:
        u, v = sorted((index[e.u], index[e.v]))
        if u != v:
            later[u].append((v, e.weight))
    remaining = [list(vec) for vec in g.part_capacities]
    part = [-1] * len(order)
    # miss[u][k]: cut paid if unassigned u eventually lands in part k,
    # counting only edges to already-assigned neighbors.
    miss = [[0] * l for _ in order]
    partial = 0

    def bound(i: int) -> int:
        return partial + sum(min(miss[u]) for u in range(i, len(order)))

    def branch(i: int):
        nonlocal partial
        weights = order[i].weights
        for k in range(l):
            room = remaining[k]
            if any(
                room[d] != INFINITE and room[d] < weights[d] for d in range(ncon)
            ):
                continue
            for d in range(ncon):
                if room[d] != INFINITE:
                    room[d] -= weights[d]
            part[i] = k
            partial += miss[i][k]
            _charge(miss, later[i], k, 1)
            yield
            _charge(miss, later[i], k, -1)
            partial -= miss[i][k]
            for d in range(ncon):
                if room[d] != INFINITE:
                    room[d] += weights[d]

    cost, assign, complete = _search(len(order), branch, bound, part.copy, limit)
    if assign is None:
        return OracleResult(None, None, complete, False)
    assignment = PartitionAssignment({order[i].id: k for i, k in enumerate(assign)})
    return OracleResult(assignment, cost, complete, True)
