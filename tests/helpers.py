"""Shared instance generators and independent brute-force references.

The enumerators here evaluate the cost definitions directly from the
domain data (no calls into the oracle or evaluation modules) so they can
serve as the other side of equality checks.  The reference refinement
recomputes each node's part connectivity from its adjacency list on
every use, and its pass scans every candidate move at every step: the
plain form of what the partitioner keeps incrementally and in a heap.
`solve_ip` is the independent reference for the integer programs: it
hands a model to scipy's HiGHS MILP solver, which shares no code with
the oracle module.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import replace
from math import erf, sqrt

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_array

from placer.common import INFINITE
from placer.partition import REFINEMENT_PASSES, _fits, _violations_of
from placer.gdp import Arc, ViewClass, ViewDag, make_view, validate_view_dag
from placer.ip import IpModel
from placer.reduction import PartGraph
from placer.workload import Query, QueryRef, Server, Table, Workload


def random_workload(
    rng: random.Random,
    max_tables: int = 8,
    max_queries: int = 6,
    max_servers: int = 3,
    max_size: int = 10,
    headroom: int = 3,
) -> Workload:
    n_t = rng.randint(1, max_tables)
    n_q = rng.randint(0, max_queries)
    l = rng.randint(1, max_servers)
    tables = [Table(f"T{j}", rng.randint(0, max_size)) for j in range(1, n_t + 1)]
    queries = []
    for i in range(1, n_q + 1):
        picked = rng.sample(range(n_t), rng.randint(1, n_t))
        refs = tuple(
            QueryRef(tables[j].id, rng.randint(0, max_size)) for j in sorted(picked)
        )
        queries.append(Query(f"Q{i}", refs, rng.choice([1, 1, 1, 2, 3])))
    total = sum(t.size for t in tables)
    largest = max(t.size for t in tables)
    base = max(largest, -(-total // l))
    servers = [
        Server(f"S{k}", base + rng.randint(0, headroom)) for k in range(1, l + 1)
    ]
    return Workload(tuple(tables), tuple(queries), tuple(servers))


def solve_ip(m: IpModel) -> tuple[int, dict[str, float]] | None:
    """Proven optimum of an integer program by HiGHS (scipy's milp, zero
    gap): (objective, {var: value}) with binaries as ints, or None when
    infeasible.  Any other outcome, a limit included, fails loudly."""
    names = m.binaries + m.bounded_reals
    col = {v: i for i, v in enumerate(names)}
    c = np.zeros(len(names))
    for t in m.objective:
        c[col[t.var]] += t.coef
    a = lil_array((len(m.constraints), len(names)))
    for r, con in enumerate(m.constraints):
        for t in con.terms:
            a[r, col[t.var]] += t.coef
    lo = [-np.inf if con.relation == "<=" else con.rhs for con in m.constraints]
    hi = [np.inf if con.relation == ">=" else con.rhs for con in m.constraints]
    sign = -1 if m.sense == "max" else 1
    res = milp(sign * c, integrality=[1] * len(m.binaries) + [0] * len(m.bounded_reals),
               bounds=Bounds(0, 1), constraints=LinearConstraint(a.tocsr(), lo, hi),
               options={"mip_rel_gap": 0})
    if res.status == 2:
        return None
    assert res.status == 0, f"HiGHS status {res.status}: {res.message}"
    objective = sign * res.fun
    assert abs(objective - round(objective)) < 1e-6, objective
    values = {v: round(x) if i < len(m.binaries) else float(x)
              for i, (v, x) in enumerate(zip(names, res.x))}
    return round(objective), values


def random_view_dag(
    rng: random.Random, max_views: int = 6, max_servers: int = 2
) -> ViewDag:
    n = rng.randint(1, max_views)
    l = rng.randint(1, max_servers)
    kinds = [
        rng.choice(
            [
                ViewClass.BASE_TABLE,
                ViewClass.QUERY,
                ViewClass.MATERIALIZED_VIEW,
                ViewClass.INTERMEDIATE,
            ]
        )
        for _ in range(n)
    ]
    views = []
    for i, kind in enumerate(kinds):
        vid = f"V{i + 1}"
        if kind in (ViewClass.BASE_TABLE, ViewClass.MATERIALIZED_VIEW):
            size = rng.randint(0, 8)
            move = None
            if kind is ViewClass.MATERIALIZED_VIEW and rng.random() < 0.4:
                move = rng.choice([0, rng.randint(0, 10), INFINITE])
            views.append(make_view(vid, kind, size, move))
        elif kind is ViewClass.QUERY:
            views.append(make_view(vid, kind, 0, rng.choice([None, 0, rng.randint(0, 10)])))
        else:
            views.append(
                make_view(vid, kind, 0, rng.choice([0, rng.randint(0, 10), INFINITE]))
            )
    arcs = []
    for i in range(n):
        if kinds[i] is ViewClass.BASE_TABLE:
            continue
        for j in range(i):
            if kinds[j] is ViewClass.QUERY:
                continue
            if rng.random() < 0.5:
                arcs.append(Arc(f"V{i + 1}", f"V{j + 1}", rng.randint(0, 10)))
    total = sum(v.size for v in views)
    largest = max([v.size for v in views] + [1])
    servers = [
        Server(f"S{k}", max(largest, -(-total // l)) + rng.randint(0, 4))
        for k in range(1, l + 1)
    ]
    d = ViewDag(tuple(views), tuple(arcs), tuple(servers))
    validate_view_dag(d)
    return d


def cut_capacities(instance, rng: random.Random):
    """The workload or view DAG with every storage capacity cut to a
    random 30-90%, so that some instances have no feasible placement."""
    servers = tuple(
        replace(s, storage_capacity=s.storage_capacity * rng.randint(3, 9) // 10)
        for s in instance.servers
    )
    return replace(instance, servers=servers)


def brute_force_placement_cost(w: Workload) -> int | None:
    """Optimal cost straight from the definition: enumerate every table
    assignment, keep the legal ones, site each query at its min-cost
    server.  None when no legal placement exists."""
    l = len(w.servers)
    if l == 0:
        return 0 if not w.tables and not w.queries else None
    best = None
    for combo in itertools.product(range(l), repeat=len(w.tables)):
        used = [0] * l
        for t, k in zip(w.tables, combo):
            used[k] += t.size
        if any(used[k] > w.servers[k].storage_capacity for k in range(l)):
            continue
        where = {t.id: k for t, k in zip(w.tables, combo)}
        cost = 0
        for q in w.queries:
            cost += q.frequency * min(
                sum(r.cost for r in q.refs if where[r.table] != k) for k in range(l)
            )
        if best is None or cost < best:
            best = cost
    return best


def brute_force_gdp_cost(d: ViewDag) -> int | None:
    """Optimal generalized cost over every (storage, computation) pair,
    straight from the objective."""
    l = len(d.servers)
    if l == 0:
        return 0 if not d.views else None
    views = d.views
    best = None
    for ss in itertools.product(range(l), repeat=len(views)):
        ssm = {v.id: ss[i] for i, v in enumerate(views)}
        used = [0] * l
        for v in views:
            used[ssm[v.id]] += v.size
        if any(used[k] > d.servers[k].storage_capacity for k in range(l)):
            continue
        for cs in itertools.product(range(l), repeat=len(views)):
            csm = {v.id: cs[i] for i, v in enumerate(views)}
            if any(
                v.transfer_cost == INFINITE and csm[v.id] != ssm[v.id] for v in views
            ):
                continue
            cost = sum(a.cost for a in d.arcs if ssm[a.producer] != csm[a.consumer])
            cost += sum(
                v.transfer_cost for v in views if csm[v.id] != ssm[v.id]
            )
            if best is None or cost < best:
                best = cost
    return best


def brute_force_partition_cut(g: PartGraph) -> int | None:
    """Minimum legal cut by enumerating every ordered partition."""
    l = len(g.part_capacities)
    nodes = sorted(g.nodes, key=lambda n: n.id)
    if l == 0:
        return 0 if not nodes else None
    ncon = g.ncon
    best = None
    index = {n.id: i for i, n in enumerate(nodes)}
    for combo in itertools.product(range(l), repeat=len(nodes)):
        used = [[0] * ncon for _ in range(l)]
        for n, k in zip(nodes, combo):
            for d in range(ncon):
                used[k][d] += n.weights[d]
        legal = all(
            g.part_capacities[k][d] == INFINITE or used[k][d] <= g.part_capacities[k][d]
            for k in range(l)
            for d in range(ncon)
        )
        if not legal:
            continue
        cut = 0
        infinite = False
        for e in g.edges:
            if combo[index[e.u]] != combo[index[e.v]]:
                if e.weight == INFINITE:
                    infinite = True
                    break
                cut += e.weight
        if infinite:
            continue
        if best is None or cut < best:
            best = cut
    return best


def truncated_floor_normal_moments(
    mean: float, stddev: float, upper: int = 4000
) -> tuple[float, float]:
    """Analytic mean and variance of floor(X) for X normal(mean, stddev)
    truncated to X >= 1; the reference for distributional sanity checks."""

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + erf((x - mean) / (stddev * sqrt(2.0))))

    tail = 1.0 - cdf(1.0)
    m1 = 0.0
    m2 = 0.0
    for k in range(1, upper + 1):
        p = (cdf(k + 1.0) - cdf(k * 1.0)) / tail
        m1 += k * p
        m2 += k * k * p
    return m1, m2 - m1 * m1


def reference_move(mesh, part, loads, u: int, to: int) -> None:
    wu, src, dst = mesh.weights[u], loads[part[u]], loads[to]
    for d in range(mesh.ncon):
        src[d] -= wu[d]
        dst[d] += wu[d]
    part[u] = to


def reference_conn(mesh, part, u: int) -> dict[int, int]:
    """Part -> summed weight of u's edges into that part."""
    conn: dict[int, int] = {}
    for v, w in mesh.adj[u]:
        pv = part[v]
        conn[pv] = conn.get(pv, 0) + w
    return conn


def reference_repair_overloads(mesh, part, loads, caps) -> bool:
    """Move nodes out of overfull parts, worst part first, best-gain move
    first (lowest node, then lowest part, on ties)."""
    l = len(caps)
    changed = False
    while True:
        violations = _violations_of(loads, caps)
        if not violations:
            break
        excess = [0] * l
        for k, _, x in violations:
            excess[k] += x
        worst_p = excess.index(max(excess))
        over_dims = [d for k, d, _ in violations if k == worst_p]
        best = None  # (gain, -u, -q)
        best_u = best_q = -1
        for u in range(mesh.n):
            if part[u] != worst_p:
                continue
            wu = mesh.weights[u]
            if not any(wu[d] > 0 for d in over_dims):
                continue
            conn = reference_conn(mesh, part, u)
            base = conn.get(worst_p, 0)
            for q in range(l):
                if q == worst_p or not _fits(loads[q], wu, caps[q]):
                    continue
                key = (conn.get(q, 0) - base, -u, -q)
                if best is None or key > best:
                    best, best_u, best_q = key, u, q
        if best is None:
            break
        reference_move(mesh, part, loads, best_u, best_q)
        changed = True
    return changed


def reference_sequence_pass(mesh, part, loads, caps) -> bool:
    """One move-sequence pass by brute force, with no heap and no stamps:
    each step scans every unlocked node and every part it has an edge
    into, with connectivity rebuilt from scratch, and makes the fitting
    move of highest (gain, -node, -part)."""
    n = mesh.n
    stall_limit = 16 + n // 32
    locked = [False] * n
    trail: list[tuple[int, int]] = []  # (node, from)
    cum_gain = 0
    best_gain = 0
    best_len = 0
    stall = 0
    while stall < stall_limit:
        best = None  # (gain, -u, -q)
        for u in range(n):
            if locked[u]:
                continue
            conn = reference_conn(mesh, part, u)
            base = conn.pop(part[u], 0)
            for q, c in conn.items():
                key = (c - base, -u, -q)
                if (best is None or key > best) and _fits(loads[q], mesh.weights[u], caps[q]):
                    best = key
        if best is None:
            break
        gain, u, q = best[0], -best[1], -best[2]
        trail.append((u, part[u]))
        reference_move(mesh, part, loads, u, q)
        locked[u] = True
        cum_gain += gain
        if cum_gain > best_gain:
            best_gain = cum_gain
            best_len = len(trail)
            stall = 0
        else:
            stall += 1
    for u, frm in reversed(trail[best_len:]):
        reference_move(mesh, part, loads, u, frm)
    return best_gain > 0


def reference_refine(mesh, part, loads, caps) -> None:
    for _ in range(REFINEMENT_PASSES):
        repaired = reference_repair_overloads(mesh, part, loads, caps)
        improved = reference_sequence_pass(mesh, part, loads, caps)
        if not improved and not repaired:
            break
