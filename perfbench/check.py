"""Independent recomputation of placer's outputs from the documents.

Everything here works on the JSON documents alone: the workload or view
DAG a run feeds to placer, and the placement, graph, partition and LP
files placer writes back.  Nothing is imported from placer, so a fault
in its evaluator, reduction or pipeline cannot hide itself by being
used to check its own output.

Every check raises CheckError with a one-line reason.
"""
from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


class CheckError(Exception):
    """An output disagrees with the recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- plain workloads --------------------------------------------------------

def exec_cost(query: dict) -> int:
    cost = query.get("exec_cost")
    return sum(r["cost"] for r in query["refs"]) if cost is None else cost


def reference_weight(workload: dict) -> int:
    """Cost of a placement that ships every reference: sum of frequency x cost."""
    return sum(
        q.get("frequency", 1) * r["cost"] for q in workload["queries"] for r in q["refs"]
    )


def total_load(workload: dict) -> int:
    return sum(q.get("frequency", 1) * exec_cost(q) for q in workload["queries"])


def ratio_load_cap(workload: dict, ratio: Fraction) -> int | None:
    """max(floor(L / (R + l - 1)), ceil(L / l)); None for R = 0."""
    if ratio == 0:
        return None
    load, l = total_load(workload), len(workload["servers"])
    return max(math.floor(load / (ratio + l - 1)), -(-load // l))


def _store_indices(placement: dict, ids: list[str], index: dict) -> dict:
    store = {}
    for oid in ids:
        copies = placement["store"].get(oid)
        require(bool(copies), f"{oid} is not stored")
        require(len(set(copies)) == len(copies), f"{oid} has a duplicate replica")
        for sid in copies:
            require(sid in index, f"{oid} stored on unknown server {sid!r}")
        store[oid] = {index[sid] for sid in copies}
    require(set(placement["store"]) == set(ids), "placement stores unknown objects")
    return store


def query_cost(query: dict, copies: dict, site: int) -> int:
    return query.get("frequency", 1) * sum(
        r["cost"] for r in query["refs"] if site not in copies[r["table"]]
    )


def evaluate_workload(workload: dict, placement: dict, load_cap: int | None = None) -> dict:
    """Per-query (site, cost), per-server (storage, load), total cost and
    whether any storage or load capacity is exceeded.  ``load_cap`` caps
    every server's load on top of the document's own load capacities."""
    servers = workload["servers"]
    index = {s["id"]: k for k, s in enumerate(servers)}
    tables = workload["tables"]
    copies = _store_indices(placement, [t["id"] for t in tables], index)
    storage = [0] * len(servers)
    for t in tables:
        for k in copies[t["id"]]:
            storage[k] += t["size"]
    load = [0] * len(servers)
    per_query = {}
    for q in workload["queries"]:
        sid = placement["compute"].get(q["id"])
        require(sid in index, f"query {q['id']} has no known compute site")
        site = index[sid]
        per_query[q["id"]] = (site, query_cost(q, copies, site))
        load[site] += q.get("frequency", 1) * exec_cost(q)
    require(
        set(placement["compute"]) == set(per_query), "placement computes unknown queries"
    )
    exceeded = False
    for k, s in enumerate(servers):
        caps = [s.get("load_capacity"), load_cap]
        caps = [c for c in caps if c is not None]
        if storage[k] > s["storage_capacity"] or (caps and load[k] > min(caps)):
            exceeded = True
    return {
        "copies": copies,
        "per_query": per_query,
        "storage": storage,
        "load": load,
        "total": sum(cost for _, cost in per_query.values()),
        "exceeded": exceeded,
    }


def check_report(report: dict, ev: dict, server_ids: list[str]) -> None:
    """A JSON cost report matches the recomputation line by line."""
    require(report["total_cost"] == ev["total"],
            f"reported total {report['total_cost']} != recomputed {ev['total']}")
    per_server = [(s["id"], s["storage"], s["load"]) for s in report["per_server"]]
    expect = list(zip(server_ids, ev["storage"], ev["load"]))
    require(per_server == expect, "reported per-server storage/load differ")
    got = {qid: (rec["site"], rec["cost"]) for qid, rec in report["per_query"].items()}
    want = {
        qid: (server_ids[site], str(cost)) for qid, (site, cost) in ev["per_query"].items()
    }
    require(got == want, "reported per-query sites/costs differ")
    require(bool(report["violations"]) == ev["exceeded"],
            "reported violations disagree with the recomputed capacities")


def check_exit_code(code: int, exceeded: bool) -> None:
    require(code == (2 if exceeded else 0),
            f"exit code {code} but capacity exceeded={exceeded}")


def check_cheapest_sites(workload: dict, ev: dict) -> None:
    """Every query runs on a server where its cost is minimal."""
    l = len(workload["servers"])
    for q in workload["queries"]:
        site, cost = ev["per_query"][q["id"]]
        best = min(query_cost(q, ev["copies"], k) for k in range(l))
        require(cost == best, f"query {q['id']} costs {cost} on its site, {best} elsewhere")


def check_single_copies(ev: dict) -> None:
    for oid, servers in ev["copies"].items():
        require(len(servers) == 1, f"{oid} stored {len(servers)} times")


def check_replicas(ev: dict, heuristic: int, r: int, l: int) -> None:
    """Heuristic 1: 1..r copies.  Heuristic 2: one copy per server block,
    blocks of floor(l/r) servers with the remainder in the last."""
    size = l // r
    for oid, servers in ev["copies"].items():
        if heuristic == 1:
            require(1 <= len(servers) <= r, f"{oid} has {len(servers)} replicas (r={r})")
        else:
            blocks = sorted(min(k // size, r - 1) for k in servers)
            require(blocks == list(range(r)), f"{oid} is not once per block: {sorted(servers)}")


def check_loads_within(loads, cap: int | None, what: str) -> None:
    if cap is not None:
        require(max(loads) <= cap, f"{what}: load {max(loads)} above cap {cap}")


# -- partitions and graph files ----------------------------------------------

def table_node(tid: str) -> str:
    return f"t:{tid}"


def query_node(qid: str) -> str:
    return f"q:{qid}"


def node_order(workload: dict) -> list[str]:
    """Node order of partitioner files: sorted node ids."""
    return sorted(
        [table_node(t["id"]) for t in workload["tables"]]
        + [query_node(q["id"]) for q in workload["queries"]]
    )


def cut(workload: dict, part_of: dict) -> int:
    """Cut weight of a query/table assignment: the weight of every
    reference whose query and table sit in different parts."""
    return sum(
        q.get("frequency", 1) * r["cost"]
        for q in workload["queries"]
        for r in q["refs"]
        if part_of[query_node(q["id"])] != part_of[table_node(r["table"])]
    )


def read_partition(text: str, order: list[str]) -> dict:
    lines = text.split()
    require(len(lines) == len(order), "partition file length differs from the node count")
    return {node: int(p) for node, p in zip(order, lines)}


def check_graph_file(text: str, workload: dict) -> None:
    """One node line per object in id order, node weights equal to the
    table sizes (0 for queries), edge weights summing to the reference
    weight, and the header's edge count matching the lines."""
    lines = text.splitlines()
    n, m, fmt, ncon = lines[0].split()
    order = node_order(workload)
    require(int(n) == len(order) == len(lines) - 1,
            f"graph file has {len(lines) - 1} node lines for {len(order)} objects")
    require(fmt == "011" and ncon == "1", f"graph header {lines[0]!r}")
    size = {table_node(t["id"]): t["size"] for t in workload["tables"]}
    half = 0
    degree = 0
    for node, line in zip(order, lines[1:]):
        fields = [int(x) for x in line.split()]
        require(fields[0] == size.get(node, 0), f"node {node} weight {fields[0]}")
        half += sum(fields[2::2])
        degree += len(fields[1::2])
    refs = [
        q.get("frequency", 1) * r["cost"] for q in workload["queries"] for r in q["refs"]
    ]
    require(half == 2 * sum(refs), "edge weights do not sum to the reference weight")
    require(degree == 2 * int(m) == 2 * sum(1 for w in refs if w),
            "edge count differs from the nonzero references")


def _terms(tokens: list[str]) -> list[tuple[int, str]]:
    """LP terms: "c x" first, then "+ c x" or "- c x"."""
    terms = [(int(tokens[0]), tokens[1])]
    for i in range(2, len(tokens), 3):
        sign = -1 if tokens[i] == "-" else 1
        terms.append((sign * int(tokens[i + 1]), tokens[i + 2]))
    return terms


def check_lp_file(text: str, workload: dict) -> None:
    """(tables + queries) x servers location binaries, one assignment row
    per object, one capacity row per server with the table sizes as
    coefficients, and an objective weighing each reference once."""
    l = len(workload["servers"])
    objects = len(workload["tables"]) + len(workload["queries"])
    lines = text.splitlines()
    require(lines[0] == "Minimize", "LP does not minimize")
    rows = lines[lines.index("Subject To") + 1:lines.index("Bounds")]
    binaries = {v.strip() for v in lines[lines.index("Binary") + 1:lines.index("End")]}
    require(len(binaries) == objects * l,
            f"{len(binaries)} binaries for {objects} objects x {l} servers")
    objective = _terms(lines[1].split(":", 1)[1].split())
    require(sum(c for c, _ in objective) == reference_weight(workload),
            "objective does not weigh each reference once")
    assign = 0
    capacity = []
    for line in rows:
        body = line.split(":", 1)[1].split()
        relation, rhs = body[-2], int(body[-1])
        terms = _terms(body[:-2])
        if any(c <= 0 or v not in binaries for c, v in terms):
            continue
        if relation == "=" and rhs == 1 and len(terms) == l and {c for c, _ in terms} == {1}:
            assign += 1
        elif relation == "<=":
            capacity.append((sum(c for c, _ in terms), rhs))
    require(assign == objects, f"{assign} assignment rows for {objects} objects")
    total = sum(t["size"] for t in workload["tables"])
    expect = [(total, s["storage_capacity"]) for s in workload["servers"]]
    require(capacity == expect, "capacity rows differ from the server capacities")


# -- view DAGs --------------------------------------------------------------

def _transfer(view: dict) -> float:
    raw = view.get("transfer_cost")
    if view["class"] == "base_table" or raw == "inf":
        return INF
    if raw is not None:
        return raw
    return {"query": INF, "materialized_view": view.get("size", 0)}.get(view["class"], 0)


def evaluate_gdp(dag: dict, placement: dict, pinned=()) -> dict:
    """GDP objective: arc transfers for producers stored away from the
    consumer's compute site, plus each view's own transfer cost when it
    is computed away from its storage (infinite for immovable results).
    ``pinned`` names views whose result was made immovable for the run."""
    servers = dag["servers"]
    index = {s["id"]: k for k, s in enumerate(servers)}
    views = {v["id"]: v for v in dag["views"]}
    copies = _store_indices(placement, list(views), index)
    compute = {}
    for vid in views:
        require(placement["compute"].get(vid) in index, f"view {vid} has no compute site")
        compute[vid] = index[placement["compute"][vid]]
    total = 0
    for arc in dag["arcs"]:
        if compute[arc["consumer"]] not in copies[arc["producer"]]:
            total += arc["cost"]
    immovable = set(pinned)
    for vid, v in views.items():
        if _transfer(v) == INF:
            immovable.add(vid)
        if compute[vid] not in copies[vid]:
            total += INF if vid in immovable else _transfer(v)
    storage = [0] * len(servers)
    for vid, v in views.items():
        for k in copies[vid]:
            storage[k] += v.get("size", 0)
    exceeded = any(storage[k] > s["storage_capacity"] for k, s in enumerate(servers))
    return {
        "copies": copies,
        "compute": compute,
        "immovable": immovable,
        "storage": storage,
        "total": total,
        "exceeded": exceeded,
    }


def check_immovable_colocated(ev: dict) -> None:
    for vid in ev["immovable"]:
        require(ev["compute"][vid] in ev["copies"][vid],
                f"immovable view {vid} is computed away from its storage")


def gdp_weight(dag: dict) -> int:
    """Cost of shipping every arc and every movable result."""
    movable = sum(t for t in map(_transfer, dag["views"]) if t != INF)
    return sum(a["cost"] for a in dag["arcs"]) + movable
