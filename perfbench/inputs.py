"""Input documents for the benchmark workloads, made from a seed.

Plain workloads come from placer's own generator (the documents a user
gets from ``placer gen``).  The view DAG and the partition file are made
here, because placer has no generator for them.
"""
from __future__ import annotations

import json
from random import Random

from check import node_order, query_node, table_node


def instance_seed(seed: int, k: int) -> int:
    """Generator seed of the k-th instance of a run: every instance of a
    round is drawn independently, so their run times average out."""
    return seed * 1000 + k


def workload_doc(seed: int, servers: int, size: int | None = None, capacity=None) -> str:
    """A random size x size workload, or the TPC-DS shape for size None."""
    from placer.generate import GenSpec, generate
    from placer.workload import serialize_workload

    if size is None:
        spec = GenSpec(shape="tpcds", n_servers=servers, seed=seed, server_capacity=capacity)
    else:
        spec = GenSpec(shape="random", n_tables=size, n_queries=size, n_servers=servers,
                       seed=seed, server_capacity=capacity)
    return serialize_workload(generate(spec))


def replication_doc(seed: int, servers: int = 8) -> str:
    """TPC-DS shape whose servers hold ceil(4 * total / l) + 10, so r = 2
    and r = 4 copies of every table fit."""
    total = sum(t["size"] for t in json.loads(workload_doc(seed, servers))["tables"])
    return workload_doc(seed, servers, capacity=-(-4 * total // servers) + 10)


def view_dag_doc(seed: int, servers: int = 8) -> str:
    """A TPC-DS-shaped view DAG: 7 fact and 17 dimension base tables, 12
    materialized views each joining a fact table with 1-3 dimensions, 30
    intermediate results over a fact table, view or earlier intermediate
    plus 1-2 dimensions (one in six pinned to its compute site), and 99
    queries reading 1-4 of the above.  An arc costs the size of what its
    producer ships: a stored view's size or an intermediate's result size."""
    rng = Random(seed)
    views, arcs, out = [], [], {}

    def add(vid: str, cls: str, producers: list[str], **fields) -> None:
        views.append({"id": vid, "class": cls, **fields})
        for p in producers:
            arcs.append({"consumer": vid, "producer": p, "cost": out[p]})

    facts = [f"fact{j}" for j in range(1, 8)]
    dims = [f"dim{j}" for j in range(1, 18)]
    for vid in facts + dims:
        out[vid] = rng.randint(50, 100) if vid in facts else rng.randint(1, 10)
        add(vid, "base_table", [], size=out[vid], transfer_cost="inf")
    mvs = []
    for j in range(1, 13):
        vid = f"mv{j}"
        producers = [rng.choice(facts)] + rng.sample(dims, rng.randint(1, 3))
        out[vid] = rng.randint(10, 40)
        add(vid, "materialized_view", producers, size=out[vid], transfer_cost=out[vid])
        mvs.append(vid)
    inters = []
    for j in range(1, 31):
        vid = f"im{j}"
        producers = [rng.choice(facts + mvs + inters)] + rng.sample(dims, rng.randint(1, 2))
        out[vid] = rng.randint(1, 30)
        pinned = rng.randrange(6) == 0
        add(vid, "intermediate", producers, transfer_cost="inf" if pinned else out[vid])
        inters.append(vid)
    for j in range(1, 100):
        producers = [rng.choice(facts + mvs + inters)]
        producers += rng.sample([v for v in out if v not in producers], rng.randint(0, 3))
        add(f"q{j}", "query", producers, transfer_cost="inf")
    stored = sum(v.get("size", 0) for v in views)
    capacity = max(-(-stored * 11 // (10 * servers)), max(out[v] for v in facts))
    doc = {
        "views": views,
        "arcs": arcs,
        "servers": [{"id": f"S{k}", "storage_capacity": capacity} for k in range(1, servers + 1)],
    }
    return json.dumps(doc, indent=2) + "\n"


def ffd_partition(workload: dict) -> str:
    """Pack tables first-fit decreasing into the servers' storage, and put
    each query with its heaviest reference.  Returns the partition file:
    one part per line in node order."""
    free = [s["storage_capacity"] for s in workload["servers"]]
    part_of = {}
    for t in sorted(workload["tables"], key=lambda t: (-t["size"], t["id"])):
        k = next((k for k, room in enumerate(free) if room >= t["size"]), None)
        if k is None:
            raise ValueError(f"table {t['id']} fits on no server")
        free[k] -= t["size"]
        part_of[table_node(t["id"])] = k
    for q in workload["queries"]:
        heaviest = max(q["refs"], key=lambda r: r["cost"])
        part_of[query_node(q["id"])] = part_of[table_node(heaviest["table"])]
    return "".join(f"{part_of[node]}\n" for node in node_order(workload))
