import json
import random

from hypothesis import given, settings, strategies as st

from placer.common import INFINITE
from placer.gdp import lift_workload, parse_gdp
from placer.reduction import (
    GraphEdge,
    GraphNode,
    PartGraph,
    build_dp_graph,
    build_gdp_graph,
    contract_infinite_edges,
)
from placer.workload import parse_workload

from helpers import brute_force_partition_cut


def edge_set(g):
    return {(e.u, e.v): e.weight for e in g.edges}


def test_fig2_graph_shape(fig2):
    g = build_dp_graph(fig2)
    assert len(g.nodes) == 10
    assert len(g.edges) == 9
    weights = {n.id: n.weights for n in g.nodes}
    assert [weights[f"t:T{j}"] for j in range(1, 7)] == [
        (2,), (2,), (2,), (2,), (1,), (1,)]
    assert all(weights[f"q:Q{i}"] == (0,) for i in range(1, 5))
    assert edge_set(g)[("q:Q4", "t:T4")] == 2
    assert g.part_capacities == ((4,), (4,), (4,))


def test_single_ref_edge_weight():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [{"id": "Q1", "refs": [{"table": "T1", "cost": 7}]}],
        "servers": [{"id": "S1", "storage_capacity": 1}],
    }))
    g = build_dp_graph(w)
    assert len(g.nodes) == 2 and len(g.edges) == 1
    assert g.edges[0].weight == 7


def test_frequency_scales_edges():
    base = {
        "tables": [{"id": "T1", "size": 1}],
        "queries": [{"id": "Q1", "refs": [{"table": "T1", "cost": 7}]}],
        "servers": [{"id": "S1", "storage_capacity": 1}],
    }
    base["queries"][0]["frequency"] = 3
    g = build_dp_graph(parse_workload(json.dumps(base)))
    assert g.edges[0].weight == 21


@given(st.integers(1, 6), st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_frequency_linearity(alpha, cost):
    # Scaling a query's frequency by an integer scales each of its edges
    # by exactly that integer.
    doc = {
        "tables": [{"id": "T1", "size": 1}, {"id": "T2", "size": 2}],
        "queries": [{"id": "Q1", "frequency": 1, "refs": [
            {"table": "T1", "cost": cost}, {"table": "T2", "cost": cost + 1}]}],
        "servers": [{"id": "S1", "storage_capacity": 3}],
    }
    g1 = build_dp_graph(parse_workload(json.dumps(doc)))
    doc["queries"][0]["frequency"] = alpha
    g2 = build_dp_graph(parse_workload(json.dumps(doc)))
    scaled = {k: w * alpha for k, w in edge_set(g1).items()}
    assert edge_set(g2) == scaled


def test_zero_cost_edges_omitted():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}, {"id": "T2", "size": 1}],
        "queries": [{"id": "Q1", "refs": [
            {"table": "T1", "cost": 0}, {"table": "T2", "cost": 4}]}],
        "servers": [{"id": "S1", "storage_capacity": 2}],
    }))
    g = build_dp_graph(w)
    assert len(g.edges) == 1


def test_with_load_weights():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 3}],
        "queries": [{"id": "Q1", "frequency": 2, "exec_cost": 5,
                     "refs": [{"table": "T1", "cost": 1}]}],
        "servers": [{"id": "S1", "storage_capacity": 3, "load_capacity": 9}],
    }))
    g = build_dp_graph(w, with_load=True)
    weights = {n.id: n.weights for n in g.nodes}
    assert weights["t:T1"] == (3, 0)
    assert weights["q:Q1"] == (0, 10)  # exec_cost x frequency
    assert g.part_capacities == ((3, 9),)


def test_unbounded_load_capacity_maps_to_infinite():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 3}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 3}],
    }))
    g = build_dp_graph(w, with_load=True)
    assert g.part_capacities == ((3, INFINITE),)


def test_gdp_example_edge_list(gdp_example):
    g = build_gdp_graph(gdp_example)
    assert len(g.nodes) == 14
    edges = edge_set(g)
    assert len(edges) == 15  # the zero-weight query edge is omitted
    for v in ("V1", "V2", "V3", "V4"):
        assert edges[(f"c:{v}", f"s:{v}")] == INFINITE
    assert edges[("c:V5", "s:V5")] == 10
    assert edges[("c:V6", "s:V6")] == 7
    assert ("c:V7", "s:V7") not in edges
    assert edges[("c:V4", "s:V1")] == 8
    assert edges[("c:V4", "s:V2")] == 5
    assert edges[("c:V5", "s:V1")] == 8
    assert edges[("c:V5", "s:V3")] == 4
    assert edges[("c:V6", "s:V2")] == 5
    assert edges[("c:V6", "s:V3")] == 4
    assert edges[("c:V7", "s:V4")] == 8
    assert edges[("c:V7", "s:V5")] == 10
    assert edges[("c:V7", "s:V6")] == 7


def test_single_base_table_gdp_graph():
    d = parse_gdp(json.dumps({
        "views": [{"id": "V1", "class": "base_table", "size": 5}],
        "arcs": [],
        "servers": [{"id": "S1", "storage_capacity": 5}],
    }))
    g = build_gdp_graph(d)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.edges[0].weight == INFINITE


def test_contract_gdp_example(gdp_example):
    g = build_gdp_graph(gdp_example)
    cg, merge = contract_infinite_edges(g)
    assert len(cg.nodes) == 10  # V1..V4 merged with their compute twins
    assert not cg.has_infinite_edges()
    for v in ("V1", "V2", "V3", "V4"):
        assert merge[f"s:{v}"] == merge[f"c:{v}"]
    for v in ("V5", "V6", "V7"):
        assert merge[f"s:{v}"] != merge[f"c:{v}"]


def test_contract_identity_without_infinite_edges(fig2):
    g = build_dp_graph(fig2)
    cg, merge = contract_infinite_edges(g)
    assert cg.nodes == g.nodes
    assert edge_set(cg) == edge_set(g)
    assert all(k == v for k, v in merge.items())


def test_contract_chain():
    nodes = tuple(
        GraphNode(f"n{i}", (i + 1,)) for i in range(3)
    )
    edges = (
        GraphEdge("n0", "n1", INFINITE),
        GraphEdge("n1", "n2", INFINITE),
    )
    g = PartGraph(nodes, edges, ((6,),))
    cg, merge = contract_infinite_edges(g)
    assert len(cg.nodes) == 1
    assert cg.nodes[0].weights == (6,)
    assert set(merge.values()) == {"n0"}


def test_contract_merges_parallel_finite_edges():
    nodes = tuple(
        GraphNode(nid, (1,)) for nid in ("a", "b", "c")
    )
    edges = (
        GraphEdge("a", "b", INFINITE),
        GraphEdge("a", "c", 3),
        GraphEdge("b", "c", 4),
    )
    g = PartGraph(nodes, edges, ((3,), (3,)))
    cg, merge = contract_infinite_edges(g)
    assert len(cg.nodes) == 2
    assert edge_set(cg) == {("a", "c"): 7}


def test_contract_warns_on_oversized_supernode():
    nodes = (
        GraphNode("a", (3,)),
        GraphNode("b", (3,)),
    )
    g = PartGraph(nodes, (GraphEdge("a", "b", INFINITE),), ((4,), (4,)))
    cg, _ = contract_infinite_edges(g)
    assert any("exceeds every part capacity" in w for w in cg.warnings)


def test_contract_preserves_finite_partition_cuts():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 6)
        nodes = tuple(
            GraphNode(f"n{i}", (rng.randint(0, 3),))
            for i in range(n)
        )
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                roll = rng.random()
                if roll < 0.25:
                    edges.append(GraphEdge(f"n{i}", f"n{j}", INFINITE))
                elif roll < 0.6:
                    edges.append(GraphEdge(f"n{i}", f"n{j}", rng.randint(1, 9)))
        total = sum(x.weights[0] for x in nodes)
        caps = ((total,), (total,))
        g = PartGraph(nodes, tuple(edges), caps)
        cg, merge = contract_infinite_edges(g)
        assert brute_force_partition_cut(g) == brute_force_partition_cut(cg)


def test_lift_then_gdp_graph_contracts_to_dp_graph(fig2):
    # After contraction, the doubled graph of the lifted workload is the
    # plain bipartite graph, weights included.
    dp = build_dp_graph(fig2)
    lifted = build_gdp_graph(lift_workload(fig2))
    cg, merge = contract_infinite_edges(lifted)
    assert len(cg.nodes) == len(dp.nodes)

    # Map contracted node -> original object id via the merge map; node
    # ids are a two-letter side prefix ("s:", "c:", "t:", "q:") on the id.
    members: dict[str, set[str]] = {}
    for nid, rid in merge.items():
        members.setdefault(rid, set()).add(nid[2:])
    relabel = {}
    for node in cg.nodes:
        ids = members[node.id]
        assert len(ids) == 1
        relabel[node.id] = ids.pop()
    dp_weights = {node.id[2:]: node.weights for node in dp.nodes}
    for node in cg.nodes:
        assert node.weights == dp_weights[relabel[node.id]]
    dp_edges = {tuple(sorted((e.u[2:], e.v[2:]))): e.weight for e in dp.edges}
    cg_edges = {
        tuple(sorted((relabel[e.u], relabel[e.v]))): e.weight for e in cg.edges
    }
    assert cg_edges == dp_edges

