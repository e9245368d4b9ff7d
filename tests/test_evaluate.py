import json
import random

import pytest

from placer.common import INFINITE, ValidationError
from placer.evaluate import (
    Placement,
    best_site,
    decode_dp,
    decode_gdp,
    dp_cost,
    gdp_cost,
)
from placer.partition import recompute_cut
from placer.reduction import (
    build_dp_graph,
    build_gdp_graph,
    contract_infinite_edges,
)
from placer.workload import Workload, parse_workload

from conftest import GDP_EXAMPLE_PARTS
from helpers import random_workload

FIG2_PAPER_ASSIGNMENT = {
    "t:T1": 0, "t:T2": 0, "t:T4": 1, "t:T5": 1, "t:T3": 2, "t:T6": 2,
    "q:Q1": 1, "q:Q2": 2, "q:Q3": 0, "q:Q4": 1,
}


def test_decode_fig2_paper_partition(fig2):
    placement = decode_dp(FIG2_PAPER_ASSIGNMENT, fig2)
    # 0-based server indices: the second, third, first, second server
    assert placement.compute == {"Q1": 1, "Q2": 2, "Q3": 0, "Q4": 1}
    assert dp_cost(placement, fig2).total_cost == 5


def test_decode_all_in_one_part(fig2):
    a = {f"t:{t.id}": 0 for t in fig2.tables} | {f"q:{q.id}": 0 for q in fig2.queries}
    placement = decode_dp(a, fig2)
    assert set(placement.compute.values()) == {0}
    report = dp_cost(placement, fig2)
    assert report.total_cost == 0
    assert report.violations  # 10 units of tables on a 4-unit server


def test_resited_cut_equals_cost_on_random_instances():
    # Re-encoding the decoded placement (queries moved to their chosen
    # sites) must yield a cut equal to the reported total.
    rng = random.Random(31)
    for _ in range(60):
        w = random_workload(rng, max_tables=6, max_queries=5, max_servers=3)
        g = build_dp_graph(w)
        l = len(w.servers)
        assignment = {n.id: rng.randrange(l) for n in g.nodes}
        placement = decode_dp(assignment, w)
        report = dp_cost(placement, w)
        resited = {
            **{f"t:{t.id}": placement.store[t.id][0] for t in w.tables},
            **{f"q:{q.id}": placement.compute[q.id] for q in w.queries},
        }
        assert recompute_cut(g, resited) == report.total_cost
        assert recompute_cut(g, resited) <= recompute_cut(g, assignment)


def test_best_site_prefers_heavier_colocation(fig2):
    q = fig2.queries[0]  # Q1 over T1, T4, T5
    placement = Placement(
        {"T1": (0,), "T2": (0,), "T3": (1,), "T4": (0,), "T5": (1,), "T6": (1,)},
        {},
    )
    site, cost = best_site(q, placement, fig2)
    assert site == 0  # T1+T4 live there; only T5 ships
    assert cost == 1


def test_best_site_all_local():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}, {"id": "T2", "size": 1}],
        "queries": [{"id": "Q1", "refs": [
            {"table": "T1", "cost": 5}, {"table": "T2", "cost": 5}]}],
        "servers": [{"id": "S1", "storage_capacity": 2},
                     {"id": "S2", "storage_capacity": 2}],
    }))
    placement = Placement({"T1": (1,), "T2": (1,)}, {})
    assert best_site(w.queries[0], placement, w) == (1, 0)


def test_best_site_replica_zeroes_term():
    # Equal ref costs on three tables; a replica of the remote one on
    # the query's best server wipes out the residual cost.
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}, {"id": "T2", "size": 1},
                    {"id": "T3", "size": 1}],
        "queries": [{"id": "Q1", "refs": [
            {"table": "T1", "cost": 4}, {"table": "T2", "cost": 4},
            {"table": "T3", "cost": 4}]}],
        "servers": [{"id": "S1", "storage_capacity": 3},
                     {"id": "S2", "storage_capacity": 3}],
    }))
    q = w.queries[0]
    without = Placement({"T1": (0,), "T2": (0,), "T3": (1,)}, {})
    assert best_site(q, without, w) == (0, 4)
    replicated = Placement({"T1": (0,), "T2": (0,), "T3": (0, 1)}, {})
    assert best_site(q, replicated, w) == (0, 0)


def test_best_site_cost_is_frequency_weighted():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}, {"id": "T2", "size": 1}],
        "queries": [{"id": "Q1", "frequency": 4, "refs": [
            {"table": "T1", "cost": 3}, {"table": "T2", "cost": 2}]}],
        "servers": [{"id": "S1", "storage_capacity": 1},
                     {"id": "S2", "storage_capacity": 1}],
    }))
    placement = Placement({"T1": (0,), "T2": (1,)}, {})
    site, cost = best_site(w.queries[0], placement, w)
    assert (site, cost) == (0, 8)  # ships T2: 4 * 2


def test_replica_monotonicity():
    rng = random.Random(13)
    for _ in range(40):
        w = random_workload(rng, max_tables=5, max_queries=4, max_servers=3)
        if not w.queries:
            continue
        l = len(w.servers)
        store = {t.id: (rng.randrange(l),) for t in w.tables}
        placement = Placement(store, {})
        costs = {q.id: best_site(q, placement, w)[1] for q in w.queries}
        grown = {
            tid: tuple(sorted(set(copies) | {rng.randrange(l)}))
            for tid, copies in store.items()
        }
        better = Placement(grown, {})
        for q in w.queries:
            assert best_site(q, better, w)[1] <= costs[q.id]


def test_frequency_scaling_keeps_site():
    rng = random.Random(99)
    for _ in range(30):
        w = random_workload(rng, max_tables=5, max_queries=4, max_servers=3)
        l = len(w.servers)
        placement = Placement({t.id: (rng.randrange(l),) for t in w.tables}, {})
        for q in w.queries:
            site, cost = best_site(q, placement, w)
            scaled = type(q)(q.id, q.refs, q.frequency * 5, q.exec_cost)
            site2, cost2 = best_site(scaled, placement, w)
            assert site2 == site
            assert cost2 == cost * 5


def test_decode_gdp_paper_solution(gdp_example):
    placement = decode_gdp(GDP_EXAMPLE_PARTS, gdp_example)
    assert placement.compute["V5"] == 0 and placement.store["V5"] == (1,)
    assert placement.compute["V6"] == 1 and placement.store["V6"] == (0,)
    report = gdp_cost(placement, gdp_example)
    assert report.total_cost == 46
    assert not report.violations


def test_decode_gdp_single_server():
    doc = json.dumps({
        "views": [{"id": "V1", "class": "base_table", "size": 2}],
        "arcs": [],
        "servers": [{"id": "S1", "storage_capacity": 2}],
    })
    from placer.gdp import parse_gdp

    d = parse_gdp(doc)
    g = build_gdp_graph(d)
    cg, merge = contract_infinite_edges(g)
    a = {n.id: 0 for n in cg.nodes}
    placement = decode_gdp(a, d, merge)
    assert placement.compute["V1"] == 0
    assert placement.store["V1"] == (0,)


def test_uncut_infinite_edge_means_colocated(gdp_example):
    g = build_gdp_graph(gdp_example)
    cg, merge = contract_infinite_edges(g)
    a = {n.id: 0 for n in cg.nodes}
    placement = decode_gdp(a, gdp_example, merge)
    for vid in ("V1", "V2", "V3", "V4"):
        assert placement.compute[vid] in placement.store[vid]


def test_gdp_cost_everything_on_one_server(gdp_example):
    placement = Placement(
        {v.id: (0,) for v in gdp_example.views},
        {v.id: 0 for v in gdp_example.views},
    )
    report = gdp_cost(placement, gdp_example)
    assert report.total_cost == 0
    assert report.violations  # 34 units stored on an 18-unit server


def test_gdp_cost_move_v6_storage(gdp_example):
    placement = decode_gdp(GDP_EXAMPLE_PARTS, gdp_example)
    store = dict(placement.store)
    store["V6"] = (1,)
    moved = Placement(store, placement.compute)
    report = gdp_cost(moved, gdp_example)
    # Hand evaluation of the objective: arcs (V4<-V2)=5, (V5<-V1)=8,
    # (V6<-V2)=5, (V6<-V3)=4 plus V5's move 10; V6 no longer moves and
    # V7 reads it locally.
    assert report.total_cost == 32
    assert any("storage" in v for v in report.violations)


def test_gdp_cost_infinite_violation(gdp_example):
    placement = decode_gdp(GDP_EXAMPLE_PARTS, gdp_example)
    store = dict(placement.store)
    store["V1"] = (0,)  # V1 computes on S2 per the partition
    broken = Placement(store, placement.compute)
    report = gdp_cost(broken, gdp_example)
    assert report.total_cost == INFINITE
    assert any("immovable" in v for v in report.violations)


def test_load_report(fig2):
    placement = decode_dp(FIG2_PAPER_ASSIGNMENT, fig2)
    report = dp_cost(placement, fig2).per_server
    # storage usage follows the paper partition
    assert [st for st, _ in report] == [4, 3, 3]
    # exec_cost defaults to summed ref costs: Q3 runs on S1, Q1 and Q4
    # on S2, Q2 on S3
    assert [ld for _, ld in report] == [3, 7, 5]


def test_load_report_no_queries():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 2}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 2},
                     {"id": "S2", "storage_capacity": 2}],
    }))
    placement = Placement({"T1": (0,)}, {})
    assert dp_cost(placement, w).per_server == ((2, 0), (0, 0))


def test_load_report_accumulates():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [
            {"id": "Q1", "exec_cost": 3, "refs": [{"table": "T1", "cost": 1}]},
            {"id": "Q2", "exec_cost": 4, "refs": [{"table": "T1", "cost": 1}]},
        ],
        "servers": [{"id": "S1", "storage_capacity": 1},
                     {"id": "S2", "storage_capacity": 1}],
    }))
    placement = Placement({"T1": (1,)}, {"Q1": 1, "Q2": 1})
    assert dp_cost(placement, w).per_server[1] == (1, 7)


def test_unplaced_table_raises(fig2):
    with pytest.raises(ValidationError, match="not placed"):
        best_site(fig2.queries[0], Placement({}, {}), fig2)


def test_no_servers_raises_before_any_reference(fig2):
    w = Workload(fig2.tables, fig2.queries, ())
    with pytest.raises(ValidationError, match="workload has no servers"):
        best_site(fig2.queries[0], Placement({}, {}), w)


def test_decode_without_resite_needs_every_query_node(fig2):
    partial = {n: k for n, k in FIG2_PAPER_ASSIGNMENT.items() if n != "q:Q3"}
    assert decode_dp(partial, fig2).compute["Q3"] == 0
    with pytest.raises(ValidationError, match="assignment does not cover node 'q:Q3'"):
        decode_dp(partial, fig2, resite=False)
