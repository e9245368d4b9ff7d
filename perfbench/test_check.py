"""Tests of the benchmark's output checker on instances worked by hand.

    python3 -m pytest perfbench/test_check.py
"""
import copy
import math
from fractions import Fraction

import pytest

import check
from check import CheckError

# Three tables, two queries, two servers.  Q2 runs three times.
WORKLOAD = {
    "tables": [{"id": "T1", "size": 2}, {"id": "T2", "size": 2}, {"id": "T3", "size": 1}],
    "queries": [
        {"id": "Q1", "refs": [{"table": "T1", "cost": 2}, {"table": "T2", "cost": 2}]},
        {"id": "Q2", "refs": [{"table": "T2", "cost": 2}, {"table": "T3", "cost": 1}],
         "frequency": 3},
    ],
    "servers": [{"id": "S1", "storage_capacity": 4}, {"id": "S2", "storage_capacity": 4}],
}
SERVERS = ["S1", "S2"]

# T1, T2 and both queries on S1, T3 on S2.  Q1 reads nothing remote; Q2
# ships T3 (cost 1) three times: total 3.  Storage S1 = 2 + 2, S2 = 1.
# Loads are frequency x summed ref costs: Q1 4, Q2 3 x 3 = 9, both on S1.
PLACEMENT = {
    "store": {"T1": ["S1"], "T2": ["S1"], "T3": ["S2"]},
    "compute": {"Q1": "S1", "Q2": "S1"},
}
REPORT = {
    "total_cost": 3,
    "per_query": {"Q1": {"site": "S1", "cost": "0"}, "Q2": {"site": "S1", "cost": "3"}},
    "per_server": [{"id": "S1", "storage": 4, "load": 13}, {"id": "S2", "storage": 1, "load": 0}],
    "violations": [],
}


def test_hand_worked_cost():
    ev = check.evaluate_workload(WORKLOAD, PLACEMENT)
    assert ev["total"] == 3
    assert ev["storage"] == [4, 1]
    assert ev["load"] == [13, 0]
    assert not ev["exceeded"]
    check.check_report(REPORT, ev, SERVERS)
    check.check_cheapest_sites(WORKLOAD, ev)
    check.check_single_copies(ev)
    check.check_exit_code(0, ev["exceeded"])
    assert check.reference_weight(WORKLOAD) == 2 + 2 + 3 * (2 + 1)


def test_query_off_its_cheapest_server_is_caught():
    # Q2 on S2 ships T2 (cost 2) three times: 6, where S1 costs 3.
    moved = copy.deepcopy(PLACEMENT)
    moved["compute"]["Q2"] = "S2"
    ev = check.evaluate_workload(WORKLOAD, moved)
    assert ev["total"] == 6
    with pytest.raises(CheckError):
        check.check_cheapest_sites(WORKLOAD, ev)


def test_moved_table_is_caught():
    moved = copy.deepcopy(PLACEMENT)
    moved["store"]["T3"] = ["S1"]
    ev = check.evaluate_workload(WORKLOAD, moved)
    assert ev["storage"] == [5, 0] and ev["exceeded"]
    with pytest.raises(CheckError):
        check.check_report(REPORT, ev, SERVERS)
    with pytest.raises(CheckError):
        check.check_exit_code(0, ev["exceeded"])
    check.check_exit_code(2, ev["exceeded"])


def test_total_off_by_one_is_caught():
    report = dict(REPORT, total_cost=4)
    with pytest.raises(CheckError):
        check.check_report(report, check.evaluate_workload(WORKLOAD, PLACEMENT), SERVERS)


def test_missing_table_is_caught():
    dropped = copy.deepcopy(PLACEMENT)
    del dropped["store"]["T2"]
    with pytest.raises(CheckError):
        check.evaluate_workload(WORKLOAD, dropped)


def test_load_cap_from_ratio():
    # L = 13 over 2 servers, R = 3/4: floor(13 / 1.75) = 7, ceil(13 / 2) = 7.
    assert check.ratio_load_cap(WORKLOAD, Fraction(3, 4)) == 7
    assert check.ratio_load_cap(WORKLOAD, Fraction(0)) is None
    ev = check.evaluate_workload(WORKLOAD, PLACEMENT, load_cap=7)
    assert ev["exceeded"]
    with pytest.raises(CheckError):
        check.check_loads_within(ev["load"], 7, "plan")


def test_replica_counts():
    replicated = copy.deepcopy(PLACEMENT)
    replicated["store"] = {"T1": ["S1", "S2"], "T2": ["S2", "S1"], "T3": ["S1", "S2"]}
    ev = check.evaluate_workload(WORKLOAD, replicated)
    assert ev["total"] == 0
    check.check_replicas(ev, 2, 2, 2)
    check.check_replicas(ev, 1, 2, 2)
    replicated["store"]["T3"] = ["S2"]  # a dropped replica
    ev = check.evaluate_workload(WORKLOAD, replicated)
    with pytest.raises(CheckError):
        check.check_replicas(ev, 2, 2, 2)
    check.check_replicas(ev, 1, 2, 2)
    with pytest.raises(CheckError):
        check.check_single_copies(ev)


def test_cut_of_an_assignment():
    # Q2 with T3 on part 1, the rest on part 0: only Q2-T2 is cut, 3 x 2.
    part_of = {"t:T1": 0, "t:T2": 0, "t:T3": 1, "q:Q1": 0, "q:Q2": 1}
    assert check.cut(WORKLOAD, part_of) == 6
    assert check.node_order(WORKLOAD) == ["q:Q1", "q:Q2", "t:T1", "t:T2", "t:T3"]
    assert check.read_partition("0\n1\n0\n0\n1\n", check.node_order(WORKLOAD)) == part_of


# Nodes in id order q:Q1, q:Q2, t:T1, t:T2, t:T3; edges Q1-T1 2, Q1-T2 2,
# Q2-T2 6, Q2-T3 3.
GRAPH = "5 4 011 1\n0 3 2 4 2\n0 4 6 5 3\n2 1 2\n2 1 2 2 6\n1 2 3\n"


def test_graph_file():
    check.check_graph_file(GRAPH, WORKLOAD)
    with pytest.raises(CheckError):
        check.check_graph_file(GRAPH.replace("\n1 2 3\n", "\n2 2 3\n"), WORKLOAD)
    with pytest.raises(CheckError):
        check.check_graph_file(GRAPH.replace("0 4 6 5 3", "0 4 6 5 4"), WORKLOAD)


def lp_text(drop_capacity=False):
    objects = ["T1", "T2", "T3", "Q1", "Q2"]
    rows = [f" assign_{o}: 1 x_{o}_S1 + 1 x_{o}_S2 = 1" for o in objects]
    rows += [f" cap_{s}: 2 x_T1_{s} + 2 x_T2_{s} + 1 x_T3_{s} <= 4" for s in SERVERS]
    if drop_capacity:
        rows.pop()
    rows += [" lam_a: 1 x_Q1_S1 - 1 x_T1_S1 - 1 lam_Q1_T1 <= 0"]
    lams = ["lam_Q1_T1", "lam_Q1_T2", "lam_Q2_T2", "lam_Q2_T3"]
    return "\n".join(
        ["Minimize", " obj: 2 lam_Q1_T1 + 2 lam_Q1_T2 + 6 lam_Q2_T2 + 3 lam_Q2_T3",
         "Subject To", *rows, "Bounds", *(f" 0 <= {v} <= 1" for v in lams), "Binary",
         *(f" x_{o}_{s}" for o in objects for s in SERVERS), "End"]
    ) + "\n"


def test_lp_file():
    check.check_lp_file(lp_text(), WORKLOAD)
    with pytest.raises(CheckError):
        check.check_lp_file(lp_text(drop_capacity=True), WORKLOAD)
    with pytest.raises(CheckError):
        check.check_lp_file(lp_text().replace("6 lam_Q2_T2", "5 lam_Q2_T2"), WORKLOAD)


# Two base tables, a materialized view over B1, an intermediate over B2
# and a query over both; two servers of capacity 9.
DAG = {
    "views": [
        {"id": "B1", "class": "base_table", "size": 5, "transfer_cost": "inf"},
        {"id": "B2", "class": "base_table", "size": 3},
        {"id": "M1", "class": "materialized_view", "size": 4},
        {"id": "I1", "class": "intermediate", "transfer_cost": 2},
        {"id": "Q1", "class": "query"},
    ],
    "arcs": [
        {"consumer": "M1", "producer": "B1", "cost": 5},
        {"consumer": "I1", "producer": "B2", "cost": 3},
        {"consumer": "Q1", "producer": "M1", "cost": 4},
        {"consumer": "Q1", "producer": "I1", "cost": 2},
    ],
    "servers": [{"id": "S1", "storage_capacity": 9}, {"id": "S2", "storage_capacity": 9}],
}
# M1 is computed on S1 next to B1 but stored on S2; Q1 on S1 reads M1 and
# I1 from S2: arcs 4 + 2, plus M1's own transfer 4, total 10.
DAG_PLACEMENT = {
    "store": {"B1": ["S1"], "B2": ["S2"], "M1": ["S2"], "I1": ["S2"], "Q1": ["S1"]},
    "compute": {"B1": "S1", "B2": "S2", "M1": "S1", "I1": "S2", "Q1": "S1"},
}


def test_gdp_objective():
    ev = check.evaluate_gdp(DAG, DAG_PLACEMENT)
    assert ev["total"] == 10
    assert ev["storage"] == [5, 7]
    assert not ev["exceeded"]
    check.check_immovable_colocated(ev)
    assert check.gdp_weight(DAG) == (5 + 3 + 4 + 2) + (4 + 2)


def test_gdp_separated_immovable_view_is_caught():
    ev = check.evaluate_gdp(DAG, DAG_PLACEMENT, pinned=["M1"])
    assert ev["total"] == math.inf
    with pytest.raises(CheckError):
        check.check_immovable_colocated(ev)
    moved = copy.deepcopy(DAG_PLACEMENT)
    moved["compute"]["B2"] = "S1"
    with pytest.raises(CheckError):
        check.check_immovable_colocated(check.evaluate_gdp(DAG, moved))
