import json
import random

import pytest

from placer.common import INFINITE, DocumentError
from placer.evaluate import Placement, gdp_cost
from placer.gdp import (
    ViewClass,
    lift_workload,
    make_view,
    parse_gdp,
    serialize_gdp,
)
from placer.workload import parse_workload

from helpers import brute_force_gdp_cost, brute_force_placement_cost, random_workload


def test_parse_worked_example(gdp_example):
    assert len(gdp_example.views) == 7
    assert len(gdp_example.arcs) == 9
    by_id = {v.id: v for v in gdp_example.views}
    assert by_id["V1"].size == 8 and by_id["V1"].transfer_cost == INFINITE
    assert by_id["V4"].size == 0 and by_id["V4"].transfer_cost == INFINITE
    assert by_id["V5"].transfer_cost == 10
    assert by_id["V6"].transfer_cost == 7
    assert by_id["V7"].size == 0 and by_id["V7"].transfer_cost == 0


def test_degenerate_single_table():
    d = parse_gdp(json.dumps({
        "views": [{"id": "V1", "class": "base_table", "size": 5}],
        "arcs": [],
        "servers": [{"id": "S1", "storage_capacity": 5}],
    }))
    assert len(d.views) == 1 and not d.arcs


def test_cycle_reported():
    doc = json.dumps({
        "views": [
            {"id": "V1", "class": "materialized_view", "size": 1},
            {"id": "V2", "class": "materialized_view", "size": 1},
        ],
        "arcs": [
            {"consumer": "V1", "producer": "V2", "cost": 1},
            {"consumer": "V2", "producer": "V1", "cost": 1},
        ],
        "servers": [],
    })
    with pytest.raises(DocumentError, match="cycle detected"):
        parse_gdp(doc)


def test_intermediate_with_size_rejected():
    doc = json.dumps({
        "views": [{"id": "V1", "class": "intermediate", "size": 3}],
        "arcs": [], "servers": [],
    })
    with pytest.raises(DocumentError, match="intermediate"):
        parse_gdp(doc)


def test_base_table_with_finite_transfer_rejected():
    with pytest.raises(DocumentError, match="transfer_cost"):
        make_view("V1", ViewClass.BASE_TABLE, 4, 3)


def test_base_table_cannot_consume():
    doc = json.dumps({
        "views": [
            {"id": "V1", "class": "base_table", "size": 1},
            {"id": "V2", "class": "base_table", "size": 1},
        ],
        "arcs": [{"consumer": "V1", "producer": "V2", "cost": 1}],
        "servers": [],
    })
    with pytest.raises(DocumentError, match="depend"):
        parse_gdp(doc)


def test_query_cannot_produce():
    doc = json.dumps({
        "views": [
            {"id": "V1", "class": "query"},
            {"id": "V2", "class": "materialized_view", "size": 1},
        ],
        "arcs": [{"consumer": "V2", "producer": "V1", "cost": 1}],
        "servers": [],
    })
    with pytest.raises(DocumentError, match="consumers"):
        parse_gdp(doc)


def test_dangling_arc():
    doc = json.dumps({
        "views": [{"id": "V1", "class": "base_table", "size": 1}],
        "arcs": [{"consumer": "V9", "producer": "V1", "cost": 1}],
        "servers": [],
    })
    with pytest.raises(DocumentError, match="V9"):
        parse_gdp(doc)


def test_materialized_view_default_transfer_is_size():
    v = make_view("V1", ViewClass.MATERIALIZED_VIEW, 12)
    assert v.transfer_cost == 12
    pinned = make_view("V2", ViewClass.MATERIALIZED_VIEW, 12, INFINITE)
    assert pinned.transfer_cost == INFINITE


def test_round_trip_worked_example(gdp_example):
    assert parse_gdp(serialize_gdp(gdp_example)) == gdp_example


def test_round_trip_keeps_exec_cost():
    d = parse_gdp(json.dumps({
        "views": [{"id": "V1", "class": "base_table", "size": 2},
                  {"id": "V2", "class": "query", "exec_cost": 7}],
        "arcs": [{"consumer": "V2", "producer": "V1", "cost": 1}],
        "servers": [{"id": "S1", "storage_capacity": 2}],
    }))
    assert [v.exec_cost for v in d.views] == [0, 7]
    text = serialize_gdp(d)
    assert '"exec_cost": 7' in text and text.count("exec_cost") == 1
    assert parse_gdp(text) == d


def test_round_trip_keeps_load_capacity():
    d = parse_gdp(json.dumps({
        "views": [{"id": "V1", "class": "base_table", "size": 2}],
        "arcs": [],
        "servers": [{"id": "S1", "storage_capacity": 2, "load_capacity": 5}],
    }))
    text = serialize_gdp(d)
    assert '"load_capacity": 5' in text
    assert parse_gdp(text) == d


@pytest.mark.parametrize("views, arcs", [
    # Sizes, arc costs and finite transfer costs share one total.
    ([{"id": "V1", "class": "base_table", "size": 2**62},
      {"id": "V2", "class": "base_table", "size": 2**62}], []),
    ([{"id": "V1", "class": "base_table", "size": 2**62},
      {"id": "V2", "class": "query", "transfer_cost": 2**62}],
     [{"consumer": "V2", "producer": "V1", "cost": 1}]),
    # Execution costs have a total of their own.
    ([{"id": "V1", "class": "base_table", "size": 1},
      {"id": "V2", "class": "query", "exec_cost": 2**64}], []),
    ([{"id": "V1", "class": "query", "exec_cost": 2**62},
      {"id": "V2", "class": "query", "exec_cost": 2**62}], []),
])
def test_overflow_rejected(views, arcs):
    doc = {"views": views, "arcs": arcs,
           "servers": [{"id": "S1", "storage_capacity": 1}]}
    with pytest.raises(DocumentError, match="view DAG totals overflow"):
        parse_gdp(json.dumps(doc))


def test_lift_fig2(fig2):
    d = lift_workload(fig2)
    assert len(d.views) == 10
    assert len(d.arcs) == 9
    kinds = {v.kind for v in d.views}
    assert kinds == {ViewClass.BASE_TABLE, ViewClass.QUERY}


def test_lift_empty_queries():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 2}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 2}],
    }))
    d = lift_workload(w)
    assert len(d.views) == 1 and not d.arcs


def test_lift_weights_arcs_by_frequency():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 2}],
        "queries": [{"id": "Q1", "frequency": 3,
                     "refs": [{"table": "T1", "cost": 5}]}],
        "servers": [{"id": "S1", "storage_capacity": 2}],
    }))
    d = lift_workload(w)
    assert d.arcs[0].cost == 15


def test_lift_preserves_optimum_small_instances():
    rng = random.Random(42)
    for _ in range(40):
        w = random_workload(rng, max_tables=4, max_queries=3, max_servers=2)
        dp = brute_force_placement_cost(w)
        lifted = brute_force_gdp_cost(lift_workload(w))
        assert dp == lifted


def test_lift_cost_matches_definition_on_explicit_placement(fig2):
    # Evaluating the lifted instance at the placement implied by a table
    # assignment plus query sites must equal the plain-workload cost.
    d = lift_workload(fig2)
    store = {"T1": (0,), "T2": (0,), "T3": (2,), "T4": (1,), "T5": (1,), "T6": (2,)}
    compute = {"Q1": 1, "Q2": 2, "Q3": 0, "Q4": 1}
    lifted_store = dict(store)
    for qid, site in compute.items():
        lifted_store[qid] = (site,)
    lifted = Placement(lifted_store, {**{t: s[0] for t, s in store.items()}, **compute})
    report = gdp_cost(lifted, d)
    assert report.total_cost == 5  # the pictured partition's cost
