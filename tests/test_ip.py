import json
import random

import pytest

from placer.common import ValidationError
from placer.gdp import parse_gdp
from placer.ip import (
    IpConstraint,
    IpModel,
    IpTerm,
    build_dp_ip,
    build_gdp_ip,
    build_replication_ip,
    read_lp,
    write_lp,
)
from placer.oracle import optimal_gdp, optimal_placement
from placer.workload import parse_workload

from helpers import cut_capacities, random_view_dag, random_workload, solve_ip


def test_dp_ip_variable_counts(fig2):
    model = build_dp_ip(fig2)
    assert len(model.binaries) == 30  # (6 tables + 4 queries) x 3 servers
    assert len(model.bounded_reals) == 9  # one per query-table reference
    assert model.sense == "min"


def test_dp_ip_no_queries():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 1}],
    }))
    model = build_dp_ip(w)
    assert model.objective == ()
    assert all(c.name.startswith(("assign_", "cap_")) for c in model.constraints)


def test_dp_ip_matches_oracle_tiny():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [{"id": "Q1", "refs": [{"table": "T1", "cost": 7}]}],
        "servers": [{"id": "S1", "storage_capacity": 1},
                     {"id": "S2", "storage_capacity": 1}],
    }))
    best = solve_ip(read_lp(write_lp(build_dp_ip(w))))
    assert best is not None
    assert best[0] == optimal_placement(w).cost == 0


def test_dp_ip_matches_oracle_random():
    # The last 20 instances get cut capacities, so the infeasible branch
    # is compared too.
    rng = random.Random(3)
    infeasible = 0
    for i in range(45):
        w = random_workload(rng, max_tables=4, max_queries=3, max_servers=2)
        if i >= 25:
            w = cut_capacities(w, rng)
        best = solve_ip(read_lp(write_lp(build_dp_ip(w))))
        oracle = optimal_placement(w)
        if best is None:
            assert not oracle.feasible
            infeasible += 1
        else:
            assert best[0] == oracle.cost
    assert infeasible >= 10


def test_replication_ip_r1_complement_identity():
    rng = random.Random(4)
    for _ in range(15):
        w = random_workload(rng, max_tables=3, max_queries=2, max_servers=2)
        oracle = optimal_placement(w)
        best = solve_ip(read_lp(write_lp(build_replication_ip(w, 1))))
        if not oracle.feasible:
            assert best is None
            continue
        gross = sum(
            q.frequency * sum(r.cost for r in q.refs) for q in w.queries
        )
        assert best is not None
        assert best[0] == gross - oracle.cost


def test_replication_ip_forces_one_replica_per_server():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 1},
                     {"id": "S2", "storage_capacity": 1}],
    }))
    model = build_replication_ip(w, 2)
    best = solve_ip(read_lp(write_lp(model)))
    assert best is not None
    _, assignment = best
    # two replicas over two servers: exactly one on each
    assert assignment["xr1_T1_S1"] + assignment["xr1_T1_S2"] == 1
    assert assignment["xr2_T1_S1"] + assignment["xr2_T1_S2"] == 1
    assert assignment["xr1_T1_S1"] + assignment["xr2_T1_S1"] == 1


def test_replication_ip_rejects_r_above_l():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 1},
                     {"id": "S2", "storage_capacity": 1}],
    }))
    with pytest.raises(ValidationError):
        build_replication_ip(w, 3)


def test_gdp_ip_matches_oracle(gdp_example):
    best = solve_ip(read_lp(write_lp(build_gdp_ip(gdp_example))))
    assert best is not None
    assert best[0] == optimal_gdp(gdp_example).cost == 16


def test_gdp_ip_random():
    # The last 20 instances get cut capacities, so the infeasible branch
    # is compared too.
    rng = random.Random(5)
    infeasible = 0
    for i in range(35):
        d = random_view_dag(rng, max_views=4, max_servers=2)
        if i >= 15:
            d = cut_capacities(d, rng)
        best = solve_ip(read_lp(write_lp(build_gdp_ip(d))))
        oracle = optimal_gdp(d)
        if best is None:
            assert not oracle.feasible
            infeasible += 1
        else:
            assert best[0] == oracle.cost
    assert infeasible >= 5


def test_gdp_ip_single_view_single_server():
    d = parse_gdp(json.dumps({
        "views": [{"id": "V1", "class": "base_table", "size": 1}],
        "arcs": [],
        "servers": [{"id": "S1", "storage_capacity": 1}],
    }))
    best = solve_ip(read_lp(write_lp(build_gdp_ip(d))))
    assert best[0] == 0


def test_gdp_ip_all_pinned_collapses_to_site_variables():
    d = parse_gdp(json.dumps({
        "views": [
            {"id": "V1", "class": "base_table", "size": 1},
            {"id": "V2", "class": "query"},
        ],
        "arcs": [{"consumer": "V2", "producer": "V1", "cost": 3}],
        "servers": [{"id": "S1", "storage_capacity": 1},
                     {"id": "S2", "storage_capacity": 1}],
    }))
    model = build_gdp_ip(d)
    # No move indicators: every view is pinned (infinite transfer cost).
    assert not any(v.startswith("mov_") for v in model.bounded_reals)
    assert any(c.name.startswith("pin_") for c in model.constraints)


def test_gdp_ip_cost_zero_arc_has_no_cut_indicator():
    d = parse_gdp(json.dumps({
        "views": [
            {"id": "V1", "class": "base_table", "size": 1},
            {"id": "V2", "class": "base_table", "size": 1},
            {"id": "V3", "class": "query"},
        ],
        "arcs": [{"consumer": "V3", "producer": "V1", "cost": 0},
                 {"consumer": "V3", "producer": "V2", "cost": 2}],
        "servers": [{"id": "S1", "storage_capacity": 2},
                     {"id": "S2", "storage_capacity": 2}],
    }))
    model = build_gdp_ip(d)
    assert [v for v in model.bounded_reals if v.startswith("cut_")] == ["cut_V3_V2"]
    assert [t.var for t in model.objective] == ["cut_V3_V2"]


def test_write_lp_sections():
    model = IpModel(
        "min",
        (IpTerm(2, "a"), IpTerm(3, "b")),
        (IpConstraint("c1", (IpTerm(1, "a"), IpTerm(1, "b")), "=", 1),),
        ("a", "b"),
        (),
    )
    text = write_lp(model)
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert lines[1] == " obj: 2 a + 3 b"
    assert "Subject To" in lines
    assert " c1: 1 a + 1 b = 1" in lines
    assert "Binary" in lines
    assert lines[-1] == "End"


def test_write_lp_empty_objective_dummy():
    model = IpModel("min", (), (), ("a",), ())
    text = write_lp(model)
    assert " obj: 0 dummy0" in text.splitlines()
    assert " dummy0 = 0" in text.splitlines()
    assert read_lp(text) == model


def test_write_lp_maximize_header():
    model = IpModel("max", (IpTerm(1, "a"),), (), ("a",), ())
    assert write_lp(model).splitlines()[0] == "Maximize"


def test_lp_round_trip_fig2(fig2):
    model = build_dp_ip(fig2)
    assert read_lp(write_lp(model)) == model


def test_lp_round_trip_replication(fig2):
    model = build_replication_ip(fig2, 2)
    assert read_lp(write_lp(model)) == model


def test_lp_round_trip_gdp(gdp_example):
    model = build_gdp_ip(gdp_example)
    assert read_lp(write_lp(model)) == model


def test_lp_negative_coefficients_round_trip():
    model = IpModel(
        "min",
        (IpTerm(5, "x"),),
        (IpConstraint("c2", (IpTerm(-3, "x"), IpTerm(1, "lam")), "<=", -1),),
        ("x",),
        ("lam",),
    )
    assert read_lp(write_lp(model)) == model


def test_model_validation():
    with pytest.raises(ValidationError, match="undeclared"):
        IpModel("min", (IpTerm(1, "ghost"),), (), (), ())
    with pytest.raises(ValidationError, match="invalid variable name"):
        IpModel("min", (), (), ("bad name",), ())
    with pytest.raises(ValidationError, match="twice"):
        IpModel("min", (), (), ("x",), ("x",))
    with pytest.raises(ValidationError, match="invalid constraint name"):
        IpModel("min", (), (IpConstraint("bad-name!", (IpTerm(1, "x"),), "<=", 1),),
                ("x",), ())
