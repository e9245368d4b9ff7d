import json
import random
import tracemalloc

import pytest

from placer.common import DocumentError, ValidationError
from placer.gdp import parse_gdp
from placer.generate import GenSpec, generate
from placer.ip import (
    IpConstraint,
    IpModel,
    build_dp_ip,
    build_gdp_ip,
    build_replication_ip,
    lp_lines,
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
    assert [var for _, var in model.objective] == ["cut_V3_V2"]


def test_write_lp_sections():
    model = IpModel(
        "min",
        ((2, "a"), (3, "b")),
        (IpConstraint("c1", ((1, "a"), (1, "b")), "=", 1),),
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
    model = IpModel("max", ((1, "a"),), (), ("a",), ())
    assert write_lp(model).splitlines()[0] == "Maximize"


def test_lp_lines_streams(tmp_path):
    """Building the dp model and writing lp_lines to a file holds neither
    the rows nor the LP text in memory: only the variables, the objective
    and the set of row names written so far."""
    w = generate(GenSpec(shape="random", n_tables=200, n_queries=200, n_servers=16, seed=3))
    path = tmp_path / "model.lp"
    tracemalloc.start()
    try:
        model = build_dp_ip(w)
        with path.open("w") as f:
            f.writelines(lp_lines(model))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text() == write_lp(model)
    assert peak < 2.4 * size, (peak, size)


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
        ((5, "x"),),
        (IpConstraint("c2", ((-3, "x"), (1, "lam")), "<=", -1),),
        ("x",),
        ("lam",),
    )
    assert read_lp(write_lp(model)) == model


def test_model_validation():
    with pytest.raises(ValidationError, match="undeclared"):
        IpModel("min", ((1, "ghost"),), (), (), ())
    with pytest.raises(ValidationError, match="invalid variable name"):
        IpModel("min", (), (), ("bad name",), ())
    with pytest.raises(ValidationError, match="twice"):
        IpModel("min", (), (), ("x",), ("x",))
    with pytest.raises(ValidationError, match="unknown objective sense"):
        IpModel("minimize", (), (), ("x",), ())
    # A name must end at the end of the string, not before a final
    # newline: a row named "c\n" would be written as a line LP rejects.
    with pytest.raises(ValidationError, match="invalid variable name"):
        IpModel("min", ((1, "x\n"),), (), ("x\n",), ())
    with pytest.raises(ValidationError, match="invalid constraint name"):
        write_lp(IpModel("min", (), (IpConstraint("c\n", ((1, "x"),), "<=", 1),), ("x",), ()))


def _faulty_rows():
    row = IpConstraint("c", ((1, "x"),), "<=", 1)
    return [
        ("invalid constraint name", (IpConstraint("bad-name!", ((1, "x"),), "<=", 1),)),
        ("duplicate constraint name 'c'", (row, row)),
        ("bad relation '<'", (row._replace(relation="<"),)),
        ("undeclared variable 'y' in constraint 'c'",
         (row._replace(terms=((1, "x"), (2, "y"))),)),
    ]


@pytest.mark.parametrize("message, rows", _faulty_rows())
def test_rows_are_checked_as_they_are_written(message, rows):
    # A model's rows are checked where they are written, not when the
    # model is built: a builder's rows do not exist before then.
    model = IpModel("min", (), rows, ("x",), ())
    lines = lp_lines(model)
    assert next(lines) == "Minimize\n"
    with pytest.raises(ValidationError, match=message):
        list(lines)
    with pytest.raises(ValidationError, match=message):
        write_lp(model)


@pytest.mark.parametrize("message, rows", _faulty_rows())
def test_read_lp_checks_every_row(message, rows):
    # The same rows in LP text: read_lp runs the same checks.  Its
    # parser finds a row's relation among the known ones only, so an
    # unknown relation is a malformed row before the checker sees it.
    if message.startswith("bad relation"):
        message = "malformed constraint 'c'"
    body = "".join(f" {c.name}: {' + '.join(f'{k} {v}' for k, v in c.terms)} "
                   f"{c.relation} {c.rhs}\n" for c in rows)
    text = f"Minimize\n obj: 1 x\nSubject To\n{body}Binary\n x\nEnd\n"
    with pytest.raises(DocumentError, match=message):
        read_lp(text)


def test_a_row_fault_stops_the_stream_at_that_row():
    # Rows before the faulty one are written; nothing after it is.
    rows = tuple(IpConstraint(f"c{i}", ((1, "x"),), "<=", 1) for i in range(3))
    model = IpModel("min", (), rows + rows[:1], ("x",), ())
    written = []
    with pytest.raises(ValidationError, match="duplicate constraint name 'c0'"):
        written.extend(lp_lines(model))
    assert written[-1] == " c2: 1 x <= 1\n"


def test_builders_stream_rows_that_re_iterate(fig2, gdp_example):
    for model in (build_dp_ip(fig2), build_replication_ip(fig2, 2),
                  build_gdp_ip(gdp_example)):
        assert not isinstance(model.constraints, (tuple, list))
        first = tuple(model.constraints)
        assert first and tuple(model.constraints) == first
        assert model.constraints == first and first == model.constraints
