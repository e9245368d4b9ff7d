import json

import pytest
from hypothesis import given, settings, strategies as st

from placer.common import DocumentError
from placer.workload import (
    Query,
    QueryRef,
    Server,
    Table,
    Workload,
    parse_workload,
    serialize_workload,
    validate_capacity_lower_bounds,
)

from conftest import FIG2_DOC


def test_parse_fig2_counts(fig2):
    assert len(fig2.tables) == 6
    assert len(fig2.queries) == 4
    assert len(fig2.servers) == 3
    assert [t.size for t in fig2.tables] == [2, 2, 2, 2, 1, 1]


def test_parse_zero_queries():
    w = parse_workload(json.dumps({
        "tables": [{"id": "T1", "size": 3}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 3}],
    }))
    assert len(w.queries) == 0
    assert w.tables[0].size == 3


def test_dangling_reference_names_the_table():
    doc = json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [{"id": "Q1", "refs": [{"table": "T9", "cost": 1}]}],
        "servers": [],
    })
    with pytest.raises(DocumentError, match="T9"):
        parse_workload(doc)


def test_syntax_error_reports_position():
    with pytest.raises(DocumentError, match=r"line \d+"):
        parse_workload('{"tables": [,]}')


def test_duplicate_id_rejected():
    doc = json.dumps({
        "tables": [{"id": "T1", "size": 1}, {"id": "T1", "size": 2}],
        "queries": [], "servers": [],
    })
    with pytest.raises(DocumentError, match="duplicate id: 'T1'"):
        parse_workload(doc)


def test_table_and_query_share_namespace():
    doc = json.dumps({
        "tables": [{"id": "X", "size": 1}],
        "queries": [{"id": "X", "refs": [{"table": "X", "cost": 1}]}],
        "servers": [],
    })
    with pytest.raises(DocumentError, match="duplicate id"):
        parse_workload(doc)


def test_negative_quantities_rejected():
    for doc in (
        {"tables": [{"id": "T1", "size": -1}]},
        {"tables": [{"id": "T1", "size": 1}],
         "queries": [{"id": "Q1", "refs": [{"table": "T1", "cost": -2}]}]},
        {"servers": [{"id": "S1", "storage_capacity": -3}]},
    ):
        with pytest.raises(DocumentError, match="nonnegative"):
            parse_workload(json.dumps(doc))


def test_zero_frequency_rejected():
    doc = json.dumps({
        "tables": [{"id": "T1", "size": 1}],
        "queries": [{"id": "Q1", "frequency": 0,
                     "refs": [{"table": "T1", "cost": 1}]}],
        "servers": [],
    })
    with pytest.raises(DocumentError, match="frequency"):
        parse_workload(doc)


def test_defaults_materialized():
    doc = json.dumps({
        "tables": [{"id": "T1", "size": 1}, {"id": "T2", "size": 2}],
        "queries": [{"id": "Q1", "refs": [
            {"table": "T1", "cost": 3}, {"table": "T2", "cost": 4}]}],
        "servers": [{"id": "S1", "storage_capacity": 9}],
    })
    w = parse_workload(doc)
    q = w.queries[0]
    assert q.frequency == 1
    assert q.exec_cost == 7  # sum of ref costs
    assert w.servers[0].load_capacity is None


def test_overflow_rejected():
    big = 2**62
    doc = json.dumps({
        "tables": [{"id": "T1", "size": big}, {"id": "T2", "size": big}],
        "queries": [], "servers": [],
    })
    with pytest.raises(DocumentError, match="overflow"):
        parse_workload(doc)


def test_round_trip_fig2():
    w = parse_workload(FIG2_DOC)
    assert parse_workload(serialize_workload(w)) == w


def test_parse_takes_text_or_decoded_document():
    assert parse_workload(json.loads(FIG2_DOC)) == parse_workload(FIG2_DOC)


ids = st.integers(1, 30).map(lambda n: f"id{n}")


@st.composite
def workloads(draw):
    tables = draw(
        st.lists(
            st.tuples(ids, st.integers(0, 50)), min_size=1, max_size=6,
            unique_by=lambda t: t[0],
        )
    )
    tables = [Table(f"T_{name}", size) for name, size in tables]
    n_q = draw(st.integers(0, 4))
    queries = []
    for i in range(n_q):
        picks = draw(
            st.lists(
                st.sampled_from(range(len(tables))), min_size=1,
                max_size=len(tables), unique=True,
            )
        )
        refs = tuple(
            QueryRef(tables[j].id, draw(st.integers(0, 50))) for j in sorted(picks)
        )
        freq = draw(st.integers(1, 4))
        exec_cost = draw(st.one_of(st.none(), st.integers(0, 99)))
        queries.append(Query(f"Q{i}", refs, freq, exec_cost))
    n_s = draw(st.integers(0, 3))
    servers = [
        Server(
            f"S{k}", draw(st.integers(0, 200)),
            draw(st.one_of(st.none(), st.integers(0, 90))),
        )
        for k in range(n_s)
    ]
    return Workload(tuple(tables), tuple(queries), tuple(servers))


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip(w):
    assert parse_workload(serialize_workload(w)) == w


# Ids with quotes, backslashes, control and non-ASCII characters, beside
# any text at all.
texts = st.one_of(
    st.text(min_size=1),
    st.text('"\\\x00\x1f\n\x7f\u00e9\u2028\U0001f600a', min_size=1),
)


@st.composite
def any_workloads(draw):
    """Valid workloads with any ids, every optional field and possibly
    empty sections."""
    ids = draw(st.lists(texts, unique=True, max_size=10))
    n_tables = draw(st.integers(0, len(ids)))
    tables = [Table(tid, draw(st.integers(0, 2**32))) for tid in ids[:n_tables]]
    queries = []
    for qid in ids[n_tables:] if tables else ():
        picks = draw(st.lists(st.sampled_from(tables), min_size=1, unique=True))
        refs = tuple(QueryRef(t.id, draw(st.integers(0, 2**32))) for t in picks)
        frequency = draw(st.integers(1, 2**16))
        queries.append(Query(qid, refs, frequency, draw(st.none() | st.integers(0, 2**32))))
    servers = [
        Server(sid, draw(st.integers(0, 2**40)), draw(st.none() | st.integers(0, 2**40)))
        for sid in draw(st.lists(texts, unique=True, max_size=4))
    ]
    return Workload(tuple(tables), tuple(queries), tuple(servers))


def reference_document(w):
    """The workload document as a JSON value, defaulted fields omitted."""
    doc = {"tables": [{"id": t.id, "size": t.size} for t in w.tables], "queries": []}
    for q in w.queries:
        entry = {"id": q.id, "refs": [{"table": r.table, "cost": r.cost} for r in q.refs]}
        if q.frequency != 1:
            entry["frequency"] = q.frequency
        if q.exec_cost != sum(r.cost for r in q.refs):
            entry["exec_cost"] = q.exec_cost
        doc["queries"].append(entry)
    doc["servers"] = []
    for srv in w.servers:
        entry = {"id": srv.id, "storage_capacity": srv.storage_capacity}
        if srv.load_capacity is not None:
            entry["load_capacity"] = srv.load_capacity
        doc["servers"].append(entry)
    return doc


@given(any_workloads())
@settings(max_examples=300, deadline=None)
def test_serialize_is_json_dumps_byte_for_byte(w):
    text = serialize_workload(w)
    assert text == json.dumps(reference_document(w), indent=2) + "\n"
    assert parse_workload(text) == w


def test_capacity_bounds_tpcds_shape():
    # Three size-100 tables plus four of size >= 50 against 4x145: the
    # totals line up exactly, so neither cheap bound fires (the packing
    # argument is deliberately not attempted).
    tables = [Table(f"B{i}", 100) for i in range(3)]
    tables += [Table(f"M{i}", 50) for i in range(4)]
    tables += [Table("R", 580 - 300 - 200)]
    w = Workload(
        tuple(tables), (), tuple(Server(f"S{k}", 145) for k in range(4))
    )
    assert w.total_size() == 580
    assert validate_capacity_lower_bounds(w) == []


def test_capacity_bounds_largest_table():
    w = Workload(
        (Table("big", 100),), (), tuple(Server(f"S{k}", 37) for k in range(16))
    )
    notes = validate_capacity_lower_bounds(w)
    assert len(notes) == 1
    assert notes[0].startswith("largest-table")


def test_capacity_bounds_single_big_server():
    w = Workload(
        (Table("T1", 3), Table("T2", 4)), (), (Server("S1", 7),)
    )
    assert validate_capacity_lower_bounds(w) == []


def test_capacity_bounds_aggregate():
    w = Workload(
        (Table("T1", 5), Table("T2", 5)), (),
        (Server("S1", 5), Server("S2", 4)),
    )
    notes = validate_capacity_lower_bounds(w)
    assert any(n.startswith("aggregate-capacity") for n in notes)
