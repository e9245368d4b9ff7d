"""Malformed input of any kind ends in exit 1 with one line, never in a
traceback: the text readers raise DocumentError, and the command line
turns every PlacerError into exit code 1."""
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from placer.cli import main
from placer.common import DocumentError
from placer.gdp import parse_gdp
from placer.ip import read_lp, write_lp
from placer.partition import parse_graph
from placer.workload import parse_workload

from conftest import FIG2_DOC


def read_graph(text: str):
    return parse_graph(text, ((1,), (1,)))


@pytest.mark.parametrize("read, text, message", [
    (read_graph, "2 x 011 1\n1 2 1\n1 1 1\n", "invalid edge count 'x'"),
    (read_graph, "2 1 011 1\nz 2 1\n1 1 1\n", "non-integer field on node line 1: 'z 2 1'"),
    (read_graph, "2 1 011 1\n1 q 1\n1 1 1\n", "non-integer field on node line 1: '1 q 1'"),
    (read_lp, "Minimize\n obj: 1 x\nSubject To\n c1: 1 x <= abc\nEnd\n",
     "invalid right-hand side of 'c1' 'abc'"),
    # Long tokens are quoted in part, with their length.
    pytest.param(read_lp, f"Minimize\n obj: {'1' * 5001} x\nSubject To\nEnd\n",
                 f"invalid coefficient in objective '{'1' * 40}'... (5001 characters)",
                 id="read_lp-5001-digit-coefficient"),
    pytest.param(read_graph, f"2 {'1' * 5001} 011 1\n1 2 1\n1 1 1\n",
                 f"invalid edge count '{'1' * 40}'... (5001 characters)",
                 id="read_graph-5001-digit-edge-count"),
    pytest.param(read_graph, f"2 1 011 1\n{'z' * 5001} 2 1\n1 1 1\n",
                 f"non-integer field on node line 1: '{'z' * 40}'... (5005 characters)",
                 id="read_graph-5005-character-node-line"),
])
def test_non_integer_fields_are_document_errors(read, text, message):
    with pytest.raises(DocumentError, match=re.escape(message)) as info:
        read(text)
    assert len(str(info.value)) < 200


@pytest.fixture(scope="module")
def fig2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fig2.json"
    path.write_text(FIG2_DOC)
    return path


def exit_code(*argv) -> int:
    code = main([str(a) for a in argv])
    assert code in (0, 1, 2)
    return code


@settings(max_examples=60, deadline=None)
@given(
    reader=st.sampled_from(["workload", "placement", "partition"]),
    content=st.one_of(st.text(), st.binary()),
)
@example(reader="workload", content=b"\xff\xfe{")
@example(reader="placement", content=b"\xff")
@example(reader="partition", content=b"0\n\xff\n")
def test_cli_readers_take_any_file(fig2_path, reader, content):
    if isinstance(content, str):
        content = content.encode("utf-8", "surrogatepass")
    path = fig2_path.with_name(f"fuzzed.{reader}")
    path.write_bytes(content)
    out = fig2_path.with_name("out.placement.json")
    argv = {
        "workload": ["plan", path, "--out", out],
        "placement": ["cost", fig2_path, path],
        "partition": ["import-partition", fig2_path, path, "--out", out],
    }[reader]
    exit_code(*argv)


@settings(max_examples=60, deadline=None)
@given(
    option=st.sampled_from(["--slacks", "--seeds", "--min-max-ratio"]),
    value=st.text(),
)
@example(option="--slacks", value="abc")
@example(option="--slacks", value="1/0")
@example(option="--seeds", value="x")
@example(option="--seeds", value=",")
@example(option="--min-max-ratio", value="abc")
@example(option="--min-max-ratio", value="-1")
@example(option="--min-max-ratio", value="2")
def test_plan_options_take_any_string(fig2_path, option, value):
    out = fig2_path.with_name("out.placement.json")
    code = exit_code("plan", fig2_path, f"{option}={value}", "--out", out)
    if option == "--min-max-ratio" and value in ("-1", "2"):
        assert code == 1


@settings(max_examples=100, deadline=None)
@given(text=st.text())
@example(text="2 x 011 1\n")
@example(text="Minimize\nSubject To\n c: 1 x <= abc\n")
@example(text="Minimize\n obj: 1 x\nSubject To\nEnd\n")
@example(text="Minimize\n obj: 1 x\nSubject To\n c: 1 x <= 1\n c: 1 x <= 2\n"
              "Binary\n x\nEnd\n")
@example(text="Minimize\n obj: 1 x\nSubject To\nBounds\n 0 <= x <= 1\n"
              "Binary\n x\nEnd\n")
@example(text="Minimize\n obj: 1 x\nSubject To\n bad-name!: 1 x <= 1\n"
              "Binary\n x\nEnd\n")
@example(text="Minimize\n obj: " + "1" * 5001 + " x\nSubject To\nBinary\n x\nEnd\n")
def test_graph_and_lp_readers_raise_only_document_errors(text):
    # Whatever read_lp accepts, write_lp can write back.
    try:
        read_graph(text)
    except DocumentError:
        pass
    try:
        write_lp(read_lp(text))
    except DocumentError:
        pass


VIEW_IDS = ["a", "b", "c", "d"]
VIEW_CLASSES = ["base_table", "query", "materialized_view", "intermediate"]
GDP_FAULTS = [None, None, None, "duplicate view", "duplicate server", "duplicate arc",
              "unknown class", "negative size", "finite base table", "INF",
              "undefined view", "query producer"]


@st.composite
def gdp_documents(draw):
    """A GDP document of up to four views, often valid, else carrying
    one fault; random arcs also make cycles and forbidden arcs."""
    views = []
    for vid in VIEW_IDS[:draw(st.integers(0, 4))]:
        kind = draw(st.sampled_from(VIEW_CLASSES))
        view = {"id": vid, "class": kind}
        if kind in ("base_table", "materialized_view"):
            view["size"] = draw(st.integers(0, 9))
        if kind != "base_table" and draw(st.booleans()):
            view["transfer_cost"] = draw(st.one_of(st.integers(0, 9), st.just("inf")))
        views.append(view)
    ids = [v["id"] for v in views]
    consumers = [v["id"] for v in views if v["class"] != "base_table"]
    producers = [v["id"] for v in views if v["class"] != "query"]
    arcs = draw(st.lists(st.fixed_dictionaries(
        {"consumer": st.sampled_from(consumers), "producer": st.sampled_from(producers),
         "cost": st.integers(0, 9)},
    ), max_size=4, unique_by=lambda a: (a["consumer"], a["producer"]))
    ) if consumers and producers else []
    servers = [{"id": f"S{k}", "storage_capacity": draw(st.integers(0, 20))}
               for k in range(1, draw(st.integers(1, 3)) + 1)]
    fault = draw(st.sampled_from(GDP_FAULTS))
    if fault == "duplicate view" and views:
        views.append(dict(views[0]))
    elif fault == "duplicate server":
        servers.append(dict(servers[0]))
    elif fault == "unknown class" and views:
        views[-1]["class"] = "table"
    elif fault == "negative size":
        views.append({"id": "e", "class": "materialized_view", "size": -1})
    elif fault == "finite base table":
        views.append({"id": "e", "class": "base_table", "size": 1, "transfer_cost": 3})
    elif fault == "INF":
        views.append({"id": "e", "class": "intermediate", "transfer_cost": "INF"})
    elif fault == "duplicate arc" and arcs:
        arcs.append(dict(arcs[0]))
    elif fault == "undefined view" and views:
        arcs.append({"consumer": ids[0], "producer": "z", "cost": 1})
    elif fault == "query producer":
        views.append({"id": "e", "class": "query"})
        arcs.append({"consumer": "e", "producer": "e", "cost": 1})
    return {"views": views, "arcs": arcs, "servers": servers}


ONE_SERVER = [{"id": "S1", "storage_capacity": 20}]
GDP_CYCLE = {
    "views": [{"id": "a", "class": "intermediate", "transfer_cost": "inf"},
              {"id": "b", "class": "intermediate"}],
    "arcs": [{"consumer": "a", "producer": "b", "cost": 1},
             {"consumer": "b", "producer": "a", "cost": 2}],
    "servers": ONE_SERVER,
}
GDP_DUPLICATE_VIEW = {
    "views": [{"id": "a", "class": "base_table", "size": 1},
              {"id": "a", "class": "materialized_view", "size": 2}],
    "arcs": [],
    "servers": ONE_SERVER,
}
GDP_DUPLICATE_SERVER = {
    "views": [{"id": "a", "class": "base_table", "size": 1}],
    "arcs": [],
    "servers": ONE_SERVER * 2,
}
GDP_VALID = {
    "views": [{"id": "a", "class": "base_table", "size": 3},
              {"id": "b", "class": "intermediate", "transfer_cost": "inf"},
              {"id": "c", "class": "query"}],
    "arcs": [{"consumer": "b", "producer": "a", "cost": 4},
             {"consumer": "c", "producer": "b", "cost": 5}],
    "servers": ONE_SERVER + [{"id": "S2", "storage_capacity": 2}],
}


GDP_EXEC_OVERFLOW = {
    "views": [{"id": "a", "class": "base_table", "size": 3},
              {"id": "q", "class": "query", "exec_cost": 2**64}],
    "arcs": [{"consumer": "q", "producer": "a", "cost": 1}],
    "servers": ONE_SERVER,
}

GDP_STORAGE_OVERFLOW = {
    "views": [{"id": "a", "class": "base_table", "size": 3}],
    "arcs": [],
    "servers": [{"id": "S1", "storage_capacity": 2**64}],
}


def run_cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("doc, message", [
    (GDP_CYCLE, "error: cycle detected: 'a' -> 'b' -> ... (2 views)"),
    (GDP_DUPLICATE_VIEW, "error: duplicate view id: 'a'"),
    (GDP_DUPLICATE_SERVER, "error: duplicate server id: 'S1'"),
])
def test_gdp_document_errors_name_the_fault(fig2_path, doc, message):
    path = fig2_path.with_name("faulty.gdp.json")
    path.write_text(json.dumps(doc))
    for argv in (["plan", path, "--out", path.with_name("out.placement.json")],
                 ["oracle", path]):
        assert run_cli(*argv) == (1, message + "\n")


def test_gdp_exec_cost_overflow_exits_one_line(fig2_path):
    path = fig2_path.with_name("overflow.gdp.json")
    path.write_text(json.dumps(GDP_EXEC_OVERFLOW))
    out = path.with_name("overflow.out")
    message = "error: view DAG totals overflow a signed 64-bit integer\n"
    assert run_cli("plan", path, "--out", out) == (1, message)
    assert run_cli("export-graph", path, "--load", "--out", out) == (1, message)
    assert not out.exists()


def test_gdp_storage_capacity_overflow_exits_one_line(fig2_path):
    path = fig2_path.with_name("storage.gdp.json")
    path.write_text(json.dumps(GDP_STORAGE_OVERFLOW))
    out = path.with_name("storage.out")
    message = "error: view DAG totals overflow a signed 64-bit integer\n"
    assert run_cli("plan", path, "--out", out) == (1, message)
    assert run_cli("export-ip", path, "--model", "gdp", "--out", out) == (1, message)
    assert not out.exists()


@settings(max_examples=100, deadline=None)
@given(doc=gdp_documents())
@example(doc=GDP_VALID)
def test_gdp_documents_plan_or_exit_one_line(fig2_path, doc):
    # A document parse_gdp rejects makes plan and oracle exit 1 with one
    # error line; any other document plans (exit 0 or 2) and solves.
    path = fig2_path.with_name("fuzzed.gdp.json")
    path.write_text(json.dumps(doc))
    try:
        parse_gdp(path.read_text())
        valid = True
    except DocumentError:
        valid = False
    plan = run_cli("plan", path, "--out", path.with_name("out.placement.json"))
    oracle = run_cli("oracle", path)
    if valid:
        assert plan[0] in (0, 2) and plan[1] == ""
        assert oracle == (0, "")
    else:
        for code, err in (plan, oracle):
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err


HUGE_INT = "1" * 5001


@pytest.mark.parametrize("command, text", [
    ("plan", "[" * 100_000),
    ("cost", '{"a":' * 100_000),
    ("plan", '{"tables": [{"id": "T1", "size": ' + HUGE_INT + "}]}"),
    ("cost", '{"store": {"T1": [' + HUGE_INT + "]}}"),
])
def test_deeply_nested_json_is_one_error_line(fig2_path, command, text):
    # json.loads raises RecursionError, not JSONDecodeError, on nesting
    # deeper than the interpreter's recursion limit, and a plain
    # ValueError on an integer of more digits than its limit (4300).
    path = fig2_path.with_name(f"nested.{command}.json")
    path.write_text(text)
    argv = {
        "plan": ["plan", path, "--out", path.with_name("out.placement.json")],
        "cost": ["cost", fig2_path, path],
    }[command]
    message = ("integer literal longer than 4300 digits" if HUGE_INT in text
               else "document nests too deeply")
    assert run_cli(*argv) == (1, f"error: {message}\n")


WORKLOAD_FAULTS = [None, None, None, "negative size", "negative cost", "negative capacity",
                   "zero frequency", "empty refs", "non-list refs", "string integer",
                   "duplicate table", "duplicate query", "duplicate server",
                   "undefined table", "repeated table", "overflow"]


@st.composite
def workload_documents(draw):
    """A workload document of up to four tables, three queries and three
    servers, often valid, else carrying one fault."""
    tables = [{"id": f"T{j}", "size": draw(st.integers(0, 9))}
              for j in range(1, draw(st.integers(1, 4)) + 1)]
    queries = []
    for i in range(1, draw(st.integers(0, 3)) + 1):
        refs = draw(st.lists(st.sampled_from([t["id"] for t in tables]),
                             min_size=1, unique=True))
        query = {"id": f"Q{i}",
                 "refs": [{"table": t, "cost": draw(st.integers(0, 9))} for t in refs]}
        if draw(st.booleans()):
            query["frequency"] = draw(st.integers(1, 3))
        queries.append(query)
    servers = [{"id": f"S{k}", "storage_capacity": draw(st.integers(0, 20))}
               for k in range(1, draw(st.integers(1, 3)) + 1)]
    extra = {"id": "Q9", "refs": [{"table": "T1", "cost": 1}]}
    fault = draw(st.sampled_from(WORKLOAD_FAULTS))
    if fault == "negative size":
        tables[-1]["size"] = -1
    elif fault == "negative cost":
        extra["refs"][0]["cost"] = -1
    elif fault == "negative capacity":
        servers[-1]["storage_capacity"] = -1
    elif fault == "zero frequency":
        extra["frequency"] = 0
    elif fault == "empty refs":
        extra["refs"] = []
    elif fault == "non-list refs":
        extra["refs"] = extra["refs"][0]
    elif fault == "string integer":
        entry, key = draw(st.sampled_from([(tables[0], "size"), (extra["refs"][0], "cost"),
                                           (servers[0], "storage_capacity")]))
        entry[key] = str(entry[key])
    elif fault == "duplicate table":
        tables.append(dict(tables[0]))
    elif fault == "duplicate query":
        queries.append(dict(extra))
    elif fault == "duplicate server":
        servers.append(dict(servers[0]))
    elif fault == "undefined table":
        extra["refs"][0]["table"] = "T9"
    elif fault == "repeated table":
        extra["refs"].append(dict(extra["refs"][0]))
    elif fault == "overflow":
        if draw(st.booleans()):
            tables += [{"id": "T8", "size": 2**62}, {"id": "T9", "size": 2**62}]
        else:
            extra["refs"][0]["cost"] = 2**62
            extra["frequency"] = 2
    return {"tables": tables, "queries": queries + [extra], "servers": servers}


@settings(max_examples=100, deadline=None)
@given(doc=workload_documents())
def test_workload_documents_plan_or_exit_one_line(fig2_path, doc):
    # A document parse_workload rejects makes plan exit 1 with one error
    # line; any other document plans (exit 0 or 2).
    path = fig2_path.with_name("fuzzed.workload.json")
    path.write_text(json.dumps(doc))
    try:
        parse_workload(path.read_text())
        valid = True
    except DocumentError:
        valid = False
    code, err = run_cli("plan", path, "--out", path.with_name("out.placement.json"))
    if valid:
        assert code in (0, 2) and "error:" not in err
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_workload_duplicate_server_is_one_error_line(fig2_path):
    doc = json.loads(FIG2_DOC)
    doc["servers"].append(dict(doc["servers"][0]))
    path = fig2_path.with_name("duplicate-server.json")
    path.write_text(json.dumps(doc))
    assert run_cli("plan", path, "--out", path.with_name("out.placement.json")) == (
        1, f"error: duplicate server id: {doc['servers'][0]['id']!r}\n")


LONG = "x" * 5000


def _fig2_with(edit):
    doc = json.loads(FIG2_DOC)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("faulty, document", [
    pytest.param("instance", _fig2_with(lambda d: d["tables"][0].update(size="1" * 5000)),
                 id="5000-character-table-size"),
    pytest.param("instance", _fig2_with(lambda d: [t.update(id=LONG) for t in d["tables"][:2]]),
                 id="duplicated-5000-character-table-id"),
    pytest.param("instance", json.dumps({
        "views": [{"id": LONG, "class": "no-such-class"}],
        "servers": [{"id": "S1", "storage_capacity": 1}]}),
                 id="5000-character-view-id-with-bad-class"),
    pytest.param("placement", json.dumps({
        "store": {t: [LONG] for t in ("T1", "T2", "T3", "T4", "T5", "T6")},
        "compute": {}}),
                 id="5000-character-unknown-server-in-placement"),
    pytest.param("instance", json.dumps({
        "views": [{"id": LONG, "class": "intermediate"},
                  {"id": LONG.replace("x", "y"), "class": "intermediate"}],
        "arcs": [{"consumer": LONG, "producer": LONG.replace("x", "y"), "cost": 1},
                 {"consumer": LONG.replace("x", "y"), "producer": LONG, "cost": 1}],
        "servers": [{"id": "S1", "storage_capacity": 1}]}),
                 id="cycle-of-two-5000-character-view-ids"),
])
def test_long_values_give_a_short_error_line(fig2_path, faulty, document):
    # Error messages quote at most QUOTE_LIMIT characters of a value.
    path = fig2_path.with_name("long-values.json")
    path.write_text(document)
    argv = (fig2_path, path) if faulty == "placement" else (path, fig2_path)
    code, err = run_cli("cost", *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "... (5000 characters)" in err and len(err) < 200
