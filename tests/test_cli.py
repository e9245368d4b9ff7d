import csv
import io
import itertools
import json
import random
import re
from dataclasses import replace

import pytest

from placer import cli, pipeline
from placer.cli import main
from placer.gdp import parse_gdp, serialize_gdp
from placer.ip import IpConstraint, IpModel
from placer.partition import export_graph, partition
from placer.pipeline import graph_of

from conftest import FIG2_DOC, GDP_EXAMPLE_DOC
from helpers import random_view_dag


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(FIG2_DOC)
    return path


@pytest.fixture
def gdp_file(tmp_path):
    path = tmp_path / "views.json"
    path.write_text(GDP_EXAMPLE_DOC)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    lines = text.splitlines()
    if "timing:" in lines:
        return "\n".join(lines[: lines.index("timing:")])
    return text


def test_plan_fig2(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "placement.json"
    code, out, err = run(capsys, "plan", fig2_file, "--out", out_path)
    assert code == 0
    assert "total cost: 4" in out
    doc = json.loads(out_path.read_text())
    assert set(doc["store"]) == {f"T{j}" for j in range(1, 7)}
    assert set(doc["compute"]) == {f"Q{i}" for i in range(1, 5)}


def test_plan_report_deterministic_modulo_timing(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "placement.json"
    _, first, _ = run(capsys, "plan", fig2_file, "--out", out_path)
    _, second, _ = run(capsys, "plan", fig2_file, "--out", out_path)
    assert strip_timing(first) == strip_timing(second)
    assert first.count("timing:") == 1


def test_plan_gdp(capsys, tmp_path, gdp_file):
    out_path = tmp_path / "placement.json"
    code, out, _ = run(capsys, "plan", gdp_file, "--out", out_path)
    assert code == 0
    assert "total cost: 16" in out


def test_plan_pin_views_not_cheaper(capsys, tmp_path, gdp_file):
    out_path = tmp_path / "p.json"
    _, unpinned, _ = run(capsys, "plan", gdp_file, "--out", out_path)
    _, pinned, _ = run(capsys, "plan", gdp_file, "--pin-views", "--out", out_path)
    def cost(text):
        return int(re.search(r"total cost: (\d+)", text).group(1))
    assert cost(pinned) >= cost(unpinned)


def test_plan_exit_code_on_violations(capsys, tmp_path):
    doc = {
        "tables": [{"id": "T1", "size": 10}],
        "queries": [],
        "servers": [{"id": "S1", "storage_capacity": 3}],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", path, "--out", tmp_path / "p.json")
    assert code == 2
    assert "violations:" in out
    assert "largest-table" in err


def test_plan_json_and_csv_formats(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "p.json"
    code, out, _ = run(capsys, "plan", fig2_file, "--format", "json",
                       "--out", out_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["total_cost"] == 4
    code, out, _ = run(capsys, "plan", fig2_file, "--format", "csv",
                       "--out", out_path)
    assert out.splitlines()[0] == "query,site,cost"
    assert len(out.splitlines()) == 5


def test_plan_csv_quotes_ids(capsys, tmp_path):
    # Ids holding a comma or a quote are quoted as RFC 4180 requires, so
    # a CSV reader gets the three fields back.
    doc = {
        "tables": [{"id": "T,1", "size": 1}],
        "queries": [{"id": 'Q"1,x', "refs": [{"table": "T,1", "cost": 1}]},
                    {"id": "Q2", "refs": [{"table": "T,1", "cost": 2}]}],
        "servers": [{"id": "S,1", "storage_capacity": 1}],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "plan", path, "--format", "csv",
                       "--out", tmp_path / "p.json")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["query", "site", "cost"], ['Q"1,x', "S,1", "0"], ["Q2", "S,1", "0"]]
    assert out.splitlines()[1] == '"Q""1,x","S,1",0'


def test_plan_reports_the_winning_seed_and_v_cycles(capsys, tmp_path):
    # The seed and the V-cycle counts sit beside the slack, in the
    # deterministic part of the text report and in the JSON config list.
    from placer.generate import GenSpec, generate
    from placer.pipeline import plan_workload
    from placer.workload import serialize_workload

    w = generate(GenSpec(shape="random", n_tables=60, n_queries=60, n_servers=8, seed=4))
    path = tmp_path / "w.json"
    path.write_text(serialize_workload(w))
    result = plan_workload(w).partition
    lines = [
        f"slack used: {result.slack}",
        f"seed used: {result.seed}",
        f"v-cycles: {result.v_cycles_run} run, {result.v_cycles_improved} improved",
    ]
    assert result.v_cycles_improved > 0
    _, text, _ = run(capsys, "plan", path, "--out", tmp_path / "p.json")
    report = strip_timing(text).splitlines()
    assert report[report.index(lines[0]):][:3] == lines
    _, out, _ = run(capsys, "plan", path, "--format", "json", "--out", tmp_path / "p.json")
    config = json.loads(out)["config"]
    assert config[config.index(lines[0]):][:3] == lines


def test_cost_reevaluates_placement(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "p.json"
    run(capsys, "plan", fig2_file, "--out", out_path)
    code, out, _ = run(capsys, "cost", fig2_file, out_path)
    assert code == 0
    assert "total cost: 4" in out


def test_oracle_command(capsys, fig2_file):
    code, out, _ = run(capsys, "oracle", fig2_file)
    assert code == 0
    assert "optimal cost: 4" in out


def test_oracle_gdp(capsys, gdp_file):
    code, out, _ = run(capsys, "oracle", gdp_file)
    assert code == 0
    assert "optimal cost: 16" in out


def test_oracle_budget(capsys, gdp_file):
    code, out, err = run(capsys, "oracle", gdp_file, "--budget", "1")
    assert code == 0 and err == ""
    assert "best found (budget exceeded): 16" in out
    code, out, err = run(capsys, "oracle", gdp_file, "--budget", "0")
    assert code == 1 and out == ""
    assert err == "error: oracle budget must be at least 1 assignment, got 0\n"


@pytest.mark.parametrize("instance, optimum", [("fig2", 4), ("gdp", 16)])
def test_oracle_out_reevaluates_to_optimum(capsys, tmp_path, fig2_file, gdp_file,
                                           instance, optimum):
    path = fig2_file if instance == "fig2" else gdp_file
    out_path = tmp_path / "best.json"
    code, out, _ = run(capsys, "oracle", path, "--out", out_path)
    assert code == 0
    assert f"optimal cost: {optimum}" in out and f"placement: {out_path}" in out
    code, out, _ = run(capsys, "cost", path, out_path)
    assert code == 0
    assert f"total cost: {optimum}\n" in out


def test_gen_tpcds(capsys, tmp_path):
    out_path = tmp_path / "w.json"
    code, out, _ = run(capsys, "gen", "--shape", "tpcds", "--seed", "1",
                       "--out", out_path)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["tables"]) == 24
    assert len(doc["queries"]) == 99


def test_gen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "--shape", "random", "--tables", "30", "--queries", "20",
        "--seed", "3", "--out", a)
    run(capsys, "gen", "--shape", "random", "--tables", "30", "--queries", "20",
        "--seed", "3", "--out", b)
    assert a.read_text() == b.read_text()


def test_gen_without_out_writes_to_stdout(capsys, tmp_path):
    argv = ("gen", "--shape", "random", "--tables", "5", "--queries", "4", "--seed", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    run(capsys, *argv, "--out", tmp_path / "w.json")
    assert out == (tmp_path / "w.json").read_text()


@pytest.mark.parametrize("argv, message", [
    (("--queries", "-1"), "query count"),
    (("--tables", "0"), "at least one table"),
    (("--shape", "tpcds", "--tables", "5", "--queries", "-7"),
     "the tpcds shape has 24 tables and 99 queries, got 5 and -7"),
    (("--capacity", "-5"), "server capacity must not be negative, got -5"),
])
def test_gen_rejects_bad_counts(capsys, argv, message):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_export_graph(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "fig2.graph"
    code, out, _ = run(capsys, "export-graph", fig2_file, "--out", out_path)
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "10 9 011 1"
    assert "target fractions" in out and "warning" not in out


def test_export_graph_contracts_view_dag(capsys, tmp_path, gdp_file):
    # The base tables V1-V3 and the pinned intermediate V4 contract to
    # one node each, and V5-V7 keep both sides: 10 nodes of 14.
    out_path = tmp_path / "views.graph"
    code, _, err = run(capsys, "export-graph", gdp_file, "--out", out_path)
    assert code == 0 and err == ""
    assert out_path.read_text().splitlines()[0] == "10 11 011 1"


def test_export_graph_load_without_load_capacities_splits_load_evenly(capsys, tmp_path):
    doc = json.loads(FIG2_DOC)
    for server, capacity in zip(doc["servers"], (2, 4, 6)):
        server["storage_capacity"] = capacity
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "export-graph", path, "--load", "--out", tmp_path / "w.graph")
    assert code == 0
    # Per part: storage fraction, then load fraction.
    assert "target fractions per part: 1/6/1/3 1/3/1/3 1/2/1/3\n" in out


def test_import_partition_round_trip(capsys, tmp_path, fig2_file):
    graph_path = tmp_path / "fig2.graph"
    run(capsys, "export-graph", fig2_file, "--out", graph_path)
    n = int(graph_path.read_text().split()[0])
    part_path = tmp_path / "fig2.part"
    part_path.write_text("\n".join("0" for _ in range(n)) + "\n")
    code, out, _ = run(capsys, "import-partition", fig2_file, part_path,
                       "--out", tmp_path / "p.json")
    assert code == 2  # everything on one server: storage violation
    assert "total cost: 0" in out


def test_import_partition_load_keeps_query_sites(capsys, tmp_path, fig2_file):
    # Graph node order is q:Q1..q:Q4, then t:T1..t:T6.  Every table goes
    # to S1 and Q1 to S2, away from its cheapest server.  --load keeps
    # the sites the partition gives; without it queries are re-sited.
    part_path = tmp_path / "fig2.part"
    part_path.write_text("1\n0\n0\n0\n" + "0\n" * 6)
    sites = {}
    for flags in ((), ("--load",)):
        out_path = tmp_path / "p.json"
        code, _, _ = run(capsys, "import-partition", fig2_file, part_path, *flags,
                         "--out", out_path)
        assert code == 2  # every table on S1: storage violation
        sites[flags] = json.loads(out_path.read_text())["compute"]["Q1"]
    assert sites == {(): "S1", ("--load",): "S2"}


def test_import_partition_gdp(capsys, tmp_path, gdp_file):
    # Node order is c:V1..c:V7 (V1-V4 with their storage sides merged
    # in), then s:V5, s:V6, s:V7.  Both sides of V1, V4 and V5 go to S1,
    # the rest to S2.
    part_path = tmp_path / "views.part"
    part_path.write_text("\n".join("0 1 1 0 0 1 1 0 1 1".split()) + "\n")
    out_path = tmp_path / "p.json"
    code, out, _ = run(capsys, "import-partition", gdp_file, part_path,
                       "--out", out_path)
    assert code == 0
    assert "total cost: 27" in out  # arcs V4<-V2, V5<-V3, V7<-V4, V7<-V5
    doc = json.loads(out_path.read_text())
    assert doc["compute"]["V7"] == "S2" and doc["store"]["V5"] == ["S1"]


# A base table (size 20) larger than either server (18): the contracted
# graph warns about it wherever it is built.
OVERSIZED_BASE_DOC = json.dumps({
    "views": [{"id": "V1", "class": "base_table", "size": 20},
              {"id": "V2", "class": "query"}],
    "arcs": [{"consumer": "V2", "producer": "V1", "cost": 3}],
    "servers": [{"id": "S1", "storage_capacity": 18},
                {"id": "S2", "storage_capacity": 18}],
})
OVERSIZED_WARNING = "warning: merged node 'c:V1' (weights (20,)) exceeds every part capacity"


def test_plan_export_graph_and_import_partition_print_graph_warnings(capsys, tmp_path):
    path = tmp_path / "oversized.json"
    path.write_text(OVERSIZED_BASE_DOC)
    code, out, _ = run(capsys, "plan", path, "--out", tmp_path / "p.json")
    assert code == 2 and OVERSIZED_WARNING in out.splitlines()
    graph_path = tmp_path / "oversized.graph"
    code, out, _ = run(capsys, "export-graph", path, "--out", graph_path)
    assert code == 0 and OVERSIZED_WARNING in out.splitlines()
    n = int(graph_path.read_text().split()[0])
    part_path = tmp_path / "oversized.part"
    part_path.write_text("0\n" * n)
    code, out, _ = run(capsys, "import-partition", path, part_path,
                       "--out", tmp_path / "p.json")
    assert code == 2 and OVERSIZED_WARNING in out.splitlines()
    code, out, _ = run(capsys, "import-partition", path, part_path,
                       "--format", "json", "--out", tmp_path / "p.json")
    assert OVERSIZED_WARNING in json.loads(out)["notes"]


def _import_all(capsys, tmp_path, instance_path, rows):
    """import-partition of each part file (one row of parts per file)
    against the graph export-graph writes: the JSON report of each."""
    graph_path = tmp_path / "instance.graph"
    assert run(capsys, "export-graph", instance_path, "--out", graph_path)[0] == 0
    n = int(graph_path.read_text().split()[0])
    part_path = tmp_path / "instance.part"
    reports = []
    for parts in rows:
        assert len(parts) == n
        part_path.write_text("".join(f"{p}\n" for p in parts))
        code, out, _ = run(capsys, "import-partition", instance_path, part_path,
                           "--format", "json", "--out", tmp_path / "p.json")
        assert code in (0, 2)
        reports.append(json.loads(out))
    return reports


def _keeps_pinned_views_whole(report):
    return report["total_cost"] is not None and not any(
        "immovable" in v for v in report["violations"])


def test_every_partition_of_an_exported_view_dag_is_finite(capsys, tmp_path, gdp_file):
    rows = list(itertools.product((0, 1), repeat=10))
    reports = _import_all(capsys, tmp_path, gdp_file, rows)
    assert all(_keeps_pinned_views_whole(r) for r in reports)
    # The best placement within capacity is the oracle's optimum.
    assert min(r["total_cost"] for r in reports if not r["violations"]) == 16


def test_random_partitions_of_exported_view_dags_are_finite(capsys, tmp_path):
    rng = random.Random(21)
    for _ in range(30):
        d = random_view_dag(rng, max_views=8, max_servers=3)
        path = tmp_path / "dag.json"
        path.write_text(serialize_gdp(d))
        n = len(graph_of(d)[0].nodes)
        rows = [[rng.randrange(len(d.servers)) for _ in range(n)] for _ in range(8)]
        assert all(_keeps_pinned_views_whole(r)
                   for r in _import_all(capsys, tmp_path, path, rows))


@pytest.mark.parametrize("load", [False, True])
def test_export_graph_writes_the_graph_plan_partitions(capsys, tmp_path, monkeypatch, load):
    partitioned = []

    def record(graph, cfg=None):
        partitioned.append(graph)
        return partition(graph, cfg)

    monkeypatch.setattr(pipeline, "partition", record)
    rng = random.Random(22)
    dags = [parse_gdp(GDP_EXAMPLE_DOC)] + [random_view_dag(rng) for _ in range(10)]
    flags = ["--load"] if load else []
    for d in dags:
        path = tmp_path / "dag.json"
        path.write_text(serialize_gdp(d))
        run(capsys, "export-graph", path, *flags, "--out", tmp_path / "dag.graph")
        pipeline.plan_view_dag(d, with_load=load)
        assert (tmp_path / "dag.graph").read_text() == export_graph(partitioned[-1])


def test_export_ip_dp(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "fig2.lp"
    out_path.write_text("an earlier model\n")
    code, out, _ = run(capsys, "export-ip", fig2_file, "--out", out_path)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("Minimize")
    assert "Binary" in text
    # The finished file replaced the earlier one; no temporary file stays.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.json", "fig2.lp"]


def test_export_ip_replication(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "fig2.lp"
    code, _, _ = run(capsys, "export-ip", fig2_file, "--model", "replication",
                     "--replication", "2", "--out", out_path)
    assert code == 0
    assert out_path.read_text().startswith("Maximize")


def test_export_ip_rejects_replication_zero(capsys, tmp_path, fig2_file):
    code, out, err = run(capsys, "export-ip", fig2_file, "--model", "replication",
                         "--replication", "0", "--out", tmp_path / "x.lp")
    assert code == 1 and out == ""
    assert err == "error: replication factor must be >= 1\n"
    assert not (tmp_path / "x.lp").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.json"]


def test_export_ip_rejects_replication_above_server_count(capsys, tmp_path, fig2_file):
    code, out, err = run(capsys, "export-ip", fig2_file, "--model", "replication",
                         "--replication", "4", "--out", tmp_path / "x.lp")
    assert code == 1 and out == ""
    assert err == "error: replication factor 4 exceeds 3 servers\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.json"]


def _failing_mid_stream(w):
    # Enough valid rows to fill the write buffer several times, then a
    # duplicate row name: a fault lp_lines meets only while writing.
    rows = tuple(IpConstraint(f"c{i}", ((1, "x"),), "<=", 1) for i in range(5000))
    return IpModel("min", (), rows + rows[:1], ("x",), ())


@pytest.mark.parametrize("existing", [None, "an earlier model\n"])
def test_export_ip_leaves_no_partial_file(capsys, tmp_path, fig2_file, monkeypatch,
                                          existing):
    monkeypatch.setattr(cli, "build_dp_ip", _failing_mid_stream)
    out_path = tmp_path / "fig2.lp"
    if existing is not None:
        out_path.write_text(existing)
    code, out, err = run(capsys, "export-ip", fig2_file, "--out", out_path)
    assert code == 1 and out == ""
    assert err == "error: duplicate constraint name 'c0'\n"
    if existing is None:
        assert not out_path.exists()
    else:
        assert out_path.read_text() == existing
    expected = ["fig2.json"] + ([] if existing is None else ["fig2.lp"])
    assert sorted(p.name for p in tmp_path.iterdir()) == expected


def test_export_ip_gdp(capsys, tmp_path, gdp_file):
    out_path = tmp_path / "views.lp"
    code, _, _ = run(capsys, "export-ip", gdp_file, "--model", "gdp",
                     "--out", out_path)
    assert code == 0
    assert "pin_V1_S1" in out_path.read_text()


@pytest.mark.parametrize("instance, model, message", [
    ("fig2", "gdp", "gdp model needs a GDP document"),
    ("gdp", "dp", "dp model needs a plain workload"),
    ("gdp", "replication", "replication model needs a plain workload"),
])
def test_export_ip_rejects_model_of_other_document(capsys, tmp_path, fig2_file,
                                                   gdp_file, instance, model, message):
    path = fig2_file if instance == "fig2" else gdp_file
    code, out, err = run(capsys, "export-ip", path, "--model", model,
                         "--out", tmp_path / "x.lp")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "x.lp").exists()


@pytest.mark.parametrize("model", ["dp", "gdp"])
def test_export_ip_rejects_replication_for_other_models(capsys, tmp_path, fig2_file,
                                                        gdp_file, model):
    path = gdp_file if model == "gdp" else fig2_file
    code, out, err = run(capsys, "export-ip", path, "--model", model,
                         "--replication", "3", "--out", tmp_path / "x.lp")
    assert code == 1 and out == ""
    assert err == "error: --replication applies to --model replication only\n"
    assert not (tmp_path / "x.lp").exists()


LOAD_NOTE = "note: servers declare load_capacity, which "
WITHOUT_LOAD = "is ignored without --load"


@pytest.mark.parametrize("argv, clause", [
    (["plan", "W", "--out", "OUT"], WITHOUT_LOAD),
    (["plan", "W", "--load", "--out", "OUT"], None),
    (["plan", "W", "--min-max-ratio", "0.5", "--out", "OUT"], None),
    (["export-graph", "W", "--out", "OUT"], WITHOUT_LOAD),
    (["export-graph", "W", "--load", "--out", "OUT"], None),
    (["import-partition", "W", "PARTITION", "--out", "OUT"], WITHOUT_LOAD),
    (["import-partition", "W", "PARTITION", "--load", "--out", "OUT"], None),
    (["oracle", "W", "--out", "OUT"],
     "oracle ignores: its optimum respects storage capacities only"),
    (["replicate", "W", "--replication", "2", "--out", "OUT"],
     "replicate ignores: neither heuristic balances load"),
])
def test_ignored_load_capacity_is_noted(capsys, tmp_path, argv, clause):
    doc = json.loads(FIG2_DOC)
    for server in doc["servers"]:
        server["load_capacity"] = 100
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    partition = tmp_path / "w.part"
    partition.write_text("0\n1\n2\n" * 3 + "0\n")
    files = {"W": path, "PARTITION": partition, "OUT": tmp_path / "out"}
    code, _, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code in (0, 2)
    notes = [line for line in err.splitlines() if line.startswith(LOAD_NOTE)]
    assert notes == ([] if clause is None else [LOAD_NOTE + clause])


def test_cost_without_compute_section_charges_cheapest_server(capsys, tmp_path,
                                                              fig2_file):
    out_path = tmp_path / "p.json"
    run(capsys, "plan", fig2_file, "--out", out_path)
    doc = json.loads(out_path.read_text())
    store_only = tmp_path / "store.json"
    store_only.write_text(json.dumps({"store": doc["store"]}))
    _, planned, _ = run(capsys, "cost", fig2_file, out_path)
    code, out, _ = run(capsys, "cost", fig2_file, store_only)
    assert code == 0
    assert "total cost: 4" in out
    assert out.replace(str(store_only), "") == planned.replace(str(out_path), "")


def test_replicate_prints_warnings_as_notes(capsys, tmp_path):
    # Unequal servers that, halved for r=2, hold neither the largest
    # table nor one copy of every table.
    doc = json.loads(FIG2_DOC)
    for server, cap in zip(doc["servers"], (3, 2, 1)):
        server["storage_capacity"] = cap
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "replicate", path, "--replication", "2",
                       "--heuristic", "1", "--out", tmp_path / "p.json")
    assert code == 2
    assert all(line.startswith("note: heuristic 1: ") for line in err.splitlines()), err
    assert ".py" not in err
    assert all(kind in err for kind in ("unequal", "largest-table", "aggregate-capacity"))


def test_replicate_rejects_view_dag(capsys, tmp_path, gdp_file):
    code, out, err = run(capsys, "replicate", gdp_file, "--replication", "1",
                         "--out", tmp_path / "p.json")
    assert code == 1 and out == ""
    assert err == "error: replicate needs a plain workload\n"
    assert not (tmp_path / "p.json").exists()


def test_replicate_seed_applies_to_heuristic_1_only(capsys, tmp_path, fig2_file):
    out_path = tmp_path / "p.json"
    code, out, err = run(capsys, "replicate", fig2_file, "--replication", "2",
                         "--seed", "5", "--out", out_path)
    assert code == 1 and out == ""
    assert err == "error: --seed applies to --heuristic 1 only\n"
    assert not out_path.exists()
    _, out, _ = run(capsys, "replicate", fig2_file, "--replication", "2", "--out", out_path)
    assert "rng seed" not in out
    for seed_argv, seed in (((), 0), (("--seed", "5"), 5)):
        _, out, _ = run(capsys, "replicate", fig2_file, "--replication", "2",
                        "--heuristic", "1", *seed_argv, "--out", out_path)
        assert f"\nrng seed: {seed}\n" in out


def test_document_mixing_views_and_tables_rejected(capsys, tmp_path):
    doc = json.loads(FIG2_DOC)
    doc["views"] = []
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", path, "--out", tmp_path / "p.json")
    assert code == 1 and out == ""
    assert err == ("error: document mixes view DAG sections ['views'] with "
                   "workload sections ['queries', 'tables']\n")
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("doc, key, expected", [
    ({"tabels": [{"id": "T1", "size": 2}], "queries": [],
      "servers": [{"id": "S1", "storage_capacity": 4}]},
     "tabels", "tables, queries, servers"),
    ({"views": [{"id": "B1", "class": "base_table", "size": 2}],
      "arc": [], "servers": [{"id": "S1", "storage_capacity": 4}]},
     "arc", "views, arcs, servers"),
])
def test_unknown_top_level_key_rejected(capsys, tmp_path, doc, key, expected):
    # A misspelt section of a workload or a view DAG must not read as an
    # empty one.
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", path, "--out", tmp_path / "p.json")
    assert code == 1 and out == ""
    assert err == f"error: unknown top-level key {key!r} (expected {expected})\n"
    assert not (tmp_path / "p.json").exists()


def test_replicate_command(capsys, tmp_path):
    from placer.generate import GenSpec, generate
    from placer.workload import serialize_workload

    total = generate(GenSpec(shape="tpcds", seed=1)).total_size()
    cap = -(-2 * total // 4) + 10
    w = generate(GenSpec(shape="tpcds", seed=1, n_servers=4, server_capacity=cap))
    path = tmp_path / "w.json"
    path.write_text(serialize_workload(w))
    code, out, _ = run(capsys, "replicate", path, "--replication", "2",
                       "--heuristic", "2", "--out", tmp_path / "p.json")
    assert code == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert all(len(copies) == 2 for copies in doc["store"].values())
    assert "max part size" in out


def test_ratio_rejected_for_gdp(capsys, tmp_path, gdp_file):
    code, _, err = run(capsys, "plan", gdp_file, "--min-max-ratio", "0.5",
                       "--out", tmp_path / "p.json")
    assert code == 1
    assert "min-max-ratio" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "plan", path)
    assert code == 1
    assert "error:" in err


# Each command that reads an input document, with BAD as that document.
# Its other files are valid, and OUT is its --out where it has one.
INPUT_ARGV = {
    "plan": ["plan", "BAD", "--out", "OUT"],
    "oracle": ["oracle", "BAD", "--out", "OUT"],
    "cost": ["cost", "BAD", "PLACEMENT"],
    "replicate": ["replicate", "BAD", "--replication", "1", "--out", "OUT"],
    "export-graph": ["export-graph", "BAD", "--out", "OUT"],
    "import-partition": ["import-partition", "BAD", "PARTITION", "--out", "OUT"],
    "export-ip": ["export-ip", "BAD", "--out", "OUT"],
}


def run_rejected(capsys, tmp_path, fig2_file, argv, bad):
    """Run argv with BAD standing for `bad`; the run must exit 1 with one
    error line, print nothing on stdout and write no file."""
    placement = tmp_path / "fig2.placement.json"
    placement.write_text(json.dumps({"store": FIG2_STORE}))
    partition = tmp_path / "fig2.part"
    partition.write_text("0\n" * 10)
    before = sorted(tmp_path.iterdir())
    files = {"BAD": bad, "FIG2": fig2_file, "PLACEMENT": placement,
             "PARTITION": partition, "OUT": tmp_path / "out"}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    return err


@pytest.mark.parametrize("command", INPUT_ARGV)
def test_missing_file_exit_code(capsys, tmp_path, fig2_file, command):
    err = run_rejected(capsys, tmp_path, fig2_file, INPUT_ARGV[command],
                       tmp_path / "absent.json")
    assert "absent.json" in err


FIG2_STORE = {f"T{j}": ["S1"] for j in range(1, 7)}
GDP_SIDES = {f"V{j}": "S1" for j in range(1, 8)}


@pytest.mark.parametrize("instance, placement, message", [
    ("fig2", "[]", "must be a JSON object"),
    ("fig2", '"S1"', "must be a JSON object"),
    ("fig2", "{nope", "syntax error"),
    ("fig2", json.dumps({"store": [], "compute": {}}), "'store' must be an object"),
    ("fig2", json.dumps({"store": FIG2_STORE, "compute": ["S1"]}),
     "'compute' must be an object"),
    ("fig2", json.dumps({"store": {**FIG2_STORE, "T1": "S1"}}), "copies of 'T1'"),
    ("fig2", json.dumps({"store": {**FIG2_STORE, "T1": []}}), "copies of 'T1'"),
    ("fig2", json.dumps({"store": {**FIG2_STORE, "T6": None}}), "copies of 'T6'"),
    ("fig2", json.dumps({"store": {**FIG2_STORE, "T1": [1]}}), "unknown server 1"),
    ("fig2", json.dumps({"store": {**FIG2_STORE, "T1": [["S1"]]}}),
     "unknown server ['S1']"),
    ("fig2", json.dumps({"store": {**FIG2_STORE, "T1": ["S1", "S1"]}}),
     "name a server twice"),
    ("fig2", json.dumps({"store": FIG2_STORE, "compute_": {"Q1": "S2"}}),
     "unknown top-level key 'compute_' (expected store, compute)"),
    ("fig2", json.dumps({"store": FIG2_STORE, "compute": {"Q1": ["S1"]}}),
     "unknown server ['S1']"),
    ("fig2", json.dumps({
        "store": {k: v for k, v in FIG2_STORE.items() if k != "T1"},
        "compute": {f"Q{i}": "S1" for i in range(1, 5)},
    }), "'store' lacks 'T1'"),
    ("gdp", json.dumps({
        "store": {k: [v] for k, v in GDP_SIDES.items()},
        "compute": {k: v for k, v in GDP_SIDES.items() if k != "V7"},
    }), "'compute' lacks 'V7'"),
    ("gdp", json.dumps({
        "store": {k: [v] for k, v in GDP_SIDES.items() if k != "V1"},
        "compute": GDP_SIDES,
    }), "'store' lacks 'V1'"),
    ("fig2", json.dumps({"store": {**FIG2_STORE, "Q1": ["S1"]}}),
     "placement 'store' names 'Q1', which is not a table"),
    ("fig2", json.dumps({"store": FIG2_STORE, "compute": {"q1": "S2"}}),
     "placement 'compute' names 'q1', which is not a query"),
    ("fig2", json.dumps({"store": FIG2_STORE, "compute": {"T1": "S2"}}),
     "placement 'compute' names 'T1', which is not a query"),
    ("gdp", json.dumps({
        "store": {**{k: [v] for k, v in GDP_SIDES.items()}, "V8": ["S1"]},
        "compute": GDP_SIDES,
    }), "placement 'store' names 'V8', which is not a view"),
    ("gdp", json.dumps({
        "store": {k: [v] for k, v in GDP_SIDES.items()},
        "compute": {**GDP_SIDES, "v1": "S1"},
    }), "placement 'compute' names 'v1', which is not a view"),
])
def test_cost_rejects_malformed_placement(capsys, tmp_path, fig2_file, gdp_file,
                                          instance, placement, message):
    path = tmp_path / "placement.json"
    path.write_text(placement)
    code, _, err = run(capsys, "cost", fig2_file if instance == "fig2" else gdp_file, path)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["plan", "FIG2", "--slacks", "abc"], "--slacks: invalid value 'abc'"),
    (["plan", "FIG2", "--slacks", "1/0"], "--slacks: invalid value '1/0'"),
    (["plan", "FIG2", "--seeds", "x"], "--seeds: invalid value 'x'"),
    (["plan", "FIG2", "--seeds", ","], "--seeds: invalid value ''"),
    (["plan", "FIG2", "--min-max-ratio", "abc"], "--min-max-ratio: invalid value 'abc'"),
    (["plan", "FIG2", "--min-max-ratio", "-1"], "must lie in [0, 1], got -1"),
    (["plan", "FIG2", "--min-max-ratio", "2"], "must lie in [0, 1], got 2"),
    (["plan", "FIG2", "--format", "xml"], "invalid choice: 'xml'"),
    (["plan"], "the following arguments are required: input"),
    (["plan", "FIG2", "--seeds", "1,1"], "seeds must be distinct"),
    (["plan", "FIG2", "--slacks", "0,0"], "slack_factors must be distinct"),
    (["plan", "EMPTY", "--min-max-ratio", "0.5"], "at least one part capacity is required"),
    (["plan", "FIG2", "--pin-views"], "--pin-views applies to view DAGs only"),
])
def test_plan_rejects_bad_arguments(capsys, tmp_path, fig2_file, argv, message):
    # Exit code 2 means capacity violations, so usage errors exit 1 too.
    empty = tmp_path / "empty.json"  # a workload with no servers
    empty.write_text("{}")
    argv = [{"FIG2": fig2_file, "EMPTY": empty}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, "--out", tmp_path / "p.json")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert out == ""
    assert not (tmp_path / "p.json").exists()


def test_plan_gate_rejects_a_placement_that_misses_its_cost(capsys, tmp_path, fig2_file,
                                                            monkeypatch):
    # The gate re-evaluates the written file; a cost that disagrees with
    # the plan's report exits 1 instead of reporting.
    def disagreeing(placement, instance):
        return replace(pipeline.cost_of(placement, instance), total_cost=-1)

    monkeypatch.setattr(cli, "cost_of", disagreeing)
    code, out, err = run(capsys, "plan", fig2_file, "--out", tmp_path / "p.json")
    assert (code, out) == (1, "")
    assert err == "error: emitted placement does not reproduce the reported cost\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--help"])
    assert exc.value.code == 0
    assert "--min-max-ratio" in capsys.readouterr().out


# The binary file as every command's input document, and as the second
# document of cost and import-partition.
NON_UTF8_ARGV = {
    **INPUT_ARGV,
    "cost input": INPUT_ARGV["cost"],
    "import-partition input": INPUT_ARGV["import-partition"],
    "cost": ["cost", "FIG2", "BAD"],
    "import-partition": ["import-partition", "FIG2", "BAD", "--out", "OUT"],
}


@pytest.mark.parametrize("command", NON_UTF8_ARGV)
def test_non_utf8_file_is_a_document_error(capsys, tmp_path, fig2_file, command):
    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x00{binary")
    err = run_rejected(capsys, tmp_path, fig2_file, NON_UTF8_ARGV[command], binary)
    assert "not UTF-8 text (byte 0)" in err
