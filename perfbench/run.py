"""Benchmark of placer, driven as a user drives it.

    python3 perfbench/run.py --workload plan-random --seed 1 --seconds 25 --trace 0

Imports placer from this checkout's ``src`` (and nothing else), writes
the workload's documents under ``.perfbench_work/``, then runs whole
rounds of the workload's operations: ``placer.cli.main`` with the
arguments a user would type, or ``plan_view_dag`` where the CLI does not
print what is checked (the partitioner's cut).  A run makes at least two
rounds and starts no round after ``--seconds`` have passed.  Every output is checked against the
benchmark's own recomputation (check.py).  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics;
end-to-end metrics with ``--trace 0``, per-layer metrics (spans.py) with
``--trace 1``.  Details go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import check
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 5
MIN_ROUNDS = 2


class OpFailed(Exception):
    """placer reported an error instead of a result."""


def import_placer():
    """Import placer afresh, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "placer" or n.startswith("placer.")]:
        del sys.modules[name]
    importlib.import_module("placer")
    importlib.import_module("placer.cli")


def lib(module: str):
    """A placer module as currently bound, so traced wrappers are used."""
    return sys.modules[f"placer.{module}"]


def cli(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib("cli").main([str(a) for a in argv])
    if code not in (0, 2):
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return code, out.getvalue()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Op:
    """One user-level operation.  ``run`` calls placer and is timed.
    ``fingerprint`` gives its report without the timing section, plus
    digests of the files it wrote; it must repeat byte for byte.
    ``check`` verifies the result and returns (cost, cost with every
    reference shipped), both None where no cost applies; a result whose
    fingerprint was checked before is not checked again."""

    def __init__(self, name: str, run, check, fingerprint):
        self.name, self.run, self.check, self.fingerprint = name, run, check, fingerprint


def cli_op(name: str, argv: list, outputs: list[Path], verify, text_report=False) -> Op:
    def fingerprint(result) -> str:
        code, stdout = result
        if not text_report:
            report = json.loads(stdout)
            report.pop("timings", None)
            stdout = json.dumps(report, sort_keys=True)
        return f"exit {code}\n{stdout}" + "".join(digest(f) for f in outputs)

    return Op(name, lambda: cli(*argv), verify, fingerprint)


def placement_doc(placement, server_ids: list[str]) -> dict:
    return {
        "store": {oid: [server_ids[k] for k in ks] for oid, ks in placement.store.items()},
        "compute": {oid: server_ids[k] for oid, k in placement.compute.items()},
    }


def doc_of(path: Path) -> dict:
    return json.loads(path.read_text())


def server_ids(doc: dict) -> list[str]:
    return [s["id"] for s in doc["servers"]]


# -- operations ---------------------------------------------------------------

def plan_op(name: str, path: Path, ratio: Fraction | None = None) -> Op:
    doc, out = doc_of(path), path.with_suffix(".placement.json")
    argv = ["plan", path, "--format", "json", "--out", out]
    if ratio is not None:
        argv += ["--min-max-ratio", str(float(ratio))]

    def verify(result):
        code, stdout = result
        report = json.loads(stdout)
        cap = None if ratio is None else check.ratio_load_cap(doc, ratio)
        ev = check.evaluate_workload(doc, doc_of(out), cap)
        check.check_report(report, ev, server_ids(doc))
        check.check_exit_code(code, ev["exceeded"])
        check.check_single_copies(ev)
        if ratio is None:
            check.check_cheapest_sites(doc, ev)
        elif not report["violations"]:
            check.check_loads_within(ev["load"], cap, name)
        return ev["total"], check.reference_weight(doc)

    return cli_op(name, argv, [out], verify)


def replicate_op(path: Path, heuristic: int, r: int) -> Op:
    doc, out = doc_of(path), path.with_suffix(".placement.json")
    argv = ["replicate", path, "--replication", r, "--heuristic", heuristic,
            "--format", "json", "--out", out]

    def verify(result):
        code, stdout = result
        ev = check.evaluate_workload(doc, doc_of(out))
        check.check_report(json.loads(stdout), ev, server_ids(doc))
        check.check_exit_code(code, ev["exceeded"])
        check.check_replicas(ev, heuristic, r, len(doc["servers"]))
        check.check_cheapest_sites(doc, ev)
        return ev["total"], check.reference_weight(doc)

    return cli_op(f"replicate h{heuristic} r={r}", argv, [out], verify)


def view_dag_op(path: Path, pin: bool) -> Op:
    doc = doc_of(path)
    pinned = [v["id"] for v in doc["views"] if pin and v["class"] == "materialized_view"]

    def run():
        d = lib("gdp").parse_gdp(path.read_text())
        return lib("pipeline").plan_view_dag(d, pin_views=pin)

    def fingerprint(outcome) -> str:
        pdoc = placement_doc(outcome.placement, server_ids(doc))
        return repr((outcome.partition.cut_weight, outcome.report, json.dumps(pdoc, sort_keys=True)))

    def verify(outcome):
        ev = check.evaluate_gdp(doc, placement_doc(outcome.placement, server_ids(doc)), pinned)
        check.check_single_copies(ev)
        check.check_immovable_colocated(ev)
        total = ev["total"]
        check.require(outcome.report.total_cost == total,
                      f"reported {outcome.report.total_cost} != recomputed {total}")
        check.require(outcome.partition.cut_weight == total,
                      f"cut {outcome.partition.cut_weight} != GDP cost {total}")
        check.require([st for st, _ in outcome.report.per_server] == ev["storage"],
                      "reported storage differs")
        check.require(bool(outcome.report.violations) == ev["exceeded"],
                      "reported violations disagree with the recomputed capacities")
        return total, check.gdp_weight(doc)

    return Op(f"plan view DAG{' --pin-views' if pin else ''}", run, verify, fingerprint)


# -- workloads ----------------------------------------------------------------

class PlanRandom:
    """`placer plan` on independent random workloads, 16 servers."""

    SIZE, INSTANCES = 100, 6

    def setup(self, seed: int, work: Path) -> None:
        for i in range(self.INSTANCES):
            doc = inputs.workload_doc(inputs.instance_seed(seed, i), 16, size=self.SIZE)
            (work / f"random{i}.json").write_text(doc)

    def ops(self, work: Path) -> list[Op]:
        return [plan_op(f"plan random{i}", work / f"random{i}.json")
                for i in range(self.INSTANCES)]


class TpcdsFeatures:
    """The paper's feature set on the TPC-DS shape, 8 servers; every
    operation gets its own instance.  ``balance_sweep`` is left out: it
    raises ValueError when every level violates storage, which happens on
    some seeds' instances, and a failure that depends on the seed would
    make the failed share differ between sets of runs."""

    REPLICATE = [(1, 2), (1, 4), (2, 2), (2, 4)]

    def setup(self, seed: int, work: Path) -> None:
        s = lambda k: inputs.instance_seed(seed, k)
        (work / "plain.json").write_text(inputs.workload_doc(s(0), 8))
        (work / "ratio.json").write_text(inputs.workload_doc(s(1), 8))
        for k, (h, r) in enumerate(self.REPLICATE):
            (work / f"repl-h{h}-r{r}.json").write_text(inputs.replication_doc(s(2 + k)))
        (work / "views.json").write_text(inputs.view_dag_doc(s(6)))
        (work / "views-pinned.json").write_text(inputs.view_dag_doc(s(7)))

    def ops(self, work: Path) -> list[Op]:
        return [
            plan_op("plan", work / "plain.json"),
            plan_op("plan --min-max-ratio 0.75", work / "ratio.json", Fraction(3, 4)),
            *(replicate_op(work / f"repl-h{h}-r{r}.json", h, r) for h, r in self.REPLICATE),
            view_dag_op(work / "views.json", pin=False),
            view_dag_op(work / "views-pinned.json", pin=True),
        ]


class EvaluateExport:
    """No partitioning: decode, cost and export a 4000 x 4000 workload
    under a first-fit-decreasing partition, and export the placement
    program of a 1000 x 1000 workload."""

    def setup(self, seed: int, work: Path) -> None:
        big = inputs.workload_doc(inputs.instance_seed(seed, 0), 16, size=4000)
        (work / "big.json").write_text(big)
        (work / "big.part").write_text(inputs.ffd_partition(json.loads(big)))
        lp = inputs.workload_doc(inputs.instance_seed(seed, 1), 16, size=1000)
        (work / "lp.json").write_text(lp)

    def ops(self, work: Path) -> list[Op]:
        big, parts, lp = work / "big.json", work / "big.part", work / "lp.json"
        doc, lp_doc = doc_of(big), doc_of(lp)
        part_of = check.read_partition(parts.read_text(), check.node_order(doc))
        placed, graph, model = work / "big.placement.json", work / "big.graph", work / "lp.lp"
        imported = {}

        def verify_import(result):
            code, stdout = result
            ev = check.evaluate_workload(doc, doc_of(placed))
            check.check_report(json.loads(stdout), ev, server_ids(doc))
            check.check_exit_code(code, ev["exceeded"])
            for t in doc["tables"]:
                check.require(ev["copies"][t["id"]] == {part_of[check.table_node(t["id"])]},
                              f"table {t['id']} is not on the part its line names")
            check.check_cheapest_sites(doc, ev)
            cut = check.cut(doc, part_of)
            check.require(cut >= ev["total"], f"cut {cut} below the plan's cost {ev['total']}")
            imported["total"] = ev["total"]
            return ev["total"], check.reference_weight(doc)

        def verify_cost(result):
            code, stdout = result
            report = json.loads(stdout)
            ev = check.evaluate_workload(doc, doc_of(placed))
            check.check_report(report, ev, server_ids(doc))
            check.check_exit_code(code, ev["exceeded"])
            check.require(report["total_cost"] == imported.get("total"),
                          "cost differs from the import's total")
            return ev["total"], check.reference_weight(doc)

        def verify_graph(result):
            check.check_graph_file(graph.read_text(), doc)
            return None, None

        def verify_lp(result):
            check.check_lp_file(model.read_text(), lp_doc)
            return None, None

        return [
            cli_op("import-partition",
                   ["import-partition", big, parts, "--format", "json", "--out", placed],
                   [placed], verify_import),
            cli_op("cost", ["cost", big, placed, "--format", "json"], [], verify_cost),
            cli_op("export-graph", ["export-graph", big, "--out", graph], [graph],
                   verify_graph, text_report=True),
            cli_op("export-ip --model dp", ["export-ip", lp, "--model", "dp", "--out", model],
                   [model], verify_lp, text_report=True),
        ]


WORKLOADS = {
    "plan-random": PlanRandom,
    "tpcds-features": TpcdsFeatures,
    "evaluate-export": EvaluateExport,
}


# -- the run ------------------------------------------------------------------

def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_rounds(ops: list[Op], seconds: float, tracer) -> dict:
    attempted = failed = 0
    correct = True
    round_times, shares = [], []
    fingerprints: dict[str, str] = {}
    checked: dict[str, tuple] = {}
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if tracer:
            tracer.phase = ("round", r)
        elapsed = cost = 0
        op_shares = []
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # every failure is counted, the run goes on
                failed += 1
                log(f"FAILED {op.name}:\n{traceback.format_exc()}")
                continue
            elapsed += time.perf_counter() - t0
            try:
                fingerprint = op.fingerprint(result)
                if fingerprints.setdefault(op.name, fingerprint) != fingerprint:
                    raise check.CheckError("the report differs from the first round's")
                if op.name not in checked:
                    checked[op.name] = op.check(result)
            except Exception as exc:  # a wrong output of any kind
                correct = False
                log(f"WRONG {op.name}: {type(exc).__name__}: {exc}")
                continue
            op_cost, op_weight = checked[op.name]
            if op_cost is not None:
                cost += op_cost
                op_shares.append(100 * op_cost / op_weight)
        round_times.append(elapsed)
        shares.append(statistics.mean(op_shares) if op_shares else float("nan"))
        log(f"round {r}: {elapsed:.3f} s, cost {cost}, {shares[-1]:.4f}% shipped")
        r += 1
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "round_times": round_times, "shares": shares}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "placer" / "__init__.py").is_file():
        log(f"error: no placer sources under {SRC}")
        return 2
    os.environ.pop("PLACER_THREADS", None)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None

    setup_times = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        import_placer()
        imported = time.perf_counter()
        if tracer:
            tracer.install()
            tracer.phase = ("setup", i)
        t1 = time.perf_counter()
        workload.setup(args.seed, work)
        setup_times.append(imported - t0 + time.perf_counter() - t1)
    location = Path(sys.modules["placer"].__file__).resolve().parent
    if location != (SRC / "placer").resolve():
        log(f"error: placer was imported from {location}, not from {SRC}")
        return 2

    outcome = run_rounds(workload.ops(work), args.seconds, tracer)
    round_s = statistics.median(outcome["round_times"])
    if tracer:
        values = tracer.metrics(len(outcome["round_times"]), SETUPS)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in spans.METRICS.items()}
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"round_s": round_s, "spans": tracer.dump()}))
        log(f"traced round_s {round_s:.6f} s; spans in {path}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "comm_cost": {"value": statistics.median(outcome["shares"]), "unit": "%"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
