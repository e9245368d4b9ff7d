"""Command-line front end.

Subcommands: plan, oracle, replicate, gen, export-graph,
import-partition, export-ip, cost.  Every subcommand but gen gets its
input document through one prologue in `main`: the file is read as
UTF-8, hashed and decoded once into a workload or view DAG, which the
command receives with the digest.  Exit codes: 0 clean, 2 when the
emitted placement violates a capacity, 1 on errors.  Reports are
deterministic byte-for-byte except for the trailing timing section.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from .common import INFINITE, DocumentError, PlacerError, quote
from .evaluate import CostReport, Placement, dp_cost
from .gdp import ViewDag, parse_gdp
from .generate import GenSpec, generate
from .ip import build_dp_ip, build_gdp_ip, build_replication_ip, lp_lines
from .oracle import OracleLimit, optimal_gdp, optimal_placement
from .partition import (
    PartitionConfig,
    balance_ratio,
    capacity_fractions,
    export_graph,
    import_partition,
)
from .pipeline import cost_of, decode, graph_of, plan_view_dag, plan_workload
from .replication import ReplicationConfig, heuristic1, heuristic2, max_part_size
from .workload import (
    Workload,
    check_sections,
    load_json_document,
    parse_workload,
    serialize_workload,
    validate_capacity_lower_bounds,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _out_path(args, source: str, suffix: str) -> Path:
    return Path(args.out) if args.out else Path(source).with_suffix(suffix)


def _load_instance(text: str) -> Workload | ViewDag:
    """A view DAG when the document has views or arcs, else a plain
    workload; a document with sections of both kinds is rejected."""
    doc = load_json_document(text)
    dag_keys = sorted({"views", "arcs"} & doc.keys())
    workload_keys = sorted({"tables", "queries"} & doc.keys())
    if dag_keys and workload_keys:
        raise DocumentError(
            f"document mixes view DAG sections {dag_keys} with workload "
            f"sections {workload_keys}"
        )
    return parse_gdp(doc) if dag_keys else parse_workload(doc)


def _require(instance: Workload | ViewDag, kind: type, message: str) -> None:
    """The one check of each rule on which instance kind a command or option takes."""
    if not isinstance(instance, kind):
        raise DocumentError(message)


def _server_ids(obj: Workload | ViewDag) -> list[str]:
    return [s.id for s in obj.servers]


def placement_to_document(p: Placement, server_ids: list[str]) -> str:
    doc = {
        "store": {
            oid: [server_ids[k] for k in copies]
            for oid, copies in sorted(p.store.items())
        },
        "compute": {oid: server_ids[k] for oid, k in sorted(p.compute.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def placement_from_document(text: str, instance: Workload | ViewDag) -> Placement:
    """Read a placement document for an instance.  `store` keys must be
    tables and `compute` keys queries (views, on both sides, for a view
    DAG).  Every table (every view, on both sides) must be placed, each
    copy list must name distinct servers of the instance, and each
    compute site one server."""
    doc = load_json_document(text)
    check_sections(doc, ("store", "compute"))
    index = {s.id: k for k, s in enumerate(instance.servers)}
    if isinstance(instance, ViewDag):
        views = [v.id for v in instance.views]
        objects = {"store": ("view", views), "compute": ("view", views)}
    else:
        objects = {"store": ("table", [t.id for t in instance.tables]),
                   "compute": ("query", [q.id for q in instance.queries])}

    def to_index(sid: object) -> int:
        if not isinstance(sid, str) or sid not in index:
            raise DocumentError(f"placement references unknown server {quote(sid)}")
        return index[sid]

    def section(key: str) -> dict:
        entries = doc.get(key, {})
        if not isinstance(entries, dict):
            raise DocumentError(f"placement {key!r} must be an object")
        kind, ids = objects[key]
        known = set(ids)
        for oid in entries:
            if oid not in known:
                raise DocumentError(
                    f"placement {key!r} names {quote(oid)}, which is not a {kind}")
        return entries

    store = {}
    for oid, copies in section("store").items():
        if not isinstance(copies, list) or not copies:
            raise DocumentError(
                f"copies of {quote(oid)} must be a nonempty list of server ids"
            )
        ks = tuple(sorted(to_index(sid) for sid in copies))
        if len(set(ks)) != len(ks):
            raise DocumentError(f"copies of {quote(oid)} name a server twice")
        store[oid] = ks
    compute = {oid: to_index(sid) for oid, sid in section("compute").items()}
    placed = {"store": store, "compute": compute}
    for key in ("store", "compute") if isinstance(instance, ViewDag) else ("store",):
        for oid in objects[key][1]:
            if oid not in placed[key]:
                raise DocumentError(f"placement {key!r} lacks {quote(oid)}")
    return Placement(store, compute)


def _report(args, title, digest, config_lines, report: CostReport, server_ids, extra,
            timings=()) -> int:
    """Print the report; exit code 2 exactly when it lists violations."""
    per_query = sorted(report.per_query.items())
    if args.format == "json":
        text = json.dumps({
            "title": title,
            "input_sha256": digest,
            "config": config_lines,
            "total_cost": None if report.total_cost == INFINITE else report.total_cost,
            "per_query": {
                qid: {"site": server_ids[site], "cost": str(cost)}
                for qid, (site, cost) in per_query
            },
            "per_server": [
                {"id": server_ids[k], "storage": st, "load": ld}
                for k, (st, ld) in enumerate(report.per_server)
            ],
            "violations": list(report.violations),
            "notes": extra,
            "timings": {name: round(sec, 6) for name, sec in timings},
        }, indent=2) + "\n"
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("query", "site", "cost"))
        writer.writerows((qid, server_ids[site], cost) for qid, (site, cost) in per_query)
        text = out.getvalue()
    else:
        lines = [f"== {title} ==", f"input sha256: {digest}", *config_lines,
                 f"total cost: {report.total_cost}"]
        lines.extend(f"  {qid}: site {server_ids[site]} cost {cost}"
                     for qid, (site, cost) in per_query)
        lines.extend(f"  {server_ids[k]}: storage {st} load {ld}"
                     for k, (st, ld) in enumerate(report.per_server))
        if report.violations:
            lines.append("violations:")
            lines.extend(f"  {v}" for v in report.violations)
        else:
            lines.append("violations: none")
        lines.extend(extra)
        lines.append("timing:")
        lines.extend(f"  {name}: {sec:.3f}s" for name, sec in timings)
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _option_value(text: str, kind, option: str):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"{option}: invalid value {text!r}") from None


def _partition_config(args) -> PartitionConfig:
    kwargs = {}
    if args.slacks is not None:
        kwargs["slack_factors"] = tuple(sorted(
            _option_value(s, Fraction, "--slacks") for s in args.slacks.split(",")
        ))
    if args.seeds is not None:
        kwargs["seeds"] = tuple(
            _option_value(s, int, "--seeds") for s in args.seeds.split(",")
        )
    return PartitionConfig(**kwargs)


def cmd_plan(args, instance, digest) -> int:
    cfg = _partition_config(args)
    ratio = None
    if args.min_max_ratio is not None:
        ratio = _option_value(args.min_max_ratio, Fraction, "--min-max-ratio")
        if not 0 <= ratio <= 1:
            raise DocumentError(f"--min-max-ratio must lie in [0, 1], got {ratio}")
        _require(instance, Workload, "--min-max-ratio applies to plain workloads only")
    if args.pin_views:
        _require(instance, ViewDag, "--pin-views applies to view DAGs only")
    t0 = time.perf_counter()
    if isinstance(instance, ViewDag):
        outcome = plan_view_dag(
            instance, cfg, with_load=args.load, pin_views=args.pin_views
        )
    else:
        for note in validate_capacity_lower_bounds(instance):
            print(f"note: {note}", file=sys.stderr)
        outcome = plan_workload(instance, cfg, with_load=args.load, min_max_ratio=ratio)
    elapsed = time.perf_counter() - t0

    server_ids = _server_ids(instance)
    out_path = _out_path(args, args.input, ".placement.json")
    out_path.write_text(placement_to_document(outcome.placement, server_ids))

    # Self-consistency gate: the report must match a fresh evaluation of
    # the file we just wrote.
    reread = placement_from_document(_read_text(out_path), instance)
    if cost_of(reread, instance).total_cost != outcome.report.total_cost:
        print("error: emitted placement does not reproduce the reported cost",
              file=sys.stderr)
        return EXIT_ERROR

    result = outcome.partition
    config_lines = [
        f"config: seeds={list(cfg.seeds)} slacks={[str(s) for s in cfg.slack_factors]}",
        f"slack used: {result.slack}",
        f"seed used: {result.seed}",
        f"v-cycles: {result.v_cycles_run} run, {result.v_cycles_improved} improved",
        f"placement: {out_path}",
    ]
    ratios = []
    for d in range(len(result.per_part_loads[0])):
        r = balance_ratio(result, d)
        ratios.append("undefined" if r is None else str(r))
    extra = [f"balance ratio: {ratios}"]
    extra.extend(f"warning: {wtext}" for wtext in outcome.warnings)
    timings = list(outcome.timings) + [("total", elapsed)]
    return _report(args, "plan", digest, config_lines, outcome.report, server_ids,
                   extra, timings)


def cmd_oracle(args, instance, digest) -> int:
    limit = OracleLimit(args.budget)
    if isinstance(instance, ViewDag):
        result = optimal_gdp(instance, limit)
    else:
        result = optimal_placement(instance, limit)
    print(f"input sha256: {digest}")
    if not result.feasible:
        print("result: INFEASIBLE" if result.complete else "result: UNKNOWN (budget)")
        return EXIT_OK if result.complete else EXIT_ERROR
    print(f"optimal cost: {result.cost}" if result.complete
          else f"best found (budget exceeded): {result.cost}")
    if args.out:
        Path(args.out).write_text(
            placement_to_document(result.solution, _server_ids(instance))
        )
        print(f"placement: {args.out}")
    return EXIT_OK


def cmd_cost(args, instance, digest) -> int:
    placement = placement_from_document(_read_text(args.placement), instance)
    return _report(args, "cost", digest, [f"placement: {args.placement}"],
                   cost_of(placement, instance), _server_ids(instance), [])


def cmd_replicate(args, w, digest) -> int:
    _require(w, Workload, "replicate needs a plain workload")
    cfg = ReplicationConfig(args.replication, args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        placement = heuristic1(w, cfg) if args.heuristic == 1 else heuristic2(w, cfg)
    for warning in caught:
        print(f"note: {warning.message}", file=sys.stderr)
    report = dp_cost(placement, w)
    server_ids = _server_ids(w)
    out_path = _out_path(args, args.input, ".placement.json")
    out_path.write_text(placement_to_document(placement, server_ids))
    biggest, desired = max_part_size(placement, w, args.replication)
    extra = [
        f"max part size: {biggest} (desired {desired} for r={args.replication})",
        f"rng seed: {args.seed}",
        f"placement: {out_path}",
    ]
    return _report(args, f"replicate h{args.heuristic} r={args.replication}", digest,
                   [], report, server_ids, extra)


def cmd_gen(args) -> int:
    spec = GenSpec(
        shape=args.shape,
        n_tables=args.tables,
        n_queries=args.queries,
        n_servers=args.servers,
        seed=args.seed,
        server_capacity=args.capacity,
    )
    w = generate(spec)
    doc = serialize_workload(w)
    if args.out:
        Path(args.out).write_text(doc)
        print(f"workload: {args.out}")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def cmd_export_graph(args, instance, digest) -> int:
    graph, _ = graph_of(instance, args.load)
    out_path = _out_path(args, args.input, ".graph")
    out_path.write_text(export_graph(graph))
    print(f"graph: {out_path}")
    for wtext in graph.warnings:
        print(f"warning: {wtext}")
    fractions = capacity_fractions(graph)
    # External partitioners balance by target fractions, not hard
    # capacities; s_k / sum(s) approximates the intent.
    print("target fractions per part:", " ".join(
        "/".join(str(x) for x in vec) for vec in fractions
    ))
    print(f"input sha256: {digest}")
    return EXIT_OK


def cmd_import_partition(args, instance, digest) -> int:
    server_ids = _server_ids(instance)
    graph, merge_map = graph_of(instance, args.load)
    assignment = import_partition(_read_text(args.partition), graph)
    placement = decode(assignment, instance, merge_map, args.load)
    out_path = _out_path(args, args.partition, ".placement.json")
    out_path.write_text(placement_to_document(placement, server_ids))
    extra = [f"placement: {out_path}"]
    extra.extend(f"warning: {wtext}" for wtext in graph.warnings)
    return _report(args, "import-partition", digest, [], cost_of(placement, instance),
                   server_ids, extra)


def cmd_export_ip(args, instance, digest) -> int:
    gdp = args.model == "gdp"
    needs = "a GDP document" if gdp else "a plain workload"
    _require(instance, ViewDag if gdp else Workload, f"{args.model} model needs {needs}")
    if gdp:
        model = build_gdp_ip(instance)
    elif args.model == "replication":
        model = build_replication_ip(instance, args.replication)
    else:
        model = build_dp_ip(instance)
    out_path = _out_path(args, args.input, ".lp")
    # Rows are built and checked as they are written, so the model is
    # streamed to a sibling file that replaces --out only once complete:
    # a model that fails mid-stream leaves no file and --out untouched.
    partial = out_path.with_name(f".{out_path.name}.{os.getpid()}.partial")
    try:
        with partial.open("w") as f:
            f.writelines(lp_lines(model))
        partial.replace(out_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(f"lp: {out_path}")
    print(f"input sha256: {digest}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Usage errors exit 1 like every other error; 2 means violations.
        raise PlacerError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="placer",
        description="Communication-aware placement planning via graph partitioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        p.add_argument("input", help="workload or GDP document")
        if with_format:
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("plan", help="end-to-end placement plan")
    add_common(p)
    p.add_argument("--load", action="store_true", help="enable 2-D load balancing")
    p.add_argument("--min-max-ratio", help="target min/max load ratio (e.g. 0.75)")
    p.add_argument("--pin-views", action="store_true",
                   help="force materialized views to compute and store together")
    p.add_argument("--slacks",
                   help="comma-separated capacity slack factors (default "
                        "0,1/18,1/9,1/6,2/9); each slack > 0 candidate is "
                        "rebalanced to the true capacities")
    p.add_argument("--seeds",
                   help="comma-separated partitioner seeds (default 0,1); the "
                        "report's slack and seed name the sweep candidate the "
                        "V-cycles started from")
    p.add_argument("--out", help="placement output path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("oracle", help="exact optimum for small instances")
    add_common(p, with_format=False)
    p.add_argument("--budget", type=int, default=OracleLimit().max_assignments,
                   help="complete assignments to evaluate before stopping")
    p.add_argument("--out", help="placement output path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("cost", help="re-evaluate a placement file")
    add_common(p)
    p.add_argument("placement", help="placement document")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("replicate", help="replicated placement heuristics")
    add_common(p)
    p.add_argument("--replication", type=int, required=True)
    p.add_argument("--heuristic", type=int, choices=(1, 2), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="placement output path")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("gen", help="generate a workload document")
    p.add_argument("--shape", choices=("random", "tpcds"), default="random")
    p.add_argument("--tables", type=int, default=24)
    p.add_argument("--queries", type=int, default=99)
    p.add_argument("--servers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity", type=int, help="fixed per-server capacity")
    p.add_argument("--out", help="workload output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-graph", help="write the partitioner graph file")
    add_common(p, with_format=False)
    p.add_argument("--load", action="store_true")
    p.add_argument("--out", help="graph output path")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("import-partition", help="decode an external partition file")
    add_common(p)
    p.add_argument("partition", help="one part index per line")
    p.add_argument("--load", action="store_true",
                   help="partition of an export-graph --load file: keep query sites")
    p.add_argument("--out", help="placement output path")
    p.set_defaults(func=cmd_import_partition)

    p = sub.add_parser("export-ip", help="write an LP-format integer program")
    add_common(p, with_format=False)
    p.add_argument("--model", choices=("dp", "gdp", "replication"), default="dp")
    p.add_argument("--replication", type=int, default=1)
    p.add_argument("--out", help="LP output path")
    p.set_defaults(func=cmd_export_ip)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "gen":
            return args.func(args)
        text = _read_text(args.input)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return args.func(args, _load_instance(text), digest)
    except (PlacerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
