"""Spans around placer's public functions, kept in memory.

``Tracer.install`` wraps each function in TARGETS and rebinds the
wrapper at every place the original is bound: the defining module, the
package re-exports, and every module that imported it by name (for
example ``placer.pipeline.partition``, ``placer.cli.plan_workload`` and
``placer.replication.plan_workload``).  A span records its name, start,
end, parent span and the phase it ran in, so a layer's self time is its
duration minus the time of the spans it caused.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter


def _graph_size(args, kwargs, graph) -> dict:
    return {"nodes": len(graph.nodes), "edges": len(graph.edges)}


def _candidates(args, kwargs, result) -> dict:
    from placer.partition import PartitionConfig

    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    cfg = cfg or PartitionConfig()
    return {"candidates": len(cfg.seeds) * len(cfg.slack_factors)}


def _lp_bytes(args, kwargs, text) -> dict:
    return {"bytes": len(text.encode())}


# (module, function, span name, counter of the call)
TARGETS = [
    ("placer.cli", "main", "cli.main", None),
    ("placer.cli", "placement_to_document", "cli.write_reread", None),
    ("placer.cli", "placement_from_document", "cli.write_reread", None),
    ("placer.workload", "parse_workload", "workload.parse", None),
    ("placer.gdp", "parse_gdp", "gdp.parse", None),
    ("placer.reduction", "build_dp_graph", "reduction.build", _graph_size),
    ("placer.reduction", "build_gdp_graph", "reduction.build", _graph_size),
    ("placer.reduction", "contract_infinite_edges", "reduction.contract", None),
    ("placer.partition", "partition", "partition", _candidates),
    ("placer.partition", "export_graph", "partition.file_io", None),
    ("placer.partition", "import_partition", "partition.file_io", None),
    ("placer.evaluate", "decode_dp", "evaluate.decode", None),
    ("placer.evaluate", "decode_gdp", "evaluate.decode", None),
    ("placer.evaluate", "dp_cost", "evaluate.cost", None),
    ("placer.evaluate", "gdp_cost", "evaluate.cost", None),
    ("placer.evaluate", "best_site", "evaluate.best_site", None),
    ("placer.pipeline", "plan_workload", "pipeline.plan", None),
    ("placer.pipeline", "plan_view_dag", "pipeline.plan", None),
    ("placer.replication", "heuristic1", "replication", None),
    ("placer.replication", "heuristic2", "replication", None),
    ("placer.replication", "max_part_size", "replication", None),
    ("placer.ip", "build_dp_ip", "ip.build", None),
    ("placer.ip", "build_gdp_ip", "ip.build", None),
    ("placer.ip", "build_replication_ip", "ip.build", None),
    ("placer.ip", "write_lp", "ip.write", _lp_bytes),
    ("placer.generate", "generate", "generate", None),
]

# Per-layer metrics: name -> unit.  Times are per round (per set-up for
# generate.s), inclusive of the spans a layer calls unless named self.
METRICS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.write_reread_s": "s",
    "workload.parse_s": "s", "gdp.parse_s": "s",
    "reduction.build_s": "s", "reduction.contract_s": "s",
    "reduction.nodes": "count", "reduction.edges": "count",
    "partition.s": "s", "partition.candidate_s": "s", "partition.calls": "count",
    "partition.candidates": "count", "partition.kept_per_candidate": "ratio",
    "partition.file_io_s": "s",
    "evaluate.decode_s": "s", "evaluate.cost_s": "s", "evaluate.best_site_s": "s",
    "evaluate.best_site_calls": "count",
    "pipeline.self_s": "s", "pipeline.plans": "count",
    "replication.self_s": "s", "replication.plans": "count",
    "ip.build_s": "s", "ip.write_s": "s", "ip.lp_bytes": "bytes",
    "generate.s": "s",
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, phase, counts]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = ("setup", 0)

    def wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the TARGETS of the placer modules imported last."""
        modules = [m for n, m in sys.modules.items() if n == "placer" or n.startswith("placer.")]
        for module, func, name, count in TARGETS:
            original = getattr(sys.modules[module], func)
            wrapper = self.wrap(name, original, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "phase": list(ph), "counts": c}
            for n, s, e, p, ph, c in self.spans
        ]

    def metrics(self, rounds: int, setups: int) -> dict:
        """Medians over rounds (over set-ups for generate.s)."""
        self_time = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
        per_phase: dict[tuple, Counter] = {}
        for i, (name, start, end, parent, phase, counts) in enumerate(self.spans):
            acc = per_phase.setdefault(phase, Counter())
            acc[name + ".time"] += end - start
            acc[name + ".self"] += self_time[i]
            acc[name + ".count"] += 1
            for key, value in (counts or {}).items():
                acc[f"{name}.{key}"] += value
            if name == "pipeline.plan" and parent >= 0 and self.spans[parent][0] == "replication":
                acc["replication.plans"] += 1

        def layer(g: Counter) -> dict:
            candidates = g["partition.candidates"]
            return {
                "cli.main_s": g["cli.main.time"],
                "cli.self_s": g["cli.main.self"],
                "cli.write_reread_s": g["cli.write_reread.time"],
                "workload.parse_s": g["workload.parse.time"],
                "gdp.parse_s": g["gdp.parse.time"],
                "reduction.build_s": g["reduction.build.time"],
                "reduction.contract_s": g["reduction.contract.time"],
                "reduction.nodes": g["reduction.build.nodes"],
                "reduction.edges": g["reduction.build.edges"],
                "partition.s": g["partition.time"],
                "partition.candidate_s": g["partition.time"] / candidates if candidates else 0.0,
                "partition.calls": g["partition.count"],
                "partition.candidates": candidates,
                "partition.kept_per_candidate":
                    g["partition.count"] / candidates if candidates else 0.0,
                "partition.file_io_s": g["partition.file_io.time"],
                "evaluate.decode_s": g["evaluate.decode.time"],
                "evaluate.cost_s": g["evaluate.cost.time"],
                "evaluate.best_site_s": g["evaluate.best_site.time"],
                "evaluate.best_site_calls": g["evaluate.best_site.count"],
                "pipeline.self_s": g["pipeline.plan.self"],
                "pipeline.plans": g["pipeline.plan.count"],
                "replication.self_s": g["replication.self"],
                "replication.plans": g["replication.plans"],
                "ip.build_s": g["ip.build.time"],
                "ip.write_s": g["ip.write.time"],
                "ip.lp_bytes": g["ip.write.bytes"],
            }

        per_round = [layer(per_phase.get(("round", r), Counter())) for r in range(rounds)]
        out = {
            key: statistics.median(values[key] for values in per_round) for key in per_round[0]
        }
        out["generate.s"] = statistics.median(
            per_phase.get(("setup", i), Counter())["generate.time"] for i in range(setups)
        )
        return out
