"""The benchmark's tracer wraps placer functions by module and name, so
each of its targets must still exist: a renamed or deleted one would
crash every traced run.  Its callers must also reach the wrapper it
binds in their place, or a traced run loses that span.  The targets
are read from perfbench/spans.py's source, without importing the
harness."""
import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import FIG2_DOC, GDP_EXAMPLE_DOC

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"no TARGETS list in {SPANS}")


def test_every_span_target_resolves():
    targets = span_targets()
    assert len(targets) > 20
    missing = [
        f"{module}.{func}"
        for module, func in targets
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert missing == []


def test_pipeline_calls_the_targets_by_name():
    # The tracer rebinds a target wherever a module imported it by name,
    # so pipeline's calls are timed only while it binds them that way.
    pipeline = importlib.import_module("placer.pipeline")
    called = {"build_dp_graph", "build_gdp_graph", "contract_infinite_edges", "partition",
              "decode_dp", "decode_gdp", "dp_cost", "gdp_cost"}
    for module, func in span_targets():
        if func in called:
            assert getattr(pipeline, func) is getattr(importlib.import_module(module), func)
            called.discard(func)
    assert called == set()


def _counted(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("command, document, options, target", [
    ("export-ip", "fig2", "--model dp", "build_dp_ip"),
    ("export-ip", "gdp", "--model gdp", "build_gdp_ip"),
    ("export-ip", "fig2", "--model replication --replication 2", "build_replication_ip"),
    ("replicate", "fig2", "--replication 2 --heuristic 1", "heuristic1"),
    ("replicate", "fig2", "--replication 2 --heuristic 2", "heuristic2"),
    ("plan", "fig2", "", "plan_workload"),
    ("plan", "gdp", "", "plan_view_dag"),
])
def test_cli_calls_the_rebound_targets(capsys, tmp_path, monkeypatch, command, document,
                                       options, target):
    # The tracer rebinds each target in every placer module that binds
    # the original.  The CLI's call is timed only if it looks the target
    # up by name when it runs: a table of functions made at import time
    # would still call the original, and the span would silently vanish.
    cli = importlib.import_module("placer.cli")
    modules = [m for n, m in sys.modules.items() if n == "placer" or n.startswith("placer.")]
    calls = Counter()
    for module, func in span_targets():
        original = getattr(importlib.import_module(module), func)
        wrapper = _counted(calls, func, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, wrapper)
    path = tmp_path / "input.json"
    path.write_text(FIG2_DOC if document == "fig2" else GDP_EXAMPLE_DOC)
    code = cli.main([command, str(path), *options.split(), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code in (0, 2)
    assert calls["main"] == 1
    assert calls[target] == 1
