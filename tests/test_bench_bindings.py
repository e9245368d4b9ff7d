"""The benchmark's tracer wraps placer functions by module and name, so
each of its targets must still exist: a renamed or deleted one would
crash every traced run.  The targets are read from perfbench/spans.py's
source, without importing the harness."""
import ast
import importlib
from pathlib import Path

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
