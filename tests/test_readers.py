"""Malformed input of any kind ends in exit 1 with one line, never in a
traceback: the text readers raise DocumentError, and the command line
turns every PlacerError into exit code 1."""
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from placer.cli import main
from placer.common import DocumentError
from placer.ip import read_lp
from placer.partition import parse_graph

from conftest import FIG2_DOC


def read_graph(text: str):
    return parse_graph(text, ((1,), (1,)))


@pytest.mark.parametrize("read, text, message", [
    (read_graph, "2 x 011 1\n1 2 1\n1 1 1\n", "invalid edge count 'x'"),
    (read_graph, "2 1 011 1\nz 2 1\n1 1 1\n", "non-integer field on node line 1: 'z 2 1'"),
    (read_graph, "2 1 011 1\n1 q 1\n1 1 1\n", "non-integer field on node line 1: '1 q 1'"),
    (read_lp, "Minimize\n obj: 1 x\nSubject To\n c1: 1 x <= abc\nEnd\n",
     "invalid right-hand side of 'c1' 'abc'"),
])
def test_non_integer_fields_are_document_errors(read, text, message):
    with pytest.raises(DocumentError, match=re.escape(message)):
        read(text)


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
def test_graph_and_lp_readers_raise_only_document_errors(text):
    for read in (read_graph, read_lp):
        try:
            read(text)
        except DocumentError:
            pass
