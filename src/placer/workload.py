"""Domain model and document I/O for table/query/server workloads.

A workload document is a JSON object:

    { "tables":  [{"id", "size"}, ...],
      "queries": [{"id", "refs": [{"table", "cost"}, ...],
                   "frequency"?, "exec_cost"?}, ...],
      "servers": [{"id", "storage_capacity", "load_capacity"?}, ...] }

All quantities are nonnegative 64-bit integers.  A missing "frequency"
defaults to 1, a missing "exec_cost" to the sum of the query's ref costs,
and a missing "load_capacity" means the server's execution capacity is
unbounded.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

from .common import INT64_MAX, DocumentError, quote

__all__ = [
    "Table",
    "QueryRef",
    "Query",
    "Server",
    "Workload",
    "parse_workload",
    "serialize_workload",
    "validate_workload",
    "validate_capacity_lower_bounds",
]


@dataclass(frozen=True)
class Table:
    id: str
    size: int


@dataclass(frozen=True)
class QueryRef:
    table: str
    cost: int


@dataclass(frozen=True)
class Query:
    id: str
    refs: tuple[QueryRef, ...]
    frequency: int = 1
    exec_cost: int | None = None  # None defaults to the summed ref costs

    def __post_init__(self) -> None:
        if self.exec_cost is None:
            object.__setattr__(self, "exec_cost", sum(r.cost for r in self.refs))


@dataclass(frozen=True)
class Server:
    id: str
    storage_capacity: int
    load_capacity: int | None = None  # None = unbounded


@dataclass(frozen=True)
class Workload:
    tables: tuple[Table, ...]
    queries: tuple[Query, ...]
    servers: tuple[Server, ...]

    def total_size(self) -> int:
        return sum(t.size for t in self.tables)


# A field is named by a template with one {} per id it quotes, filled in
# only when its value is refused.
def _as_int(value: object, what: str, *ids: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        what = what.format(*map(quote, ids))
        raise DocumentError(f"{what} must be an integer, got {quote(value)}")
    return value


def _nonneg(value: object, what: str, *ids: str) -> int:
    n = _as_int(value, what, *ids)
    if n < 0:
        what = what.format(*map(quote, ids))
        raise DocumentError(f"{what} must be nonnegative, got {quote(n)}")
    return n


def _as_id(value: object, what: str, *ids: str) -> str:
    if not isinstance(value, str) or not value:
        what = what.format(*map(quote, ids))
        raise DocumentError(f"{what} must be a nonempty string, got {quote(value)}")
    return value


def load_json_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise DocumentError("document nests too deeply") from None
    except ValueError:  # the interpreter's cap on digits of an int literal
        raise DocumentError(
            f"integer literal longer than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    return doc


def check_sections(doc: dict, sections: tuple[str, ...]) -> None:
    """Reject a top-level key outside `sections`: a misspelt section
    would otherwise read as an empty one."""
    for key in doc:
        if key not in sections:
            raise DocumentError(
                f"unknown top-level key {quote(key)} (expected {', '.join(sections)})"
            )


def document_entries(doc: dict, key: str) -> list[dict]:
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise DocumentError(f"{key!r} must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise DocumentError(f"entries of {key!r} must be objects, got {quote(entry)}")
    return entries


def parse_server(entry: dict) -> Server:
    sid = _as_id(entry.get("id"), "server id")
    cap = _nonneg(entry.get("storage_capacity"), "storage_capacity of server {}", sid)
    load = entry.get("load_capacity")
    if load is not None:
        load = _nonneg(load, "load_capacity of server {}", sid)
    return Server(sid, cap, load)


def server_entry(s: Server) -> dict:
    """A server's document entry; an unbounded load capacity is omitted."""
    entry: dict = {"id": s.id, "storage_capacity": s.storage_capacity}
    if s.load_capacity is not None:
        entry["load_capacity"] = s.load_capacity
    return entry


def _parse_table(entry: dict) -> Table:
    tid = _as_id(entry.get("id"), "table id")
    return Table(tid, _nonneg(entry.get("size"), "size of table {}", tid))


def _parse_query(entry: dict) -> Query:
    qid = _as_id(entry.get("id"), "query id")
    raw_refs = entry.get("refs")
    if not isinstance(raw_refs, list) or not raw_refs:
        raise DocumentError(f"query {quote(qid)} must have a nonempty 'refs' list")
    refs = []
    for ref in raw_refs:
        if not isinstance(ref, dict):
            raise DocumentError(f"refs of query {quote(qid)} must be objects")
        table = _as_id(ref.get("table"), "ref table of query {}", qid)
        cost = _nonneg(ref.get("cost"), "cost of ref {}->{}", qid, table)
        refs.append(QueryRef(table, cost))
    freq = entry.get("frequency", 1)
    freq = _as_int(freq, "frequency of query {}", qid)
    if freq < 1:
        raise DocumentError(f"frequency of query {quote(qid)} must be >= 1, got {quote(freq)}")
    exec_cost = entry.get("exec_cost")
    if exec_cost is not None:
        exec_cost = _nonneg(exec_cost, "exec_cost of query {}", qid)
    return Query(qid, tuple(refs), freq, exec_cost)


def parse_workload(source: str | dict) -> Workload:
    """Read a workload document, given as text or as the object
    `load_json_document` returned; all defaults materialized."""
    doc = load_json_document(source) if isinstance(source, str) else source
    check_sections(doc, ("tables", "queries", "servers"))
    tables = tuple(_parse_table(e) for e in document_entries(doc, "tables"))
    queries = tuple(_parse_query(e) for e in document_entries(doc, "queries"))
    servers = tuple(parse_server(e) for e in document_entries(doc, "servers"))
    w = Workload(tables, queries, servers)
    validate_workload(w)
    return w


def check_unique(ids: Iterable[str], what: str) -> None:
    """Reject the first id that repeats; `what` names the kind of id."""
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise DocumentError(f"duplicate {what}: {quote(i)}")
        seen.add(i)


def check_server_ids(servers: tuple[Server, ...]) -> None:
    """Placement documents name servers by id, so ids must be unique."""
    check_unique((s.id for s in servers), "server id")


def validate_workload(w: Workload) -> None:
    """Check what no single entry shows: unique table and query ids (one
    namespace), refs that name a defined table once per query, unique
    server ids and totals that fit 64 bits.  Each entry's reader checks
    its own fields."""
    check_unique([t.id for t in w.tables] + [q.id for q in w.queries], "id")
    table_ids = {t.id for t in w.tables}
    for q in w.queries:
        used: set[str] = set()
        for r in q.refs:
            if r.table not in table_ids:
                raise DocumentError(
                    f"query {quote(q.id)} references undefined table {quote(r.table)}"
                )
            if r.table in used:
                raise DocumentError(
                    f"query {quote(q.id)} references table {quote(r.table)} more than once"
                )
            used.add(r.table)
    check_server_ids(w.servers)

    totals = [
        sum(t.size for t in w.tables),
        sum(s.storage_capacity for s in w.servers),
        sum(q.frequency * sum(r.cost for r in q.refs) for q in w.queries),
        sum(q.frequency * q.exec_cost for q in w.queries),
    ]
    if any(total > INT64_MAX for total in totals):
        raise DocumentError("workload totals overflow a signed 64-bit integer")


def _json_list(entries: list[str], indent: str) -> str:
    """A list of written entries, laid out as json.dumps(indent=2) lays
    out a list whose closing bracket sits at `indent`."""
    if not entries:
        return "[]"
    return "[\n" + ",\n".join(entries) + "\n" + indent + "]"


def serialize_workload(w: Workload) -> str:
    """Serialize to the document format; defaulted fields are omitted.

    The document's shape is fixed, so each entry is written by one
    format string rather than through json.dumps(indent=2), whose
    indented output runs in pure Python.  Ids are escaped by the C
    function json.dumps itself uses, and the text is byte for byte
    json.dumps(doc, indent=2) + "\n" of the same document."""
    tables = [f'    {{\n      "id": {_json_str(t.id)},\n      "size": {t.size!r}\n    }}'
              for t in w.tables]
    queries = []
    for q in w.queries:
        refs = _json_list(
            [f'        {{\n          "table": {_json_str(r.table)},\n'
             f'          "cost": {r.cost!r}\n        }}' for r in q.refs], "      ")
        entry = f'    {{\n      "id": {_json_str(q.id)},\n      "refs": {refs}'
        if q.frequency != 1:
            entry += f',\n      "frequency": {q.frequency!r}'
        if q.exec_cost != sum(r.cost for r in q.refs):
            entry += f',\n      "exec_cost": {q.exec_cost!r}'
        queries.append(entry + "\n    }")
    servers = []
    for s in w.servers:
        entry = (f'    {{\n      "id": {_json_str(s.id)},\n'
                 f'      "storage_capacity": {s.storage_capacity!r}')
        if s.load_capacity is not None:
            entry += f',\n      "load_capacity": {s.load_capacity!r}'
        servers.append(entry + "\n    }")
    return (f'{{\n  "tables": {_json_list(tables, "  ")},\n'
            f'  "queries": {_json_list(queries, "  ")},\n'
            f'  "servers": {_json_list(servers, "  ")}\n}}\n')


def validate_capacity_lower_bounds(w: Workload) -> list[str]:
    """Cheap necessary-condition checks; warnings only, never an error.

    Deciding feasibility exactly is NP-hard, so only two bounds are
    checked: the largest table must fit on some server, and aggregate
    capacity must cover aggregate size.
    """
    notes: list[str] = []
    if w.tables:
        largest = max(w.tables, key=lambda t: (t.size, t.id))
        best = max((s.storage_capacity for s in w.servers), default=0)
        if best < largest.size:
            notes.append(
                f"largest-table: table {largest.id!r} (size {largest.size}) "
                f"exceeds every server capacity (max {best})"
            )
    total_size = sum(t.size for t in w.tables)
    total_cap = sum(s.storage_capacity for s in w.servers)
    if total_cap < total_size:
        notes.append(
            f"aggregate-capacity: total table size {total_size} exceeds "
            f"total server capacity {total_cap}"
        )
    return notes
