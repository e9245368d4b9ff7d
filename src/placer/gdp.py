"""View-dependency model: DAGs over tables, queries, views and intermediates.

A GDP document extends the workload format with "views" and "arcs":

    { "views": [{"id", "class", "size"?, "transfer_cost"?, "exec_cost"?}, ...],
      "arcs":  [{"consumer", "producer", "cost"}, ...],
      "servers": [...] }

"class" is one of "base_table", "query", "materialized_view",
"intermediate".  "transfer_cost" accepts the literal string "inf".
Class defaults:

* base_table: transfer cost is forced infinite (never moved after load).
* query: stored size 0; transfer cost defaults to infinite (results are
  not stored, so compute and storage sites coincide for free).
* materialized_view: transfer cost defaults to the view size.
* intermediate: stored size 0; the declared "transfer_cost" is the size
  of the computed result shipped from its computation site (default 0);
  "inf" pins computation and storage together.
"""
from __future__ import annotations

import graphlib
import json
from dataclasses import dataclass
from enum import Enum

from .common import INFINITE, INT64_MAX, DocumentError
from .workload import (
    Server,
    Workload,
    _as_id,
    _nonneg,
    check_sections,
    check_server_ids,
    check_unique,
    document_entries,
    load_json_document,
    parse_server,
    server_entry,
)

__all__ = [
    "ViewClass",
    "View",
    "Arc",
    "ViewDag",
    "make_view",
    "parse_gdp",
    "serialize_gdp",
    "validate_view_dag",
    "lift_workload",
]


class ViewClass(Enum):
    BASE_TABLE = "base_table"
    QUERY = "query"
    MATERIALIZED_VIEW = "materialized_view"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class View:
    id: str
    kind: ViewClass
    size: int
    transfer_cost: int | float  # INFINITE pins compute site to storage site
    exec_cost: int = 0


@dataclass(frozen=True)
class Arc:
    consumer: str  # the view that needs...
    producer: str  # ...this view
    cost: int


@dataclass(frozen=True)
class ViewDag:
    views: tuple[View, ...]
    arcs: tuple[Arc, ...]
    servers: tuple[Server, ...]


def make_view(
    vid: str,
    kind: ViewClass,
    size: int | None = None,
    transfer_cost: int | float | None = None,
    exec_cost: int | None = None,
) -> View:
    """Build a view with class-dependent defaults and contradiction checks."""
    if kind is ViewClass.BASE_TABLE:
        if size is None:
            raise DocumentError(f"base table {vid!r} needs a size")
        if transfer_cost is not None and transfer_cost != INFINITE:
            raise DocumentError(
                f"base table {vid!r} cannot have a finite transfer_cost"
            )
        stored, move = size, INFINITE
    elif kind is ViewClass.QUERY:
        if size not in (None, 0):
            raise DocumentError(f"query view {vid!r} must have size 0")
        stored = 0
        move = INFINITE if transfer_cost is None else transfer_cost
    elif kind is ViewClass.MATERIALIZED_VIEW:
        if size is None:
            raise DocumentError(f"materialized view {vid!r} needs a size")
        stored = size
        move = size if transfer_cost is None else transfer_cost
    else:  # INTERMEDIATE: result size rides on transfer_cost, nothing stored
        if size not in (None, 0):
            raise DocumentError(
                f"intermediate {vid!r} must have size 0 "
                "(declare the result size as transfer_cost)"
            )
        stored = 0
        move = 0 if transfer_cost is None else transfer_cost
    return View(vid, kind, stored, move, 0 if exec_cost is None else exec_cost)


def _parse_transfer(value: object, vid: str) -> int | float | None:
    if value is None:
        return None
    if value == "inf":
        return INFINITE
    return _nonneg(value, f"transfer_cost of view {vid!r}")


def _parse_view(entry: dict) -> View:
    vid = _as_id(entry.get("id"), "view id")
    raw_kind = entry.get("class")
    try:
        kind = ViewClass(raw_kind)
    except ValueError:
        names = ", ".join(c.value for c in ViewClass)
        raise DocumentError(
            f"view {vid!r} has unknown class {raw_kind!r} (expected one of {names})"
        ) from None
    size = entry.get("size")
    if size is not None:
        size = _nonneg(size, f"size of view {vid!r}")
    exec_cost = entry.get("exec_cost")
    if exec_cost is not None:
        exec_cost = _nonneg(exec_cost, f"exec_cost of view {vid!r}")
    return make_view(vid, kind, size, _parse_transfer(entry.get("transfer_cost"), vid), exec_cost)


def _parse_arc(entry: dict) -> Arc:
    consumer = _as_id(entry.get("consumer"), "arc consumer")
    producer = _as_id(entry.get("producer"), "arc producer")
    cost = _nonneg(entry.get("cost"), f"cost of arc {consumer!r}->{producer!r}")
    return Arc(consumer, producer, cost)


def parse_gdp(source: str | dict) -> ViewDag:
    """Read a view-DAG document, given as text or as the object
    `load_json_document` returned."""
    doc = load_json_document(source) if isinstance(source, str) else source
    check_sections(doc, ("views", "arcs", "servers"))
    views = tuple(_parse_view(e) for e in document_entries(doc, "views"))
    arcs = tuple(_parse_arc(e) for e in document_entries(doc, "arcs"))
    servers = tuple(parse_server(e) for e in document_entries(doc, "servers"))
    d = ViewDag(views, arcs, servers)
    validate_view_dag(d)
    return d


def validate_view_dag(d: ViewDag) -> None:
    """Check what no single entry shows: unique view ids, arcs that join
    defined views once per pair, no base-table consumer or query
    producer, no cycle, unique server ids and totals that fit 64 bits.
    Each entry's reader checks its own fields, and `make_view` the
    class rules."""
    check_unique((v.id for v in d.views), "view id")
    by_id = {v.id: v for v in d.views}
    seen_pairs: set[tuple[str, str]] = set()
    order = graphlib.TopologicalSorter()
    for a in d.arcs:
        for endpoint in (a.consumer, a.producer):
            if endpoint not in by_id:
                raise DocumentError(f"arc references undefined view {endpoint!r}")
        if (a.consumer, a.producer) in seen_pairs:
            raise DocumentError(f"duplicate arc {a.consumer!r}->{a.producer!r}")
        seen_pairs.add((a.consumer, a.producer))
        if by_id[a.consumer].kind is ViewClass.BASE_TABLE:
            raise DocumentError(f"base table {a.consumer!r} cannot depend on other views")
        if by_id[a.producer].kind is ViewClass.QUERY:
            raise DocumentError(f"query view {a.producer!r} cannot have consumers")
        order.add(a.producer, a.consumer)
    try:
        order.prepare()
    except graphlib.CycleError as exc:
        # Each view in the reported cycle depends on the next; report it
        # from its first view in document order.
        cycle = exc.args[1][:-1]
        i = cycle.index(min(cycle, key=list(by_id).index))
        cycle = cycle[i:] + cycle[:i]
        raise DocumentError("cycle detected: " + " -> ".join(cycle + cycle[:1])) from None

    check_server_ids(d.servers)

    total = sum(v.size for v in d.views)
    total += sum(a.cost for a in d.arcs)
    total += sum(int(v.transfer_cost) for v in d.views if v.transfer_cost != INFINITE)
    if total > INT64_MAX or sum(v.exec_cost for v in d.views) > INT64_MAX:
        raise DocumentError("view DAG totals overflow a signed 64-bit integer")


def serialize_gdp(d: ViewDag) -> str:
    views = []
    for v in d.views:
        entry: dict = {"id": v.id, "class": v.kind.value}
        if v.kind in (ViewClass.BASE_TABLE, ViewClass.MATERIALIZED_VIEW):
            entry["size"] = v.size
        if v.transfer_cost != make_view(v.id, v.kind, v.size).transfer_cost:
            entry["transfer_cost"] = (
                "inf" if v.transfer_cost == INFINITE else v.transfer_cost
            )
        if v.exec_cost:
            entry["exec_cost"] = v.exec_cost
        views.append(entry)
    doc = {
        "views": views,
        "arcs": [
            {"consumer": a.consumer, "producer": a.producer, "cost": a.cost}
            for a in d.arcs
        ],
        "servers": [server_entry(s) for s in d.servers],
    }
    return json.dumps(doc, indent=2) + "\n"


def lift_workload(w: Workload) -> ViewDag:
    """Lift a plain workload into the view model.

    Tables become base-table views and queries become query views whose
    dependency arcs carry the frequency-weighted transfer costs, so the
    lifted instance has the same optimal cost as the original.
    """
    views = [make_view(t.id, ViewClass.BASE_TABLE, t.size) for t in w.tables]
    arcs = []
    for q in w.queries:
        views.append(
            make_view(q.id, ViewClass.QUERY, 0, None, q.exec_cost * q.frequency)
        )
        for r in q.refs:
            arcs.append(Arc(q.id, r.table, q.frequency * r.cost))
    d = ViewDag(tuple(views), tuple(arcs), w.servers)
    validate_view_dag(d)
    return d
