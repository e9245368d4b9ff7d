"""Integer-program builders and LP-format text export.

Three models are emitted: the plain placement program (binary location
variables with co-location indicators), its replication variant (one
binary per replica with a linearized product), and the generalized
view-placement program (separate storage/computation binaries with cut
and move indicators).  Indicator variables are declared as [0,1] reals,
not binaries: at optimality they settle on the extreme values anyway, so
the optimum is unchanged and the model carries fewer integer variables.

Variables are named by 1-based positional indices (x_T1_S2, y_Q3_S1,
z2_Q1_T4_S1, lam_Q1_T4, ...) so opaque object ids never leak into LP
identifiers.  A term is a plain (coefficient, variable) pair, and a row
is a named tuple that holds its terms as a tuple of such pairs.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .common import INFINITE, DocumentError, ValidationError, parse_int
from .gdp import ViewDag
from .workload import Workload

__all__ = [
    "IpConstraint",
    "IpModel",
    "build_dp_ip",
    "build_replication_ip",
    "build_gdp_ip",
    "write_lp",
    "read_lp",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]{0,254}$")


class IpConstraint(NamedTuple):
    name: str
    terms: tuple[tuple[int, str], ...]  # (coef, var)
    relation: str  # "<=", "=", ">="
    rhs: int


@dataclass(frozen=True)
class IpModel:
    sense: str  # "min" | "max"
    objective: tuple[tuple[int, str], ...]  # (coef, var)
    constraints: tuple[IpConstraint, ...]
    binaries: tuple[str, ...]
    bounded_reals: tuple[str, ...]  # bounded to [0, 1]

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValidationError(f"unknown objective sense {self.sense!r}")
        declared = set(self.binaries) | set(self.bounded_reals)
        if len(declared) != len(self.binaries) + len(self.bounded_reals):
            raise ValidationError("variable declared twice")
        for name in itertools.chain(self.binaries, self.bounded_reals):
            if not _NAME_RE.match(name):
                raise ValidationError(f"invalid variable name {name!r}")
        for _, var in self.objective:
            if var not in declared:
                raise ValidationError(f"undeclared variable {var!r} in objective")
        names = set()
        for c in self.constraints:
            if not _NAME_RE.match(c.name):
                raise ValidationError(f"invalid constraint name {c.name!r}")
            if c.name in names:
                raise ValidationError(f"duplicate constraint name {c.name!r}")
            names.add(c.name)
            if c.relation not in ("<=", "=", ">="):
                raise ValidationError(f"bad relation {c.relation!r} in {c.name!r}")
            for _, var in c.terms:
                if var not in declared:
                    raise ValidationError(
                        f"undeclared variable {var!r} in constraint {c.name!r}"
                    )


def _one_of(name: str, row: list[str]) -> IpConstraint:
    """Exactly one variable of the row is 1."""
    return IpConstraint(name, tuple((1, v) for v in row), "=", 1)


def _abs_diff(name: str, a: str, b: str, ind: str) -> tuple[IpConstraint, ...]:
    """ind >= |a - b|, as the rows name_a (a - b - ind <= 0) and name_b
    (b - a - ind <= 0)."""
    return (
        IpConstraint(f"{name}_a", ((1, a), (-1, b), (-1, ind)), "<=", 0),
        IpConstraint(f"{name}_b", ((1, b), (-1, a), (-1, ind)), "<=", 0),
    )


def build_dp_ip(w: Workload) -> IpModel:
    """Placement IP: one binary per (query-or-table, server), assignment
    equalities, storage capacities, and per-reference co-location
    indicators lam >= +-(x_query - x_table) driving the minimization."""
    l = len(w.servers)
    binaries = []
    reals = []
    constraints = []
    objective = []
    t_index = {t.id: j + 1 for j, t in enumerate(w.tables)}
    q_index = {q.id: i + 1 for i, q in enumerate(w.queries)}

    def x_t(j: int, k: int) -> str:
        return f"x_T{j}_S{k}"

    def x_q(i: int, k: int) -> str:
        return f"x_Q{i}_S{k}"

    for j, t in enumerate(w.tables, start=1):
        row = [x_t(j, k) for k in range(1, l + 1)]
        binaries.extend(row)
        constraints.append(_one_of(f"assign_T{j}", row))
    for i, q in enumerate(w.queries, start=1):
        row = [x_q(i, k) for k in range(1, l + 1)]
        binaries.extend(row)
        constraints.append(_one_of(f"assign_Q{i}", row))
    for k, s in enumerate(w.servers, start=1):
        terms = tuple((t.size, x_t(t_index[t.id], k)) for t in w.tables if t.size > 0)
        constraints.append(IpConstraint(f"cap_S{k}", terms, "<=", s.storage_capacity))
    for q in w.queries:
        i = q_index[q.id]
        for r in q.refs:
            j = t_index[r.table]
            lam = f"lam_Q{i}_T{j}"
            reals.append(lam)
            coef = q.frequency * r.cost
            if coef > 0:
                objective.append((coef, lam))
            for k in range(1, l + 1):
                constraints.extend(_abs_diff(f"{lam}_S{k}", x_q(i, k), x_t(j, k), lam))
    return IpModel(
        "min", tuple(objective), tuple(constraints), tuple(binaries), tuple(reals)
    )


def build_replication_ip(w: Workload, r: int) -> IpModel:
    """Replication IP: r replica binaries per table, one site binary per
    query, and a linearized co-location product, maximizing the
    frequency-weighted transfer saved by local replicas."""
    l = len(w.servers)
    if r < 1:
        raise ValidationError("replication factor must be >= 1")
    if r > l:
        raise ValidationError(f"replication factor {r} exceeds {l} servers")
    binaries = []
    reals = []
    constraints = []
    objective = []
    t_index = {t.id: j + 1 for j, t in enumerate(w.tables)}

    def x(h: int, j: int, k: int) -> str:
        return f"xr{h}_T{j}_S{k}"

    def y(i: int, k: int) -> str:
        return f"y_Q{i}_S{k}"

    for i, q in enumerate(w.queries, start=1):
        row = [y(i, k) for k in range(1, l + 1)]
        binaries.extend(row)
        constraints.append(_one_of(f"assign_Q{i}", row))
    for j, t in enumerate(w.tables, start=1):
        for h in range(1, r + 1):
            row = [x(h, j, k) for k in range(1, l + 1)]
            binaries.extend(row)
            constraints.append(_one_of(f"assign_T{j}_r{h}", row))
        for k in range(1, l + 1):
            once = tuple((1, x(h, j, k)) for h in range(1, r + 1))
            constraints.append(IpConstraint(f"replica_once_T{j}_S{k}", once, "<=", 1))
    for k, s in enumerate(w.servers, start=1):
        terms = tuple(
            (t.size, x(h, t_index[t.id], k))
            for t in w.tables
            if t.size > 0
            for h in range(1, r + 1)
        )
        constraints.append(IpConstraint(f"cap_S{k}", terms, "<=", s.storage_capacity))
    for i, q in enumerate(w.queries, start=1):
        for ref in q.refs:
            j = t_index[ref.table]
            coef = q.frequency * ref.cost
            for k in range(1, l + 1):
                for h in range(1, r + 1):
                    z = f"z{h}_Q{i}_T{j}_S{k}"
                    reals.append(z)
                    if coef > 0:
                        objective.append((coef, z))
                    constraints += (
                        IpConstraint(f"{z}_y", ((1, z), (-1, y(i, k))), "<=", 0),
                        IpConstraint(f"{z}_x", ((1, z), (-1, x(h, j, k))), "<=", 0),
                    )
    return IpModel(
        "max", tuple(objective), tuple(constraints), tuple(binaries), tuple(reals)
    )


def build_gdp_ip(d: ViewDag) -> IpModel:
    """Generalized placement IP: storage and computation binaries per
    view, cut indicators per dependency arc, move indicators per movable
    view; immovable views get hard storage=computation equalities."""
    l = len(d.servers)
    binaries = []
    reals = []
    constraints = []
    objective = []
    v_index = {v.id: j + 1 for j, v in enumerate(d.views)}

    def xs(j: int, k: int) -> str:
        return f"xs_V{j}_S{k}"

    def xc(j: int, k: int) -> str:
        return f"xc_V{j}_S{k}"

    for j, v in enumerate(d.views, start=1):
        s_row = [xs(j, k) for k in range(1, l + 1)]
        c_row = [xc(j, k) for k in range(1, l + 1)]
        binaries.extend(s_row)
        binaries.extend(c_row)
        constraints.append(_one_of(f"store_V{j}", s_row))
        constraints.append(_one_of(f"compute_V{j}", c_row))
    for k, s in enumerate(d.servers, start=1):
        terms = tuple((v.size, xs(v_index[v.id], k)) for v in d.views if v.size > 0)
        constraints.append(IpConstraint(f"cap_S{k}", terms, "<=", s.storage_capacity))
    for a in d.arcs:
        i, j = v_index[a.consumer], v_index[a.producer]
        if a.cost == 0:
            continue
        cut = f"cut_V{i}_V{j}"
        reals.append(cut)
        objective.append((a.cost, cut))
        for k in range(1, l + 1):
            constraints.extend(_abs_diff(f"{cut}_S{k}", xc(i, k), xs(j, k), cut))
    for v in d.views:
        j = v_index[v.id]
        if v.transfer_cost == INFINITE:
            for k in range(1, l + 1):
                pin = ((1, xs(j, k)), (-1, xc(j, k)))
                constraints.append(IpConstraint(f"pin_V{j}_S{k}", pin, "=", 0))
        elif v.transfer_cost > 0:
            mov = f"mov_V{j}"
            reals.append(mov)
            objective.append((int(v.transfer_cost), mov))
            for k in range(1, l + 1):
                constraints.extend(_abs_diff(f"{mov}_S{k}", xs(j, k), xc(j, k), mov))
    return IpModel(
        "min", tuple(objective), tuple(constraints), tuple(binaries), tuple(reals)
    )


def _format_terms(terms: tuple[tuple[int, str], ...]) -> str:
    parts = []
    for idx, (coef, var) in enumerate(terms):
        if idx == 0:
            prefix = "-" if coef < 0 else ""
        else:
            prefix = "- " if coef < 0 else "+ "
        parts.append(f"{prefix}{abs(coef)} {var}")
    return " ".join(parts)


def write_lp(m: IpModel) -> str:
    """Emit solver-standard LP text (objective, Subject To, Bounds,
    Binary, End).  An empty objective becomes the "0 dummy0" convention
    with dummy0 fixed to 0 in Bounds."""
    lines = ["Minimize" if m.sense == "min" else "Maximize"]
    if m.objective:
        lines.append(" obj: " + _format_terms(m.objective))
    else:
        lines.append(" obj: 0 dummy0")
    lines.append("Subject To")
    for c in m.constraints:
        body = _format_terms(c.terms) if c.terms else "0 dummy0"
        lines.append(f" {c.name}: {body} {c.relation} {c.rhs}")
    lines.append("Bounds")
    if not m.objective or any(not c.terms for c in m.constraints):
        lines.append(" dummy0 = 0")
    for v in m.bounded_reals:
        lines.append(f" 0 <= {v} <= 1")
    if m.binaries:
        lines.append("Binary")
        for v in m.binaries:
            lines.append(f" {v}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _parse_terms(tokens: list[str], where: str) -> tuple[tuple[int, str], ...]:
    terms = []
    sign = 1
    pending: int | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif re.fullmatch(r"-?\d+", tok):
            if pending is not None:
                raise DocumentError(f"two consecutive numbers in {where}")
            pending = sign * parse_int(tok, f"coefficient in {where}")
            sign = 1
        else:
            if not _NAME_RE.match(tok):
                raise DocumentError(f"invalid variable name {tok!r} in {where}")
            coef = pending if pending is not None else sign
            terms.append((coef, tok))
            pending = None
            sign = 1
    if pending is not None:
        raise DocumentError(f"dangling coefficient in {where}")
    return tuple(t for t in terms if t != (0, "dummy0"))


def read_lp(text: str) -> IpModel:
    """Re-read LP text written by write_lp (the same grammar subset)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DocumentError("empty LP document")
    head = lines[0].lower()
    if head in ("minimize", "min"):
        sense = "min"
    elif head in ("maximize", "max"):
        sense = "max"
    else:
        raise DocumentError(f"expected Minimize/Maximize, got {lines[0]!r}")
    i = 1
    obj_tokens: list[str] = []
    while i < len(lines) and lines[i].lower() != "subject to":
        body = lines[i]
        if ":" in body:
            body = body.split(":", 1)[1]
        obj_tokens.extend(body.split())
        i += 1
    objective = _parse_terms(obj_tokens, "objective")
    if i == len(lines):
        raise DocumentError("missing 'Subject To' section")
    i += 1
    constraints = []
    while i < len(lines) and lines[i].lower() not in ("bounds", "binary", "end"):
        line = lines[i]
        if ":" not in line:
            raise DocumentError(f"constraint without a name: {line!r}")
        name, body = line.split(":", 1)
        name = name.strip()
        tokens = body.split()
        rel_pos = next(
            (p for p, tok in enumerate(tokens) if tok in ("<=", "=", ">=")), None
        )
        if rel_pos is None or rel_pos != len(tokens) - 2:
            raise DocumentError(f"malformed constraint {name!r}")
        terms = _parse_terms(tokens[:rel_pos], f"constraint {name!r}")
        rhs = parse_int(tokens[rel_pos + 1], f"right-hand side of {name!r}")
        constraints.append(IpConstraint(name, terms, tokens[rel_pos], rhs))
        i += 1
    reals: list[str] = []
    binaries: list[str] = []
    while i < len(lines):
        section = lines[i].lower()
        if section == "end":
            break
        if section == "bounds":
            i += 1
            while i < len(lines) and lines[i].lower() not in ("binary", "end"):
                tokens = lines[i].split()
                if tokens == ["dummy0", "=", "0"]:
                    pass
                elif (
                    len(tokens) == 5
                    and tokens[0] == "0"
                    and tokens[1] == "<="
                    and tokens[3] == "<="
                    and tokens[4] == "1"
                ):
                    reals.append(tokens[2])
                else:
                    raise DocumentError(f"unsupported bounds line: {lines[i]!r}")
                i += 1
        elif section == "binary":
            i += 1
            while i < len(lines) and lines[i].lower() not in ("bounds", "end"):
                binaries.extend(lines[i].split())
                i += 1
        else:
            raise DocumentError(f"unexpected section {lines[i]!r}")
    try:
        return IpModel(sense, objective, tuple(constraints), tuple(binaries), tuple(reals))
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None

