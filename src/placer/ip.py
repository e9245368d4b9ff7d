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

A builder computes the objective and the variables at once but yields
its rows lazily, each time the model's rows are iterated, so a model
the size of a 1000 x 1000 workload is written without its rows ever
being held in memory together.
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .common import INFINITE, DocumentError, ValidationError, parse_int, quote
from .gdp import ViewDag
from .workload import Workload

__all__ = [
    "IpConstraint",
    "IpModel",
    "build_dp_ip",
    "build_replication_ip",
    "build_gdp_ip",
    "lp_lines",
    "write_lp",
    "read_lp",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]{0,254}\Z")
_RELATIONS = ("<=", "=", ">=")


class IpConstraint(NamedTuple):
    name: str
    terms: tuple[tuple[int, str], ...]  # (coef, var)
    relation: str  # "<=", "=", ">="
    rhs: int


class _Rows:
    """A builder's rows as a re-iterable stream: each iteration re-runs
    the builder's row generator, so the rows are made while they are
    written and never held together.  It equals any stream or tuple that
    yields the same rows."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[], Iterator[IpConstraint]]) -> None:
        self._make = make

    def __iter__(self) -> Iterator[IpConstraint]:
        return self._make()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (_Rows, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None


@dataclass(frozen=True)
class IpModel:
    """An integer program.  `constraints` is any re-iterable of rows: a
    builder's lazy stream or read_lp's tuple.  Construction checks all
    but the rows; lp_lines checks each row as it writes it, and read_lp
    checks its rows by running lp_lines."""

    sense: str  # "min" | "max"
    objective: tuple[tuple[int, str], ...]  # (coef, var)
    constraints: Iterable[IpConstraint]
    binaries: tuple[str, ...]
    bounded_reals: tuple[str, ...]  # bounded to [0, 1]

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValidationError(f"unknown objective sense {self.sense!r}")
        declared = self._declared()
        if len(declared) != len(self.binaries) + len(self.bounded_reals):
            raise ValidationError("variable declared twice")
        for name in itertools.chain(self.binaries, self.bounded_reals):
            if not _NAME_RE.match(name):
                raise ValidationError(f"invalid variable name {quote(name)}")
        for _, var in self.objective:
            if var not in declared:
                raise ValidationError(f"undeclared variable {quote(var)} in objective")

    def _declared(self) -> set[str]:
        return set(self.binaries) | set(self.bounded_reals)


def _site_rows(stems: list[str], l: int):
    """Each stem's variables stem_S1..stem_Sl as three per-object rows:
    the names, their (1, name) terms and their (-1, name) terms.  Every
    row of a model refers to these shared objects instead of formatting
    a name or building a pair again."""
    names = [[f"{stem}_S{k}" for k in range(1, l + 1)] for stem in stems]
    plus = [tuple((1, v) for v in row) for row in names]
    minus = [tuple((-1, v) for v in row) for row in names]
    return names, plus, minus


def _one_of(name: str, plus: tuple[tuple[int, str], ...]) -> IpConstraint:
    """Exactly one variable of the row is 1."""
    return IpConstraint(name, plus, "=", 1)


def _abs_diff(name: str, a: tuple, b: tuple, ind: tuple[int, str]) -> tuple[IpConstraint, ...]:
    """ind >= |a - b|, as the rows name_a (a - b - ind <= 0) and name_b
    (b - a - ind <= 0); a and b are the (plus, minus) terms of their
    variables, ind the (-1, ind) term of the indicator."""
    (plus_a, minus_a), (plus_b, minus_b) = a, b
    return (
        IpConstraint(f"{name}_a", (plus_a, minus_b, ind), "<=", 0),
        IpConstraint(f"{name}_b", (plus_b, minus_a, ind), "<=", 0),
    )


def _flat(rows: Iterable[list[str]]) -> tuple[str, ...]:
    return tuple(itertools.chain.from_iterable(rows))


def _weighted(weights: Iterable[int], names: Iterable[str]) -> tuple[tuple[int, str], ...]:
    """The objective terms of the indicators with a positive weight."""
    return tuple((coef, var) for coef, var in zip(weights, names) if coef > 0)


def _references(w: Workload) -> list[tuple[int, int, int]]:
    """(query, table, frequency-weighted cost) of every reference, by
    position, in query order."""
    t_index = {t.id: j for j, t in enumerate(w.tables)}
    return [(i, t_index[r.table], q.frequency * r.cost)
            for i, q in enumerate(w.queries) for r in q.refs]


def build_dp_ip(w: Workload) -> IpModel:
    """Placement IP: one binary per (query-or-table, server), assignment
    equalities, storage capacities, and per-reference co-location
    indicators lam >= +-(x_query - x_table) driving the minimization."""
    l = len(w.servers)
    x_t, plus_t, minus_t = _site_rows([f"x_T{j}" for j in range(1, len(w.tables) + 1)], l)
    x_q, plus_q, minus_q = _site_rows([f"x_Q{i}" for i in range(1, len(w.queries) + 1)], l)
    refs = _references(w)
    lams = tuple(f"lam_Q{i + 1}_T{j + 1}" for i, j, _ in refs)

    def rows() -> Iterator[IpConstraint]:
        for j, row in enumerate(plus_t, start=1):
            yield _one_of(f"assign_T{j}", row)
        for i, row in enumerate(plus_q, start=1):
            yield _one_of(f"assign_Q{i}", row)
        for k, s in enumerate(w.servers):
            terms = tuple((t.size, x_t[j][k]) for j, t in enumerate(w.tables) if t.size > 0)
            yield IpConstraint(f"cap_S{k + 1}", terms, "<=", s.storage_capacity)
        for (i, j, _), lam in zip(refs, lams):
            ind = (-1, lam)
            for k in range(l):
                yield from _abs_diff(
                    f"{lam}_S{k + 1}", (plus_q[i][k], minus_q[i][k]),
                    (plus_t[j][k], minus_t[j][k]), ind)

    objective = _weighted((coef for _, _, coef in refs), lams)
    return IpModel("min", objective, _Rows(rows), _flat(x_t) + _flat(x_q), lams)


def build_replication_ip(w: Workload, r: int) -> IpModel:
    """Replication IP: r replica binaries per table, one site binary per
    query, and a linearized co-location product, maximizing the
    frequency-weighted transfer saved by local replicas."""
    l = len(w.servers)
    if r < 1:
        raise ValidationError("replication factor must be >= 1")
    if r > l:
        raise ValidationError(f"replication factor {r} exceeds {l} servers")
    y, plus_y, minus_y = _site_rows([f"y_Q{i}" for i in range(1, len(w.queries) + 1)], l)
    # Replica h of table j is row j * r + h (both 0-based).
    x, plus_x, minus_x = _site_rows(
        [f"xr{h}_T{j}" for j in range(1, len(w.tables) + 1) for h in range(1, r + 1)], l)
    refs = _references(w)
    # One product per (reference, server, replica), in that order.
    zs = tuple(f"z{h + 1}_Q{i + 1}_T{j + 1}_S{k + 1}"
               for i, j, _ in refs for k in range(l) for h in range(r))

    def rows() -> Iterator[IpConstraint]:
        for i, row in enumerate(plus_y, start=1):
            yield _one_of(f"assign_Q{i}", row)
        for j in range(len(w.tables)):
            replicas = range(j * r, (j + 1) * r)
            for h, row in enumerate(replicas):
                yield _one_of(f"assign_T{j + 1}_r{h + 1}", plus_x[row])
            for k in range(l):
                once = tuple(plus_x[row][k] for row in replicas)
                yield IpConstraint(f"replica_once_T{j + 1}_S{k + 1}", once, "<=", 1)
        for k, s in enumerate(w.servers):
            terms = tuple(
                (t.size, x[j * r + h][k])
                for j, t in enumerate(w.tables)
                if t.size > 0
                for h in range(r)
            )
            yield IpConstraint(f"cap_S{k + 1}", terms, "<=", s.storage_capacity)
        products = iter(zs)
        for i, j, _ in refs:
            for k in range(l):
                for h in range(r):
                    z = next(products)
                    plus_z = (1, z)
                    yield IpConstraint(f"{z}_y", (plus_z, minus_y[i][k]), "<=", 0)
                    yield IpConstraint(f"{z}_x", (plus_z, minus_x[j * r + h][k]), "<=", 0)

    objective = _weighted((coef for _, _, coef in refs for _ in range(l * r)), zs)
    return IpModel("max", objective, _Rows(rows), _flat(y) + _flat(x), zs)


def build_gdp_ip(d: ViewDag) -> IpModel:
    """Generalized placement IP: storage and computation binaries per
    view, cut indicators per dependency arc, move indicators per movable
    view; immovable views get hard storage=computation equalities."""
    l = len(d.servers)
    n = len(d.views)
    v_index = {v.id: j for j, v in enumerate(d.views)}
    xs, plus_s, minus_s = _site_rows([f"xs_V{j}" for j in range(1, n + 1)], l)
    xc, plus_c, minus_c = _site_rows([f"xc_V{j}" for j in range(1, n + 1)], l)
    arcs = [(v_index[a.consumer], v_index[a.producer], a.cost) for a in d.arcs if a.cost != 0]
    cuts = [f"cut_V{i + 1}_V{j + 1}" for i, j, _ in arcs]
    # (view, its move indicator, or None for an immovable view) of every
    # view that gets rows of its own, in view order.
    sited = [(j, None if v.transfer_cost == INFINITE else f"mov_V{j + 1}")
             for j, v in enumerate(d.views) if v.transfer_cost > 0]
    movs = [(int(d.views[j].transfer_cost), mov) for j, mov in sited if mov]

    def rows() -> Iterator[IpConstraint]:
        for j in range(n):
            yield _one_of(f"store_V{j + 1}", plus_s[j])
            yield _one_of(f"compute_V{j + 1}", plus_c[j])
        for k, s in enumerate(d.servers):
            terms = tuple((v.size, xs[j][k]) for j, v in enumerate(d.views) if v.size > 0)
            yield IpConstraint(f"cap_S{k + 1}", terms, "<=", s.storage_capacity)
        for (i, j, _), cut in zip(arcs, cuts):
            ind = (-1, cut)
            for k in range(l):
                yield from _abs_diff(
                    f"{cut}_S{k + 1}", (plus_c[i][k], minus_c[i][k]),
                    (plus_s[j][k], minus_s[j][k]), ind)
        for j, mov in sited:
            if mov is None:
                for k in range(l):
                    pin = (plus_s[j][k], minus_c[j][k])
                    yield IpConstraint(f"pin_V{j + 1}_S{k + 1}", pin, "=", 0)
                continue
            ind = (-1, mov)
            for k in range(l):
                yield from _abs_diff(
                    f"{mov}_S{k + 1}", (plus_s[j][k], minus_s[j][k]),
                    (plus_c[j][k], minus_c[j][k]), ind)

    objective = tuple((cost, cut) for (_, _, cost), cut in zip(arcs, cuts)) + tuple(movs)
    reals = tuple(cuts) + tuple(mov for _, mov in movs)
    binaries = _flat(s + c for s, c in zip(xs, xc))
    return IpModel("min", objective, _Rows(rows), binaries, reals)


def _format_terms(terms: tuple[tuple[int, str], ...]) -> str:
    """Terms as LP text: the first sign is glued to its coefficient
    (-3 x), the later ones stand apart (- 3 x, + 2 y)."""
    return " + ".join([f"{coef} {var}" for coef, var in terms]).replace("+ -", "- ")


def lp_lines(m: IpModel) -> Iterator[str]:
    """Yield the solver-standard LP text line by line, each line ending
    in a newline (objective, Subject To, Bounds, Binary, End).  An empty
    objective becomes the "0 dummy0" convention with dummy0 fixed to 0
    in Bounds, as is a row without terms.

    This is the one row check: each row is checked as it is written (a
    valid name, not used before, a known relation, declared variables
    only, in that order), so a faulty row raises ValidationError
    mid-stream."""
    yield "Minimize\n" if m.sense == "min" else "Maximize\n"
    yield f" obj: {_format_terms(m.objective) if m.objective else '0 dummy0'}\n"
    yield "Subject To\n"
    declared = m._declared()
    names: set[str] = set()
    dummy = not m.objective
    for name, terms, relation, rhs in m.constraints:
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid constraint name {quote(name)}")
        if name in names:
            raise ValidationError(f"duplicate constraint name {quote(name)}")
        names.add(name)
        if relation not in _RELATIONS:
            raise ValidationError(f"bad relation {quote(relation)} in {quote(name)}")
        for _, var in terms:
            if var not in declared:
                raise ValidationError(
                    f"undeclared variable {quote(var)} in constraint {quote(name)}"
                )
        if terms:
            body = _format_terms(terms)
        else:
            body, dummy = "0 dummy0", True
        yield f" {name}: {body} {relation} {rhs}\n"
    yield "Bounds\n"
    if dummy:
        yield " dummy0 = 0\n"
    for v in m.bounded_reals:
        yield f" 0 <= {v} <= 1\n"
    if m.binaries:
        yield "Binary\n"
        for v in m.binaries:
            yield f" {v}\n"
    yield "End\n"


def write_lp(m: IpModel) -> str:
    """The LP text of lp_lines as one string."""
    return "".join(lp_lines(m))


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
                raise DocumentError(f"invalid variable name {quote(tok)} in {where}")
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
        raise DocumentError(f"expected Minimize/Maximize, got {quote(lines[0])}")
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
            raise DocumentError(f"constraint without a name: {quote(line)}")
        name, body = line.split(":", 1)
        name = name.strip()
        tokens = body.split()
        rel_pos = next(
            (p for p, tok in enumerate(tokens) if tok in _RELATIONS), None
        )
        if rel_pos is None or rel_pos != len(tokens) - 2:
            raise DocumentError(f"malformed constraint {quote(name)}")
        terms = _parse_terms(tokens[:rel_pos], f"constraint {quote(name)}")
        rhs = parse_int(tokens[rel_pos + 1], f"right-hand side of {quote(name)}")
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
                    raise DocumentError(f"unsupported bounds line: {quote(lines[i])}")
                i += 1
        elif section == "binary":
            i += 1
            while i < len(lines) and lines[i].lower() not in ("bounds", "end"):
                binaries.extend(lines[i].split())
                i += 1
        else:
            raise DocumentError(f"unexpected section {quote(lines[i])}")
    try:
        model = IpModel(sense, objective, tuple(constraints), tuple(binaries), tuple(reals))
        for _ in lp_lines(model):
            pass
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None
    return model

