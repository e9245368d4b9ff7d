"""Balanced k-way partitioning with per-part capacity vectors.

Multilevel scheme: coarsen by heavy-edge matching, assign each node of
the coarsest graph to a uniformly random part, then refine with
move-based local search at every level: each pass makes the best fitting
move at every step, moves out of overfull parts first, locks the node,
stops after a run of moves without a new best prefix and rolls back to
the best prefix, the one of least total excess and then lowest cut.
There is no separate construction phase: the moves out of overfull parts
balance the random start.  Because exact feasibility is NP-hard the
solver never fails on an overfull instance: it sweeps a set of capacity
slack factors (and seeds), refines each candidate under its slackened
capacities and then once more under the true ones (the final balancing
step of multilevel partitioners), and returns the cheapest result that
respects the true capacities.  When no candidate respects them it falls
back to the violating candidate with the lowest cut (the smallest total
excess only breaks cut ties), with violations itemized.

Ties are always broken by lowest node id, then lowest part index, so a
given (graph, config) pair yields one reproducible result.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction

from .common import INFINITE, DocumentError, ValidationError, parse_int
from .reduction import GraphEdge, GraphNode, PartGraph, PartitionAssignment

__all__ = [
    "DEFAULT_SLACK_FACTORS",
    "PartitionConfig",
    "PartitionResult",
    "partition",
    "recompute_cut",
    "balance_ratio",
    "export_graph",
    "import_partition",
    "parse_graph",
    "capacity_fractions",
]

# Five slack factors spanning 0..22% extra capacity (0, 1/18, ..., 4/18).
# Every slack > 0 candidate is rebalanced to the true capacities; with
# that step no larger slack won on the random and TPC-DS plans measured.
DEFAULT_SLACK_FACTORS = tuple(Fraction(i, 18) for i in range(5))

# Refinement passes per level, and the node count at which coarsening stops.
REFINEMENT_PASSES = 10
COARSEN_FLOOR = 64


@dataclass(frozen=True)
class PartitionConfig:
    slack_factors: tuple[Fraction, ...] = DEFAULT_SLACK_FACTORS
    seeds: tuple[int, ...] = (0, 1, 2, 3)

    def __post_init__(self) -> None:
        factors = tuple(Fraction(s) for s in self.slack_factors)
        if not factors:
            raise ValidationError("slack_factors must be nonempty")
        if list(factors) != sorted(factors):
            raise ValidationError("slack_factors must be sorted ascending")
        if factors[0] < 0:
            raise ValidationError("slack_factors must be nonnegative")
        if len(set(factors)) != len(factors):
            raise ValidationError("slack_factors must be distinct")
        object.__setattr__(self, "slack_factors", factors)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seeds must be distinct")


@dataclass(frozen=True)
class PartitionResult:
    assignment: PartitionAssignment
    cut_weight: int
    per_part_loads: tuple[tuple[int, ...], ...]
    part_capacities: tuple[tuple[int | float, ...], ...]
    violations: tuple[tuple[int, int, int], ...]  # (part, constraint, excess)
    slack: Fraction
    seed: int


class _Mesh:
    """Integer-indexed graph: node weights plus edges (u, v, weight) with
    u < v; adj[u] lists (v, weight) sorted by v."""

    __slots__ = ("n", "ncon", "weights", "adj", "edges")

    def __init__(self, ncon, weights, edges):
        self.n = len(weights)
        self.ncon = ncon
        self.weights = weights
        self.edges = edges
        self.adj = [[] for _ in weights]
        for u, v, w in edges:
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))
        for lst in self.adj:
            lst.sort()


def _mesh_of(g: PartGraph) -> tuple[list[str], _Mesh]:
    """The node ids in index order, and the mesh of a PartGraph.  Index
    order is sorted node id order, which is also the graph file's line
    order.

    This is the one check of a PartGraph's contract: capacity and node
    weight vectors share one length, and every edge joins two distinct
    nodes at most once with a positive weight (INFINITE included).
    Refinement relies on the positive weights: a node has a neighbour in
    a part exactly when its connectivity to that part is nonzero.
    """
    ncon = len(g.part_capacities[0]) if g.part_capacities else g.ncon
    if any(len(vec) != ncon for vec in g.part_capacities):
        raise ValidationError("part capacity vectors must share one length")
    if any(len(n.weights) != ncon for n in g.nodes):
        raise ValidationError(
            f"node weight vectors must have {ncon} components to match capacities"
        )
    order = sorted(g.nodes, key=lambda n: n.id)
    ids = [n.id for n in order]
    index = {nid: i for i, nid in enumerate(ids)}
    edges = []
    seen: set[tuple[int, int]] = set()
    for e in g.edges:
        u, v = index[e.u], index[e.v]
        if u == v:
            raise ValidationError(f"self-loop on node {e.u!r}")
        if not e.weight > 0:
            raise ValidationError(f"edge {e.u!r}-{e.v!r} has weight {e.weight}, not > 0")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValidationError(f"parallel edge {e.u!r}-{e.v!r}")
        seen.add(key)
        edges.append((*key, e.weight))
    return ids, _Mesh(ncon, [n.weights for n in order], edges)


def _coarsen_once(mesh: _Mesh, rng: random.Random) -> tuple[list[int], _Mesh]:
    n = mesh.n
    order = list(range(n))
    rng.shuffle(order)
    mate = [-1] * n
    for u in order:
        if mate[u] != -1:
            continue
        best_v, best_w = -1, -1  # adj[u] is sorted by v: ties keep the lowest v
        for v, w in mesh.adj[u]:
            if mate[v] == -1 and w > best_w:
                best_v, best_w = v, w
        if best_v == -1:
            mate[u] = u
        else:
            mate[u] = best_v
            mate[best_v] = u
    cmap = [-1] * n
    nc = 0
    for u in range(n):
        if cmap[u] != -1:
            continue
        cmap[u] = nc
        cmap[mate[u]] = nc
        nc += 1
    weights = [[0] * mesh.ncon for _ in range(nc)]
    for u in range(n):
        cu = cmap[u]
        for d in range(mesh.ncon):
            weights[cu][d] += mesh.weights[u][d]
    acc: dict[tuple[int, int], int] = {}
    for u, v, w in mesh.edges:
        cu, cv = cmap[u], cmap[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        acc[key] = acc.get(key, 0) + w
    edges = [(u, v, w) for (u, v), w in sorted(acc.items())]
    return cmap, _Mesh(mesh.ncon, [tuple(w) for w in weights], edges)


def _coarsen(mesh: _Mesh, seed: int) -> list[tuple[_Mesh, list[int] | None]]:
    levels: list[tuple[_Mesh, list[int] | None]] = [(mesh, None)]
    rng = random.Random(seed)
    cur = mesh
    while cur.n > COARSEN_FLOOR:
        cmap, coarse = _coarsen_once(cur, rng)
        if coarse.n >= cur.n:
            break
        levels.append((coarse, cmap))
        cur = coarse
    return levels


def _scaled_caps(caps, slack: Fraction):
    num, den = slack.numerator + slack.denominator, slack.denominator
    out = []
    for vec in caps:
        out.append(tuple(c if c == INFINITE else (c * num) // den for c in vec))
    return out


def _fits(load, weight, cap) -> bool:
    for d in range(len(weight)):
        if load[d] + weight[d] > cap[d]:
            return False
    return True


def _loads_of(mesh: _Mesh, part: list[int], l: int) -> list[list[int]]:
    loads = [[0] * mesh.ncon for _ in range(l)]
    for u in range(mesh.n):
        for d in range(mesh.ncon):
            loads[part[u]][d] += mesh.weights[u][d]
    return loads


def _violations_of(loads, caps):
    out = []
    for k, vec in enumerate(caps):
        for d, c in enumerate(vec):
            if loads[k][d] > c:
                out.append((k, d, loads[k][d] - c))
    return tuple(out)


def _connectivity(mesh: _Mesh, part, l: int) -> list[list[int]]:
    """Per node and part, the summed weight of the node's edges into that
    part."""
    conn = [[0] * l for _ in range(mesh.n)]
    for u, nbrs in enumerate(mesh.adj):
        cu = conn[u]
        for v, w in nbrs:
            cu[part[v]] += w
    return conn


def _move(mesh: _Mesh, part, loads, conn, u: int, to: int) -> None:
    """Move u to part `to`, keeping loads and every neighbour's conn
    current."""
    frm = part[u]
    wu, src, dst = mesh.weights[u], loads[frm], loads[to]
    for d in range(mesh.ncon):
        src[d] -= wu[d]
        dst[d] += wu[d]
    part[u] = to
    for v, w in mesh.adj[u]:
        cv = conn[v]
        cv[frm] -= w
        cv[to] += w


def _sequence_pass(mesh: _Mesh, part, loads, caps, conn) -> bool:
    """One move-sequence pass: tentatively apply the best fitting move
    (even a worsening one), lock the node, and finally roll back to the
    best prefix seen.  Moves out of overfull parts come first, and the
    best prefix is the one of least total excess, then highest gain.
    Returns True when the kept prefix lowers the excess or the cut.

    A move lowers the excess when its node sits in a part that is
    overfull in a dimension where the node has weight.  Candidate moves
    live in a lazily invalidated heap keyed by (not lowering, -gain,
    node, part, stamp), so lowering moves pop first and equal gains pop
    the lowest node id first and then the lowest part index.  A lowering
    move may target any part; any other move targets only parts that
    hold a neighbour, which with positive edge weights are the parts of
    nonzero connectivity.  Each (node, part) move has a stamp, and an
    entry is current while its stamp is.  When u moves from part a to
    part b, an unlocked neighbour in a or b has every gain changed and
    re-pushes all its moves; any other unlocked neighbour re-pushes only
    its moves into a and b.  A re-push bumps the stamp.  A node only
    moves when it is popped, after which it is locked.  So a current
    entry belongs to an unlocked node that has not moved, and its gain
    is exact.

    A move enters only a part it fits, so no part becomes overfull and
    an overfull part only sheds load: a move can stop lowering the
    excess during the pass, but never start.  A popped lowering entry
    whose node no longer lowers the excess is pushed again as an
    ordinary move, or dropped when its target holds no neighbour.  Once
    no part is overfull, every lowering entry is dropped at once and the
    nodes that had them re-push their ordinary moves.

    A popped move into q that does not fit is parked on q with its
    stamp.  A move into q can only start to fit when q loses load, so
    after each move out of a the current parked moves into a that now
    fit go back on the heap.  Every fitting move is therefore on the
    heap, and each step makes the fitting move of highest (lowering,
    gain, -node, -part).  The pass stops once 16 + n // 32 tentative
    moves in a row fail to find a new best prefix.
    """
    adj, weights = mesh.adj, mesh.weights
    n = mesh.n
    parts = range(len(caps))
    stall_limit = 16 + n // 32
    hot: list[list[int]] = [[] for _ in parts]  # per part, its overfull dimensions
    excess = 0
    for k, d, x in _violations_of(loads, caps):
        hot[k].append(d)
        excess += x
    locked = [False] * n
    stamp = [[0] * len(caps) for _ in range(n)]
    parked: list[list[tuple]] = [[] for _ in parts]  # by target part
    lowering = set()
    if excess:
        lowering = {u for u in range(n) if any(weights[u][d] for d in hot[part[u]])}
    heap = [
        (True, conn[u][part[u]] - c, u, q, 0)
        for u in range(n) if u not in lowering
        for q, c in enumerate(conn[u]) if c and q != part[u]
    ]
    heap += [
        (False, conn[u][part[u]] - c, u, q, 0)
        for u in lowering
        for q, c in enumerate(conn[u]) if q != part[u]
    ]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop

    def push(v: int, targets) -> None:
        cv, p, sv = conn[v], part[v], stamp[v]
        base = cv[p]
        lowers = hot[p] and any(weights[v][d] for d in hot[p])
        for q in targets:
            s = sv[q] = sv[q] + 1
            if (cv[q] or lowers) and q != p:
                heappush(heap, (not lowers, base - cv[q], v, q, s))

    trail: list[tuple[int, int]] = []  # (node, from)
    cum_gain = 0
    best = (excess, 0)  # (excess, -gain) of the kept prefix
    best_len = 0
    stall = 0
    while heap and stall < stall_limit:
        entry = heappop(heap)
        ordinary, neg_gain, u, q, s = entry
        if locked[u] or s != stamp[u][q]:
            continue
        wu = weights[u]
        if not ordinary and not any(wu[d] for d in hot[part[u]]):
            if conn[u][q]:
                heappush(heap, (True, neg_gain, u, q, s))
            continue
        if not _fits(loads[q], wu, caps[q]):
            parked[q].append(entry)
            continue
        frm = part[u]
        trail.append((u, frm))
        if hot[frm]:
            load, cap = loads[frm], caps[frm]
            excess -= sum(min(wu[d], load[d] - cap[d]) for d in hot[frm])
            hot[frm] = [d for d in hot[frm] if load[d] - wu[d] > cap[d]]
        _move(mesh, part, loads, conn, u, q)
        locked[u] = True
        if lowering and not excess:  # no move lowers the excess any more
            heap[:] = [e for e in heap if e[0]]
            heapq.heapify(heap)
            for v in lowering:
                if not locked[v]:
                    push(v, parts)
            lowering = ()
        cum_gain -= neg_gain
        if (excess, -cum_gain) < best:
            best = (excess, -cum_gain)
            best_len = len(trail)
            stall = 0
        else:
            stall += 1
        for v, _ in adj[u]:
            if locked[v]:
                continue
            if part[v] == frm or part[v] == q:
                push(v, parts)
            else:
                push(v, (frm, q))
        if parked[frm]:
            load, cap, waiting = loads[frm], caps[frm], []
            for e in parked[frm]:
                v = e[2]
                if locked[v] or e[4] != stamp[v][frm]:
                    continue
                if _fits(load, weights[v], cap):
                    heappush(heap, e)
                else:
                    waiting.append(e)
            parked[frm] = waiting
    for u, frm in reversed(trail[best_len:]):
        _move(mesh, part, loads, conn, u, frm)
    return best_len > 0


def _refine(mesh: _Mesh, part, loads, caps) -> None:
    """Move-based local search: passes run until one keeps nothing, at
    most REFINEMENT_PASSES of them.  No pass raises the total excess, and
    none raises the cut unless it lowers the excess.  The part
    connectivity is built once here and kept current by _move."""
    conn = _connectivity(mesh, part, len(caps))
    for _ in range(REFINEMENT_PASSES):
        if not _sequence_pass(mesh, part, loads, caps, conn):
            break


def _run_candidate(levels, caps_scaled, seed: int) -> tuple[list[int], list[list[int]]]:
    """Start from a uniformly random part per coarsest node, then refine
    level by level; the first moves of refinement balance the start."""
    rng = random.Random(seed)
    coarse, l = levels[-1][0], len(caps_scaled)
    part = [rng.randrange(l) for _ in range(coarse.n)]
    loads = _loads_of(coarse, part, l)
    _refine(coarse, part, loads, caps_scaled)
    for li in range(len(levels) - 1, 0, -1):
        cmap = levels[li][1]
        fine = levels[li - 1][0]
        part = [part[cmap[u]] for u in range(fine.n)]
        _refine(fine, part, loads, caps_scaled)
    return part, loads


def _cut_of(mesh: _Mesh, part) -> int:
    total = 0
    for u, v, w in mesh.edges:
        if part[u] != part[v]:
            total += w
    return total


def partition(g: PartGraph, cfg: PartitionConfig | None = None) -> PartitionResult:
    """Best assignment across the seed x slack sweep, deterministically.

    One sequential loop: each seed coarsens the graph once, then every
    slack factor partitions that hierarchy under capacities scaled by
    1 + slack.  A candidate whose scaled capacities differ from the true
    ones is refined once more on the finest graph against the true
    capacities, which restores balance at little cost to the cut; a
    slack-0 candidate skips that step.  Candidates that respect the
    true capacities win over violating ones; within a feasibility class
    the lowest cut wins, then the smallest and fewest violations, then
    the earliest (slack, seed) pair.  So when every candidate violates a
    capacity the result is the one with the lowest cut, which need not
    be the least violating one.
    """
    cfg = cfg or PartitionConfig()
    if not g.part_capacities:
        raise ValidationError("at least one part capacity is required")
    if g.has_infinite_edges():
        raise ValidationError("contract infinite edges before partitioning")

    ids, mesh = _mesh_of(g)
    caps_raw = g.part_capacities
    true_caps = [tuple(vec) for vec in caps_raw]
    best = None
    for si, seed in enumerate(cfg.seeds):
        levels = _coarsen(mesh, seed)
        for fi, slack in enumerate(cfg.slack_factors):
            caps = _scaled_caps(caps_raw, slack)
            part, loads = _run_candidate(levels, caps, seed * 8191 + fi)
            if caps != true_caps:
                _refine(mesh, part, loads, true_caps)
            violations = _violations_of(loads, caps_raw)
            excess = sum(v[2] for v in violations)
            key = (1 if violations else 0, _cut_of(mesh, part), excess,
                   len(violations), fi, si)
            if best is None or key < best[0]:
                best = (key, part, loads, violations)

    key, part, loads, violations = best
    assignment = PartitionAssignment({ids[u]: part[u] for u in range(mesh.n)})
    return PartitionResult(
        assignment=assignment,
        cut_weight=key[1],
        per_part_loads=tuple(tuple(v) for v in loads),
        part_capacities=caps_raw,
        violations=violations,
        slack=cfg.slack_factors[key[4]],
        seed=cfg.seeds[key[5]],
    )


def recompute_cut(g: PartGraph, a: PartitionAssignment) -> int | float:
    """Exact cut weight of an assignment; infinite when an infinite edge
    crosses parts."""
    part = a.part_of
    total: int | float = 0
    for e in g.edges:
        try:
            pu, pv = part[e.u], part[e.v]
        except KeyError as exc:
            raise ValidationError(f"unassigned node: {exc.args[0]!r}") from exc
        if pu != pv:
            total += e.weight
    return total


def balance_ratio(result: PartitionResult, constraint: int = 0) -> Fraction | None:
    """Min-to-max load ratio over parts with nonzero capacity on the
    constraint; None when every such part is empty."""
    loads = [
        result.per_part_loads[k][constraint]
        for k in range(len(result.per_part_loads))
        if result.part_capacities[k][constraint] != 0
    ]
    if not loads or max(loads) == 0:
        return None
    return Fraction(min(loads), max(loads))


def export_graph(g: PartGraph) -> str:
    """Standard partitioner graph file: header "n m fmt ncon" with
    fmt=011, then one line per node (weights, then neighbor/weight
    pairs, 1-based, ordered by node id)."""
    if g.has_infinite_edges():
        raise ValidationError("apply big-M encoding before exporting infinite edges")
    _, mesh = _mesh_of(g)
    lines = [f"{mesh.n} {len(mesh.edges)} 011 {mesh.ncon}"]
    for u in range(mesh.n):
        fields = [str(w) for w in mesh.weights[u]]
        for v, w in mesh.adj[u]:
            fields.append(str(v + 1))
            fields.append(str(w))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def capacity_fractions(g: PartGraph) -> list[tuple[Fraction, ...]]:
    """Capacities as target fractions of the total, per constraint.

    External tools balance toward part-weight fractions rather than hard
    heterogeneous capacities, so s_k maps to s_k / sum(s); this is an
    approximation of intent, documented here for export call sites.
    Unbounded components map to an even split.
    """
    ncon = g.ncon
    out = []
    for d in range(ncon):
        col = [vec[d] for vec in g.part_capacities]
        if any(c == INFINITE for c in col) or sum(col) == 0:
            out.append(tuple(Fraction(1, len(col)) for _ in col))
        else:
            total = sum(col)
            out.append(tuple(Fraction(c, total) for c in col))
    return [tuple(out[d][k] for d in range(ncon)) for k in range(len(g.part_capacities))]


def import_partition(text: str, g: PartGraph) -> PartitionAssignment:
    """Read one part index per line, node order matching export_graph."""
    ids, _ = _mesh_of(g)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != len(ids):
        raise DocumentError(
            f"partition file has {len(lines)} entries for {len(ids)} nodes"
        )
    l = len(g.part_capacities)
    part_of = {}
    for nid, line in zip(ids, lines):
        p = parse_int(line, "part index")
        if not 0 <= p < l:
            raise DocumentError(f"part index {p} out of range for {l} parts")
        part_of[nid] = p
    return PartitionAssignment(part_of)


def parse_graph(text: str, part_capacities) -> PartGraph:
    """Read a graph file produced by export_graph back into a PartGraph.

    Node ids are synthesized from the 1-based line position (zero padded
    so id order equals file order).
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")]
    if not lines:
        raise DocumentError("empty graph file")
    header = lines[0].split()
    if len(header) not in (2, 3, 4):
        raise DocumentError(f"malformed graph header: {lines[0]!r}")
    n, m = parse_int(header[0], "node count"), parse_int(header[1], "edge count")
    fmt = header[2] if len(header) > 2 else "000"
    if fmt not in ("011", "11"):
        raise DocumentError(f"unsupported graph format {fmt!r} (need node+edge weights)")
    ncon = (parse_int(header[3], "constraint count") if len(header) > 3 else 0) or 1
    if len(lines) - 1 != n:
        raise DocumentError(f"graph file has {len(lines) - 1} node lines for n={n}")
    width = len(str(n))
    ids = [f"v{str(i).zfill(width)}" for i in range(1, n + 1)]
    nodes = []
    half_edges: dict[tuple[int, int], int] = {}  # (node line, neighbour) -> weight
    for i, line in enumerate(lines[1:], start=1):
        try:
            fields = [int(x) for x in line.split()]
        except ValueError:
            raise DocumentError(f"non-integer field on node line {i}: {line!r}") from None
        if len(fields) < ncon or (len(fields) - ncon) % 2 != 0:
            raise DocumentError(f"malformed node line {i}: {line!r}")
        if min(fields[:ncon]) < 0:
            raise DocumentError(f"negative node weight on node line {i}: {line!r}")
        nodes.append(GraphNode(ids[i - 1], tuple(fields[:ncon])))
        rest = fields[ncon:]
        for j in range(0, len(rest), 2):
            v, w = rest[j], rest[j + 1]
            if not 1 <= v <= n:
                raise DocumentError(f"node line {i} references node {v} out of range")
            if v == i:
                raise DocumentError(f"node line {i} lists itself as a neighbour (self-loop)")
            if (i, v) in half_edges:
                raise DocumentError(f"node line {i} lists node {v} more than once")
            if w <= 0:
                raise DocumentError(f"node line {i} gives node {v} edge weight {w}, not > 0")
            half_edges[i, v] = w
    for (u, v), w in half_edges.items():
        if (v, u) not in half_edges:
            raise DocumentError(
                f"node line {u} lists node {v}, but node line {v} does not list node {u}"
            )
        if half_edges[v, u] != w:
            raise DocumentError(f"edge {(min(u, v), max(u, v))} has asymmetric weights")
    edges = tuple(
        GraphEdge(ids[u - 1], ids[v - 1], w)
        for (u, v), w in sorted(half_edges.items()) if u < v
    )
    if len(edges) != m:
        raise DocumentError(f"graph file lists {len(edges)} edges, header says {m}")
    caps = tuple(tuple(vec) for vec in part_capacities)
    if caps and any(len(vec) != ncon for vec in caps):
        raise DocumentError("part capacity vectors do not match the graph's ncon")
    return PartGraph(tuple(nodes), edges, caps)
