"""Replication heuristics built on repeated unreplicated planning.

Heuristic 1 plans once with every server shrunk to floor(s/r), then
replays that plan under r permutations of the server set (the first is
the identity so r=1 reproduces the plain plan); coinciding copies
collapse, so tables end up with between 1 and r replicas.

Heuristic 2 splits the servers into r blocks of floor(l/r) (the last
block takes the remainder), plans all tables on each block in turn for
the queries still under consideration, and drops the floor(m/r) cheapest
queries after each round; every table lands exactly once per block, so
each has exactly r replicas.  Final query sites are chosen replica-aware
over all copies.

Both assume roughly equal server capacities; unequal capacities are
tolerated with a warning.
"""
from __future__ import annotations

import random
import warnings as _warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .common import ValidationError
from .evaluate import Placement, site_queries, storage_usage
from .partition import PartitionConfig
from .pipeline import plan_workload
from .workload import Server, Workload, validate_capacity_lower_bounds

__all__ = [
    "ReplicationConfig",
    "heuristic1",
    "heuristic2",
    "max_part_size",
]


@dataclass(frozen=True)
class ReplicationConfig:
    factor: int  # desired replicas per table
    rng_seed: int = 0
    partition: PartitionConfig = field(default_factory=PartitionConfig)


def _check_factor(factor: int, l: int) -> None:
    if factor < 1:
        raise ValidationError("replication factor must be >= 1")
    if factor >= l:
        raise ValidationError(
            f"replication factor {factor} needs more than {l} servers "
            "(with r >= l every table would land on a single server)"
        )


def _warn_capacity(round_w: Workload, w: Workload, context: str) -> None:
    """Warn when w's servers differ in capacity, and for each capacity
    lower bound that the servers of a planning round fail."""
    if len(set(s.storage_capacity for s in w.servers)) > 1:
        _warnings.warn(
            f"{context}: server capacities are unequal; proceeding with "
            "per-server floors",
            stacklevel=3,
        )
    for note in validate_capacity_lower_bounds(round_w):
        _warnings.warn(f"{context}: {note}", stacklevel=3)


def heuristic1(w: Workload, cfg: ReplicationConfig) -> Placement:
    l = len(w.servers)
    _check_factor(cfg.factor, l)
    shrunk = Workload(
        w.tables,
        w.queries,
        tuple(
            Server(s.id, s.storage_capacity // cfg.factor, s.load_capacity)
            for s in w.servers
        ),
    )
    _warn_capacity(shrunk, w, "heuristic 1")
    base = plan_workload(shrunk, cfg.partition).placement
    rng = random.Random(cfg.rng_seed)
    permutations = [list(range(l))]
    for _ in range(cfg.factor - 1):
        perm = list(range(l))
        rng.shuffle(perm)
        permutations.append(perm)
    store = {}
    for t in w.tables:
        home = base.store[t.id][0]
        store[t.id] = tuple(sorted({perm[home] for perm in permutations}))
    return site_queries(store, w)


def heuristic2(w: Workload, cfg: ReplicationConfig) -> Placement:
    l = len(w.servers)
    _check_factor(cfg.factor, l)
    r = cfg.factor
    block_size = l // r
    m = len(w.queries)
    drop = m // r
    remaining = list(w.queries)
    replica_sets: dict[str, list[int]] = {t.id: [] for t in w.tables}
    for i in range(1, r + 1):
        start = (i - 1) * block_size
        end = i * block_size if i < r else l
        block = list(range(start, end))
        sub = Workload(w.tables, tuple(remaining), tuple(w.servers[k] for k in block))
        _warn_capacity(sub, w, f"heuristic 2 round {i}")
        outcome = plan_workload(sub, cfg.partition)
        for t in w.tables:
            replica_sets[t.id].append(block[outcome.placement.store[t.id][0]])
        if i < r and remaining:
            # The round's plan sites every query at its cheapest server,
            # so its report holds each query's drop cost.
            costs = outcome.report.per_query
            remaining.sort(key=lambda q: (costs[q.id][1], q.id))
            remaining = remaining[drop:]
    store = {tid: tuple(sorted(copies)) for tid, copies in replica_sets.items()}
    return site_queries(store, w)


def max_part_size(p: Placement, w: Workload, factor: int = 1) -> tuple[int, Fraction]:
    """Largest per-server stored size, and the ideal r * total / l for
    comparison."""
    l = len(w.servers)
    usage = storage_usage(p, {t.id: t.size for t in w.tables}, l)
    desired = Fraction(factor * w.total_size(), l) if l else Fraction(0)
    return (max(usage) if usage else 0, desired)
