"""Seeded workload generators: random scalability instances and a
TPC-DS-shaped benchmark instance.

Random shape: table sizes are floors of normal draws (mean 10, stddev 15)
redrawn until at least 1; per-query table counts come from a
second truncated normal (mean 5, stddev 3) clamped to the table count;
referenced tables are drawn uniformly without replacement and each
reference costs the full table size.

TPC-DS shape: 7 fact tables sized uniformly in [50, 100], 17 dimension
tables in [1, 10], 99 queries with 1..13 references averaging about 4,
each touching at least one fact table.  Shape-faithful only; no schema
or SQL is reproduced.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .common import ValidationError
from .workload import Query, QueryRef, Server, Table, Workload, validate_workload

__all__ = ["GenSpec", "generate"]

FACT_TABLES = 7
DIMENSION_TABLES = 17
BENCHMARK_QUERIES = 99
# (mean, stddev) of the random shape's table sizes and per-query table counts.
SIZE_DIST = (10.0, 15.0)
REFS_DIST = (5.0, 3.0)


@dataclass(frozen=True)
class GenSpec:
    shape: str = "random"  # "random" | "tpcds"
    n_tables: int = 24
    n_queries: int = BENCHMARK_QUERIES
    n_servers: int = 4
    seed: int = 0
    server_capacity: int | None = None  # None: computed from totals

    def __post_init__(self) -> None:
        if self.shape not in ("random", "tpcds"):
            raise ValidationError(f"unknown shape {self.shape!r}")
        tpcds_counts = (FACT_TABLES + DIMENSION_TABLES, BENCHMARK_QUERIES)
        if self.shape == "tpcds" and (self.n_tables, self.n_queries) != tpcds_counts:
            raise ValidationError(
                f"the tpcds shape has {tpcds_counts[0]} tables and {tpcds_counts[1]} "
                f"queries, got {self.n_tables} and {self.n_queries}"
            )
        if self.shape == "random" and self.n_tables < 1:
            raise ValidationError("need at least one table")
        if self.shape == "random" and self.n_queries < 0:
            raise ValidationError(f"query count must not be negative, got {self.n_queries}")
        if self.n_servers < 1:
            raise ValidationError("need at least one server")
        if self.server_capacity is not None and self.server_capacity < 0:
            raise ValidationError(
                f"server capacity must not be negative, got {self.server_capacity}"
            )


def _draw_at_least_one(rng: Random, mean: float, stddev: float) -> int:
    # Floor of a normal draw, redrawn until the draw reaches 1, so the
    # result has positive support.
    while True:
        v = rng.gauss(mean, stddev)
        if v >= 1.0:
            return int(v)


def _servers(spec: GenSpec, tables: list[Table]) -> list[Server]:
    if spec.server_capacity is not None:
        capacity = spec.server_capacity
    else:
        total = sum(t.size for t in tables)
        largest = max((t.size for t in tables), default=0)
        # A tenth of headroom over the even split, but never below the
        # largest table: under-provisioned servers make every plan
        # infeasible from the start.
        even = -(-total * 11 // (10 * spec.n_servers))
        capacity = max(even, largest)
    return [Server(f"S{k}", capacity) for k in range(1, spec.n_servers + 1)]


def _generate_random(spec: GenSpec) -> Workload:
    rng = Random(spec.seed)
    tables = [
        Table(f"T{j}", _draw_at_least_one(rng, *SIZE_DIST))
        for j in range(1, spec.n_tables + 1)
    ]
    queries = []
    for i in range(1, spec.n_queries + 1):
        count = min(_draw_at_least_one(rng, *REFS_DIST), spec.n_tables)
        picked = rng.sample(range(spec.n_tables), count)
        refs = tuple(
            QueryRef(tables[j].id, tables[j].size) for j in sorted(picked)
        )
        queries.append(Query(f"Q{i}", refs))
    return Workload(tuple(tables), tuple(queries), tuple(_servers(spec, tables)))


def _generate_tpcds(spec: GenSpec) -> Workload:
    rng = Random(spec.seed)
    tables = [
        Table(f"fact{j}", rng.randint(50, 100)) for j in range(1, FACT_TABLES + 1)
    ]
    tables += [
        Table(f"dim{j}", rng.randint(1, 10)) for j in range(1, DIMENSION_TABLES + 1)
    ]
    n = len(tables)
    queries = []
    for i in range(1, BENCHMARK_QUERIES + 1):
        count = min(_draw_at_least_one(rng, 4.0, 2.5), 13)
        fact = rng.randrange(FACT_TABLES)
        others = [j for j in range(n) if j != fact]
        picked = [fact] + rng.sample(others, count - 1)
        refs = tuple(
            QueryRef(tables[j].id, tables[j].size) for j in sorted(picked)
        )
        queries.append(Query(f"Q{i}", refs))
    return Workload(tuple(tables), tuple(queries), tuple(_servers(spec, tables)))


def generate(spec: GenSpec) -> Workload:
    """Deterministic workload for a generation spec (same seed, same
    workload)."""
    w = _generate_tpcds(spec) if spec.shape == "tpcds" else _generate_random(spec)
    validate_workload(w)
    return w
