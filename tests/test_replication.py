import random
import warnings
from fractions import Fraction

import pytest

from placer.common import ValidationError
from placer.evaluate import Placement, best_site, dp_cost, site_queries
from placer.generate import GenSpec, generate
from placer.ip import build_replication_ip
from placer.partition import PartitionConfig
from placer.replication import (
    ReplicationConfig,
    heuristic1,
    heuristic2,
    max_part_size,
)
from placer.workload import Query, QueryRef, Server, Table, Workload

from helpers import solve_ip

# A lighter sweep keeps the repeated planning rounds quick in tests.
FAST = PartitionConfig(seeds=(0, 1), slack_factors=(Fraction(0), Fraction(1, 4)))


def small_workload(l=4, cap=12):
    tables = [Table(f"T{j}", j % 3 + 1) for j in range(1, 7)]
    queries = [
        Query("Q1", (QueryRef("T1", 2), QueryRef("T2", 1))),
        Query("Q2", (QueryRef("T3", 3), QueryRef("T4", 1))),
        Query("Q3", (QueryRef("T5", 2), QueryRef("T6", 2))),
        Query("Q4", (QueryRef("T1", 2), QueryRef("T6", 1))),
    ]
    servers = [Server(f"S{k}", cap) for k in range(1, l + 1)]
    return Workload(tuple(tables), tuple(queries), tuple(servers))


def test_h1_r1_equals_unreplicated_plan():
    from placer.pipeline import plan_workload

    w = small_workload()
    placement = heuristic1(w, ReplicationConfig(1, rng_seed=9, partition=FAST))
    plain = plan_workload(w, FAST).placement
    assert placement == plain


def test_h1_replica_counts_bounded():
    w = small_workload()
    for r in (1, 2, 3):
        placement = heuristic1(w, ReplicationConfig(r, rng_seed=2, partition=FAST))
        for copies in placement.store.values():
            assert 1 <= len(copies) <= r
            assert len(set(copies)) == len(copies)


def test_h1_permutation_mechanics():
    # One table, three servers: the base plan of the shrunk workload
    # puts it on some home server, the identity round keeps that copy,
    # and the one seeded permutation decides the second copy.  A
    # permutation fixing the home server collapses the replicas to a
    # single copy.
    from placer.pipeline import plan_workload

    servers = tuple(Server(f"S{k}", 2) for k in (1, 2, 3))
    w = Workload((Table("T1", 1),), (Query("Q1", (QueryRef("T1", 2),)),), servers)
    shrunk = Workload(w.tables, w.queries, tuple(Server(s.id, 1) for s in servers))
    home = plan_workload(shrunk, FAST).placement.store["T1"][0]
    collapsed = 0
    for seed in range(6):
        placement = heuristic1(w, ReplicationConfig(2, rng_seed=seed, partition=FAST))
        perm = list(range(3))
        random.Random(seed).shuffle(perm)
        assert placement.store["T1"] == tuple(sorted({home, perm[home]}))
        if perm[home] == home:
            assert len(placement.store["T1"]) == 1  # copies collapsed
            collapsed += 1
    assert collapsed


def test_h1_rejects_degenerate_factors():
    w = small_workload(l=2)
    with pytest.raises(ValidationError):
        heuristic1(w, ReplicationConfig(2, partition=FAST))
    with pytest.raises(ValidationError):
        heuristic1(w, ReplicationConfig(0, partition=FAST))


def test_h1_warns_on_unequal_capacities():
    w = small_workload()
    servers = tuple(
        Server(s.id, s.storage_capacity + k, s.load_capacity)
        for k, s in enumerate(w.servers)
    )
    uneven = Workload(w.tables, w.queries, servers)
    with pytest.warns(UserWarning, match="unequal"):
        heuristic1(uneven, ReplicationConfig(2, partition=FAST))


def test_h2_exact_replica_counts_and_blocks():
    w = small_workload(l=4, cap=20)
    placement = heuristic2(w, ReplicationConfig(2, partition=FAST))
    for copies in placement.store.values():
        assert len(copies) == 2
        # one copy in {0,1}, the other in {2,3}
        assert len({k for k in copies if k < 2}) == 1
        assert len({k for k in copies if k >= 2}) == 1


def test_h2_r1_is_unreplicated():
    from placer.pipeline import plan_workload

    w = small_workload()
    placement = heuristic2(w, ReplicationConfig(1, partition=FAST))
    plain = plan_workload(w, FAST).placement
    assert placement == plain


def test_h2_last_round_takes_leftover_servers():
    w = small_workload(l=5, cap=20)
    placement = heuristic2(w, ReplicationConfig(2, partition=FAST))
    for copies in placement.store.values():
        assert len(copies) == 2
        assert len({k for k in copies if k < 2}) == 1
        assert len({k for k in copies if k >= 2}) == 1  # block {2,3,4}


def test_h2_beats_first_round_alone():
    w = small_workload(l=4, cap=20)
    cfg = ReplicationConfig(2, partition=FAST)
    placement = heuristic2(w, cfg)
    first_round_only = {
        tid: (min(copies),) if min(copies) < 2 else copies
        for tid, copies in placement.store.items()
    }
    # Restrict to the copies in the first block only when one exists.
    restricted = {
        tid: tuple(k for k in copies if k < 2) or copies
        for tid, copies in placement.store.items()
    }
    total_full = dp_cost(placement, w).total_cost
    partial = Placement(restricted, {})
    total_restricted = sum(
        best_site(q, partial, w)[1] for q in w.queries
    )
    assert total_full <= total_restricted


def test_h2_deterministic():
    w = small_workload(l=4, cap=20)
    cfg = ReplicationConfig(2, rng_seed=11, partition=FAST)
    assert heuristic2(w, cfg) == heuristic2(w, cfg)


def test_h2_rejects_bad_factors():
    w = small_workload(l=3)
    with pytest.raises(ValidationError):
        heuristic2(w, ReplicationConfig(3, partition=FAST))


def test_max_part_size():
    w = small_workload(l=4)
    total = w.total_size()
    everything_on_one = Placement(
        {t.id: (0,) for t in w.tables}, {q.id: 0 for q in w.queries}
    )
    biggest, desired = max_part_size(everything_on_one, w, 1)
    assert biggest == total
    assert desired == Fraction(total, 4)


def test_max_part_size_desired_for_replicas():
    tables = tuple(Table(f"T{j}", 58) for j in range(10))
    w = Workload(tables, (), tuple(Server(f"S{k}", 200) for k in range(8)))
    assert w.total_size() == 580
    _, desired = max_part_size(Placement({t.id: (0,) for t in tables}, {}), w, 2)
    assert desired == Fraction(2 * 580, 8) == 145


def test_replication_cost_trend_tpcds():
    # The qualitative benchmark finding: more replicas, cheaper
    # workloads (asserted for the exact-replica heuristic; the at-most-r
    # one is only reported).
    total = generate(GenSpec(shape="tpcds", seed=1)).total_size()
    cap = -(-4 * total // 8) + 10
    w = generate(GenSpec(shape="tpcds", seed=1, n_servers=8, server_capacity=cap))
    costs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in (1, 2, 4):
            placement = heuristic2(w, ReplicationConfig(r, partition=FAST))
            costs.append(dp_cost(placement, w).total_cost)
    assert costs[0] >= costs[1] >= costs[2]


def _check_heuristics_against_replication_optimum(
    seed: int, capacity: int, optimum: int, h2_bound: int, h1_bound: int
) -> None:
    # A 10x10 random workload on 4 servers; the capacity is
    # ceil(2 * total / 4) plus the largest table, so two copies fit.
    # HiGHS proves the r = 2 optimum: the transfer cost of every
    # reference minus the IP's largest saving.  The heuristics are
    # bounded by what they reach today, which records their gap and
    # catches a regression.
    w = generate(GenSpec(shape="random", n_tables=10, n_queries=10, n_servers=4,
                         seed=seed, server_capacity=capacity))
    assert capacity == -(-2 * w.total_size() // 4) + max(t.size for t in w.tables)
    saving, values = solve_ip(build_replication_ip(w, 2))
    gross = sum(q.frequency * sum(r.cost for r in q.refs) for q in w.queries)
    assert gross - saving == optimum
    # The solution is a legal placement of that cost.
    store = {
        t.id: tuple(k for k in range(4) if any(values[f"xr{h}_T{j}_S{k + 1}"] for h in (1, 2)))
        for j, t in enumerate(w.tables, start=1)
    }
    report = dp_cost(site_queries(store, w), w)
    assert report.total_cost == optimum and not report.violations
    for heuristic, bound in ((heuristic2, h2_bound), (heuristic1, h1_bound)):
        report = dp_cost(heuristic(w, ReplicationConfig(2)), w)
        assert not report.violations
        assert optimum <= report.total_cost <= bound


def test_heuristics_against_a_proven_replication_optimum():
    # Seed 2 at capacity 119: HiGHS proves 28 in a few seconds.
    _check_heuristics_against_replication_optimum(2, 119, 28, h2_bound=45, h1_bound=68)


@pytest.mark.slow
def test_heuristics_against_a_slow_replication_optimum():
    # Seed 1 at capacity 111: HiGHS proves 123 in about 48 s on 2 cores,
    # where heuristic 2 reaches 139 and heuristic 1 reaches 234.
    _check_heuristics_against_replication_optimum(1, 111, 123, h2_bound=139, h1_bound=234)
