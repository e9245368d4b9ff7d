"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Every tolerance and time bound is pinned here."""
import random
import time
import warnings
from fractions import Fraction

from placer.evaluate import decode_dp, dp_cost, gdp_cost
from placer.gdp import parse_gdp, serialize_gdp
from placer.generate import GenSpec, generate
from placer.ip import (
    build_dp_ip,
    build_replication_ip,
    read_lp,
    write_lp,
)
from placer.oracle import optimal_gdp, optimal_partition, optimal_placement
from placer.partition import export_graph, parse_graph, partition, recompute_cut
from placer.pipeline import balance_sweep, plan_workload
from placer.reduction import (
    PartitionAssignment,
    build_dp_graph,
    build_gdp_graph,
    contract_infinite_edges,
)
from placer.replication import ReplicationConfig, heuristic1, heuristic2
from placer.workload import parse_workload, serialize_workload

from conftest import FIG2_DOC, GDP_EXAMPLE_DOC, GDP_EXAMPLE_PARTS
from helpers import random_view_dag, random_workload, solve_ip

SUITE1_SEED = 20260809
SUITE2_SEED = 77


def check(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {verdict}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def suite1_instances():
    rng = random.Random(SUITE1_SEED)
    return [random_workload(rng) for _ in range(300)]


def test_criterion_1_theorem1_exactness():
    t0 = time.time()
    mismatches = 0
    for w in suite1_instances():
        placement_side = optimal_placement(w)
        partition_side = optimal_partition(build_dp_graph(w))
        if placement_side.feasible != partition_side.feasible:
            mismatches += 1
        elif placement_side.feasible and placement_side.cost != partition_side.cost:
            mismatches += 1
    elapsed = time.time() - t0
    check(
        1,
        "theorem-1 exactness over 300 random workloads",
        mismatches == 0 and elapsed < 60,
        f"mismatches={mismatches}, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_theorem2_exactness():
    t0 = time.time()
    rng = random.Random(SUITE2_SEED)
    mismatches = 0
    for _ in range(200):
        d = random_view_dag(rng)
        gdp_side = optimal_gdp(d)
        contracted, _ = contract_infinite_edges(build_gdp_graph(d))
        partition_side = optimal_partition(contracted)
        if gdp_side.feasible != partition_side.feasible:
            mismatches += 1
        elif gdp_side.feasible and gdp_side.cost != partition_side.cost:
            mismatches += 1
    elapsed = time.time() - t0
    check(
        2,
        "theorem-2 exactness over 200 random view DAGs",
        mismatches == 0 and elapsed < 120,
        f"mismatches={mismatches}, {elapsed:.1f}s < 120s",
    )


def test_criterion_3_gdp_worked_example():
    from placer.evaluate import decode_gdp

    d = parse_gdp(GDP_EXAMPLE_DOC)
    g = build_gdp_graph(d)
    assignment = PartitionAssignment(GDP_EXAMPLE_PARTS)
    cut = recompute_cut(g, assignment)
    placement = decode_gdp(assignment, d)
    cost = gdp_cost(placement, d).total_cost
    moved_right = placement.compute["V5"] == 0 and placement.store["V5"] == (1,)
    check(
        3,
        "worked seven-view example evaluates to 46 and decodes V5 as "
        "computed on the first server, stored on the second",
        cut == 46 and cost == 46 and moved_right,
        f"cut={cut}, cost={cost}",
    )


def test_criterion_4_fig2_golden():
    w = parse_workload(FIG2_DOC)
    oracle = optimal_placement(w)
    planned = plan_workload(w)
    pictured = PartitionAssignment({
        "t:T1": 0, "t:T2": 0, "t:T4": 1, "t:T5": 1, "t:T3": 2, "t:T6": 2,
        "q:Q1": 1, "q:Q2": 2, "q:Q3": 0, "q:Q4": 1,
    })
    sites = decode_dp(pictured, w).compute
    sites_ok = sites == {"Q1": 1, "Q2": 2, "Q3": 0, "Q4": 1}
    check(
        4,
        "six-table example: planner equals the exact optimum and the "
        "pictured partition decodes to sites (2, 3, 1, 2)",
        planned.report.total_cost == oracle.cost and sites_ok,
        f"planner={planned.report.total_cost}, oracle={oracle.cost}, sites={sites}",
    )


def test_criterion_5_planner_quality():
    good = total = 0
    consistent = True
    for w in suite1_instances():
        oracle = optimal_placement(w)
        if not oracle.feasible:
            continue
        total += 1
        g = build_dp_graph(w)
        result = partition(g)
        if result.cut_weight != recompute_cut(g, result.assignment):
            consistent = False
        if result.violations:
            continue
        if oracle.cost == 0:
            good += result.cut_weight == 0
        elif result.cut_weight <= 1.25 * oracle.cost:
            good += 1
    rate = good / total if total else 1.0
    check(
        5,
        "planner within 1.25x of the optimum on >= 95% of the suite, "
        "bookkeeping always self-consistent",
        rate >= 0.95 and consistent,
        f"{good}/{total} = {rate:.1%}, consistent={consistent}",
    )


def test_criterion_6_ip_equivalence():
    t0 = time.time()
    rng = random.Random(4242)
    mismatches = 0
    for _ in range(50):
        w = random_workload(rng, max_tables=4, max_queries=3, max_servers=2)
        oracle = optimal_placement(w)
        dp_best = solve_ip(read_lp(write_lp(build_dp_ip(w))))
        if (dp_best is None) != (not oracle.feasible):
            mismatches += 1
        elif oracle.feasible and dp_best[0] != oracle.cost:
            mismatches += 1
        repl_best = solve_ip(read_lp(write_lp(build_replication_ip(w, 1))))
        if oracle.feasible:
            gross = sum(
                q.frequency * sum(r.cost for r in q.refs) for q in w.queries
            )
            if repl_best is None or repl_best[0] != gross - oracle.cost:
                mismatches += 1
        elif repl_best is not None:
            mismatches += 1
    elapsed = time.time() - t0
    check(
        6,
        "integer programs match the oracle on 50 tiny instances "
        "(plain exactly, replication r=1 via the complement identity)",
        mismatches == 0 and elapsed < 120,
        f"mismatches={mismatches}, {elapsed:.1f}s < 120s",
    )


def test_criterion_7_replication_properties():
    total = generate(GenSpec(shape="tpcds", seed=1)).total_size()
    cap = -(-4 * total // 8) + 10
    w = generate(GenSpec(shape="tpcds", seed=1, n_servers=8, server_capacity=cap))
    h2_costs = {}
    h1_costs = {}
    counts_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in (1, 2, 4):
            p1 = heuristic1(w, ReplicationConfig(r, rng_seed=3))
            p2 = heuristic2(w, ReplicationConfig(r, rng_seed=3))
            if not all(1 <= len(c) <= r for c in p1.store.values()):
                counts_ok = False
            if not all(len(c) == r for c in p2.store.values()):
                counts_ok = False
            h1_costs[r] = dp_cost(p1, w).total_cost
            h2_costs[r] = dp_cost(p2, w).total_cost
    ordered = [h2_costs[r] for r in (1, 2, 4)]
    monotone = all(ordered[i] >= ordered[i + 1] for i in range(len(ordered) - 1))
    # Reported, not asserted: the exact-replica heuristic beating the
    # at-most-r one is an empirical finding.
    comparison = {r: h2_costs[r] <= h1_costs[r] for r in (1, 2, 4)}
    print(f"  replication report: H2={h2_costs} H1={h1_costs} "
          f"H2<=H1 per r: {comparison}")
    check(
        7,
        "replica counts as contracted and exact-replica cost "
        "non-increasing over r in {1, 2, 4}",
        counts_ok and monotone,
        f"H2 costs {ordered}",
    )


def test_criterion_8_load_balancing_trend():
    ratios = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    ok = True
    details = []
    for servers in (4, 8):
        w = generate(GenSpec(shape="tpcds", seed=1, n_servers=servers))
        levels = balance_sweep(w, ratios)
        costs = [lvl.cost for lvl in levels]
        details.append(f"l={servers}: {costs}")
        if not all(costs[i] <= costs[i + 1] for i in range(len(costs) - 1)):
            ok = False
        if not all(lvl.feasible for lvl in levels):
            ok = False
    check(
        8,
        "communication cost non-decreasing across 4 tightening "
        "load-ratio targets on 4 and 8 servers",
        ok,
        "; ".join(details),
    )


def test_criterion_9_scalability():
    w = generate(GenSpec(shape="random", n_tables=1000, n_queries=1000,
                         n_servers=16, seed=5))
    t0 = time.time()
    outcome = plan_workload(w)
    small = time.time() - t0
    w_big = generate(GenSpec(shape="random", n_tables=4000, n_queries=4000,
                             n_servers=16, seed=5))
    t0 = time.time()
    outcome_big = plan_workload(w_big)
    big = time.time() - t0
    check(
        9,
        "plans finish within bounds at scale",
        small < 60 and big < 600,
        f"1000x1000 {small:.0f}s < 60s (cost {outcome.report.total_cost}), "
        f"4000x4000 {big:.0f}s < 600s (cost {outcome_big.report.total_cost})",
    )


def test_criterion_10_format_round_trips():
    t0 = time.time()
    w = parse_workload(FIG2_DOC)
    d = parse_gdp(GDP_EXAMPLE_DOC)
    ok = parse_workload(serialize_workload(w)) == w
    ok = ok and parse_gdp(serialize_gdp(d)) == d
    g = build_dp_graph(w)
    text = export_graph(g)
    back = parse_graph(text, g.part_capacities)
    ok = ok and export_graph(back) == text
    for model in (build_dp_ip(w), build_replication_ip(w, 2)):
        ok = ok and read_lp(write_lp(model)) == model
    elapsed = time.time() - t0
    check(
        10,
        "documents, graph files and LP files round-trip exactly",
        ok and elapsed < 5,
        f"{elapsed:.2f}s < 5s",
    )
