"""Golden digest of the planner's outputs.

One sha256 over the results of a fixed set of plans, replication
heuristics and file exports.  Refactors of the partitioner, the
reductions or the writers must leave every byte of these outputs as it
is; a deliberate change of results has to update the digest and say why.
"""
import hashlib
import warnings
from fractions import Fraction

from placer import (
    GenSpec,
    PartitionConfig,
    ReplicationConfig,
    build_dp_graph,
    build_dp_ip,
    export_graph,
    generate,
    heuristic1,
    heuristic2,
    lift_workload,
    plan_view_dag,
    plan_workload,
    write_lp,
)

GOLDEN_SHA256 = "560bbd06a0a0a1815677aa04f750b4d7cd0e576151c0fa0772ffaa002160e8ae"

FAST = PartitionConfig(seeds=(0, 1), slack_factors=(Fraction(0), Fraction(1, 4)))


def _plan_record(outcome) -> str:
    p = outcome.partition
    return repr((
        p.cut_weight,
        sorted(p.assignment.part_of.items()),
        p.per_part_loads,
        p.violations,
        p.slack,
        p.seed,
        outcome.report,
    ))


def golden_records() -> list[str]:
    tpcds = generate(GenSpec(shape="tpcds", seed=1, n_servers=8))
    random60 = generate(GenSpec(shape="random", n_tables=60, n_queries=60,
                                n_servers=16, seed=5))
    records = []
    for w in (tpcds, random60):
        records.append(_plan_record(plan_workload(w)))
        records.append(_plan_record(plan_workload(w, min_max_ratio=Fraction(3, 4))))
    records.append(_plan_record(plan_view_dag(lift_workload(tpcds))))
    cap = -(-4 * tpcds.total_size() // 8) + 10
    roomy = generate(GenSpec(shape="tpcds", seed=1, n_servers=8, server_capacity=cap))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for heuristic in (heuristic1, heuristic2):
            placement = heuristic(roomy, ReplicationConfig(2, partition=FAST))
            records.append(repr((sorted(placement.store.items()),
                                 sorted(placement.compute.items()))))
    records.append(export_graph(build_dp_graph(random60, with_load=True)))
    records.append(write_lp(build_dp_ip(tpcds)))
    return records


def test_golden_digest():
    digest = hashlib.sha256("\x00".join(golden_records()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
