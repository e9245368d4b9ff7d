"""Golden digest of the planner's outputs.

One sha256 over the results of a fixed set of plans, replication
heuristics and file exports, and one sha256 per integer-program model
of the LP text it is written as.  Refactors of the partitioner, the
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
    build_gdp_ip,
    build_replication_ip,
    export_graph,
    generate,
    heuristic1,
    heuristic2,
    lift_workload,
    plan_view_dag,
    plan_workload,
    write_lp,
)
from placer.cli import main

from conftest import FIG2_DOC, GDP_EXAMPLE_DOC

GOLDEN_SHA256 = "e72854dea33bafd119f6dc12a8ac39af9b5b0dc3b75dff431b07e52482bddcaa"

# The same plans swept at slack 0 only: a slack-0 candidate never takes
# the true-capacity rebalance, so this digest pins the refinement pass
# and the V-cycles without it.
SLACK0_SHA256 = "8d55042c485fd8cce354630c63cfe5a795e792d716943f2c48d9001cc90e0c69"

# sha256 of the LP text that `export-ip` hands an external solver, one per
# model: the round-trip tests only compare a model with its re-read copy.
LP_SHA256 = {
    "dp fig2": "454fa33176a8ebf348025415dad0e17eacfce6c1fd223dd5aac562743dbc3252",
    "dp tpcds seed 1, 8 servers":
        "2a61eda20b5e1f33136ec41612551b62b0e9a17ccb303548058718bc89e578ab",
    "replication fig2, r = 2":
        "95ae5c0c5335d2752a66126491d12d26e7a670fd125938c060514afd67f78685",
    "gdp example": "ccef62b230c82609cfc010861baf72dea7ab9190b782fda3c43a980b157e9042",
}

FAST = PartitionConfig(seeds=(0, 1), slack_factors=(Fraction(0), Fraction(1, 4)))
SLACK0 = PartitionConfig(slack_factors=(Fraction(0),))


def _plan_record(outcome) -> str:
    p = outcome.partition
    return repr((
        p.cut_weight,
        sorted(p.assignment.part_of.items()),
        p.per_part_loads,
        p.violations,
        p.slack,
        p.seed,
        p.v_cycles_run,
        p.v_cycles_improved,
        outcome.report,
    ))


def _tpcds():
    return generate(GenSpec(shape="tpcds", seed=1, n_servers=8))


def _random60():
    return generate(GenSpec(shape="random", n_tables=60, n_queries=60,
                            n_servers=16, seed=5))


def plan_records(cfg: PartitionConfig | None = None) -> list[str]:
    tpcds = _tpcds()
    records = []
    for w in (tpcds, _random60()):
        records.append(_plan_record(plan_workload(w, cfg)))
        records.append(_plan_record(plan_workload(w, cfg, min_max_ratio=Fraction(3, 4))))
    records.append(_plan_record(plan_view_dag(lift_workload(tpcds), cfg)))
    return records


def golden_records() -> list[str]:
    tpcds, random60 = _tpcds(), _random60()
    records = plan_records()
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


def _digest(records: list[str]) -> str:
    return hashlib.sha256("\x00".join(records).encode()).hexdigest()


def test_golden_digest():
    assert _digest(golden_records()) == GOLDEN_SHA256


def test_slack0_digest():
    assert _digest(plan_records(SLACK0)) == SLACK0_SHA256


def test_lp_digests(fig2, gdp_example, tmp_path):
    models = {
        "dp fig2": build_dp_ip(fig2),
        "dp tpcds seed 1, 8 servers": build_dp_ip(_tpcds()),
        "replication fig2, r = 2": build_replication_ip(fig2, 2),
        "gdp example": build_gdp_ip(gdp_example),
    }
    digests = {key: hashlib.sha256(write_lp(m).encode()).hexdigest()
               for key, m in models.items()}
    assert digests == LP_SHA256
    # The file `export-ip` writes holds the same bytes.
    fig2_file, views_file = tmp_path / "fig2.json", tmp_path / "views.json"
    fig2_file.write_text(FIG2_DOC)
    views_file.write_text(GDP_EXAMPLE_DOC)
    runs = {
        "dp fig2": [fig2_file, "--model", "dp"],
        "replication fig2, r = 2": [fig2_file, "--model", "replication", "--replication", "2"],
        "gdp example": [views_file, "--model", "gdp"],
    }
    for key, args in runs.items():
        out = tmp_path / "model.lp"
        assert main(["export-ip", *map(str, args), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == LP_SHA256[key], key
