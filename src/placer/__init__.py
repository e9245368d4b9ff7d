"""Communication-aware placement planning via balanced graph partitioning.

Plan where tables, materialized views and query executions live on a
cluster of capacity-bounded servers so that the total data shipped for a
query workload is minimal.  The placement problem reduces exactly to
node- and edge-weighted graph partitioning; a built-in multilevel
partitioner solves the reduced instance, brute-force oracles verify it
at small scale, and LP-format integer programs can be exported for any
external solver.
"""
from .common import INFINITE, DocumentError, PlacerError, ValidationError
from .evaluate import (
    CostReport,
    Placement,
    best_site,
    decode_dp,
    decode_gdp,
    dp_cost,
    gdp_cost,
)
from .gdp import Arc, View, ViewClass, ViewDag, lift_workload, make_view, parse_gdp, serialize_gdp
from .generate import GenSpec, generate
from .ip import (
    IpConstraint,
    IpModel,
    build_dp_ip,
    build_gdp_ip,
    build_replication_ip,
    lp_lines,
    read_lp,
    write_lp,
)
from .oracle import OracleLimit, OracleResult, optimal_gdp, optimal_partition, optimal_placement
from .partition import (
    PartitionConfig,
    PartitionResult,
    balance_ratio,
    capacity_fractions,
    export_graph,
    import_partition,
    parse_graph,
    recompute_cut,
)
from .pipeline import balance_sweep, plan_view_dag, plan_workload
from .reduction import (
    GraphEdge,
    GraphNode,
    PartGraph,
    build_dp_graph,
    build_gdp_graph,
    contract_infinite_edges,
)
from .replication import ReplicationConfig, heuristic1, heuristic2, max_part_size
from .workload import (
    Query,
    QueryRef,
    Server,
    Table,
    Workload,
    parse_workload,
    serialize_workload,
    validate_capacity_lower_bounds,
    validate_workload,
)

__version__ = "0.1.0"
