import os
import random
import re
from fractions import Fraction

import pytest

from placer.common import INFINITE, DocumentError, ValidationError
from placer.partition import (
    PartitionConfig,
    balance_ratio,
    capacity_fractions,
    export_graph,
    import_partition,
    parse_graph,
    partition,
    recompute_cut,
)
from placer.reduction import (
    GraphEdge,
    GraphNode,
    PartGraph,
    PartitionAssignment,
    build_dp_graph,
)

from conftest import GDP_EXAMPLE_PARTS
from helpers import brute_force_partition_cut, random_view_dag, random_workload


def node(nid, *weights):
    return GraphNode(nid, tuple(weights))


def test_default_config():
    cfg = PartitionConfig()
    assert len(cfg.slack_factors) == 5
    assert cfg.slack_factors[0] == 0
    assert cfg.slack_factors[-1] == Fraction(2, 9)
    assert cfg.seeds == (0, 1)


def test_config_validation():
    with pytest.raises(ValidationError):
        PartitionConfig(slack_factors=())
    with pytest.raises(ValidationError):
        PartitionConfig(slack_factors=(Fraction(1, 2), Fraction(0)))
    with pytest.raises(ValidationError):
        PartitionConfig(slack_factors=(Fraction(-1, 4),))
    with pytest.raises(ValidationError, match="slack_factors must be distinct"):
        PartitionConfig(slack_factors=(Fraction(0), Fraction(0)))
    with pytest.raises(ValidationError, match="seeds must be distinct"):
        PartitionConfig(seeds=(1, 1))


def test_fig2_matches_bruteforce_optimum(fig2):
    g = build_dp_graph(fig2)
    result = partition(g)
    assert result.cut_weight == brute_force_partition_cut(g) == 4
    assert not result.violations
    assert result.cut_weight == recompute_cut(g, result.assignment)


def test_single_part_zero_cut(fig2):
    g = build_dp_graph(fig2)
    g = PartGraph(g.nodes, g.edges, ((100,),))
    result = partition(g)
    assert result.cut_weight == 0
    assert set(result.assignment.part_of.values()) == {0}


def test_two_isolated_nodes_two_unit_parts():
    g = PartGraph((node("a", 1), node("b", 1)), (), ((1,), (1,)))
    result = partition(g)
    assert result.cut_weight == 0
    assert not result.violations
    assert sorted(result.assignment.part_of.values()) == [0, 1]


def test_isolated_nodes_stop_coarsening():
    # Nodes without edges have nothing to match, so coarsening stops at
    # once above the floor of 64 nodes and no V-cycle runs; the moves
    # out of overfull parts still balance the random start.
    g = PartGraph(tuple(node(f"n{i:03}", 1) for i in range(100)), (), ((25,),) * 4)
    result = partition(g)
    assert result.cut_weight == 0
    assert not result.violations
    assert result.per_part_loads == ((25,),) * 4
    assert result.v_cycles_run == 0


def test_zero_parts_rejected(fig2):
    g = build_dp_graph(fig2)
    with pytest.raises(ValidationError):
        partition(PartGraph(g.nodes, g.edges, ()))


def test_ncon_mismatch_rejected():
    g = PartGraph((node("a", 1, 2),), (), ((1,),))
    with pytest.raises(ValidationError):
        partition(g)


PAIR = (node("a", 1), node("b", 1))


@pytest.mark.parametrize("g, message", [
    (PartGraph(PAIR, (GraphEdge("a", "b", 0),), ((2,), (2,))), "weight 0, not > 0"),
    (PartGraph(PAIR, (GraphEdge("a", "b", -1),), ((2,), (2,))), "weight -1, not > 0"),
    (PartGraph((node("a", 1), node("b", 1, 2)), (), ((2,), (2,))), "1 components"),
    (PartGraph((node("a", 1, 2), node("b", 1, 2)), (), ((2,),)), "1 components"),
    (PartGraph(PAIR, (), ((2,), (2, 2))), "share one length"),
    (PartGraph(PAIR, (GraphEdge("a", "a", 1),), ((2,), (2,))), "self-loop"),
    (PartGraph(PAIR, (GraphEdge("a", "b", 1), GraphEdge("b", "a", 2)), ((2,), (2,))),
     "parallel edge"),
], ids=["zero-edge", "negative-edge", "node-widths", "node-vs-capacity", "capacity-widths",
        "self-loop", "parallel-edge"])
def test_graph_contract_checked_by_every_entry(g, message):
    # partition, export_graph and import_partition share one check.
    for use in (partition, export_graph, lambda g: import_partition("0\n0\n", g)):
        with pytest.raises(ValidationError, match=re.escape(message)):
            use(g)


def test_infinite_edges_pass_the_contract_check():
    g = PartGraph(PAIR, (GraphEdge("a", "b", INFINITE),), ((2,), (2,)))
    assert import_partition("0\n1\n", g).part_of == {"a": 0, "b": 1}


@pytest.mark.parametrize("text, message", [
    ("2 1 011 1\n1 2 0\n1 1 0\n", "node line 1 gives node 2 edge weight 0, not > 0"),
    ("2 1 011 1\n1 2 -5\n1 1 -5\n", "node line 1 gives node 2 edge weight -5, not > 0"),
    ("2 1 011 1\n1 2 3\n1 1 -3\n", "node line 2 gives node 1 edge weight -3, not > 0"),
    ("2 0 011 1\n1\n-1\n", "negative node weight on node line 2: '-1'"),
    ("2 0 011 2\n1 1\n1\n", "malformed node line 2: '1'"),
    ("2 1 011 1\n1 1 5\n1\n", "node line 1 lists itself as a neighbour (self-loop)"),
    ("2 1 011 1\n1 2 5\n1\n",
     "node line 1 lists node 2, but node line 2 does not list node 1"),
    ("2 1 011 1\n1 2 5 2 5\n1 1 5\n", "node line 1 lists node 2 more than once"),
    ("1 0 011 -1\n5\n", "graph header '1 0 011 -1' gives -1 constraints, need at least 1"),
    ("2 1 011 -2\n1 2 5\n1 1 5\n",
     "graph header '2 1 011 -2' gives -2 constraints, need at least 1"),
    ("1 0 011 0\n5\n", "graph header '1 0 011 0' gives 0 constraints, need at least 1"),
], ids=["zero-edge", "negative-edge", "negative-back-edge", "negative-node", "node-width",
        "self-loop", "one-sided-edge", "repeated-neighbour", "negative-ncon", "ncon-minus-two",
        "zero-ncon"])
def test_parse_graph_rejects_bad_weights(text, message):
    with pytest.raises(DocumentError, match=re.escape(message)):
        parse_graph(text, ((9,), (9,)))


def test_infinite_edges_rejected():
    g = PartGraph(
        (node("a", 1), node("b", 1)),
        (GraphEdge("a", "b", INFINITE),),
        ((2,), (2,)),
    )
    with pytest.raises(ValidationError):
        partition(g)


def test_determinism(fig2):
    g = build_dp_graph(fig2)
    assert partition(g) == partition(g)


def test_empty_graph():
    result = partition(PartGraph((), (), ((3,), (3,))))
    assert result.cut_weight == 0
    assert result.assignment.part_of == {}


def test_capacities_respected_when_feasible():
    rng = random.Random(1234)
    for _ in range(60):
        w = random_workload(rng, max_tables=7, max_queries=5, max_servers=3)
        g = build_dp_graph(w)
        result = partition(g)
        if result.slack == 0 and not result.violations:
            for k, loads in enumerate(result.per_part_loads):
                for d, load in enumerate(loads):
                    cap = g.part_capacities[k][d]
                    assert cap == INFINITE or load <= cap


def test_slack_candidate_rebalanced_to_true_capacities():
    # Refined under 1/18 slack and then rebalanced to the true
    # capacities, the slack candidate is feasible and beats the slack-0
    # candidate (cut 1738); the V-cycles then lower its cut from 1707.
    from placer.generate import GenSpec, generate

    w = generate(GenSpec(shape="random", n_tables=40, n_queries=40, n_servers=8, seed=6))
    result = partition(build_dp_graph(w), PartitionConfig(
        seeds=(0,), slack_factors=(Fraction(0), Fraction(1, 18))))
    assert result.slack == Fraction(1, 18)
    assert result.cut_weight == 1683
    assert not result.violations


def test_quality_set_summed_cut():
    # The 32-instance quality set: random 100x100 plans on 16 servers
    # (generator seeds 1000 * s + k, s = 1..4, k = 0..5) and TPC-DS
    # seeds 1-4 on 8 servers, plain and with load.  The summed cut of
    # the four-seed sweep without V-cycles was 142129; none may violate.
    from placer.generate import GenSpec, generate

    graphs = [
        build_dp_graph(generate(GenSpec(shape="random", n_tables=100, n_queries=100,
                                        n_servers=16, seed=1000 * s + k)))
        for s in range(1, 5) for k in range(6)
    ]
    for s in range(1, 5):
        w = generate(GenSpec(shape="tpcds", seed=s, n_servers=8))
        graphs += [build_dp_graph(w), build_dp_graph(w, with_load=True)]
    results = [partition(g) for g in graphs]
    assert not any(r.violations for r in results)
    assert sum(r.cut_weight for r in results) <= 142129


def _partitioned_meshes():
    """Meshes above COARSEN_FLOOR, each with a random partition."""
    from placer.generate import GenSpec, generate
    from placer.partition import _mesh_of

    rng = random.Random(31)
    for seed in range(6):
        l = rng.randint(2, 8)
        w = generate(GenSpec(shape="random", n_tables=60, n_queries=60,
                             n_servers=l, seed=seed))
        _, mesh = _mesh_of(build_dp_graph(w, with_load=seed % 2 == 1))
        yield mesh, [rng.randrange(l) for _ in range(mesh.n)], l


def _projected_parts(levels, part):
    """The partition of every level, each coarse node taking the part of
    the fine nodes it merges; fails when those disagree."""
    parts = [part]
    for coarse, cmap in levels[1:]:
        up = {}
        for u, c in enumerate(cmap):
            assert up.setdefault(c, parts[-1][u]) == parts[-1][u], "merged across parts"
        parts.append([up[c] for c in range(coarse.n)])
    return parts


def test_part_restricted_coarsening_merges_within_parts():
    from placer.partition import COARSEN_FLOOR, _coarsen

    for mesh, part, _ in _partitioned_meshes():
        for seed in range(3):
            levels, coarse_part = _coarsen(mesh, seed, part)
            assert len(levels) > 1 and mesh.n > COARSEN_FLOOR
            assert _projected_parts(levels, part)[-1] == coarse_part


def test_projection_keeps_cut_and_loads_at_every_level():
    from placer.partition import _coarsen, _cut_of, _loads_of

    for mesh, part, l in _partitioned_meshes():
        levels, _ = _coarsen(mesh, 0, part)
        for (level, _), level_part in zip(levels, _projected_parts(levels, part)):
            assert _cut_of(level, level_part) == _cut_of(mesh, part)
            assert _loads_of(level, level_part, l) == _loads_of(mesh, part, l)


def test_v_cycle_never_raises_the_key(monkeypatch):
    # The projection keeps the loads and the cut and no pass raises
    # (excess, cut), so neither does a V-cycle, and on a feasible
    # incumbent the key (infeasible, cut, excess) cannot rise.  On an
    # infeasible one a lower excess may cost cut: on the 60x60 plan with
    # servers of 105, below an even share, two cycles raise the key, and
    # partition() keeps a cycle's result only when its key is lower.
    import placer.partition as P
    from placer.generate import GenSpec, generate

    def key(loads, part, mesh, caps):
        excess = sum(x for _, _, x in P._violations_of(loads, caps))
        return (excess > 0, P._cut_of(mesh, part), excess)

    raised = 0
    for n, seed, capacity in ((150, 3, None), (150, 4, None), (60, 9, 105)):
        w = generate(GenSpec(shape="random", n_tables=n, n_queries=n, n_servers=8,
                             seed=seed, server_capacity=capacity))
        g = build_dp_graph(w)
        ids, mesh = P._mesh_of(g)
        caps = [tuple(vec) for vec in g.part_capacities]
        cfg = PartitionConfig(seeds=(0,))
        with monkeypatch.context() as m:
            m.setattr(P, "V_CYCLES", 0)
            sweep = partition(g, cfg)
        result = partition(g, cfg)
        part = [sweep.assignment.part_of[i] for i in ids]
        before = key(sweep.per_part_loads, part, mesh, caps)
        assert before[0] == (capacity is not None)
        after = key(result.per_part_loads, [result.assignment.part_of[i] for i in ids],
                    mesh, caps)
        assert after <= before
        for cycle in range(P.V_CYCLES):
            levels, coarse_part = P._coarsen(mesh, cycle, part)
            assert len(levels) > 1
            loads = P._loads_of(mesh, part, len(caps))
            cycled = P._descend(levels, coarse_part, loads, caps)
            after = key(loads, cycled, mesh, caps)
            assert (after[2], after[1]) <= (before[2], before[1])
            raised += after > before
    assert raised == 2



def test_quality_at_desk_scale():
    # Random graphs of <= 12 nodes, <= 3 parts: within 1.25x of the
    # exact optimum on at least 95% of 500 instances, bookkeeping always
    # exact.  The branch-and-bound oracle stands in for plain
    # enumeration here; their equality is covered by the oracle tests.
    from placer.oracle import optimal_partition

    rng = random.Random(555)
    good = total = 0
    for _ in range(500):
        n = rng.randint(2, 12)
        l = rng.randint(1, 3)
        nodes = tuple(node(f"n{i:02d}", rng.randint(0, 6)) for i in range(n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges.append(GraphEdge(f"n{i:02d}", f"n{j:02d}", rng.randint(1, 9)))
        weight_total = sum(x.weights[0] for x in nodes)
        largest = max(x.weights[0] for x in nodes)
        caps = tuple(
            (max(largest, -(-weight_total // l)) + rng.randint(0, 2),)
            for _ in range(l)
        )
        g = PartGraph(nodes, tuple(edges), caps)
        oracle = optimal_partition(g)
        if not oracle.feasible:
            continue
        best = oracle.cost
        total += 1
        result = partition(g)
        assert result.cut_weight == recompute_cut(g, result.assignment)
        if result.violations:
            continue
        if best == 0:
            good += 1 if result.cut_weight == 0 else 0
        elif result.cut_weight <= 1.25 * best:
            good += 1
    assert total > 400
    assert good / total >= 0.95


def test_refinement_passes_never_raise_cut():
    # A completed refinement pass keeps the prefix of its move sequence
    # with the least total excess, then the lowest cut, so (excess, cut)
    # never rises; with no part overfull the cut is non-increasing.  Half
    # the instances give each part less than the total, so that random
    # starts overfill parts.  The pass also leaves the loads and the
    # part connectivity it keeps equal to ones rebuilt from scratch.
    from placer.partition import (
        _connectivity,
        _loads_of,
        _mesh_of,
        _sequence_pass,
        _violations_of,
    )

    rng = random.Random(77)
    overfull = 0
    for _ in range(80):
        n = rng.randint(3, 14)
        l = rng.randint(2, 3)
        nodes = tuple(node(f"n{i:02d}", rng.randint(0, 5)) for i in range(n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append(GraphEdge(f"n{i:02d}", f"n{j:02d}", rng.randint(1, 9)))
        total = sum(x.weights[0] for x in nodes)
        tight = rng.random() < 0.5
        caps = [(total * rng.randint(8, 15) // (10 * l) if tight else total,) for _ in range(l)]
        _, mesh = _mesh_of(PartGraph(nodes, tuple(edges), tuple(caps)))
        part = [rng.randrange(l) for _ in range(mesh.n)]
        loads = _loads_of(mesh, part, l)
        conn = _connectivity(mesh, part, l)

        def score():
            excess = sum(x for _, _, x in _violations_of(loads, caps))
            return excess, sum(w for u, v, w in mesh.edges if part[u] != part[v])

        overfull += score()[0] > 0
        for _ in range(4):
            before = score()
            _sequence_pass(mesh, part, loads, caps, conn)
            assert score() <= before
            assert loads == _loads_of(mesh, part, l)
            assert conn == _connectivity(mesh, part, l)
    assert overfull >= 20, overfull


def _refinement_instance(rng):
    """A random mesh, capacities and start for refinement: isolated
    nodes, two constraints with unbounded components and starts that
    overfill parts all occur."""
    from placer.partition import _Mesh

    n = rng.randint(1, 60)
    l = rng.randint(1, 5)
    ncon = rng.choice([1, 2])
    weights = [tuple(rng.randint(0, 6) for _ in range(ncon)) for _ in range(n)]
    linked = [u for u in range(n) if rng.random() < 0.85]
    density = rng.uniform(0.05, 0.5)
    edges = [
        (u, v, rng.randint(1, 9))
        for i, u in enumerate(linked)
        for v in linked[i + 1:]
        if rng.random() < density
    ]
    caps = []
    for _ in range(l):
        vec = []
        for d in range(ncon):
            total = sum(w[d] for w in weights)
            if ncon == 2 and rng.random() < 0.4:
                vec.append(INFINITE)
            else:
                vec.append(int(total / l * rng.uniform(0.7, 1.6)))
        caps.append(tuple(vec))
    crowd = rng.random() < 0.5  # most nodes start on part 0
    part = [0 if crowd and rng.random() < 0.7 else rng.randrange(l) for _ in range(n)]
    return _Mesh(ncon, weights, edges), part, caps


def test_refinement_equals_dict_reference(monkeypatch):
    # The incremental connectivity must reproduce, step by step, the
    # refinement that rebuilds every node's connectivity on each use:
    # every tentative move and rollback is recorded on both sides.
    import placer.partition as P
    from placer.partition import (
        _connectivity,
        _loads_of,
        _refine,
        _sequence_pass,
        _violations_of,
    )

    import helpers
    from helpers import reference_refine, reference_sequence_pass

    steps, ref_steps = [], []  # (node, to) of each move

    def recorded(move, log):
        def record(mesh, part, *args):
            log.append(args[-2:])
            return move(mesh, part, *args)
        return record

    monkeypatch.setattr(P, "_move", recorded(P._move, steps))
    monkeypatch.setattr(helpers, "reference_move", recorded(helpers.reference_move, ref_steps))

    def same_steps():
        assert steps == ref_steps
        seen["steps"] += len(steps)
        del steps[:], ref_steps[:]

    rng = random.Random(2024)
    seen = dict(isolated=0, infinite=0, overloaded=0, moved=0, steps=0)
    for _ in range(300):
        mesh, start, caps = _refinement_instance(rng)
        l = len(caps)
        seen["isolated"] += any(not a for a in mesh.adj)
        seen["infinite"] += any(INFINITE in vec for vec in caps)
        seen["overloaded"] += bool(_violations_of(_loads_of(mesh, start, l), caps))

        part, ref_part = list(start), list(start)
        loads, ref_loads = _loads_of(mesh, part, l), _loads_of(mesh, part, l)
        assert _refine(mesh, part, loads, caps) == reference_refine(
            mesh, ref_part, ref_loads, caps)
        assert part == ref_part and loads == ref_loads
        same_steps()
        seen["moved"] += part != start

        part, ref_part = list(start), list(start)
        loads, ref_loads = _loads_of(mesh, part, l), _loads_of(mesh, part, l)
        conn = _connectivity(mesh, part, l)
        kept = True
        while kept:
            kept = _sequence_pass(mesh, part, loads, caps, conn)
            assert kept == reference_sequence_pass(mesh, ref_part, ref_loads, caps)
            assert part == ref_part and loads == ref_loads
            same_steps()
            assert conn == _connectivity(mesh, part, l)
    assert all(c >= 30 for c in seen.values()), seen


def test_refinement_reaches_a_fixed_point(monkeypatch):
    # _refine runs passes until one keeps nothing, so refining its
    # result again keeps nothing.  Checked at every refinement of one
    # quality-set plan (random 100x100 on 16 servers, generator seed
    # 4004), whose 113-node level with 16 parts takes more than ten
    # passes.  The sweep runs in this one process, since the passes of a
    # forked child are counted in the child's memory.
    import placer.partition as P
    from placer.generate import GenSpec, generate

    refine, sequence_pass = P._refine, P._sequence_pass
    passes = []  # per refinement: (nodes, parts, passes)

    def counted_pass(*args):
        n, l, k = passes[-1]
        passes[-1] = (n, l, k + 1)
        return sequence_pass(*args)

    def checked_refine(mesh, part, loads, caps):
        passes.append((mesh.n, len(caps), 0))
        refine(mesh, part, loads, caps)
        again, again_loads = list(part), [list(vec) for vec in loads]
        conn = P._connectivity(mesh, again, len(caps))
        assert not sequence_pass(mesh, again, again_loads, caps, conn)
        assert again == part and again_loads == loads

    monkeypatch.setattr(P, "_refine", checked_refine)
    monkeypatch.setattr(P, "_sequence_pass", counted_pass)
    monkeypatch.setattr(P, "_sweep_workers", lambda n_seeds: 1)
    w = generate(GenSpec(shape="random", n_tables=100, n_queries=100, n_servers=16,
                         seed=4004))
    partition(build_dp_graph(w))
    assert len(passes) > 40
    assert any(n == 113 and l == 16 and k > 10 for n, l, k in passes), passes


def test_graph_that_does_not_coarsen_runs_no_v_cycle():
    # The sweep's winner is refined to a fixed point at the true
    # capacities, so a V-cycle with no coarser level could not change
    # it, and on at most COARSEN_FLOOR nodes none runs.  The plan is
    # pinned: running such cycles or not must not change it.
    from placer.generate import GenSpec, generate
    from placer.partition import COARSEN_FLOOR

    w = generate(GenSpec(shape="random", n_tables=20, n_queries=20, n_servers=4, seed=1))
    g = build_dp_graph(w)
    result = partition(g)
    assert len(g.nodes) <= COARSEN_FLOOR
    assert (result.v_cycles_run, result.v_cycles_improved) == (0, 0)
    assert (result.cut_weight, result.slack, result.seed) == (576, Fraction(2, 9), 0)
    part_of = result.assignment.part_of
    assert "".join(str(part_of[i]) for i in sorted(part_of)) == (
        "2101300010023201313202211121011303232023")


def test_fallback_excess_near_minimum():
    # 4979 units of tables on 16 servers of 280 (4480 in all): no legal
    # placement exists, and 499 is the least possible total excess.  The
    # fallback candidate stays within one unit of it.
    from placer.generate import GenSpec, generate

    w = generate(GenSpec(shape="random", n_tables=300, n_queries=300, n_servers=16,
                         seed=5, server_capacity=280))
    result = partition(build_dp_graph(w), PartitionConfig(seeds=(0,)))
    assert w.total_size() - 16 * 280 == 499
    assert 499 <= sum(x for _, _, x in result.violations) <= 500


def test_unit_weights_at_exact_capacity_always_balance():
    # Every candidate starts from a random assignment and only the moves
    # out of overfull parts balance it.  With unit node weights and
    # capacity n // l per part (exactly n in all), every single
    # candidate must still end with no violation.
    for n, l in ((12, 3), (48, 16), (64, 8), (192, 16), (300, 10)):
        rng = random.Random(n * 1000 + l)
        ids = [f"n{i:03d}" for i in range(n)]
        weights = {}
        for _ in range(3 * n):
            u, v = sorted(rng.sample(range(n), 2))
            weights[u, v] = rng.randint(1, 9)
        g = PartGraph(
            tuple(node(nid, 1) for nid in ids),
            tuple(GraphEdge(ids[u], ids[v], w) for (u, v), w in sorted(weights.items())),
            tuple((n // l,) for _ in range(l)),
        )
        for seed in range(10):
            for slack in (Fraction(0), Fraction(2, 9)):
                result = partition(g, PartitionConfig(seeds=(seed,), slack_factors=(slack,)))
                assert not result.violations, (n, l, seed, slack)


def test_violations_reported_not_fatal():
    # Two heavy nodes, one tiny part: no legal assignment exists, the
    # partitioner still answers and itemizes the overrun.
    g = PartGraph(
        (node("a", 5), node("b", 5)),
        (GraphEdge("a", "b", 2),),
        ((5,), (3,)),
    )
    result = partition(g)
    assert result.violations
    part, constraint, excess = result.violations[0]
    assert constraint == 0 and excess > 0


def test_recompute_cut_gdp_paper_partition(gdp_example):
    from placer.reduction import build_gdp_graph

    g = build_gdp_graph(gdp_example)
    cut = recompute_cut(g, PartitionAssignment(GDP_EXAMPLE_PARTS))
    assert cut == 46  # 8+5+5+4+10+7+7


def test_recompute_cut_trivial_cases():
    g = PartGraph(
        (node("a", 1), node("b", 1)), (GraphEdge("a", "b", 9),), ((2,), (2,))
    )
    assert recompute_cut(g, PartitionAssignment({"a": 0, "b": 0})) == 0
    assert recompute_cut(g, PartitionAssignment({"a": 0, "b": 1})) == 9
    with pytest.raises(ValidationError):
        recompute_cut(g, PartitionAssignment({"a": 0}))


def test_recompute_cut_infinite():
    g = PartGraph(
        (node("a", 1), node("b", 1)),
        (GraphEdge("a", "b", INFINITE),),
        ((2,), (2,)),
    )
    assert recompute_cut(g, PartitionAssignment({"a": 0, "b": 1})) == INFINITE


def test_export_two_nodes():
    g = PartGraph(
        (node("a", 1), node("b", 2)), (GraphEdge("a", "b", 5),), ((3,),)
    )
    assert export_graph(g) == "2 1 011 1\n1 2 5\n2 1 5\n"


def test_export_fig2_header(fig2):
    g = build_dp_graph(fig2)
    assert export_graph(g).splitlines()[0] == "10 9 011 1"


def test_export_two_constraints():
    g = PartGraph(
        (node("a", 1, 4), node("b", 2, 0)), (GraphEdge("a", "b", 5),), ((3, 4),)
    )
    text = export_graph(g)
    assert text.splitlines()[0] == "2 1 011 2"
    assert text.splitlines()[1] == "1 4 2 5"


def test_export_rejects_infinite_edges():
    g = PartGraph(
        (node("a", 1), node("b", 1)),
        (GraphEdge("a", "b", INFINITE),),
        ((2,),),
    )
    with pytest.raises(ValidationError):
        export_graph(g)


def test_import_partition_round():
    g = PartGraph((node("a", 1), node("b", 1), node("c", 1)), (), ((2,), (2,)))
    a = import_partition("0\n0\n1\n", g)
    assert a.part_of == {"a": 0, "b": 0, "c": 1}


def test_import_partition_errors():
    g = PartGraph((node("a", 1), node("b", 1), node("c", 1)), (), ((3,), (3,), (3,)))
    with pytest.raises(DocumentError, match="entries"):
        import_partition("0\n1\n", g)
    with pytest.raises(DocumentError, match="out of range"):
        import_partition("0\n1\n5\n", g)


def test_graph_file_round_trip(fig2):
    g = build_dp_graph(fig2)
    text = export_graph(g)
    back = parse_graph(text, g.part_capacities)
    assert [n.weights for n in back.nodes] == [
        n.weights for n in sorted(g.nodes, key=lambda n: n.id)
    ]
    order = sorted(g.nodes, key=lambda n: n.id)
    index = {n.id: i for i, n in enumerate(order)}
    original = {
        (min(index[e.u], index[e.v]), max(index[e.u], index[e.v])): e.weight
        for e in g.edges
    }
    back_index = {n.id: i for i, n in enumerate(back.nodes)}
    round_tripped = {
        (min(back_index[e.u], back_index[e.v]), max(back_index[e.u], back_index[e.v])): e.weight
        for e in back.edges
    }
    assert round_tripped == original
    assert export_graph(back) == text


def test_balance_ratio():
    base = dict(
        assignment=PartitionAssignment({}),
        cut_weight=0,
        violations=(),
        slack=Fraction(0),
        seed=0,
        v_cycles_run=0,
        v_cycles_improved=0,
    )
    from placer.partition import PartitionResult

    r = PartitionResult(per_part_loads=((4,), (4,)), part_capacities=((9,), (9,)), **base)
    assert balance_ratio(r) == 1
    r = PartitionResult(per_part_loads=((2,), (6,)), part_capacities=((9,), (9,)), **base)
    assert balance_ratio(r) == Fraction(1, 3)
    r = PartitionResult(per_part_loads=((0,), (0,)), part_capacities=((9,), (9,)), **base)
    assert balance_ratio(r) is None
    # zero-capacity parts are excluded
    r = PartitionResult(per_part_loads=((0,), (6,)), part_capacities=((0,), (9,)), **base)
    assert balance_ratio(r) == 1


def test_capacity_fractions():
    g = PartGraph((node("a", 1),), (), ((3,), (1,)))
    assert capacity_fractions(g) == [(Fraction(3, 4),), (Fraction(1, 4),)]


@pytest.fixture(scope="module")
def sweep_graphs():
    # A random 100x100 plan on 16 servers, TPC-DS on 8 servers, the same
    # with a 3/4 load ratio (ncon = 2), a contracted view DAG (218 nodes
    # before contraction, 167 after) and a 60x60 plan whose servers of
    # 105 are below an even share, so that every candidate violates.
    from placer.generate import GenSpec, generate
    from placer.pipeline import _apply_ratio, graph_of

    tpcds = generate(GenSpec(shape="tpcds", seed=1, n_servers=8))
    return {
        "random": build_dp_graph(generate(GenSpec(
            shape="random", n_tables=100, n_queries=100, n_servers=16, seed=4004))),
        "tpcds": build_dp_graph(tpcds),
        "load": build_dp_graph(_apply_ratio(tpcds, Fraction(3, 4)), with_load=True),
        "view-dag": graph_of(random_view_dag(random.Random(0), max_views=120,
                                             max_servers=4))[0],
        "fallback": build_dp_graph(generate(GenSpec(
            shape="random", n_tables=60, n_queries=60, n_servers=8, seed=9,
            server_capacity=105))),
    }


def _counting_forks(monkeypatch, P) -> list:
    forks = []
    fork = P._fork

    def counted(*args):
        forks.append(args[1:])
        return fork(*args)

    monkeypatch.setattr(P, "_fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seeds", [(0,), (0, 1), (0, 1, 2), (5, 3, 1, 4)])
def test_sweep_result_does_not_depend_on_processes(monkeypatch, sweep_graphs, seeds):
    # Determinism that does not depend on parallelism: the sweep in one
    # process, in as many as this host gives it and, where processes can
    # be forked, in min(seeds, 3) (uneven chunks of the seed list) gives
    # one PartitionResult.
    import placer.partition as P

    cfg = PartitionConfig(seeds=seeds)
    forks = _counting_forks(monkeypatch, P)
    for name, g in sweep_graphs.items():
        with monkeypatch.context() as m:
            m.setattr(P, "_sweep_workers", lambda n_seeds: 1)
            alone = partition(g, cfg)
        assert bool(alone.violations) == (name == "fallback")
        assert partition(g, cfg) == alone, name
        if hasattr(os, "fork"):
            with monkeypatch.context() as m:
                m.setattr(P, "_sweep_workers", lambda n_seeds: min(n_seeds, 3))
                del forks[:]
                assert partition(g, cfg) == alone, name
                assert len(forks) == min(len(seeds), 3) - 1
        _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks only where os.fork exists")
@pytest.mark.parametrize("bad_seed", [0, 1], ids=["here", "child"])
def test_failing_seed_raises_and_leaves_no_child(monkeypatch, bad_seed):
    # Seeds (0, 1, 2) in three processes: seed 0 runs here, 1 and 2 each
    # in a child.  A seed that fails raises its error from partition()
    # whichever process ran it, as a one-process run raises it, and every
    # child is reaped first.
    import placer.partition as P
    from placer.generate import GenSpec, generate

    g = build_dp_graph(generate(GenSpec(shape="random", n_tables=40, n_queries=40,
                                        n_servers=8, seed=3)))
    run_candidate = P._run_candidate

    def failing(levels, caps, rng_seed):
        if rng_seed // 8191 == bad_seed:
            raise ValidationError(f"seed {bad_seed} fails")
        return run_candidate(levels, caps, rng_seed)

    monkeypatch.setattr(P, "_run_candidate", failing)
    monkeypatch.setattr(P, "_sweep_workers", lambda n_seeds: n_seeds)
    forks = _counting_forks(monkeypatch, P)
    with pytest.raises(ValidationError, match=f"^seed {bad_seed} fails$"):
        partition(g, PartitionConfig(seeds=(0, 1, 2)))
    assert forks == [(1, 2), (2, 3)]
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks only where os.fork exists")
@pytest.mark.parametrize("fault", ["exit", "bad-bytes", "wrong-part", "no-fork"])
def test_failed_child_chunk_is_run_here(monkeypatch, fault):
    # A chunk whose child exits nonzero, sends bytes that do not decode
    # or a part of the wrong length, or cannot be forked at all is run
    # again in this process, so the result is the one-process result.
    import marshal
    import types

    import placer.partition as P
    from placer.generate import GenSpec, generate

    g = build_dp_graph(generate(GenSpec(shape="random", n_tables=40, n_queries=40,
                                        n_servers=8, seed=3)))
    cfg = PartitionConfig(seeds=(0, 1, 2))
    with monkeypatch.context() as m:
        m.setattr(P, "_sweep_workers", lambda n_seeds: 1)
        alone = partition(g, cfg)
    if fault == "exit":
        here, run_candidate = os.getpid(), P._run_candidate

        def failing_in_children(levels, caps, rng_seed):
            if os.getpid() != here:
                raise MemoryError
            return run_candidate(levels, caps, rng_seed)

        monkeypatch.setattr(P, "_run_candidate", failing_in_children)
    elif fault == "no-fork":
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    else:
        sent = b"\xffjunk" if fault == "bad-bytes" else marshal.dumps(([0] * 3, 0, 1))
        monkeypatch.setattr(P, "marshal", types.SimpleNamespace(
            dumps=lambda value: sent, loads=marshal.loads))
    monkeypatch.setattr(P, "_sweep_workers", lambda n_seeds: n_seeds)
    assert partition(g, cfg) == alone
    _assert_no_child_left()


def test_partition_submodule_is_importable_as_module():
    import importlib
    import types

    import placer.partition as bound

    module = importlib.import_module("placer.partition")
    assert isinstance(module, types.ModuleType)
    assert bound is module
