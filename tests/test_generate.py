import math
import statistics

import pytest

from placer.common import ValidationError
from placer.generate import GenSpec, generate
from placer.workload import validate_workload

from helpers import truncated_floor_normal_moments


def test_determinism():
    spec = GenSpec(shape="random", n_tables=40, n_queries=30, seed=7)
    assert generate(spec) == generate(spec)
    assert generate(spec) != generate(GenSpec(shape="random", n_tables=40,
                                              n_queries=30, seed=8))


def test_tpcds_shape():
    w = generate(GenSpec(shape="tpcds", seed=1))
    assert len(w.tables) == 24
    assert len(w.queries) == 99
    facts = [t for t in w.tables if t.id.startswith("fact")]
    dims = [t for t in w.tables if t.id.startswith("dim")]
    assert len(facts) == 7 and len(dims) == 17
    assert all(50 <= t.size <= 100 for t in facts)
    assert all(1 <= t.size <= 10 for t in dims)
    refs = [len(q.refs) for q in w.queries]
    assert min(refs) >= 1
    assert max(refs) <= 13
    assert 3 <= statistics.mean(refs) <= 5
    fact_ids = {t.id for t in facts}
    assert all(any(r.table in fact_ids for r in q.refs) for q in w.queries)


def test_tpcds_total_size_range():
    # 7 facts in [50,100] plus 17 dims in [1,10]
    for seed in range(5):
        total = generate(GenSpec(shape="tpcds", seed=seed)).total_size()
        assert 7 * 50 + 17 * 1 <= total <= 7 * 100 + 17 * 10


def test_ref_clamping():
    w = generate(GenSpec(shape="random", n_tables=3, n_queries=50, seed=2))
    assert all(1 <= len(q.refs) <= 3 for q in w.queries)


def test_costs_equal_sizes():
    w = generate(GenSpec(shape="random", n_tables=10, n_queries=10, seed=3))
    sizes = {t.id: t.size for t in w.tables}
    for q in w.queries:
        for r in q.refs:
            assert r.cost == sizes[r.table]


def test_generated_workloads_validate():
    for seed in range(3):
        validate_workload(generate(GenSpec(shape="random", n_tables=50,
                                           n_queries=50, seed=seed)))
        validate_workload(generate(GenSpec(shape="tpcds", seed=seed)))


def test_server_capacity_override():
    w = generate(GenSpec(shape="tpcds", seed=1, n_servers=8, server_capacity=300))
    assert len(w.servers) == 8
    assert all(s.storage_capacity == 300 for s in w.servers)


def test_default_capacity_fits_largest_table():
    w = generate(GenSpec(shape="tpcds", seed=1, n_servers=16))
    largest = max(t.size for t in w.tables)
    assert all(s.storage_capacity >= largest for s in w.servers)


def test_size_distribution_mean():
    # Empirical mean of 10^4 draws vs the analytic mean of the floored,
    # lower-truncated normal, within three standard errors.
    n = 10_000
    w = generate(GenSpec(shape="random", n_tables=n, n_queries=0, seed=11))
    sample_mean = sum(t.size for t in w.tables) / n
    mean, var = truncated_floor_normal_moments(10.0, 15.0)
    stderr = math.sqrt(var / n)
    assert abs(sample_mean - mean) <= 3 * stderr


def test_bad_specs_rejected():
    with pytest.raises(ValidationError):
        GenSpec(shape="weird")
    with pytest.raises(ValidationError):
        GenSpec(shape="random", n_tables=0, n_queries=5)
    with pytest.raises(ValidationError):
        GenSpec(n_servers=0)
