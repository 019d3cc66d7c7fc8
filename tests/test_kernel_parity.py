"""Parity pins for the columnar numpy kernel.

The columnar kernel (``repro.kernel``) behind :meth:`CostMatrix.compute`
must be *bit-identical* to the scalar formulas priced row by row
(:func:`scalar_oracle.scalar_matrix`) — same entry values, same
breakdowns, same row minima, under every configuration knob the matrix
exposes. These tests pin that contract with Hypothesis-driven random
worlds, cover the dirty-row recompute path, and check the ``npa_array``
primitive against its scalar oracle.
"""

import tracemalloc

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import scalar_matrix

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import ClassStats, CostModelConfig, PathStatistics
from repro.costmodel.yao import npa
from repro.kernel.arrays import StatArrays
from repro.kernel.yao_vec import npa_array
from repro.organizations import ALL_ORGANIZATIONS, IndexOrganization
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution, LoadTriplet


def make_world(
    length=5,
    subclasses=(0, 1, 0, 2, 0),
    objects=40_000,
    fanout=1.0,
    cache_evaluation=True,
    query=0.3,
    insert=0.1,
    delete=0.05,
):
    levels = [
        LevelSpec(f"L{i}", subclasses=subclasses[i % len(subclasses)])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    remaining = objects
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=remaining,
                distinct=max(10, remaining // 6),
                fanout=fanout,
            )
        remaining = max(50, remaining // 5)
    config = CostModelConfig(cache_evaluation=cache_evaluation)
    stats = PathStatistics(path, per_class, config)
    load = LoadDistribution.uniform(
        path, query=query, insert=insert, delete=delete
    )
    return stats, load


def assert_matrices_identical(left: CostMatrix, right: CostMatrix) -> None:
    assert left.length == right.length
    assert left.organizations == right.organizations
    for start, end in left.rows():
        for organization in left.organizations:
            assert left.cost(start, end, organization) == right.cost(
                start, end, organization
            ), (start, end, organization)
            left_breakdown = left.breakdown(start, end, organization)
            right_breakdown = right.breakdown(start, end, organization)
            assert left_breakdown == right_breakdown, (
                start,
                end,
                organization,
            )
        left_min = left.min_cost(start, end)
        right_min = right.min_cost(start, end)
        assert left_min.cost == right_min.cost
        assert left_min.organization is right_min.organization


def perturb_load(load, class_name, component, factor):
    triplets = {}
    for name, triplet in load.items():
        if name == class_name:
            values = {
                "query": triplet.query,
                "insert": triplet.insert,
                "delete": triplet.delete,
            }
            values[component] = values[component] * factor + 0.01
            triplet = LoadTriplet(**values)
        triplets[name] = triplet
    return LoadDistribution(load.path, triplets)


def perturb_stats(stats, class_name, factor):
    per_class = {}
    for position in range(1, stats.length + 1):
        for member in stats.members(position):
            current = stats.stats_of(member)
            if member == class_name:
                current = ClassStats(
                    objects=current.objects * factor,
                    distinct=max(1.0, current.distinct * factor),
                    fanout=current.fanout,
                )
            per_class[member] = current
    return PathStatistics(stats.path, per_class, stats.config)


world_strategy = st.fixed_dictionaries(
    {
        "length": st.integers(min_value=2, max_value=10),
        "subclasses": st.tuples(
            st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
        ),
        "objects": st.sampled_from([900, 25_000, 400_000]),
        "fanout": st.sampled_from([1.0, 1.5, 4.0]),
        "cache_evaluation": st.booleans(),
        "query": st.floats(min_value=0.0, max_value=2.0),
        "insert": st.floats(min_value=0.0, max_value=1.0),
        "delete": st.floats(min_value=0.0, max_value=1.0),
        "range_selectivity": st.sampled_from([None, 0.01, 0.05, 0.5, 1.0]),
        "organizations": st.sampled_from(
            [
                ALL_ORGANIZATIONS,
                (
                    IndexOrganization.SIX,
                    IndexOrganization.IIX,
                    IndexOrganization.NIX,
                    IndexOrganization.PX,
                    IndexOrganization.NX,
                    IndexOrganization.NONE,
                ),
            ]
        ),
    }
)


class TestColumnarMatchesLegacy:
    @given(world=world_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_worlds_bit_identical(self, world):
        world = dict(world)
        selectivity = world.pop("range_selectivity")
        organizations = world.pop("organizations")
        stats, load = make_world(**world)
        oracle = scalar_matrix(
            stats, load, organizations, range_selectivity=selectivity
        )
        columnar = CostMatrix.compute(
            stats, load, organizations, range_selectivity=selectivity
        )
        assert_matrices_identical(oracle, columnar)

    @pytest.mark.parametrize("selectivity", [None, 0.05])
    def test_length_40_bit_identical(self, selectivity):
        """The benchmark's own shape: every org, all 820 rows (NIX
        deletion chains up to length 38)."""
        stats, load = make_world(length=40, objects=400_000)
        oracle = scalar_matrix(
            stats, load, include_noindex=True, range_selectivity=selectivity
        )
        columnar = CostMatrix.compute(
            stats, load, include_noindex=True, range_selectivity=selectivity
        )
        assert_matrices_identical(oracle, columnar)

    @pytest.mark.parametrize("selectivity", [None, 0.05])
    def test_many_distinct_parent_counts_bit_identical(self, selectivity):
        """Fan-ins just above one that differ per level give the NIX
        parent chains many distinct occupied-member counts, so the CU3bc
        rewrites price CRR per chain element instead of through the
        (row × distinct count) grid."""
        length = 12
        stats, load = make_world(length=length, objects=400_000)
        per_class = {}
        for position in range(1, length + 1):
            for member in stats.members(position):
                objects = stats.stats_of(member).objects
                per_class[member] = ClassStats(
                    objects=objects,
                    distinct=objects,
                    fanout=1.0 + 0.01 * position,
                )
        stats = PathStatistics(stats.path, per_class, stats.config)
        rows = length * (length + 1) // 2
        pairs = length * (length + 1) * (length + 2) // 6
        distinct = StatArrays(stats, load).narp_values.size
        assert rows * distinct > 4 * pairs  # past the grid's memory bound
        oracle = scalar_matrix(
            stats, load, include_noindex=True, range_selectivity=selectivity
        )
        columnar = CostMatrix.compute(
            stats, load, include_noindex=True, range_selectivity=selectivity
        )
        assert_matrices_identical(oracle, columnar)

    @pytest.mark.parametrize("selectivity", [0.05, 0.5, 1.0])
    def test_range_selectivity_bit_identical(self, selectivity):
        stats, load = make_world(length=6, subclasses=(0, 2, 0, 1, 0, 0))
        oracle = scalar_matrix(
            stats, load, range_selectivity=selectivity, include_noindex=True
        )
        columnar = CostMatrix.compute(
            stats, load, range_selectivity=selectivity, include_noindex=True
        )
        assert_matrices_identical(oracle, columnar)

    @pytest.mark.parametrize("selectivity", [None, 0.4])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_tiny_matrices_bit_identical(self, length, selectivity):
        """One to six rows: a default build prices them on the kernel."""
        stats, load = make_world(length=length, subclasses=(0, 2, 1))
        oracle = scalar_matrix(stats, load, range_selectivity=selectivity)
        columnar = CostMatrix.compute(
            stats, load, range_selectivity=selectivity
        )
        assert_matrices_identical(oracle, columnar)

    def test_columnar_workers_match_serial(self):
        stats, load = make_world(length=8)
        serial = CostMatrix.compute(stats, load, workers=0)
        parallel = CostMatrix.compute(
            make_world(length=8)[0], load, workers=2
        )
        assert_matrices_identical(serial, parallel)


class TestKernelMemory:
    def test_length_80_build_peak_memory(self):
        """A serial L=80 build keeps its transient arrays O(L³): the NIX
        deletion chains are folded rank by rank, never materialized as
        the ~L⁴/24 (row, position, level) entries (that build peaked near
        380 MB; the folded one stays near 75 MB)."""
        stats, load = make_world(length=80, objects=400_000)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        baseline, _ = tracemalloc.get_traced_memory()
        try:
            CostMatrix.compute(stats, load, include_noindex=True, workers=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - baseline < 160 * 2**20, f"peak {peak / 2**20:.0f} MB"


class TestRecomputeParity:
    @given(
        batch=st.lists(
            st.tuples(
                st.sampled_from(["L0", "L1", "L2", "L3", "L4"]),
                st.sampled_from(["query", "insert", "delete", "stats"]),
                st.floats(min_value=0.25, max_value=4.0),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_perturbation_batches_match_fresh_compute(self, batch):
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        new_stats, new_load = stats, load
        for class_name, component, factor in batch:
            if component == "stats":
                new_stats = perturb_stats(new_stats, class_name, factor)
            else:
                new_load = perturb_load(new_load, class_name, component, factor)
        recomputed = matrix.recompute(stats=new_stats, load=new_load)
        fresh = scalar_matrix(new_stats, new_load)
        assert_matrices_identical(recomputed, fresh)


class TestNpaArray:
    @given(
        t=st.floats(min_value=0.0, max_value=250_000.0),
        n=st.floats(min_value=1.0, max_value=1e7),
        ratio=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_npa(self, t, n, ratio):
        m = max(1.0, n / ratio)
        t = min(t, n)
        expected = npa(t, n, m)
        got = npa_array(
            numpy.array([t]), numpy.array([n]), numpy.array([m])
        )
        assert got[0] == expected, (t, n, m)

    def test_grouped_big_region_matches_scalar(self):
        """Many elements sharing (n, m) with floor(t) >= 64 — the grouped
        cumprod branch — must reproduce the scalar numpy-product path."""
        n, m = 500_000.0, 125.0
        t = numpy.linspace(64.0, 99_999.0, 301)
        expected = numpy.array([npa(float(v), n, m) for v in t])
        got = npa_array(t, numpy.full(t.shape, n), numpy.full(t.shape, m))
        assert (got == expected).all()

    def test_boundary_and_cardenas_regions_match_scalar(self):
        """floor(t) == 63 (scalar Python loop) and t > exact limit
        (Cardenas approximation) stay on the scalar fallback."""
        cases = [
            (63.0, 10_000.0, 40.0),
            (63.9, 10_000.0, 40.0),
            (150_000.0, 1e6, 300.0),
        ]
        t, n, m = (numpy.array(column) for column in zip(*cases))
        expected = numpy.array(
            [npa(*case) for case in cases]
        )
        assert (npa_array(t, n, m) == expected).all()
