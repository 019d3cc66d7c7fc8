"""The NIX delete-chain SA1/SA2 tabulation (PR 5 satellite).

The parent-oid retrieval of the NIX deletion algorithm — ``min(SA1,
SA2)`` Yao estimates over the auxiliary-index leaf profile — is the
remaining serial hot spot of matrix construction (ROADMAP PR 2
follow-up). It is now tabulated in the statistics-owned evaluation memo
behind the existing ``cache_evaluation`` gate; these tests pin that the
tabulation is live (entries appear under its key tag) and bit-identical
to the uncached evaluation.
"""

from scalar_oracle import scalar_matrix

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.nix import NIXCostModel
from repro.costmodel.params import ClassStats, CostModelConfig, PathStatistics
from repro.synth import LevelSpec, linear_path_schema
from repro.workload.load import LoadDistribution

#: The memo key tag reserved by the SA1/SA2 retrieval tabulation.
RETRIEVAL_TAG = 42


def make_stats(cache_evaluation=True, length=6, subclasses=(0, 2, 0, 1, 0, 0)):
    levels = [
        LevelSpec(f"L{i}", subclasses=subclasses[i % len(subclasses)])
        for i in range(length)
    ]
    _schema, path = linear_path_schema(levels)
    per_class = {}
    remaining = 30_000
    for position in range(1, length + 1):
        for member in path.hierarchy_at(position):
            per_class[member] = ClassStats(
                objects=remaining, distinct=max(10, remaining // 4), fanout=1.0
            )
        remaining = max(60, remaining // 4)
    config = CostModelConfig(cache_evaluation=cache_evaluation)
    return PathStatistics(path, per_class, config)


class TestRetrievalTabulation:
    def test_delete_cost_bit_identical_with_and_without_cache(self):
        cached_stats = make_stats(cache_evaluation=True)
        uncached_stats = make_stats(cache_evaluation=False)
        length = cached_stats.length
        for start in range(1, length + 1):
            for end in range(start, length + 1):
                cached_model = NIXCostModel(cached_stats, start, end)
                uncached_model = NIXCostModel(uncached_stats, start, end)
                for position in range(start, end + 1):
                    for member in cached_stats.members(position):
                        assert cached_model.delete_cost(
                            position, member
                        ) == uncached_model.delete_cost(position, member), (
                            start,
                            end,
                            position,
                            member,
                        )

    def test_tabulation_entries_are_written(self):
        stats = make_stats(cache_evaluation=True)
        # The tabulation lives in the scalar formulas; the columnar
        # kernel batches the same estimates without the memo.
        scalar_matrix(
            stats, LoadDistribution.uniform(stats.path, 0.3, 0.1, 0.1)
        )
        tags = {
            key[0]
            for key in stats._primitive_cache
            if isinstance(key, tuple) and key
        }
        assert RETRIEVAL_TAG in tags

    def test_tabulation_hits_repeat_across_hierarchy_members(self):
        stats = make_stats(cache_evaluation=True)
        # Position 2 has subclasses: deleting any member walks the same
        # parent chain, so the second member's retrieval must hit the
        # entry the first one wrote (entry count stays fixed).
        model = NIXCostModel(stats, 1, stats.length)
        members = stats.members(4)
        assert len(members) > 1
        model.delete_cost(4, members[0])
        entries_after_first = sum(
            1 for key in stats._primitive_cache if key[0] == RETRIEVAL_TAG
        )
        assert entries_after_first >= 1
        model.delete_cost(4, members[1])
        entries_after_second = sum(
            1 for key in stats._primitive_cache if key[0] == RETRIEVAL_TAG
        )
        assert entries_after_second == entries_after_first

    def test_matrix_bit_identical_with_and_without_cache(self):
        cached_stats = make_stats(cache_evaluation=True)
        uncached_stats = make_stats(cache_evaluation=False)
        load_cached = LoadDistribution.uniform(cached_stats.path, 0.3, 0.15, 0.2)
        load_uncached = LoadDistribution.uniform(
            uncached_stats.path, 0.3, 0.15, 0.2
        )
        cached = CostMatrix.compute(cached_stats, load_cached)
        uncached = CostMatrix.compute(uncached_stats, load_uncached)
        for start, end in cached.rows():
            for organization in cached.organizations:
                assert cached.cost(start, end, organization) == uncached.cost(
                    start, end, organization
                )

    def test_no_tabulation_when_cache_disabled(self):
        stats = make_stats(cache_evaluation=False)
        assert stats.primitive_cache() is None
        model = NIXCostModel(stats, 1, stats.length)
        # Still computes correctly with the memo off.
        assert model.delete_cost(4, stats.members(4)[0]) > 0
