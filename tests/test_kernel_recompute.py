"""Parity and counter pins for the kernel dirty-slice recompute.

``CostMatrix.recompute`` routes dirty-row sets through the columnar
kernel as array-slice re-evaluations over cached (or freshly patched)
lowerings, and lowers afresh when none is cached. These tests pin the
contract two ways:

* **bit-identity** — a recomputed matrix equals the scalar formulas
  priced from scratch (:func:`scalar_oracle.scalar_matrix`) for every
  organization, with the evaluation cache on and off, across
  Hypothesis-driven perturbation batches;
* **counters** — ``RecomputeReport.kernel_slice_rows`` counts exactly
  the kernel-priced rows, which is every re-priced row, range-ending
  rows under a range predicate included.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_oracle import scalar_matrix
from test_kernel_parity import (
    assert_matrices_identical,
    make_world,
    perturb_load,
    perturb_stats,
)

from repro.core.cost_matrix import CostMatrix


def small_world(cache_evaluation=True, length=3):
    """A short linear world: at most six matrix rows."""
    return make_world(
        length=length, subclasses=(0, 0, 0), cache_evaluation=cache_evaluation
    )


perturbation_batches = st.lists(
    st.tuples(
        st.sampled_from(["L0", "L1", "L2", "L3", "L4"]),
        st.sampled_from(["query", "insert", "delete", "stats"]),
        st.floats(min_value=0.25, max_value=4.0),
    ),
    min_size=1,
    max_size=3,
)


class TestDirtySliceBitIdentity:
    @given(batch=perturbation_batches, cache=st.booleans())
    @example(batch=[("L0", "stats", 1.0)], cache=False)
    @settings(max_examples=15, deadline=None)
    def test_recompute_matches_fresh_build(self, batch, cache):
        """recompute(dirty) == fresh scalar build, cache on/off, all orgs."""
        stats, load = make_world(cache_evaluation=cache)
        matrix = CostMatrix.compute(stats, load, include_noindex=True)
        new_stats, new_load = stats, load
        for class_name, component, factor in batch:
            if component == "stats":
                new_stats = perturb_stats(new_stats, class_name, factor)
            else:
                new_load = perturb_load(new_load, class_name, component, factor)
        recomputed = matrix.recompute(stats=new_stats, load=new_load)
        fresh = scalar_matrix(new_stats, new_load, include_noindex=True)
        assert_matrices_identical(recomputed, fresh)
        report = recomputed.recompute_report
        if report.recomputed_rows:
            assert report.kernel_slice_rows == len(report.recomputed_rows)
        else:
            assert report.kernel_slice_rows == 0

    def test_chained_drifts_keep_slicing_through_patched_lowerings(self):
        """Consecutive steps chain workload patches: every step stays on
        the kernel (the previous step's patched lowering is found in the
        persistent cache) and stays bit-identical to a fresh build."""
        stats, load = make_world(length=8)
        matrix = CostMatrix.compute(stats, load)
        current = load
        for step, factor in enumerate((1.5, 0.5, 3.0), start=1):
            current = perturb_load(current, "L3", "query", factor)
            matrix = matrix.recompute(load=current)
            report = matrix.recompute_report
            assert report.kernel_sliced, f"step {step} fell off the kernel"
            assert report.kernel_slice_rows == len(report.recomputed_rows)
            assert_matrices_identical(matrix, scalar_matrix(stats, current))


class TestKernelSliceCounters:
    def test_cached_lowering_lifts_the_threshold(self):
        """A small dirty set rides the kernel over the lowering the
        build left in the persistent cache."""
        stats, load = small_world()
        matrix = CostMatrix.compute(stats, load)
        recomputed = matrix.recompute(
            load=perturb_load(load, "L1", "insert", 2.0)
        )
        report = recomputed.recompute_report
        assert report.kernel_sliced
        assert report.kernel_slice_rows == len(report.recomputed_rows)
        assert (
            f"({report.kernel_slice_rows} kernel-sliced)"
            in report.describe()
        )

    def test_cache_off_explicit_columnar_lowers_fresh(self):
        """With the evaluation cache disabled nothing persists, but the
        slice still prices on the kernel through a fresh lowering."""
        stats, load = small_world(cache_evaluation=False)
        matrix = CostMatrix.compute(stats, load)
        recomputed = matrix.recompute(
            load=perturb_load(load, "L1", "insert", 2.0)
        )
        report = recomputed.recompute_report
        assert report.kernel_sliced

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_cache_off_tiny_dirty_sets_slice_on_the_kernel(self, length):
        """An insert change at the last attribute dirties ``length``
        rows (1-3); with no lowering to reuse they still go through the
        kernel and match the scalar formulas."""
        stats, load = small_world(cache_evaluation=False, length=length)
        matrix = CostMatrix.compute(stats, load)
        new_load = perturb_load(load, f"L{length - 1}", "insert", 2.0)
        recomputed = matrix.recompute(load=new_load)
        report = recomputed.recompute_report
        assert len(report.recomputed_rows) == length
        assert report.kernel_slice_rows == len(report.recomputed_rows)
        assert_matrices_identical(recomputed, scalar_matrix(stats, new_load))

    def test_range_ending_rows_slice_on_the_kernel(self):
        """Under a range predicate, a dirty set made only of rows ending
        at the path's last attribute is priced on the kernel like any
        other slice, bit-identical to the scalar formulas."""
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load, range_selectivity=0.4)
        new_load = perturb_load(load, "L4", "insert", 2.0)
        recomputed = matrix.recompute(load=new_load)
        report = recomputed.recompute_report
        assert report.recomputed_rows
        assert all(end == stats.length for _s, end in report.recomputed_rows)
        assert report.kernel_slice_rows == len(report.recomputed_rows)
        assert_matrices_identical(
            recomputed,
            scalar_matrix(stats, new_load, range_selectivity=0.4),
        )

    def test_stats_change_relowers_and_slices(self):
        """New statistics invalidate every cached lowering; a large
        enough dirty set still prices on the kernel via a fresh one."""
        stats, load = make_world()
        matrix = CostMatrix.compute(stats, load)
        recomputed = matrix.recompute(stats=perturb_stats(stats, "L2", 1.7))
        report = recomputed.recompute_report
        assert report.kernel_sliced
