"""Property tests for the segmented-reduction scatter engine.

The three scatter implementations (seed bincount, ``np.add.at``
reference, and plan-driven ``reduceat``) must agree on every input,
including duplicate output rows, single-row outputs, and empty tensors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf import (
    build_mode_sort_plan,
    scatter_cols_segmented,
    scatter_rows,
    scatter_rows_add_at,
    scatter_rows_bincount,
    scatter_rows_segmented,
)
from repro.formats import CooTensor


def _random_case(rng, nnz, num_rows, rank):
    targets = rng.integers(0, num_rows, size=nnz).astype(np.int32)
    rows = rng.normal(size=(nnz, rank)).astype(np.float32)
    return targets, rows


def _plan_for_targets(targets, nnz):
    indices = targets[None, :].astype(np.int32)
    return build_mode_sort_plan(
        CooTensor((max(int(targets.max(initial=0)) + 1, 1),), indices,
                  np.zeros(nnz, dtype=np.float32), validate=False),
        0,
    )


class TestScatterEquivalence:
    @pytest.mark.parametrize("nnz,num_rows,rank", [
        (1000, 50, 8),
        (500, 500, 3),
        (64, 1, 4),      # every row collides on one output row
        (1, 10, 5),
        (256, 1000, 1),  # mostly unique targets
    ])
    def test_three_engines_agree(self, rng, nnz, num_rows, rank):
        targets, rows = _random_case(rng, nnz, num_rows, rank)
        via_bincount = scatter_rows_bincount(targets, rows, num_rows)
        via_add_at = scatter_rows_add_at(targets, rows, num_rows)
        plan = _plan_for_targets(targets, nnz)
        via_reduceat = scatter_rows_segmented(plan, rows[plan.perm], num_rows)
        via_cols = np.zeros((num_rows, rank))
        scatter_cols_segmented(
            via_cols, plan.unique_targets, plan.segment_starts,
            np.ascontiguousarray(rows[plan.perm].T),
        )
        np.testing.assert_allclose(via_bincount, via_add_at, rtol=1e-12)
        np.testing.assert_allclose(via_reduceat, via_add_at, rtol=1e-12)
        np.testing.assert_allclose(via_cols, via_add_at, rtol=1e-12)

    def test_duplicate_rows_accumulate(self, rng):
        # All nonzeros land on row 3: the output is the column sum there.
        rows = rng.normal(size=(100, 6)).astype(np.float32)
        targets = np.full(100, 3, dtype=np.int32)
        plan = _plan_for_targets(targets, 100)
        out = scatter_rows_segmented(plan, rows[plan.perm], 7)
        expected = np.zeros((7, 6))
        expected[3] = rows.astype(np.float64).sum(axis=0)
        np.testing.assert_allclose(out, expected, rtol=1e-6)
        assert plan.num_segments == 1

    def test_empty_input(self):
        targets = np.empty(0, dtype=np.int32)
        rows = np.empty((0, 4), dtype=np.float32)
        plan = _plan_for_targets(targets, 0)
        via_cols = np.zeros((9, 4))
        scatter_cols_segmented(
            via_cols, plan.unique_targets, plan.segment_starts, rows.T
        )
        for out in (
            scatter_rows_bincount(targets, rows, 9),
            scatter_rows_add_at(targets, rows, 9),
            scatter_rows_segmented(plan, rows, 9),
            via_cols,
            scatter_rows(targets, rows, 9),
            scatter_rows(targets, rows, 9, plan=plan),
        ):
            assert out.shape == (9, 4)
            assert not out.any()

    def test_dispatcher_uses_plan(self, rng):
        targets, rows = _random_case(rng, 300, 40, 5)
        plan = _plan_for_targets(targets, 300)
        with_plan = scatter_rows(targets, rows, 40, plan=plan)
        without = scatter_rows(targets, rows, 40)
        np.testing.assert_allclose(with_plan, without, rtol=1e-12)

    def test_accumulates_in_float64(self, rng):
        # Catastrophic-cancellation probe: f32 accumulation of these rows
        # loses the small residual; f64 keeps it.
        rows = np.array([[1e8], [1.0], [-1e8]], dtype=np.float32)
        targets = np.zeros(3, dtype=np.int32)
        plan = _plan_for_targets(targets, 3)
        out = scatter_rows_segmented(plan, rows[plan.perm], 1)
        assert out.dtype == np.float64
        assert out[0, 0] == pytest.approx(1.0)


class TestPlanStructure:
    def test_segments_cover_all_nonzeros(self, rng):
        targets, _ = _random_case(rng, 400, 30, 1)
        plan = _plan_for_targets(targets, 400)
        assert plan.nnz == 400
        # Unique targets strictly increase and match numpy's unique.
        assert np.all(np.diff(plan.unique_targets) > 0)
        np.testing.assert_array_equal(
            plan.unique_targets, np.unique(targets)
        )
        # Segment starts partition the sorted order.
        assert plan.segment_starts[0] == 0
        sorted_targets = targets[plan.perm]
        np.testing.assert_array_equal(
            sorted_targets[plan.segment_starts], plan.unique_targets
        )

    def test_stable_sort_preserves_order_within_segment(self):
        targets = np.array([1, 0, 1, 0, 1], dtype=np.int32)
        plan = _plan_for_targets(targets, 5)
        np.testing.assert_array_equal(plan.perm, [1, 3, 0, 2, 4])


class TestKernelParity:
    """Kernels through the plan cache match the float64 dense oracle.

    The first call in a fresh cache builds every plan; the warm call
    reuses them and must return the same bits.
    """

    @staticmethod
    def _dense(tensor):
        return tensor.to_dense().astype(np.float64)

    def test_mttkrp_cached_matches_uncached(self, tensor3, factors3):
        from repro.core.mttkrp import mttkrp_coo
        from repro.core.reference import dense_mttkrp
        from repro.perf import fresh_cache

        factors64 = [f.astype(np.float64) for f in factors3]
        for mode in range(tensor3.order):
            with fresh_cache():
                cold = mttkrp_coo(tensor3, factors3, mode)
                warm = mttkrp_coo(tensor3, factors3, mode)
            expected = dense_mttkrp(self._dense(tensor3), factors64, mode)
            np.testing.assert_allclose(cold, expected, rtol=1e-5, atol=1e-6)
            np.testing.assert_array_equal(cold, warm)

    def test_mttkrp_hicoo_cached_matches_uncached(self, hicoo3, factors3):
        from repro.core.mttkrp import mttkrp_hicoo
        from repro.core.reference import dense_mttkrp
        from repro.perf import fresh_cache

        with fresh_cache():
            cold = mttkrp_hicoo(hicoo3, factors3, 1)
            warm = mttkrp_hicoo(hicoo3, factors3, 1)
        expected = dense_mttkrp(
            self._dense(hicoo3.to_coo()), [f.astype(np.float64) for f in factors3], 1
        )
        np.testing.assert_allclose(cold, expected, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(cold, warm)

    def test_ttv_cached_matches_uncached(self, tensor3, rng):
        from repro.core.reference import dense_ttv
        from repro.core.ttv import ttv_coo, ttv_hicoo
        from repro.perf import fresh_cache

        v = rng.normal(size=tensor3.shape[1]).astype(np.float32)
        with fresh_cache():
            cold = ttv_coo(tensor3, v, 1)
            warm = ttv_coo(tensor3, v, 1)
            cold_h = ttv_hicoo(tensor3, v, 1, block_size=8).to_coo()
            warm_h = ttv_hicoo(tensor3, v, 1, block_size=8).to_coo()
        expected = dense_ttv(self._dense(tensor3), v.astype(np.float64), 1)
        for out in (cold, cold_h):
            np.testing.assert_allclose(
                out.to_dense(), expected, rtol=1e-5, atol=1e-6
            )
        for a, b in ((cold, warm), (cold_h, warm_h)):
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)
