"""Unit tests for the MTTKRP kernel."""

import numpy as np
import pytest

from repro.core.mttkrp import (
    check_factors,
    mttkrp_coo,
    mttkrp_hicoo,
    schedule_mttkrp_coo,
    schedule_mttkrp_hicoo,
)
from repro.core.reference import dense_mttkrp
from repro.errors import IncompatibleOperandsError
from repro.formats import CooTensor, HicooTensor
from repro.perf.parallel import last_parallel_report, parallel_config


class TestCooMttkrp:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense_all_modes(self, tensor3, dense3, factors3, mode):
        out = mttkrp_coo(tensor3, factors3, mode)
        expected = dense_mttkrp(dense3, factors3, mode)
        assert out.shape == (tensor3.shape[mode], 8)
        assert np.allclose(out, expected, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_fourth_order(self, tensor4, rng, mode):
        factors = [
            rng.uniform(0.5, 1.5, size=(s, 4)).astype(np.float32)
            for s in tensor4.shape
        ]
        out = mttkrp_coo(tensor4, factors, mode)
        expected = dense_mttkrp(tensor4.to_dense(), factors, mode)
        assert np.allclose(out, expected, rtol=1e-3, atol=1e-3)

    def test_own_factor_only_contributes_shape(self, tensor3, factors3):
        # Replacing the mode's own factor must not change the result.
        modified = list(factors3)
        modified[0] = np.full_like(factors3[0], 9.0)
        a = mttkrp_coo(tensor3, factors3, 0)
        b = mttkrp_coo(tensor3, modified, 0)
        assert np.allclose(a, b)

    def test_empty_tensor_gives_zeros(self, factors3):
        t = CooTensor.empty((40, 25, 18))
        out = mttkrp_coo(t, factors3, 0)
        assert np.all(out == 0)

    def test_rejects_wrong_factor_count(self, tensor3, factors3):
        with pytest.raises(IncompatibleOperandsError):
            mttkrp_coo(tensor3, factors3[:2], 0)

    def test_rejects_wrong_factor_rows(self, tensor3, factors3):
        bad = list(factors3)
        bad[1] = np.ones((99, 8), dtype=np.float32)
        with pytest.raises(IncompatibleOperandsError):
            mttkrp_coo(tensor3, bad, 0)

    def test_rejects_rank_mismatch(self, tensor3, factors3):
        bad = list(factors3)
        bad[2] = np.ones((18, 5), dtype=np.float32)
        with pytest.raises(IncompatibleOperandsError):
            mttkrp_coo(tensor3, bad, 0)

    def test_rejects_vector_factor(self, tensor3, factors3):
        bad = list(factors3)
        bad[0] = np.ones(40, dtype=np.float32)
        with pytest.raises(IncompatibleOperandsError):
            check_factors(tensor3.shape, bad)


class TestHicooMttkrp:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_vectorized_matches_coo(self, tensor3, hicoo3, factors3, mode):
        a = mttkrp_coo(tensor3, factors3, mode)
        b = mttkrp_hicoo(hicoo3, factors3, mode)
        assert np.allclose(a, b, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_literal_blocked_matches(self, tensor3, hicoo3, factors3, mode):
        a = mttkrp_coo(tensor3, factors3, mode)
        b = mttkrp_hicoo(hicoo3, factors3, mode, literal_blocked=True)
        assert np.allclose(a, b, rtol=1e-3, atol=1e-3)

    def test_accepts_coo_input(self, tensor3, factors3):
        a = mttkrp_hicoo(tensor3, factors3, 1)
        b = mttkrp_coo(tensor3, factors3, 1)
        assert np.allclose(a, b, rtol=1e-3, atol=1e-3)

    def test_rejects_bad_mode(self, hicoo3, factors3):
        with pytest.raises(IncompatibleOperandsError):
            mttkrp_hicoo(hicoo3, factors3, 5)


class TestThreadCountBits:
    @pytest.mark.parametrize(
        "kernel, label",
        [(mttkrp_coo, "MTTKRP-COO"), (mttkrp_hicoo, "MTTKRP-HiCOO")],
    )
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_bitwise_equal_at_every_thread_count(
        self, tensor3, factors3, kernel, label, mode
    ):
        outs = []
        for threads in (1, 2, 4):
            with parallel_config(num_threads=threads, min_parallel_nnz=0):
                outs.append(kernel(tensor3, factors3, mode))
                if threads > 1:
                    report = last_parallel_report()
                    assert report.kernel == label
                    assert report.num_chunks > 1
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])


class TestOrderOne:
    @pytest.mark.parametrize("kernel", [mttkrp_coo, mttkrp_hicoo])
    def test_sums_values_per_row_in_every_column(self, rng, kernel):
        tensor = CooTensor.random((60,), 40, rng=rng)
        factors = [rng.uniform(0.5, 1.5, size=(60, 3)).astype(np.float32)]
        out = kernel(tensor, factors, 0)
        sums = np.bincount(
            tensor.indices[0], weights=tensor.values, minlength=60
        )
        assert out.shape == (60, 3)
        assert np.allclose(out, sums[:, None], rtol=1e-5, atol=1e-6)


class TestSchedules:
    def test_coo_table1_row(self, tensor3):
        rank = 16
        s = schedule_mttkrp_coo(tensor3, 0, rank)
        m = tensor3.nnz
        assert s.flops == 3 * m * rank
        assert s.total_bytes == 12 * m * rank + 16 * m
        assert s.atomic_updates == m * rank
        assert 0.0 <= s.atomic_conflict_fraction <= 1.0

    def test_coo_oi_near_quarter(self, tensor3):
        s = schedule_mttkrp_coo(tensor3, 0, 16)
        assert 0.2 < s.operational_intensity < 0.3

    def test_hicoo_table1_row(self, hicoo3):
        rank = 16
        s = schedule_mttkrp_hicoo(hicoo3, 0, rank)
        m = hicoo3.nnz
        nb = hicoo3.num_blocks
        rows = min(nb * hicoo3.block_size, m)
        assert s.flops == 3 * m * rank
        assert s.total_bytes == 12 * rank * rows + 7 * m + 20 * nb
        assert s.parallel_grain == "block"
        assert s.num_work_units == nb

    def test_hicoo_work_units_are_block_occupancies(self, hicoo3):
        s = schedule_mttkrp_hicoo(hicoo3, 1, 16)
        assert np.array_equal(s.work_units, hicoo3.nnz_per_block())

    def test_conflict_fraction_needs_no_mode_sort(self, tensor3):
        from repro.perf.plan_cache import fresh_cache
        from repro.perf.plans import KIND_MODE_SORT, build_mode_sort_plan

        for mode in range(tensor3.order):
            with fresh_cache() as cache:
                s = schedule_mttkrp_coo(tensor3, mode, 8)
                assert cache.misses(KIND_MODE_SORT) == 0
            segments = build_mode_sort_plan(tensor3, mode).num_segments
            assert s.atomic_conflict_fraction == 1.0 - segments / tensor3.nnz

    def test_conflict_fraction_higher_for_hub_mode(self):
        # All nonzeros share one output row -> conflicts ~ 1.
        indices = np.array([[0] * 50, list(range(50))])
        t = CooTensor((4, 50), indices, np.ones(50, dtype=np.float32))
        s = schedule_mttkrp_coo(t, 0, 4)
        assert s.atomic_conflict_fraction > 0.9
        # Unique output rows -> no conflicts.
        s2 = schedule_mttkrp_coo(t, 1, 4)
        assert s2.atomic_conflict_fraction == 0.0
