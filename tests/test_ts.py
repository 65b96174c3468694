"""Unit tests for tensor-scalar (TS) operations."""

import numpy as np
import pytest

from repro.core.ts import schedule_ts, ts, ts_add, ts_div, ts_mul, ts_sub
from repro.errors import PastaError
from repro.formats import HicooTensor
from repro.perf.parallel import parallel_config


class TestCooOperations:
    def test_add(self, tensor3):
        out = ts_add(tensor3, 2.5)
        assert np.allclose(out.values, tensor3.values + 2.5, rtol=1e-6)
        assert np.array_equal(out.indices, tensor3.indices)

    def test_mul(self, tensor3):
        out = ts_mul(tensor3, 3.0)
        assert np.allclose(out.values, tensor3.values * 3.0, rtol=1e-6)

    def test_sub_via_add(self, tensor3):
        assert np.allclose(
            ts_sub(tensor3, 1.5).values, tensor3.values - 1.5, rtol=1e-6
        )

    def test_div_via_mul(self, tensor3):
        assert np.allclose(
            ts_div(tensor3, 4.0).values, tensor3.values / 4.0, rtol=1e-6
        )

    def test_div_by_zero_rejected(self, tensor3):
        with pytest.raises(PastaError):
            ts_div(tensor3, 0.0)

    def test_result_holds_the_computed_values(self, tensor3, hicoo3):
        from repro.core.ts import _apply_to_values, _ts_values

        for tensor in (tensor3, hicoo3):
            computed = _ts_values(tensor.values, np.multiply, np.float32(2))
            assert _apply_to_values(tensor, computed).values is computed

    def test_sparse_semantics_absent_entries_stay_zero(self, tensor3):
        # TSA only touches stored values: zeros remain zero.
        dense = ts_add(tensor3, 10.0).to_dense()
        mask = tensor3.to_dense() == 0
        assert np.all(dense[mask] == 0)

    def test_dispatch_by_name(self, tensor3):
        for op in ("add", "sub", "mul", "div"):
            ts(tensor3, 2.0, op)
        with pytest.raises(PastaError):
            ts(tensor3, 2.0, "mod")

    def test_input_not_mutated(self, tensor3):
        before = tensor3.values.copy()
        ts_mul(tensor3, 7.0)
        assert np.array_equal(tensor3.values, before)


class TestHicooOperations:
    def test_preserves_structure(self, hicoo3):
        out = ts_mul(hicoo3, 2.0)
        assert isinstance(out, HicooTensor)
        assert np.array_equal(out.bptr, hicoo3.bptr)
        assert np.array_equal(out.binds, hicoo3.binds)
        assert np.allclose(out.values, hicoo3.values * 2.0, rtol=1e-6)

    def test_matches_coo_result(self, tensor3, hicoo3):
        a = ts_add(tensor3, 1.25)
        b = ts_add(hicoo3, 1.25)
        assert b.to_coo().allclose(a)

    def test_rejects_unsupported_type(self):
        with pytest.raises(PastaError):
            ts_add(np.zeros(3), 1.0)


class TestSemiSparseOperations:
    def test_scoo_scaling(self, tensor3):
        from repro.formats import SemiSparseCooTensor

        semi = SemiSparseCooTensor.from_coo(tensor3, [2])
        out = ts_mul(semi, 2.0)
        assert isinstance(out, SemiSparseCooTensor)
        assert np.allclose(out.to_dense(), semi.to_dense() * 2.0, rtol=1e-5)

    def test_shicoo_scaling(self, tensor3):
        from repro.formats import SHicooTensor

        semi = SHicooTensor.from_coo(tensor3, [1], 8)
        out = ts_mul(semi, 3.0)
        assert isinstance(out, SHicooTensor)
        assert np.allclose(out.to_dense(), semi.to_dense() * 3.0, rtol=1e-5)

    def test_ttm_pipeline(self, tensor3, rng):
        # The real use: scale a TTM output without leaving sHiCOO.
        from repro.core.ttm import ttm_hicoo

        u = rng.uniform(0.5, 1.5, size=(tensor3.shape[0], 4)).astype(np.float32)
        semi = ttm_hicoo(tensor3, u, 0, 8)
        halved = ts_mul(semi, 0.5)
        assert np.allclose(halved.to_dense(), semi.to_dense() * 0.5, rtol=1e-5)

    def test_semi_sparse_add_touches_stored_zeros(self, tensor3):
        # Semi-sparse semantics: every position inside a dense block is
        # *stored*, so TSA shifts stored zeros too (unlike plain COO).
        from repro.formats import SemiSparseCooTensor

        semi = SemiSparseCooTensor.from_coo(tensor3, [2])
        out = ts_add(semi, 1.0)
        assert np.allclose(out.values, semi.values + 1.0, rtol=1e-6)


class TestSemiSparseOperationsChunked(TestSemiSparseOperations):
    """The same cases with every TS region split into chunks.

    Semi-sparse values are one dense row per fiber, so the chunked
    output must take the values' 2-D shape, not one entry per nonzero.
    """

    @pytest.fixture(autouse=True)
    def _chunked(self):
        with parallel_config(num_threads=2, min_parallel_nnz=0):
            yield


class TestSchedule:
    def test_table1_row(self, tensor3):
        s = schedule_ts(tensor3)
        assert s.flops == tensor3.nnz
        assert s.streamed_bytes == 8 * tensor3.nnz
        assert s.operational_intensity == pytest.approx(1 / 8)
        assert s.irregular_bytes == 0
