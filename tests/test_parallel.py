"""Tests for the shared-memory parallel executor and its partitioners.

The executor's contract is *bit-identical* results: kernels partition by
output units, every chunk reduces the same elements in the same order as
the serial path, so parallel and serial runs must agree exactly — not
just to tolerance.  These tests assert ``np.array_equal`` across all
three schedule policies, several worker counts (including one worker and
more workers than work units), and degenerate inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.cpd import cp_als
from repro.core.mttkrp import mttkrp_coo, mttkrp_hicoo
from repro.core.schedule import KernelSchedule
from repro.core.tew import tew_coo, tew_general_coo, tew_hicoo
from repro.core.ts import ts_add, ts_mul
from repro.core.ttm import ttm_coo, ttm_hicoo
from repro.core.ttv import schedule_ttv, ttv_coo, ttv_hicoo
from repro.formats import CooTensor, HicooTensor
from repro.perf import (
    POLICIES,
    build_chunk_plan,
    build_element_chunk_plan,
    chunk_plan_for,
    fresh_cache,
    get_min_parallel_nnz,
    get_num_threads,
    get_schedule,
    last_parallel_report,
    parallel_config,
    run_chunks,
    set_num_threads,
    set_schedule,
)

POLICY_PARAMS = pytest.mark.parametrize("policy", POLICIES)
WORKER_PARAMS = pytest.mark.parametrize("workers", [1, 2, 4, 7])


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------


class TestPartitioners:
    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_chunks_cover_units_exactly(self, rng, policy, workers):
        lengths = rng.integers(1, 20, size=37)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        plan = build_chunk_plan(offsets, workers, policy)
        bounds = plan.unit_bounds
        # Contiguous, disjoint, exhaustive coverage of the unit range.
        assert bounds[0] == 0
        assert bounds[-1] == 37
        assert np.all(np.diff(bounds) >= 1)
        # Element offsets are the unit offsets at the chunk boundaries.
        np.testing.assert_array_equal(plan.offsets, offsets[bounds])
        assert plan.total_elements == int(lengths.sum())

    @POLICY_PARAMS
    def test_more_workers_than_units(self, policy):
        offsets = np.array([0, 3, 5, 9])
        plan = build_chunk_plan(offsets, workers=16, policy=policy)
        assert plan.num_chunks >= 1
        assert plan.unit_bounds[-1] == 3
        assert np.all(plan.unit_counts() >= 1)

    @POLICY_PARAMS
    def test_empty_unit_range(self, policy):
        plan = build_chunk_plan(np.array([0]), workers=4, policy=policy)
        assert plan.num_chunks == 0
        assert plan.total_elements == 0

    def test_static_one_chunk_per_worker(self):
        plan = build_chunk_plan(np.arange(101), workers=4, policy="static")
        assert plan.num_chunks == 4
        # Near-even: unit counts differ by at most one.
        counts = plan.unit_counts()
        assert counts.max() - counts.min() <= 1

    def test_dynamic_fixed_chunk_size(self):
        plan = build_chunk_plan(
            np.arange(101), workers=4, policy="dynamic", chunk_units=10
        )
        assert np.all(plan.unit_counts()[:-1] == 10)
        assert plan.unit_counts()[-1] <= 10

    def test_guided_chunks_decrease(self):
        plan = build_chunk_plan(np.arange(1001), workers=4, policy="guided")
        counts = plan.unit_counts()
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] > counts[-1]

    def test_element_plan_matches_identity_offsets(self):
        via_offsets = build_chunk_plan(np.arange(51), 3, "dynamic")
        via_total = build_element_chunk_plan(50, 3, "dynamic")
        np.testing.assert_array_equal(
            via_offsets.unit_bounds, via_total.unit_bounds
        )
        np.testing.assert_array_equal(via_offsets.offsets, via_total.offsets)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            build_chunk_plan(np.arange(5), 2, "auto")

    def test_plans_are_memoized_per_tensor(self, tensor3):
        offsets = np.arange(tensor3.nnz + 1)
        with fresh_cache() as cache:
            first = chunk_plan_for(
                tensor3,
                grain="nonzero",
                key=None,
                element_offsets=offsets,
                workers=4,
                policy="dynamic",
            )
            second = chunk_plan_for(
                tensor3,
                grain="nonzero",
                key=None,
                element_offsets=offsets,
                workers=4,
                policy="dynamic",
            )
            assert second is first
            assert cache.hits("partition") == 1
            # A different worker count is a different plan.
            other = chunk_plan_for(
                tensor3,
                grain="nonzero",
                key=None,
                element_offsets=offsets,
                workers=2,
                policy="dynamic",
            )
            assert other is not first


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


class TestExecutor:
    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_run_chunks_executes_every_chunk_once(self, policy, workers):
        plan = build_chunk_plan(np.arange(0, 101, 4), workers, policy)
        seen = np.zeros(plan.num_chunks, dtype=np.int64)

        def task(chunk, u0, u1, e0, e1):
            seen[chunk] += 1
            assert e1 - e0 == 4 * (u1 - u0)

        report = run_chunks(plan, task, kernel="unit", grain="test")
        assert np.all(seen == 1)
        assert report.total_elements == 100
        assert sum(report.worker_elements) == 100
        assert sum(report.worker_chunks) == plan.num_chunks

    def test_task_errors_propagate(self):
        plan = build_element_chunk_plan(100, 4, "dynamic")

        def task(chunk, u0, u1, e0, e1):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_chunks(plan, task)

    def test_config_roundtrip(self):
        previous = set_num_threads(3)
        try:
            assert get_num_threads() == 3
        finally:
            set_num_threads(previous)
        prev_schedule = set_schedule("guided", 5)
        try:
            assert get_schedule() == ("guided", 5)
        finally:
            set_schedule(*prev_schedule)
        with pytest.raises(ValueError):
            set_num_threads(0)
        with pytest.raises(ValueError):
            set_schedule("auto")

    def test_parallel_config_restores_on_exit(self):
        before = (get_num_threads(), get_schedule())
        with parallel_config(num_threads=5, schedule="static"):
            assert get_num_threads() == 5
            assert get_schedule()[0] == "static"
        assert (get_num_threads(), get_schedule()) == before

    @pytest.mark.parametrize(
        "bad",
        [
            {"schedule": "bogus"},
            {"chunk_units": 0},
            {"min_parallel_nnz": -1},
            {"num_threads": 0},
        ],
    )
    def test_parallel_config_invalid_argument_changes_nothing(self, bad):
        before = (get_num_threads(), get_schedule(), get_min_parallel_nnz())
        settings = {"num_threads": 4, "schedule": "static", "min_parallel_nnz": 7}
        with pytest.raises(ValueError):
            with parallel_config(**{**settings, **bad}):
                pass
        assert (get_num_threads(), get_schedule(), get_min_parallel_nnz()) == before


# ----------------------------------------------------------------------
# Kernel exactness: parallel must equal serial bit-for-bit
# ----------------------------------------------------------------------


def _coo_equal(a: CooTensor, b: CooTensor) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.values, b.values)
    )


def _hicoo_equal(a: HicooTensor, b: HicooTensor) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.bptr, b.bptr)
        and np.array_equal(a.binds, b.binds)
        and np.array_equal(a.einds, b.einds)
        and np.array_equal(a.values, b.values)
    )


@pytest.fixture
def same_pattern3(tensor3, rng):
    """A tensor sharing ``tensor3``'s pattern with different values."""
    values = rng.uniform(0.5, 1.5, size=tensor3.nnz).astype(np.float32)
    return CooTensor(tensor3.shape, tensor3.indices, values, validate=False)


class TestKernelExactness:
    """All five kernels: parallel output == serial output, exactly."""

    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_mttkrp(self, tensor3, hicoo3, factors3, policy, workers):
        with fresh_cache():
            serial_coo = mttkrp_coo(tensor3, factors3, 1)
            serial_hicoo = mttkrp_hicoo(hicoo3, factors3, 1)
            with parallel_config(
                num_threads=workers, schedule=policy, min_parallel_nnz=0
            ):
                assert np.array_equal(
                    mttkrp_coo(tensor3, factors3, 1), serial_coo
                )
                assert np.array_equal(
                    mttkrp_hicoo(hicoo3, factors3, 1), serial_hicoo
                )

    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_ttv(self, tensor3, hicoo3, rng, policy, workers):
        v = rng.uniform(-1, 1, size=tensor3.shape[1]).astype(np.float32)
        with fresh_cache():
            serial_coo = ttv_coo(tensor3, v, 1)
            serial_hicoo = ttv_hicoo(hicoo3, v, 1)
            with parallel_config(
                num_threads=workers, schedule=policy, min_parallel_nnz=0
            ):
                assert _coo_equal(ttv_coo(tensor3, v, 1), serial_coo)
                assert _hicoo_equal(ttv_hicoo(hicoo3, v, 1), serial_hicoo)

    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_ttm(self, tensor3, hicoo3, rng, policy, workers):
        u = rng.uniform(-1, 1, size=(tensor3.shape[1], 6)).astype(np.float32)
        with fresh_cache():
            serial_coo = ttm_coo(tensor3, u, 1)
            serial_hicoo = ttm_hicoo(hicoo3, u, 1)
            with parallel_config(
                num_threads=workers, schedule=policy, min_parallel_nnz=0
            ):
                p = ttm_coo(tensor3, u, 1)
                assert np.array_equal(p.indices, serial_coo.indices)
                assert np.array_equal(p.values, serial_coo.values)
                ph = ttm_hicoo(hicoo3, u, 1)
                assert np.array_equal(ph.values, serial_hicoo.values)

    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_tew(self, tensor3, hicoo3, same_pattern3, policy, workers):
        other_hicoo = HicooTensor.from_coo(same_pattern3, 8)
        with fresh_cache():
            serial_coo = tew_coo(tensor3, same_pattern3, "add")
            serial_hicoo = tew_hicoo(hicoo3, other_hicoo, "mul")
            with parallel_config(
                num_threads=workers, schedule=policy, min_parallel_nnz=0
            ):
                assert _coo_equal(
                    tew_coo(tensor3, same_pattern3, "add"), serial_coo
                )
                assert _hicoo_equal(
                    tew_hicoo(hicoo3, other_hicoo, "mul"), serial_hicoo
                )

    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_tew_general(self, tensor3, rng, policy, workers):
        other = CooTensor.random(tensor3.shape, 300, rng=rng)
        with fresh_cache():
            serial = tew_general_coo(tensor3, other, "add")
            with parallel_config(
                num_threads=workers, schedule=policy, min_parallel_nnz=0
            ):
                assert _coo_equal(
                    tew_general_coo(tensor3, other, "add"), serial
                )

    @POLICY_PARAMS
    @WORKER_PARAMS
    def test_ts(self, tensor3, hicoo3, policy, workers):
        with fresh_cache():
            serial_coo = ts_add(tensor3, 1.25)
            serial_hicoo = ts_mul(hicoo3, 0.75)
            with parallel_config(
                num_threads=workers, schedule=policy, min_parallel_nnz=0
            ):
                assert _coo_equal(ts_add(tensor3, 1.25), serial_coo)
                assert _hicoo_equal(ts_mul(hicoo3, 0.75), serial_hicoo)

    @POLICY_PARAMS
    def test_empty_tensor(self, policy):
        empty = CooTensor.empty((6, 5, 4))
        v = np.ones(5, dtype=np.float32)
        with parallel_config(
            num_threads=4, schedule=policy, min_parallel_nnz=0
        ):
            assert ttv_coo(empty, v, 1).nnz == 0
            assert ts_add(empty, 1.0).nnz == 0
            factors = [np.ones((s, 3), dtype=np.float32) for s in empty.shape]
            assert np.all(mttkrp_coo(empty, factors, 0) == 0)

    def test_tiny_tensor_more_workers_than_units(self):
        tiny = CooTensor(
            (3, 3, 3),
            np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int32),
            np.array([1.5, 2.5], dtype=np.float32),
        )
        v = np.arange(3, dtype=np.float32)
        with fresh_cache():
            serial = ttv_coo(tiny, v, 1)
            with parallel_config(
                num_threads=16, schedule="dynamic", min_parallel_nnz=0
            ):
                assert _coo_equal(ttv_coo(tiny, v, 1), serial)

    def test_small_inputs_stay_serial_by_default(self, tensor3, rng):
        v = rng.uniform(size=tensor3.shape[1]).astype(np.float32)
        with fresh_cache():
            with parallel_config(num_threads=4):  # default min_parallel_nnz
                before = last_parallel_report()
                ttv_coo(tensor3, v, 1)
                # 600 nonzeros < the threshold: no parallel region ran.
                assert last_parallel_report() is before

    def test_cp_als_parallel_matches_serial(self, tensor3):
        with fresh_cache():
            serial = cp_als(tensor3, 4, max_sweeps=3)
            parallel = cp_als(
                tensor3, 4, max_sweeps=3, num_threads=4, schedule="static"
            )
        assert np.array_equal(serial.weights, parallel.weights)
        for a, b in zip(serial.factors, parallel.factors):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Measured vs. modeled load imbalance
# ----------------------------------------------------------------------


def _skewed_fiber_tensor() -> CooTensor:
    """One giant mode-1 fiber plus many singleton fibers."""
    giant = 600
    singles = 40
    idx_giant = np.stack(
        [
            np.zeros(giant, dtype=np.int64),
            np.arange(giant, dtype=np.int64) % 700,
            np.zeros(giant, dtype=np.int64),
        ]
    )
    idx_single = np.stack(
        [
            1 + np.arange(singles, dtype=np.int64),
            np.arange(singles, dtype=np.int64),
            np.ones(singles, dtype=np.int64),
        ]
    )
    indices = np.concatenate([idx_giant, idx_single], axis=1)
    values = np.linspace(0.1, 1.0, giant + singles).astype(np.float32)
    return CooTensor((singles + 1, 700, 2), indices, values, validate=False)


def _uniform_fiber_tensor() -> CooTensor:
    """Every mode-1 fiber has exactly 16 nonzeros."""
    fibers = 40
    per_fiber = 16
    rows = np.repeat(np.arange(fibers, dtype=np.int64), per_fiber)
    cols = np.tile(np.arange(per_fiber, dtype=np.int64), fibers)
    indices = np.stack([rows, cols, np.zeros(fibers * per_fiber, np.int64)])
    values = np.ones(fibers * per_fiber, dtype=np.float32)
    return CooTensor((fibers, per_fiber, 1), indices, values, validate=False)


class TestImbalance:
    """Executor-measured imbalance agrees with the schedule model."""

    def test_skewed_fibers_show_imbalance(self):
        workers = 4
        skewed = _skewed_fiber_tensor()
        v = np.ones(skewed.shape[1], dtype=np.float32)
        with fresh_cache():
            with parallel_config(
                num_threads=workers, schedule="static", min_parallel_nnz=0
            ):
                ttv_coo(skewed, v, 1)
                report = last_parallel_report()
        assert report is not None and report.kernel == "TTV-COO"
        # One fiber holds ~94% of the elements: whichever worker owns it
        # does far more than a fair share.
        assert report.element_imbalance > 1.5
        modeled = schedule_ttv(skewed, 1).load_imbalance(workers)
        assert modeled > 1.5

    def test_measured_ordering_matches_model(self):
        workers = 4
        skewed = _skewed_fiber_tensor()
        uniform = _uniform_fiber_tensor()
        measured = {}
        with fresh_cache():
            for name, x in (("skewed", skewed), ("uniform", uniform)):
                v = np.ones(x.shape[1], dtype=np.float32)
                with parallel_config(
                    num_threads=workers, schedule="static", min_parallel_nnz=0
                ):
                    ttv_coo(x, v, 1)
                    measured[name] = last_parallel_report().element_imbalance
        modeled_skew = schedule_ttv(skewed, 1).load_imbalance(workers)
        modeled_uniform = schedule_ttv(uniform, 1).load_imbalance(workers)
        # The model predicts the skewed tensor is worse; the executor
        # must measure the same ordering.
        assert modeled_skew > modeled_uniform
        assert measured["skewed"] > measured["uniform"]
        # The uniform tensor balances essentially perfectly.
        assert measured["uniform"] == pytest.approx(1.0, abs=0.05)

    def test_report_imbalance_properties(self):
        plan = build_element_chunk_plan(1000, 4, "static")
        report = run_chunks(
            plan, lambda c, u0, u1, e0, e1: None, kernel="x", grain="nonzero"
        )
        assert report.element_imbalance == pytest.approx(1.0)
        assert report.measured_imbalance >= 1.0
        assert report.policy == "static"
