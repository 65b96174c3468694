"""Out-of-core execution: budget knobs, chunked kernels, bounded RSS."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.apps import cp_als
from repro.core.mttkrp import mttkrp_coo
from repro.core.ttm import ttm_coo
from repro.core.ttv import ttv_coo
from repro.formats import CooTensor
from repro.io import open_bin, write_coo
from repro.perf import ooc
from repro.perf.plan_cache import fresh_cache

RTOL = 1e-4
ATOL = 1e-4


@pytest.fixture
def mm_tensor(rng, tmp_path):
    """A chunked binary tensor plus its in-RAM ground truth."""
    tensor = CooTensor.random((50, 40, 30), 5000, rng=rng)
    path = tmp_path / "t.bin"
    write_coo(tensor, path, chunk_nnz=700)
    with open_bin(path) as mm:
        yield mm, tensor


class TestBudgetKnobs:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (4096, 4096),
            ("4096", 4096),
            ("64k", 64 * 1024),
            ("1.5M", int(1.5 * 1024**2)),
            ("2G", 2 * 1024**3),
            ("  8M  ", 8 * 1024**2),
        ],
    )
    def test_parse_budget(self, text, expected):
        assert ooc.parse_budget(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "12Q", "-1", 0, -5, "0"])
    def test_parse_budget_rejects(self, bad):
        with pytest.raises(ValueError):
            ooc.parse_budget(bad)

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(ooc.ENV_BUDGET, "2M")
        previous = ooc.set_memory_budget(None)  # force re-resolution
        try:
            assert ooc.get_memory_budget() == 2 * 1024**2
        finally:
            ooc.set_memory_budget(previous)

    def test_default_budget(self, monkeypatch):
        monkeypatch.delenv(ooc.ENV_BUDGET, raising=False)
        previous = ooc.set_memory_budget(None)
        try:
            assert ooc.get_memory_budget() == ooc.DEFAULT_BUDGET_BYTES
        finally:
            ooc.set_memory_budget(previous)

    def test_memory_budget_contextmanager_restores(self):
        before = ooc.get_memory_budget()
        with ooc.memory_budget("1M") as active:
            assert active == 1024**2
            assert ooc.get_memory_budget() == 1024**2
        assert ooc.get_memory_budget() == before

    def test_step_size_scales_with_budget(self):
        small = ooc.step_nnz_for(3, 4, 1024**2)
        large = ooc.step_nnz_for(3, 4, 64 * 1024**2)
        assert small < large
        # Tiny budgets bottom out at the dispatch-overhead floor.
        assert ooc.step_nnz_for(3, 4, 1) == ooc.MIN_STEP_NNZ


class TestIterationPlan:
    def test_covers_every_element_once(self, mm_tensor):
        mm, tensor = mm_tensor
        with ooc.memory_budget("256K"):
            plan = ooc.iteration_plan(mm, rank=5)
        assert plan.num_chunks > 1
        assert int(plan.offsets[0]) == 0
        assert int(plan.offsets[-1]) == tensor.nnz
        assert np.all(np.diff(plan.offsets) > 0)

    def test_reopened_handle_shares_plan(self, mm_tensor, tmp_path):
        mm, _ = mm_tensor
        with fresh_cache() as cache:
            with ooc.memory_budget("256K"):
                first = ooc.iteration_plan(mm, rank=5)
                with open_bin(mm.path) as again:
                    second = ooc.iteration_plan(again, rank=5)
        assert first is second
        assert cache.hits("partition") == 1


class TestChunkedKernels:
    def test_mttkrp_matches_in_ram(self, mm_tensor, rng):
        mm, tensor = mm_tensor
        factors = [
            np.asarray(rng.standard_normal((s, 5)), dtype=np.float32)
            for s in tensor.shape
        ]
        for mode in range(tensor.order):
            expected = mttkrp_coo(tensor, factors, mode)
            with ooc.memory_budget("256K"):
                got = ooc.mttkrp(mm, factors, mode)
            assert got.dtype == expected.dtype
            np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)

    def test_ttv_matches_in_ram(self, mm_tensor, rng):
        mm, tensor = mm_tensor
        for mode in range(tensor.order):
            v = np.asarray(
                rng.standard_normal(tensor.shape[mode]), dtype=np.float32
            )
            expected = ttv_coo(tensor, v, mode).sum_duplicates()
            with ooc.memory_budget("256K"):
                got = ooc.ttv(mm, v, mode)
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_allclose(
                got.values, expected.values, rtol=RTOL, atol=ATOL
            )

    def test_ttm_matches_in_ram(self, mm_tensor, rng):
        mm, tensor = mm_tensor
        for mode in range(tensor.order):
            matrix = np.asarray(
                rng.standard_normal((tensor.shape[mode], 4)), dtype=np.float32
            )
            expected = ttm_coo(tensor, matrix, mode)
            with ooc.memory_budget("256K"):
                got = ooc.ttm(mm, matrix, mode)
            assert got.dense_modes == expected.dense_modes
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_allclose(
                got.values, expected.values, rtol=RTOL, atol=ATOL
            )

    def test_tensor_norm_matches(self, mm_tensor):
        mm, tensor = mm_tensor
        expected = float(
            np.linalg.norm(tensor.values.astype(np.float64))
        )
        with ooc.memory_budget("256K"):
            assert ooc.tensor_norm(mm) == pytest.approx(expected, rel=1e-12)

    def test_single_step_is_bit_identical(self, mm_tensor, rng):
        # One step covering the tensor reproduces the in-RAM reduction
        # order exactly.
        mm, tensor = mm_tensor
        factors = [
            np.asarray(rng.standard_normal((s, 3)), dtype=np.float32)
            for s in tensor.shape
        ]
        with ooc.memory_budget("1G"):
            got = ooc.mttkrp(mm, factors, 0)
        np.testing.assert_array_equal(got, mttkrp_coo(tensor, factors, 0))


class TestStepwiseBits:
    """The factor transposes are per call; the step arithmetic is not."""

    @staticmethod
    def _stepwise_reference(mm, factors, mode, plan):
        rank = factors[0].shape[1]
        out = np.zeros((mm.shape[mode], rank), dtype=np.float64)
        for s in range(plan.num_chunks):
            idx, vals = mm.read_range(
                int(plan.offsets[s]), int(plan.offsets[s + 1])
            )
            perm = np.argsort(idx[mode].astype(np.int64), kind="stable")
            sorted_idx = idx[:, perm]
            cols = None
            for m, factor in enumerate(factors):
                if m == mode:
                    continue
                gathered = np.take(factor.T, sorted_idx[m], axis=1)
                cols = gathered if cols is None else cols * gathered
            cols = cols * vals[perm]
            targets = sorted_idx[mode]
            starts = np.flatnonzero(
                np.concatenate(([True], targets[1:] != targets[:-1]))
            )
            out[targets[starts]] += np.add.reduceat(
                cols, starts, axis=1, dtype=np.float64
            ).T
        return out.astype(np.float32)

    def test_mttkrp_equals_stepwise_reference(self, mm_tensor, rng):
        mm, tensor = mm_tensor
        factors = [
            np.asarray(rng.standard_normal((s, 5)), dtype=np.float32)
            for s in tensor.shape
        ]
        with fresh_cache(), ooc.memory_budget("256K"):
            plan = ooc.iteration_plan(mm, rank=5)
            assert plan.num_chunks > 1
            for mode in range(tensor.order):
                got = ooc.mttkrp(mm, factors, mode)
                np.testing.assert_array_equal(
                    got, self._stepwise_reference(mm, factors, mode, plan)
                )

    def test_order_one_tensor(self, rng, tmp_path):
        tensor = CooTensor.random((3000,), 2500, rng=rng)
        path = tmp_path / "v.bin"
        write_coo(tensor, path)
        factors = [np.asarray(rng.standard_normal((3000, 4)), dtype=np.float32)]
        with open_bin(path) as mm, ooc.memory_budget("64K"):
            assert ooc.iteration_plan(mm, rank=4).num_chunks > 1
            got = ooc.mttkrp(mm, factors, 0)
        sums = np.bincount(
            tensor.indices[0], weights=tensor.values, minlength=3000
        )
        assert got.shape == (3000, 4)
        np.testing.assert_allclose(
            got, np.repeat(sums[:, None], 4, axis=1), rtol=RTOL, atol=ATOL
        )


class TestStepPlanCache:
    def test_warm_sweep_hits_and_reads_values_only(self, mm_tensor, rng):
        mm, tensor = mm_tensor
        factors = [
            np.asarray(rng.standard_normal((s, 5)), dtype=np.float32)
            for s in tensor.shape
        ]
        ooc.reset_plan_lru()
        with fresh_cache() as cache:
            # Roomy enough that one mode's step plans all stay cached.
            with ooc.memory_budget("16M"):
                cold = ooc.mttkrp(mm, factors, 0)
                misses = cache.misses(ooc.KIND_OOC_CHUNK)
                warm = ooc.mttkrp(mm, factors, 0)
            assert cache.misses(ooc.KIND_OOC_CHUNK) == misses
            assert cache.hits(ooc.KIND_OOC_CHUNK) == misses
        np.testing.assert_array_equal(cold, warm)

    def test_plan_lru_stays_within_budget(self, mm_tensor, rng):
        mm, tensor = mm_tensor
        factors = [
            np.asarray(rng.standard_normal((s, 5)), dtype=np.float32)
            for s in tensor.shape
        ]
        ooc.reset_plan_lru()
        with fresh_cache():
            with ooc.memory_budget("256K") as budget:
                for mode in range(tensor.order):
                    ooc.mttkrp(mm, factors, mode)
                    assert ooc.plan_lru_bytes() <= budget
        ooc.reset_plan_lru()


class TestOutOfCoreCpAls:
    def test_matches_in_ram_fit(self, rng, tmp_path):
        # An exactly rank-3 tensor: both paths should reach fit ~ 1.
        shape, rank = (30, 24, 18), 3
        truth = [rng.standard_normal((s, rank)) for s in shape]
        dense = np.einsum("ir,jr,kr->ijk", *truth)
        coords = np.array(
            [idx for idx in np.ndindex(*shape) if rng.random() < 0.2]
        ).T
        tensor = CooTensor(
            shape, coords, dense[tuple(coords)].astype(np.float32)
        )
        path = tmp_path / "t.bin"
        write_coo(tensor, path, chunk_nnz=500)
        in_ram = cp_als(tensor, rank, max_sweeps=8, seed=3)
        with open_bin(path) as mm, ooc.memory_budget("128K"):
            out_of_core = cp_als(mm, rank, max_sweeps=8, seed=3)
        assert out_of_core.final_fit == pytest.approx(in_ram.final_fit, abs=1e-3)
        for a, b in zip(out_of_core.factors, in_ram.factors):
            np.testing.assert_allclose(a, b, rtol=1e-2, atol=1e-2)

    def test_rejects_hicoo_and_variant(self, mm_tensor):
        mm, _ = mm_tensor
        with pytest.raises(ValueError, match="out-of-core"):
            cp_als(mm, 3, variant="hicoo")
        with pytest.raises(ValueError, match="out-of-core"):
            cp_als(mm, 3, variant="auto")


# The child prints its own post-exec high-water RSS.  ``/proc``'s VmHWM
# tracks only the current address space, which exec resets; ru_maxrss
# (parent ``wait4`` and the child's own ``getrusage`` alike) folds in
# the forked pre-exec snapshot of the parent, which under a full pytest
# run dwarfs the measurement.
_RSS_CHILD = textwrap.dedent(
    """
    import sys
    mode, path = sys.argv[1], sys.argv[2]
    from repro.io import open_bin
    if mode != "baseline":
        from repro.apps import cp_als
        with open_bin(path) as mm:
            if mode == "ooc":
                result = cp_als(mm, 4, max_sweeps=1, seed=0)
            else:
                result = cp_als(mm.to_coo(), 4, max_sweeps=1, seed=0)
        assert result.final_fit == result.final_fit
    else:
        with open_bin(path) as mm:
            pass
    try:
        with open("/proc/self/status") as fh:
            hwm_kb = next(
                int(line.split()[1]) for line in fh
                if line.startswith("VmHWM:")
            )
    except OSError:
        import resource
        hwm_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(hwm_kb)
    """
)


def _child_max_rss_kb(mode: str, path: str, budget: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
    )
    env[ooc.ENV_BUDGET] = budget
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, mode, path],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{mode} child failed: {proc.stderr}"
    return int(proc.stdout.strip().splitlines()[-1])  # KiB on Linux


@pytest.mark.slow
@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX rusage")
def test_cp_als_resident_memory_is_bounded(tmp_path):
    """CP-ALS over a tensor ~12x the budget must not materialize it.

    The chunked path's working set is budget-driven, not payload-driven
    (measured: the extra over baseline is unchanged when the tensor
    doubles), so a payload well above the budget makes the bounds
    robust to per-step scratch temporaries.

    Three child processes self-report their peak RSS: a baseline
    (interpreter + imports + open/close), the out-of-core sweep under an
    8 MiB budget, and the in-RAM sweep after ``to_coo()``.  The
    out-of-core overhead over baseline must stay well under the payload
    size, and under the in-RAM overhead.
    """
    rng = np.random.default_rng(99)
    shape = (600, 500, 400)
    nnz = 3_600_000  # ~96 MiB of payload at order 3
    tensor = CooTensor(
        shape,
        np.stack([rng.integers(0, s, size=nnz) for s in shape]),
        rng.standard_normal(nnz).astype(np.float32),
        validate=False,
    )
    path = tmp_path / "big.bin"
    write_coo(tensor, path, chunk_nnz=250_000)
    payload_kb = 28 * nnz // 1024
    del tensor

    budget = "8M"
    baseline = _child_max_rss_kb("baseline", str(path), budget)
    ooc_rss = _child_max_rss_kb("ooc", str(path), budget)
    in_ram_rss = _child_max_rss_kb("ram", str(path), budget)

    ooc_extra = ooc_rss - baseline
    in_ram_extra = in_ram_rss - baseline
    # The in-RAM path must pay for the materialized tensor...
    assert in_ram_extra > payload_kb // 2, (baseline, ooc_rss, in_ram_rss)
    # ...while the chunked path stays well below one payload.
    assert ooc_extra < payload_kb // 2, (baseline, ooc_rss, in_ram_rss)
    assert ooc_extra < in_ram_extra
