"""Tests for in-kernel multithreaded JIT execution.

Above one chunk, every compiled entry point hands the entire chunk
table to a C thread team in a single ctypes call; the thread count comes
from ``parallel_config``.  The contract under test here:

- bit-identical outputs to the same entry at one thread, at every
  thread count and schedule (the output-ownership partition's
  guarantee), with no Python chunk executor involved;
- green under ``REPRO_SANITIZE=1`` (checked-serial chunks, including
  the row-block ownership path of the HiCOO entry);
- the fallback (``*_jit`` → numpy) when the toolchain is hidden or the
  JIT is disabled;
- the parallel cutover heuristic that keeps small tensors serial;
- the one pthreads team: no OpenMP in any generated source or build
  flag, and the compiler identity as the machine signature's toolchain
  component.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.core.mttkrp import mttkrp_coo as np_mttkrp_coo
from repro.core.mttkrp import mttkrp_hicoo as np_mttkrp_hicoo
from repro.core.ttm import ttm_coo as np_ttm_coo
from repro.core.ttv import ttv_coo as np_ttv_coo
from repro.formats import CooTensor, HicooTensor
from repro.perf import cachedir, dispatch, jit
from repro.perf.jit import build
from repro.perf.parallel import (
    get_min_parallel_nnz,
    kernel_chunk_plan,
    max_parallel_workers,
    parallel_config,
    set_min_parallel_nnz,
    want_parallel,
)
from repro.perf.partition import POLICIES

RTOL = ATOL = 1e-3

THREAD_SWEEP = (1, 2, 4, 8)

requires_compiler = pytest.mark.skipif(
    (shutil.which("gcc") is None and shutil.which("cc") is None)
    or os.environ.get("REPRO_JIT", "1").strip().lower()
    in ("0", "false", "off", "no"),
    reason="no C compiler on PATH or REPRO_JIT=0",
)


@pytest.fixture(autouse=True)
def _isolated_jit_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(build.ENV_JIT_CACHE, str(tmp_path / "jit-cache"))
    build.reset()
    yield
    build.reset()


@pytest.fixture
def tensor2(rng):
    return CooTensor.random((60, 45), 700, rng=rng)


def make_factors(shape, rank, rng):
    return [
        rng.uniform(0.5, 1.5, size=(size, rank)).astype(np.float32)
        for size in shape
    ]


def _assert_same_output(a, b):
    """Bit-identical comparison across dense and sparse kernel outputs."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
        return
    for attr in ("indices", "values", "bptr", "binds", "einds"):
        left = getattr(a, attr, None)
        right = getattr(b, attr, None)
        if left is None and right is None:
            continue
        assert np.array_equal(left, right), attr


# ----------------------------------------------------------------------
# Bit-exactness: thread sweep x schedule sweep vs the same entry at 1 thread
# ----------------------------------------------------------------------


@requires_compiler
class TestBitExactness:
    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    @pytest.mark.parametrize("schedule", POLICIES)
    def test_mttkrp_coo_exact(self, tensor3, factors3, threads, schedule):
        with parallel_config(num_threads=1):
            serial = jit.mttkrp_coo(tensor3, factors3, 1)
        assert serial is not None
        with parallel_config(
            num_threads=threads, schedule=schedule, min_parallel_nnz=0
        ):
            mt = jit.mttkrp_coo(tensor3, factors3, 1)
        assert mt is not None
        assert np.array_equal(serial, mt)

    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    @pytest.mark.parametrize("schedule", POLICIES)
    def test_mttkrp_hicoo_exact(self, tensor3, factors3, threads, schedule):
        hicoo = HicooTensor.from_coo(tensor3, 8)
        with parallel_config(num_threads=1):
            serial = jit.mttkrp_hicoo(hicoo, factors3, 0)
        assert serial is not None
        with parallel_config(
            num_threads=threads, schedule=schedule, min_parallel_nnz=0
        ):
            mt = jit.mttkrp_hicoo(hicoo, factors3, 0)
        assert mt is not None
        assert np.array_equal(serial, mt)

    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    def test_ttv_exact(self, tensor3, factors3, threads):
        v = factors3[1][:, 0].copy()
        with parallel_config(num_threads=1):
            serial = jit.ttv_coo(tensor3, v, 1)
        assert serial is not None
        with parallel_config(num_threads=threads, min_parallel_nnz=0):
            mt = jit.ttv_coo(tensor3, v, 1)
        assert mt is not None
        _assert_same_output(serial, mt)

    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    def test_ttm_exact(self, tensor3, factors3, threads):
        with parallel_config(num_threads=1):
            serial = jit.ttm_coo(tensor3, factors3[2], 2)
        assert serial is not None
        with parallel_config(num_threads=threads, min_parallel_nnz=0):
            mt = jit.ttm_coo(tensor3, factors3[2], 2)
        assert mt is not None
        _assert_same_output(serial, mt)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_orders_2_to_4_match_numpy(self, order, rng, request):
        if order == 2:
            tensor = request.getfixturevalue("tensor2")
        else:
            tensor = request.getfixturevalue(f"tensor{order}")
        factors = make_factors(tensor.shape, 8, rng)
        for mode in range(order):
            reference = np_mttkrp_coo(tensor, factors, mode)
            with parallel_config(num_threads=4, min_parallel_nnz=0):
                mt = jit.mttkrp_coo(tensor, factors, mode)
            assert mt is not None
            np.testing.assert_allclose(mt, reference, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_every_entry_exact_across_threads_and_schedules(
        self, order, rng, request
    ):
        name = "tensor2" if order == 2 else f"tensor{order}"
        tensor = request.getfixturevalue(name)
        factors = make_factors(tensor.shape, 8, rng)
        hicoo = HicooTensor.from_coo(tensor, 8)
        mode = order - 1
        calls = (
            lambda: jit.mttkrp_coo(tensor, factors, mode),
            lambda: jit.mttkrp_hicoo(hicoo, factors, mode),
            lambda: jit.ttv_coo(tensor, factors[mode][:, 0].copy(), mode),
            lambda: jit.ttm_coo(tensor, factors[mode], mode),
        )
        with parallel_config(num_threads=1):
            serial = [call() for call in calls]
        for threads in THREAD_SWEEP:
            for schedule in POLICIES:
                with parallel_config(
                    num_threads=threads,
                    schedule=schedule,
                    min_parallel_nnz=0,
                ):
                    for call, expected in zip(calls, serial):
                        _assert_same_output(expected, call())

    def test_hicoo_mt_matches_numpy_hicoo(self, tensor3, factors3):
        # Bit-identity holds against the serial *compiled* kernel (see
        # test_mttkrp_hicoo_exact); against the vectorized numpy HiCOO
        # kernel the accumulation order differs, so tolerance only.
        hicoo = HicooTensor.from_coo(tensor3, 8)
        reference = np_mttkrp_hicoo(hicoo, factors3, 0)
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            mt = jit.mttkrp_hicoo(hicoo, factors3, 0)
        assert mt is not None
        np.testing.assert_allclose(mt, reference, rtol=RTOL, atol=ATOL)

    def test_ttv_ttm_match_numpy(self, tensor4, rng):
        factors = make_factors(tensor4.shape, 6, rng)
        v = factors[1][:, 0].copy()
        ttv_ref = np_ttv_coo(tensor4, v, 1)
        ttm_ref = np_ttm_coo(tensor4, factors[2], 2)
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            ttv_mt = jit.ttv_coo(tensor4, v, 1)
            ttm_mt = jit.ttm_coo(tensor4, factors[2], 2)
        assert ttv_mt is not None and ttm_mt is not None
        assert ttv_ref.allclose(ttv_mt, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            ttm_mt.values, ttm_ref.values, rtol=RTOL, atol=ATOL
        )


# ----------------------------------------------------------------------
# One execution path: the compiled team, never the Python chunk executor
# ----------------------------------------------------------------------


@requires_compiler
class TestOneExecutionPath:
    @staticmethod
    def _kernels(tensor3, factors3):
        """``(name, call)`` for every compiled entry point."""
        hicoo = HicooTensor.from_coo(tensor3, 8)
        v = factors3[1][:, 0].copy()
        return (
            ("mttkrp_coo", lambda: jit.mttkrp_coo(tensor3, factors3, 1)),
            ("mttkrp_hicoo", lambda: jit.mttkrp_hicoo(hicoo, factors3, 0)),
            ("ttv_coo", lambda: jit.ttv_coo(tensor3, v, 1)),
            ("ttm_coo", lambda: jit.ttm_coo(tensor3, factors3[2], 2)),
        )

    @staticmethod
    def _count_run_chunks(monkeypatch):
        from repro.perf.jit import kernels

        calls = []
        real = kernels.run_chunks

        def counting(*args, **kwargs):
            calls.append(kwargs.get("kernel"))
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "run_chunks", counting)
        return calls

    @pytest.mark.parametrize("threads", (2, 4))
    def test_team_runs_without_run_chunks(
        self, tensor3, factors3, threads, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        kernels = self._kernels(tensor3, factors3)
        with parallel_config(num_threads=1):
            serial = {name: call() for name, call in kernels}
        calls = self._count_run_chunks(monkeypatch)
        with parallel_config(num_threads=threads, min_parallel_nnz=0):
            chunks = kernel_chunk_plan(
                tensor3, grain="nonzero", total_elements=tensor3.nnz
            )
            assert chunks is not None and chunks.num_chunks > 1
            for name, call in kernels:
                out = call()
                assert out is not None, name
                _assert_same_output(serial[name], out)
        assert calls == []

    def test_sanitizer_is_the_only_run_chunks_caller(
        self, tensor3, factors3, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        calls = self._count_run_chunks(monkeypatch)
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            for name, call in self._kernels(tensor3, factors3):
                assert call() is not None, name
        assert calls == [
            "MTTKRP-COO-JIT",
            "MTTKRP-HiCOO-JIT",
            "TTV-COO-JIT",
            "TTM-COO-JIT",
        ]


# ----------------------------------------------------------------------
# Sanitizer
# ----------------------------------------------------------------------


@requires_compiler
class TestSanitizer:
    def test_mt_kernels_green_and_exact_under_sanitizer(
        self, tensor3, factors3, monkeypatch
    ):
        with parallel_config(num_threads=1):
            serial = jit.mttkrp_coo(tensor3, factors3, 0)
        hicoo = HicooTensor.from_coo(tensor3, 8)
        with parallel_config(num_threads=1):
            serial_h = jit.mttkrp_hicoo(hicoo, factors3, 0)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            mt = jit.mttkrp_coo(tensor3, factors3, 0)
            mt_h = jit.mttkrp_hicoo(hicoo, factors3, 0)
            ttv_mt = jit.ttv_coo(tensor3, factors3[1][:, 0].copy(), 1)
        assert mt is not None and np.array_equal(serial, mt)
        assert mt_h is not None and np.array_equal(serial_h, mt_h)
        assert ttv_mt is not None


# ----------------------------------------------------------------------
# Fallback: jit -> numpy
# ----------------------------------------------------------------------


class TestFallbackChain:
    def test_mt_kernels_return_none_without_toolchain(
        self, monkeypatch, tensor3, factors3
    ):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        build.reset()
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            assert jit.mttkrp_coo(tensor3, factors3, 0) is None
            assert jit.ttv_coo(tensor3, factors3[1][:, 0], 1) is None
            assert jit.ttm_coo(tensor3, factors3[2], 2) is None
            hicoo = HicooTensor.from_coo(tensor3, 8)
            assert jit.mttkrp_hicoo(hicoo, factors3, 0) is None

    def test_dispatch_falls_back_to_numpy_without_toolchain(
        self, monkeypatch, tensor3, factors3
    ):
        reference = np_mttkrp_coo(tensor3, factors3, 0)
        monkeypatch.setattr(shutil, "which", lambda name: None)
        build.reset()
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            out = dispatch.mttkrp(tensor3, factors3, 0, variant="coo_jit")
        assert np.array_equal(out, reference)

    def test_dispatch_falls_back_when_disabled(
        self, monkeypatch, tensor3, factors3
    ):
        monkeypatch.setenv(jit.ENV_JIT, "0")
        build.reset()
        reference = np_mttkrp_hicoo(
            HicooTensor.from_coo(tensor3, 8), factors3, 0
        )
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            out = dispatch.mttkrp(
                tensor3, factors3, 0, variant="hicoo_jit", block_size=8
            )
        assert np.array_equal(out, reference)

    @requires_compiler
    def test_pthread_team_after_reset(self, tensor3, factors3):
        # After a full reset the kernels rebuild with -pthread and the
        # one team stays bit-exact.
        build.reset()
        assert "-pthread" in build.compile_flags()
        with parallel_config(num_threads=1):
            serial = jit.mttkrp_coo(tensor3, factors3, 0)
        with parallel_config(num_threads=4, min_parallel_nnz=0):
            mt = jit.mttkrp_coo(tensor3, factors3, 0)
        assert serial is not None and mt is not None
        assert np.array_equal(serial, mt)


# ----------------------------------------------------------------------
# Dispatch and autotuner integration
# ----------------------------------------------------------------------


@requires_compiler
class TestDispatchIntegration:
    def test_variants_enumerate_mt(self):
        # One compiled variant per format; the thread count is config.
        assert dispatch.JIT_FALLBACK == {"coo_jit": "coo", "hicoo_jit": "hicoo"}
        assert set(dispatch.JIT_FALLBACK) <= set(dispatch.VARIANTS)

    def test_explicit_mt_variant_matches_direct_call(self, tensor3, factors3):
        with parallel_config(
            num_threads=4, schedule="static", min_parallel_nnz=0
        ):
            direct = jit.mttkrp_coo(tensor3, factors3, 0)
            dispatched = dispatch.mttkrp(
                tensor3, factors3, 0, variant="coo_jit"
            )
        assert direct is not None
        assert np.array_equal(direct, dispatched)

    def test_hicoo_mt_rejects_unsupported_kernel(self, tensor3, factors3):
        from repro.errors import PastaError

        with pytest.raises(PastaError, match="no hicoo_jit"):
            dispatch.ttm(tensor3, factors3[2], 2, variant="hicoo_jit")

    def test_auto_candidate_space_includes_mt(self):
        from repro.perf.autotune import candidate_configs

        configs = candidate_configs("MTTKRP", max_threads=4)
        for variant in ("coo_jit", "hicoo_jit"):
            threads = {c.num_threads for c in configs if c.variant == variant}
            assert threads == {1, 2, 4}

    def test_thread_candidates_respect_ambient_threads(self):
        from repro.perf.autotune import candidate_configs

        with parallel_config(num_threads=8):
            configs = candidate_configs("MTTKRP")
        assert max(c.num_threads for c in configs) == 8

    def test_auto_selects_mt_and_matches_direct(self, rng):
        # Model-only tuning on a tensor big enough that the parallel
        # model term dominates: the winner must be a compiled config on
        # the in-kernel team, and variant="auto" must equal the direct
        # call bitwise.
        from repro.perf.autotune import disk_cache_disabled, tune

        tensor = CooTensor.random((80, 70, 60), 60_000, rng=rng)
        factors = make_factors(tensor.shape, 8, rng)
        with parallel_config(num_threads=8, min_parallel_nnz=0):
            with disk_cache_disabled():
                report = tune(
                    tensor, "MTTKRP", rank=8, probe=False, use_disk_cache=False
                )
                chosen = report.chosen
                assert chosen.variant.endswith("_jit")
                assert chosen.num_threads > 1
                auto = dispatch.mttkrp(
                    tensor, factors, 0, variant="auto", probe=False
                )
                direct = dispatch.run_config(
                    tensor,
                    "MTTKRP",
                    chosen,
                    __import__(
                        "repro.core.registry", fromlist=["KernelOperands"]
                    ).KernelOperands(factors=tuple(factors)),
                    mode=0,
                )
        assert np.array_equal(auto, direct)


# ----------------------------------------------------------------------
# Parallel cutover heuristic
# ----------------------------------------------------------------------


class TestCutover:
    def test_knob_get_set_restore(self):
        previous = set_min_parallel_nnz(4096)
        try:
            assert get_min_parallel_nnz() == 4096
        finally:
            set_min_parallel_nnz(previous)
        assert get_min_parallel_nnz() == previous
        with pytest.raises(ValueError):
            set_min_parallel_nnz(-1)

    def test_env_parsing(self, monkeypatch):
        from repro.perf.parallel import _env_int

        monkeypatch.setenv("REPRO_PARALLEL_MIN_NNZ", "777")
        assert _env_int("REPRO_PARALLEL_MIN_NNZ", 8192) == 777
        monkeypatch.setenv("REPRO_PARALLEL_MIN_NNZ", "junk")
        assert _env_int("REPRO_PARALLEL_MIN_NNZ", 8192) == 8192
        monkeypatch.delenv("REPRO_PARALLEL_MIN_NNZ")
        assert _env_int("REPRO_PARALLEL_MIN_NNZ", 8192) == 8192

    def test_parallel_config_scopes_the_knob(self):
        before = get_min_parallel_nnz()
        with parallel_config(min_parallel_nnz=123):
            assert get_min_parallel_nnz() == 123
        assert get_min_parallel_nnz() == before

    def test_max_parallel_workers_scales_with_size(self):
        with parallel_config(num_threads=8, min_parallel_nnz=1000):
            assert max_parallel_workers(500) == 1
            assert max_parallel_workers(2_500) == 2
            assert max_parallel_workers(100_000) == 8
        with parallel_config(num_threads=8, min_parallel_nnz=0):
            assert max_parallel_workers(1) == 8

    def test_want_parallel_respects_per_thread_floor(self):
        # 2-thread static at ~1x on BENCH_parallel's small configs is
        # exactly the regression this gate exists for: nnz above the
        # threshold but below 2x it (two workers' worth) stays serial.
        with parallel_config(num_threads=2, min_parallel_nnz=8000):
            assert not want_parallel(10_000)
        with parallel_config(num_threads=2, min_parallel_nnz=4000):
            assert want_parallel(10_000)
        with parallel_config(num_threads=2, min_parallel_nnz=0):
            assert want_parallel(1)
            assert not want_parallel(0)

    def test_chunk_plan_workers_clamped(self, tensor3):
        with parallel_config(num_threads=8, min_parallel_nnz=200):
            chunks = kernel_chunk_plan(
                tensor3, grain="nonzero", total_elements=tensor3.nnz
            )
        # 600 nnz at 200 nnz/thread supports at most 3 workers.
        assert chunks is not None
        assert chunks.workers == 3

    @requires_compiler
    def test_tune_drops_subcutover_parallel_candidates(self, tensor3):
        from repro.perf.autotune import tune

        previous = set_min_parallel_nnz(10_000)
        try:
            report = tune(
                tensor3,
                "MTTKRP",
                probe=False,
                use_disk_cache=False,
                max_threads=4,
            )
        finally:
            set_min_parallel_nnz(previous)
        assert all(c.config.num_threads == 1 for c in report.candidates)
        assert report.chosen.num_threads == 1
        assert report.notes["cutover_dropped"] > 0
        assert report.notes["min_parallel_nnz"] == 10_000


# ----------------------------------------------------------------------
# Toolchain identity in the machine signature
# ----------------------------------------------------------------------


class TestToolchainSignature:
    def test_signature_carries_toolchain_component(self):
        identity = cachedir.toolchain_info()
        assert isinstance(identity, str)
        assert cachedir.machine_signature().endswith(f"-{identity}")

    def test_signature_has_no_openmp_suffix(self):
        cachedir.reset_toolchain()
        assert not cachedir.machine_signature().endswith("+omp")

    def test_toolchain_info_runs_one_subprocess(self, monkeypatch):
        import subprocess

        calls = []

        def counting(args, *rest, **kwargs):
            calls.append(list(args))
            return subprocess.CompletedProcess(args, 0, b"gcc (test) 1.0\n", b"")

        monkeypatch.setattr(subprocess, "run", counting)
        monkeypatch.setattr(shutil, "which", lambda name: "/usr/bin/" + name)
        cachedir.reset_toolchain()
        try:
            cachedir.toolchain_info()
        finally:
            cachedir.reset_toolchain()
        assert calls == [["/usr/bin/gcc", "--version"]]

    def test_nocc_when_no_compiler(self, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        cachedir.reset_toolchain()
        identity = cachedir.toolchain_info()
        assert identity == "nocc"
        assert cachedir.machine_signature().endswith("-nocc")
        cachedir.reset_toolchain()

    def test_toolchain_info_is_memoized(self, monkeypatch):
        cachedir.reset_toolchain()
        first = cachedir.toolchain_info()
        calls = []

        def counting_which(name):
            calls.append(name)
            return None

        monkeypatch.setattr(shutil, "which", counting_which)
        assert cachedir.toolchain_info() == first
        assert calls == []  # memo hit: no re-probe

    def test_compile_flags_are_pthread_only(self):
        for profile in build.PROFILES:
            flags = build.compile_flags(profile)
            assert "-pthread" in flags, profile
            assert "-fopenmp" not in flags, profile

    def test_no_generated_source_uses_openmp(self):
        from repro.perf.jit import codegen

        for artifact in codegen.registered_artifacts():
            assert "_OPENMP" not in artifact.source, artifact.name
            assert "omp.h" not in artifact.source, artifact.name
            runners = artifact.source.count("static void repro_team_run(")
            assert runners == (1 if artifact.effects.par_name else 0)


# ----------------------------------------------------------------------
# Conformance check kind
# ----------------------------------------------------------------------


class TestConformanceCheck:
    def test_enumerated_for_mode_kernels(self, tensor3):
        from repro.conformance.harness import MODE_KERNELS, enumerate_checks

        checks = enumerate_checks(tensor3, seed=0)
        jp = [
            c
            for c in checks
            if c.get("axis") == "threads" and c["variant"].endswith("_jit")
        ]
        assert {c["kernel"] for c in jp} == set(MODE_KERNELS)
        assert {(c["kernel"], c["variant"]) for c in jp} == {
            ("MTTKRP", "coo_jit"),
            ("MTTKRP", "hicoo_jit"),
            ("TTV", "coo_jit"),
            ("TTM", "coo_jit"),
        }
        assert all(c["threads"] > 1 for c in jp)

    def test_describe(self):
        from repro.conformance.harness import describe_check

        label = describe_check(
            {
                "check": "twin",
                "variant": "coo_jit",
                "kernel": "MTTKRP",
                "axis": "threads",
                "threads": 2,
                "schedule": "static",
            }
        )
        assert "coo_jit-MTTKRP threads" in label and "x2" in label

    @requires_compiler
    @pytest.mark.parametrize("schedule", POLICIES)
    def test_passes_on_random_tensor(self, tensor3, schedule):
        from repro.conformance.harness import run_check

        for kernel, variant in (
            ("MTTKRP", "coo_jit"),
            ("MTTKRP", "hicoo_jit"),
            ("TTV", "coo_jit"),
            ("TTM", "coo_jit"),
        ):
            config = {
                "check": "twin",
                "axis": "threads",
                "variant": variant,
                "kernel": kernel,
                "mode": 1,
                "rank": 4,
                "block_size": 8,
                "seed": 0,
                "threads": 2,
                "schedule": schedule,
            }
            assert run_check(tensor3, config) is None

    def test_trivially_passes_without_toolchain(self, monkeypatch, tensor3):
        # Every compiled entry declines; both twins land on numpy.
        from repro.conformance.harness import run_check

        monkeypatch.setattr(shutil, "which", lambda name: None)
        build.reset()
        config = {
            "check": "twin",
            "axis": "threads",
            "variant": "coo_jit",
            "kernel": "MTTKRP",
            "mode": 0,
            "rank": 4,
            "block_size": 8,
            "seed": 0,
            "threads": 2,
            "schedule": "static",
        }
        assert run_check(tensor3, config) is None
