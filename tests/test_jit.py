"""Tests for the compiled C kernel backend (``repro.perf.jit``).

The JIT must be an invisible accelerator: every entry point returns
``None`` when compilation is impossible (no toolchain, ``REPRO_JIT=0``,
exotic specialization) and the dispatcher silently runs numpy instead.
These tests pin that fallback chain, the content-addressed object cache
(including corrupt-entry recovery), and tolerance/exactness contracts
between compiled and numpy results.
"""

from __future__ import annotations

import ctypes
import os
import shutil

import numpy as np
import pytest

from repro.core.mttkrp import mttkrp_coo as np_mttkrp_coo
from repro.core.mttkrp import mttkrp_hicoo as np_mttkrp_hicoo
from repro.core.tew import tew_coo
from repro.core.ttm import ttm_coo as np_ttm_coo
from repro.core.ttv import ttv_coo as np_ttv_coo
from repro.formats import CooTensor, HicooTensor
from repro.perf import dispatch, jit
from repro.perf.jit import build, codegen
from repro.perf.parallel import parallel_config

RTOL = ATOL = 1e-3

# Skip compilation-dependent tests both when no toolchain exists and
# when the ambient environment disables the JIT (the CI acceptance run
# re-executes the whole suite under REPRO_JIT=0).
requires_compiler = pytest.mark.skipif(
    (shutil.which("gcc") is None and shutil.which("cc") is None)
    or os.environ.get("REPRO_JIT", "1").strip().lower()
    in ("0", "false", "off", "no"),
    reason="no C compiler on PATH or REPRO_JIT=0",
)


@pytest.fixture(autouse=True)
def _isolated_jit_cache(tmp_path, monkeypatch):
    """Point the object cache at a tempdir and drop process memos.

    Every test compiles into its own directory, so corrupting or
    clearing the cache never touches the user's real ``~/.cache``.
    """
    monkeypatch.setenv(build.ENV_JIT_CACHE, str(tmp_path / "jit-cache"))
    build.reset()
    yield
    build.reset()


def make_factors(shape, rank, rng):
    return [
        rng.uniform(0.5, 1.5, size=(size, rank)).astype(np.float32)
        for size in shape
    ]


# ----------------------------------------------------------------------
# Availability and fallback chain
# ----------------------------------------------------------------------


class TestAvailability:
    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv(jit.ENV_JIT, "0")
        build.reset()
        assert not jit.jit_enabled()
        assert not jit.jit_available()

    @pytest.mark.parametrize("value", ["0", "false", "OFF", " no "])
    def test_falsy_spellings(self, monkeypatch, value):
        monkeypatch.setenv(jit.ENV_JIT, value)
        assert not build.jit_enabled()

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(jit.ENV_JIT, raising=False)
        assert build.jit_enabled()

    def test_toolchain_absent(self, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        build.reset()
        assert jit.compiler_path() is None
        assert not jit.jit_available()

    def test_kernels_return_none_without_toolchain(
        self, monkeypatch, tensor3, factors3, rng
    ):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        build.reset()
        assert jit.mttkrp_coo(tensor3, factors3, 0) is None
        assert jit.ttv_coo(tensor3, factors3[1][:, 0], 1) is None
        assert jit.ttm_coo(tensor3, factors3[2], 2) is None
        hicoo = HicooTensor.from_coo(tensor3, 8)
        assert jit.mttkrp_hicoo(hicoo, factors3, 0) is None

    def test_kernels_return_none_when_disabled(
        self, monkeypatch, tensor3, factors3
    ):
        monkeypatch.setenv(jit.ENV_JIT, "0")
        build.reset()
        assert jit.mttkrp_coo(tensor3, factors3, 0) is None
        assert not list(jit.object_cache_dir().glob("*.so"))

    def test_dispatch_falls_back_without_toolchain(
        self, monkeypatch, tensor3, factors3
    ):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        build.reset()
        got = dispatch.mttkrp(tensor3, factors3, 0, variant="coo_jit")
        want = np_mttkrp_coo(tensor3, factors3, 0)
        np.testing.assert_array_equal(got, want)

    def test_dispatch_falls_back_when_disabled(
        self, monkeypatch, tensor3, factors3
    ):
        monkeypatch.setenv(jit.ENV_JIT, "0")
        build.reset()
        for variant, reference in (
            ("coo_jit", np_mttkrp_coo(tensor3, factors3, 1)),
            (
                "hicoo_jit",
                np_mttkrp_hicoo(HicooTensor.from_coo(tensor3, 8), factors3, 1),
            ),
        ):
            got = dispatch.mttkrp(tensor3, factors3, 1, variant=variant)
            np.testing.assert_array_equal(got, reference)

    def test_auto_candidates_exclude_jit_when_disabled(self, monkeypatch):
        from repro.perf.autotune import candidate_configs

        monkeypatch.setenv(jit.ENV_JIT, "0")
        build.reset()
        variants = {c.variant for c in candidate_configs("MTTKRP")}
        assert not any(v.endswith("_jit") for v in variants)


# ----------------------------------------------------------------------
# Object cache behaviour
# ----------------------------------------------------------------------


@requires_compiler
class TestObjectCache:
    def test_compile_populates_cache(self, tensor3, factors3):
        assert jit.mttkrp_coo(tensor3, factors3, 0) is not None
        entries = jit.cache_entries()
        assert len(entries) == 1
        path, size, _ = entries[0]
        assert path.suffix == ".so"
        assert size > 0

    def test_same_specialization_reuses_object(self, tensor3, factors3, rng):
        jit.mttkrp_coo(tensor3, factors3, 0)
        first = {p.name for p, _, _ in jit.cache_entries()}
        other = CooTensor.random((9, 7, 5), 60, rng=rng)
        jit.mttkrp_coo(other, make_factors(other.shape, 8, rng), 2)
        assert {p.name for p, _, _ in jit.cache_entries()} == first

    def test_corrupt_entry_recompiles(self, tensor3, factors3):
        name, source = codegen.mttkrp_coo_source(3, 8)
        so_path = jit.object_cache_dir() / f"{build.source_key(source)}.so"
        so_path.parent.mkdir(parents=True, exist_ok=True)
        so_path.write_bytes(b"this is not a shared object")
        got = jit.mttkrp_coo(tensor3, factors3, 0)
        assert got is not None
        np.testing.assert_allclose(
            got, np_mttkrp_coo(tensor3, factors3, 0), rtol=RTOL, atol=ATOL
        )
        # The garbage entry was replaced by a real object.
        assert so_path.stat().st_size > 100

    def test_stale_entry_missing_symbol_recompiles(self, tensor3, factors3):
        # Simulate a hash collision with an older generator: a valid
        # shared object that lacks the expected symbol.
        name, source = codegen.ttv_source()
        decoy = build.load_function(
            name,
            source,
            [ctypes.c_int64] * 2
            + [np.ctypeslib.ndpointer(dtype=np.int64)] * 1
            + [np.ctypeslib.ndpointer(dtype=np.float32)] * 2
            + [np.ctypeslib.ndpointer(dtype=np.int32)]
            + [np.ctypeslib.ndpointer(dtype=np.float64)],
        )
        assert decoy is not None
        decoy_path = jit.cache_entries()[0][0]
        mttkrp_name, mttkrp_source = codegen.mttkrp_coo_source(3, 8)
        target = jit.object_cache_dir() / f"{build.source_key(mttkrp_source)}.so"
        shutil.copyfile(decoy_path, target)
        build.reset()
        got = jit.mttkrp_coo(tensor3, factors3, 0)
        assert got is not None

    def test_clear_cache(self, tensor3, factors3):
        jit.mttkrp_coo(tensor3, factors3, 0)
        assert jit.clear_cache() == 1
        assert jit.cache_entries() == []

    def test_key_hashes_the_compile_flags(self, monkeypatch):
        _, source = codegen.ttv_source()
        before = build.source_key(source, profile=build.PROFILE_RELEASE)
        flags = dict(build._PROFILE_CFLAGS)
        flags[build.PROFILE_RELEASE] += ("-DREPRO_FLAG_CHANGE",)
        monkeypatch.setattr(build, "_PROFILE_CFLAGS", flags)
        after = build.source_key(source, profile=build.PROFILE_RELEASE)
        assert after != before and after.endswith("-release")

    def test_failed_load_memoized(self, monkeypatch, tensor3, factors3):
        calls = []
        real_which = shutil.which
        monkeypatch.setattr(
            shutil, "which", lambda name: calls.append(name) or None
        )
        build.reset()
        assert jit.mttkrp_coo(tensor3, factors3, 0) is None
        assert jit.mttkrp_coo(tensor3, factors3, 0) is None
        # One probe for gcc + one for cc, memoized across calls.
        assert len(calls) == 2
        monkeypatch.setattr(shutil, "which", real_which)


class TestSourceMemo:
    def test_source_generated_once_per_specialization(self, monkeypatch):
        from repro.perf.jit import kernels

        calls = []
        real = codegen.mttkrp_coo_source

        def counting(order, rank):
            calls.append((order, rank))
            return real(order, rank)

        monkeypatch.setattr(codegen, "mttkrp_coo_source", counting)
        monkeypatch.setattr(build, "load_function", lambda *args: None)
        for _ in range(5):
            kernels._mttkrp_coo_fn(3, 16)
            kernels._mttkrp_coo_fn(3, 16, True)
        assert calls == [(3, 16)]
        kernels._mttkrp_coo_fn(4, 16)
        kernels._mttkrp_coo_fn(3, 8)
        kernels._mttkrp_coo_fn(4, 16)
        assert calls == [(3, 16), (4, 16), (3, 8)]


# ----------------------------------------------------------------------
# Numerical agreement with the numpy kernels
# ----------------------------------------------------------------------


@requires_compiler
class TestAgreement:
    @pytest.mark.parametrize(
        "shape,rank",
        [((13, 9), 1), ((11, 7, 5), 4), ((6, 5, 4, 3), 8)],
    )
    def test_mttkrp_coo_all_modes(self, shape, rank, rng):
        x = CooTensor.random(shape, 4 * int(np.prod(shape)) // 5, rng=rng)
        factors = make_factors(shape, rank, rng)
        for mode in range(len(shape)):
            got = jit.mttkrp_coo(x, factors, mode)
            assert got is not None
            assert got.dtype == np.float32
            np.testing.assert_allclose(
                got, np_mttkrp_coo(x, factors, mode), rtol=RTOL, atol=ATOL
            )

    @pytest.mark.parametrize("block_size", [4, 8])
    def test_mttkrp_hicoo_all_modes(self, tensor3, factors3, block_size):
        hicoo = HicooTensor.from_coo(tensor3, block_size)
        for mode in range(tensor3.order):
            got = jit.mttkrp_hicoo(hicoo, factors3, mode)
            assert got is not None
            np.testing.assert_allclose(
                got,
                np_mttkrp_hicoo(hicoo, factors3, mode),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_ttv_all_modes(self, tensor3, rng):
        for mode in range(tensor3.order):
            v = rng.uniform(0.5, 1.5, tensor3.shape[mode]).astype(np.float32)
            got = jit.ttv_coo(tensor3, v, mode)
            want = np_ttv_coo(tensor3, v, mode)
            assert got is not None
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_allclose(
                got.values, want.values, rtol=RTOL, atol=ATOL
            )

    def test_ttm_all_modes(self, tensor3, rng):
        for mode in range(tensor3.order):
            mat = rng.uniform(
                0.5, 1.5, (tensor3.shape[mode], 6)
            ).astype(np.float32)
            got = jit.ttm_coo(tensor3, mat, mode)
            want = np_ttm_coo(tensor3, mat, mode)
            assert got is not None
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_allclose(
                got.values, want.values, rtol=RTOL, atol=ATOL
            )

    def test_empty_fiber_partition(self, rng):
        empty = CooTensor(
            (5, 4, 3),
            np.empty((3, 0), dtype=np.int32),
            np.empty(0, dtype=np.float32),
        )
        v = np.ones(4, dtype=np.float32)
        got = jit.ttv_coo(empty, v, 1)
        assert got is not None
        assert got.nnz == 0
        assert got.shape == (5, 3)

    @pytest.mark.parametrize("op", ["add", "div", "mul", "sub"])
    def test_tew_bit_exact(self, tensor3, rng, op):
        # TEW has no compiled kernel: its numpy chunk body runs at every
        # thread count and matches the serial ufunc bit for bit.
        y = CooTensor(
            tensor3.shape,
            tensor3.indices,
            rng.uniform(0.5, 1.5, tensor3.nnz).astype(np.float32),
        )
        with parallel_config(num_threads=2, min_parallel_nnz=1):
            chunked = tew_coo(tensor3, y, op=op)
        serial = tew_coo(tensor3, y, op=op)
        np.testing.assert_array_equal(chunked.values, serial.values)
        assert not hasattr(jit, "tew_values")

    def test_parallel_equals_serial_exactly(self, rng):
        x = CooTensor.random((50, 40, 30), 5000, rng=rng)
        factors = make_factors(x.shape, 8, rng)
        serial = jit.mttkrp_coo(x, factors, 0)
        with parallel_config(num_threads=4, min_parallel_nnz=1):
            parallel = jit.mttkrp_coo(x, factors, 0)
        assert serial is not None and parallel is not None
        np.testing.assert_array_equal(serial, parallel)
        v = rng.uniform(0.5, 1.5, x.shape[1]).astype(np.float32)
        serial_ttv = jit.ttv_coo(x, v, 1)
        with parallel_config(num_threads=4, min_parallel_nnz=1):
            parallel_ttv = jit.ttv_coo(x, v, 1)
        np.testing.assert_array_equal(serial_ttv.values, parallel_ttv.values)


# ----------------------------------------------------------------------
# Exact arithmetic: the C loops against a float64 emulation of their order
# ----------------------------------------------------------------------


def _cancelling_problem(half=6, base=30, rank=16, seed=7):
    """An order-3 tensor whose every output row and fiber cancels.

    Each mode has ``2 * half`` rows and row ``r + half`` of every operand
    equals row ``r``.  Every base coordinate ``(i, j, k)`` spawns its eight
    copies ``(i + a h, j + b h, k + c h)`` with value ``(-1)^(a+b+c) v``,
    so each MTTKRP row and each TTV/TTM fiber sums to nearly zero.  The
    float64 rounding of every product then shows in the float32 output,
    and a fused multiply-add would change it.
    """
    rng = np.random.default_rng(seed)
    codes = rng.choice(half**3, size=base, replace=False)
    coords = np.stack(np.unravel_index(codes, (half,) * 3))
    values = rng.uniform(0.5, 1.5, base).astype(np.float32)
    blocks, signed = [], []
    for a, b, c in np.ndindex(2, 2, 2):
        blocks.append(coords + half * np.array([[a], [b], [c]]))
        signed.append(values if (a + b + c) % 2 == 0 else -values)
    shape = (2 * half,) * 3
    x = CooTensor(shape, np.concatenate(blocks, axis=1), np.concatenate(signed))
    factors = [
        np.tile(rng.uniform(0.5, 1.5, (half, rank)).astype(np.float32), (2, 1))
        for _ in shape
    ]
    return x, factors


def _emulate_mttkrp(shape, indices, values, factors, mode):
    """Per output row, ``acc += (v * a) * b`` in storage order from 0.0,
    factors in ascending mode order; one float32 rounding at the end."""
    others = [m for m in range(len(shape)) if m != mode]
    acc = np.zeros((shape[mode], factors[0].shape[1]), dtype=np.float64)
    for e in range(values.shape[0]):
        term = np.float64(values[e])
        for m in others:
            term = term * factors[m][indices[m, e]].astype(np.float64)
        acc[indices[mode, e]] += term
    return acc.astype(np.float32)


def _emulate_fibers(x, operand, mode):
    """TTV/TTM: per fiber (the other modes' coordinates, increasing),
    ``acc += v * operand[i_mode]`` by increasing ``i_mode`` from 0.0."""
    others = [m for m in range(x.order) if m != mode]
    perm = x.lexicographic_order(others + [mode])
    sums = {}
    for e in perm:
        key = tuple(int(x.indices[m, e]) for m in others)
        row = np.asarray(operand[x.indices[mode, e]], dtype=np.float64)
        sums[key] = sums.get(key, 0.0) + np.float64(x.values[e]) * row
    keys = list(sums)
    indices = np.array(keys, dtype=np.int64).T
    rows = np.array([sums[k] for k in keys], dtype=np.float64)
    return indices, rows.astype(np.float32)


@requires_compiler
class TestExactArithmetic:
    """Compiled outputs equal, bit for bit, a float64 emulation of the C
    loops' order.  No multiply-add is ever fused (``-ffp-contract=off``),
    so this holds on every instruction set.  TTV and TTM multiply two
    float32 values, which is exact in float64, so only the MTTKRP cases
    can tell a fused multiply-add apart; at rank 16 both loops would use
    one if the flag were dropped."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_mttkrp_coo(self, mode, threads):
        x, factors = _cancelling_problem()
        with parallel_config(num_threads=threads, min_parallel_nnz=1):
            got = jit.mttkrp_coo(x, factors, mode)
        expected = _emulate_mttkrp(x.shape, x.indices, x.values, factors, mode)
        np.testing.assert_array_equal(got, expected)
        assert np.any(expected != 0)  # cancellation left rounding residue

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_mttkrp_hicoo(self, mode, threads):
        x, factors = _cancelling_problem()
        h = HicooTensor.from_coo(x, 8)
        expanded = (
            np.repeat(h.binds, h.nnz_per_block(), axis=1).astype(np.int64)
            * h.block_size
            + h.einds
        )
        with parallel_config(num_threads=threads, min_parallel_nnz=1):
            got = jit.mttkrp_hicoo(h, factors, mode)
        expected = _emulate_mttkrp(h.shape, expanded, h.values, factors, mode)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_ttv(self, mode, threads):
        x, factors = _cancelling_problem()
        v = factors[mode][:, 0].copy()
        with parallel_config(num_threads=threads, min_parallel_nnz=1):
            got = jit.ttv_coo(x, v, mode)
        indices, values = _emulate_fibers(x, v, mode)
        np.testing.assert_array_equal(got.indices, indices)
        np.testing.assert_array_equal(got.values, values)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_ttm(self, mode, threads):
        x, factors = _cancelling_problem()
        with parallel_config(num_threads=threads, min_parallel_nnz=1):
            got = jit.ttm_coo(x, factors[mode], mode)
        indices, rows = _emulate_fibers(x, factors[mode], mode)
        np.testing.assert_array_equal(got.indices, indices)
        np.testing.assert_array_equal(got.values, rows)


@requires_compiler
class TestSortedValuesCache:
    def test_invalidate_after_mutation_gives_fresh_results(
        self, tensor3, factors3
    ):
        from repro.perf.plan_cache import invalidate

        first = jit.mttkrp_coo(tensor3, factors3, 0)
        tensor3.values *= 2  # exact: every product and sum doubles
        invalidate(tensor3)
        np.testing.assert_array_equal(
            jit.mttkrp_coo(tensor3, factors3, 0), 2 * first
        )


# ----------------------------------------------------------------------
# Dispatch integration
# ----------------------------------------------------------------------


@requires_compiler
class TestDispatchIntegration:
    def test_explicit_jit_variant_matches_direct_call(self, tensor3, factors3):
        direct = jit.mttkrp_coo(tensor3, factors3, 0)
        via_dispatch = dispatch.mttkrp(tensor3, factors3, 0, variant="coo_jit")
        np.testing.assert_array_equal(direct, via_dispatch)

    def test_hicoo_jit_variant(self, tensor3, factors3):
        got = dispatch.mttkrp(
            tensor3, factors3, 0, variant="hicoo_jit", block_size=8
        )
        direct = jit.mttkrp_hicoo(
            HicooTensor.from_coo(tensor3, 8), factors3, 0
        )
        np.testing.assert_array_equal(got, direct)

    def test_jit_variant_rejected_for_unsupported_kernel(self, tensor3, factors3):
        from repro.errors import PastaError

        with pytest.raises(PastaError, match="no hicoo_jit implementation"):
            dispatch.ttv(
                tensor3, factors3[1][:, 0], 1, variant="hicoo_jit"
            )

    def test_auto_equals_chosen_variant_exactly(self, tensor3, factors3):
        config = dispatch.resolve_config(
            tensor3, "MTTKRP", variant="auto", mode=0, rank=8
        )
        auto = dispatch.mttkrp(tensor3, factors3, 0, variant="auto")
        direct = dispatch.mttkrp(tensor3, factors3, 0, variant=config)
        np.testing.assert_array_equal(auto, direct)

    def test_jit_in_auto_candidate_space(self):
        from repro.perf.autotune import candidate_configs

        variants = {c.variant for c in candidate_configs("MTTKRP")}
        assert "coo_jit" in variants
        assert "hicoo_jit" in variants


# ----------------------------------------------------------------------
# Conformance check kind
# ----------------------------------------------------------------------


@requires_compiler
class TestConformance:
    @pytest.mark.parametrize("kernel", ["MTTKRP", "TTV", "TTM"])
    def test_jit_tolerance_check_passes(self, tensor3, kernel):
        from repro.conformance import run_check
        from repro.conformance.harness import kernel_variants

        compiled = [v for v in kernel_variants(kernel) if v.endswith("_jit")]
        assert compiled == (
            ["coo_jit", "hicoo_jit"] if kernel == "MTTKRP" else ["coo_jit"]
        )
        for variant in compiled:
            config = {
                "check": "oracle",
                "variant": variant,
                "kernel": kernel,
                "mode": 1,
                "rank": 8,
                "block_size": 8,
                "seed": 7,
            }
            assert run_check(tensor3, config) is None

    def test_jit_tolerance_trivially_passes_when_disabled(
        self, monkeypatch, tensor3
    ):
        # With the JIT off, coo_jit lands on numpy and still agrees.
        from repro.conformance import run_check

        monkeypatch.setenv(jit.ENV_JIT, "0")
        build.reset()
        config = {
            "check": "oracle",
            "variant": "coo_jit",
            "kernel": "MTTKRP",
            "mode": 0,
            "rank": 4,
            "block_size": 8,
            "seed": 7,
        }
        assert run_check(tensor3, config) is None


# ----------------------------------------------------------------------
# Satellites: expanded-COO plan caching, lint allowance, CLI, cachedir
# ----------------------------------------------------------------------


class TestExpandedCooCaching:
    def test_wrapper_memoized_per_tensor(self, hicoo3):
        from repro.perf.plans import expanded_coo

        first = expanded_coo(hicoo3)
        second = expanded_coo(hicoo3)
        assert first is second


class TestLintAllowance:
    """The blanket ``/perf/jit/`` lint carve-out is gone.

    Generated-C safety is now proven by ``repro kernelcheck`` and the
    dispatcher-resolving ``parallel-write`` rule, so the jit tree is
    linted like any other path.
    """

    VIOLATION = "import numpy as np\nout = np.zeros(x.shape)\n"

    def test_jit_scope_no_longer_suppresses_findings(self):
        from repro.analysis import lint_source

        report = lint_source(
            self.VIOLATION, path="src/repro/perf/jit/kernels.py"
        )
        assert any(f.rule == "densify" for f in report.findings)
        assert report.suppressed == 0

    def test_scoped_allowances_empty(self):
        from repro.analysis.engine import SCOPED_ALLOWANCES

        assert SCOPED_ALLOWANCES == ()

    def test_other_paths_keep_findings(self):
        from repro.analysis import lint_source

        report = lint_source(self.VIOLATION, path="src/repro/core/mttkrp.py")
        assert any(f.rule == "densify" for f in report.findings)


class TestCli:
    def test_jit_cache_listing(self, capsys, tensor3, factors3):
        from repro.cli import main

        if jit.jit_available():
            jit.mttkrp_coo(tensor3, factors3, 0)
        assert main(["jit-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache dir" in out
        if jit.jit_available():
            assert "1 cached object" in out

    @requires_compiler
    def test_jit_cache_clear(self, capsys, tensor3, factors3):
        from repro.cli import main

        jit.mttkrp_coo(tensor3, factors3, 0)
        assert main(["jit-cache", "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert jit.cache_entries() == []


class TestCachedir:
    def test_xdg_override(self, monkeypatch, tmp_path):
        from repro.perf import cachedir

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cachedir.cache_root() == tmp_path / "xdg" / "repro"

    def test_jit_cache_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(build.ENV_JIT_CACHE, str(tmp_path / "objs"))
        assert jit.object_cache_dir() == tmp_path / "objs"
        assert jit.object_cache_dir().is_dir()

    def test_signature_follows_cpu_identity(self, monkeypatch):
        from repro.perf import cachedir

        cachedir.reset_toolchain()
        before = cachedir.machine_signature()
        monkeypatch.setattr(cachedir, "_cpu_features", lambda: "fpu sse2 test")
        cachedir.reset_toolchain()
        try:
            assert cachedir.machine_signature() != before
        finally:
            cachedir.reset_toolchain()

    def test_cpu_identity_starts_no_subprocess(self, monkeypatch):
        import subprocess

        from repro.perf import cachedir

        def refuse(*args, **kwargs):
            raise AssertionError("the CPU identity started a subprocess")

        monkeypatch.setattr(subprocess, "run", refuse)
        cachedir.reset_toolchain()
        try:
            assert len(cachedir.cpu_identity()) == 8
        finally:
            cachedir.reset_toolchain()


class TestBuildFlags:
    def test_release_targets_the_host_cpu(self):
        assert "-march=native" in build.compile_flags(build.PROFILE_RELEASE)

    def test_no_profile_contracts_floating_point(self):
        for profile in build.PROFILES:
            assert "-ffp-contract=off" in build.compile_flags(profile), profile
