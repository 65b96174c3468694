"""Tests for the differential check matrix and its runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance import (
    describe_check,
    enumerate_checks,
    roundtrip_paths,
    run_check,
)
from repro.conformance import harness
from repro.conformance.harness import KERNELS, MODE_KERNELS
from repro.formats import CooTensor


@pytest.fixture
def tensor(rng):
    return CooTensor.random((12, 10, 8), 120, rng=rng)


class TestEnumerateChecks:
    def test_matrix_covers_every_kernel_and_kind(self, tensor):
        checks = enumerate_checks(tensor, seed=1)
        kinds = {c["check"] for c in checks}
        assert kinds == {"roundtrip", "oracle", "twin"}
        axes = {c["axis"] for c in checks if c["check"] == "twin"}
        assert axes == set(harness.TWIN_AXES) == {"threads", "auto", "batch", "cache"}
        kernels = {c["kernel"] for c in checks if "kernel" in c}
        assert kernels == set(KERNELS)

    def test_every_parent_comparison_has_a_row(self, tensor):
        # (kind, kernel, variant[, axis]) rows standing in for the
        # per-feature kinds this matrix replaced.
        checks = enumerate_checks(tensor, seed=1)
        oracle = {(c["kernel"], c["variant"]) for c in checks if c["check"] == "oracle"}
        threads = {
            (c["kernel"], c["variant"])
            for c in checks
            if c.get("axis") == "threads"
        }
        for kernel in KERNELS:
            for variant in ("coo", "hicoo"):
                # dense oracle + cross-format (HiCOO vs COO)
                assert (kernel, variant) in oracle
                # serial vs parallel, bit-exact
                assert (kernel, variant) in threads
        assert {("MTTKRP", "csf"), ("TTV", "csf")} <= oracle
        assert {("TTV", "fcoo"), ("TTM", "fcoo")} <= oracle
        compiled = {("MTTKRP", "coo_jit"), ("MTTKRP", "hicoo_jit"),
                    ("TTV", "coo_jit"), ("TTM", "coo_jit")}
        assert compiled <= oracle and compiled <= threads
        sanitize = {
            (c["kernel"], c["variant"])
            for c in checks
            if c["check"] == "oracle" and c.get("build") == "sanitize"
        }
        assert sanitize == compiled
        auto = {c["kernel"] for c in checks if c.get("axis") == "auto"}
        assert auto == set(MODE_KERNELS)
        assert auto == {k for k, v in oracle if v == "auto"}
        cache = {
            (c["kernel"], c["variant"]) for c in checks if c.get("axis") == "cache"
        }
        assert cache == oracle - {(k, "auto") for k in MODE_KERNELS}

    def test_variants_derive_from_dispatch_registry(self, tensor, monkeypatch):
        # Adding a row to the kernel × variant table is all it takes to
        # put it in the matrix.
        from repro.perf import variants

        row = variants.Row(
            "MTTKRP", "coo_new", ("repro.core.mttkrp", "mttkrp_coo"), "factors"
        )
        monkeypatch.setitem(variants.TABLE, ("MTTKRP", "coo_new"), row)
        checks = enumerate_checks(tensor, seed=1, threads=(2, 4))
        rows = [c for c in checks if c.get("variant") == "coo_new"]
        assert {c["kernel"] for c in rows} == {"MTTKRP"}
        assert [c["check"] for c in rows if c["check"] == "oracle"] == ["oracle"]
        threads = [c["threads"] for c in rows if c.get("axis") == "threads"]
        assert sorted(threads) == [2, 4]

    def test_order1_skips_mode_kernels(self):
        tensor = CooTensor.random((50,), 10, seed=3)
        checks = enumerate_checks(tensor, seed=1)
        kernels = {c["kernel"] for c in checks if "kernel" in c}
        assert kernels == set(KERNELS) - set(MODE_KERNELS)

    def test_roundtrip_paths_scale_with_order(self):
        assert len(roundtrip_paths(1)) < len(roundtrip_paths(3))
        for path in roundtrip_paths(3):
            assert path  # never empty

    def test_all_configs_json_serializable(self, tensor):
        import json

        checks = enumerate_checks(tensor, seed=1)
        rebuilt = json.loads(json.dumps(checks))
        assert rebuilt == checks

    def test_thread_counts_respected(self, tensor):
        checks = enumerate_checks(tensor, seed=1, threads=(3,))
        threads = {c["threads"] for c in checks if c.get("axis") == "threads"}
        assert threads == {3}


class TestRunCheck:
    def test_healthy_tensor_passes_whole_matrix(self, tensor):
        for config in enumerate_checks(tensor, seed=1):
            assert run_check(tensor, config) is None, describe_check(config)

    def test_unknown_kind_raises(self, tensor):
        with pytest.raises(ValueError, match="unknown check kind"):
            run_check(tensor, {"check": "nonsense"})

    def test_exception_becomes_failure_message(self, tensor):
        # An impossible roundtrip hop crashes; the crash is the finding.
        message = run_check(tensor, {"check": "roundtrip", "path": ["warp"]})
        assert message is not None
        assert "warp" in message

    def test_corrupted_values_fail_roundtrip(self, tensor, monkeypatch):
        real_convert = harness.convert

        def broken(src, target, **kwargs):
            out = real_convert(src, target, **kwargs)
            if target == "hicoo" and out.nnz:
                out.values[0] += 1.0
            return out

        monkeypatch.setattr(harness, "convert", broken)
        config = {
            "check": "roundtrip",
            "path": ["hicoo"],
            "block_size": 8,
            "compressed_modes": [0],
            "dense_modes": [],
            "mode": 0,
        }
        message = run_check(tensor, config)
        assert message is not None
        assert "roundtrip" in message

    def test_huge_shape_never_densifies(self):
        # 300 * 257^3 dense cells would be ~40 GB; every check must stay
        # sparse.  A hang or MemoryError here is the regression.
        indices = np.array(
            [[255, 256, 299], [0, 1, 256], [5, 6, 7], [250, 251, 252]],
            dtype=np.int32,
        )
        tensor = CooTensor((300, 257, 257, 257), indices, np.ones(3, dtype=np.float32))
        for config in enumerate_checks(tensor, seed=0, threads=(2,)):
            assert run_check(tensor, config) is None, describe_check(config)


class TestDescribeCheck:
    def test_roundtrip_label(self):
        label = describe_check({"check": "roundtrip", "path": ["hicoo", "csf"]})
        assert label == "roundtrip hicoo->csf"

    def test_parallel_label_includes_schedule(self):
        label = describe_check(
            {
                "check": "twin",
                "variant": "coo",
                "kernel": "TTV",
                "axis": "threads",
                "threads": 4,
                "schedule": "guided",
            }
        )
        assert "coo-TTV" in label
        assert "x4 guided" in label


class TestComparisons:
    def test_nan_residual_is_a_sparse_mismatch(self):
        # A NaN compares false against any bound, so it once "matched".
        indices = np.array([[0, 1]], dtype=np.int32)
        a = CooTensor((2,), indices, np.array([np.nan, 2.0], dtype=np.float32))
        b = CooTensor((2,), indices, np.array([1.0, 2.0], dtype=np.float32))
        assert harness._sparse_mismatch(a, b, "nan") is not None
        assert harness._sparse_mismatch(b, b, "same") is None

    def test_nan_poisoned_tensor_fails_every_check(self):
        tensor = CooTensor.random((10, 9, 8), 80, seed=2)
        tensor.values[0] = np.nan
        # Sanitize-build checks pass trivially where the compiled backend
        # is unavailable, so they are left out.
        passing = [
            describe_check(c)
            for c in enumerate_checks(tensor, seed=0)
            if "build" not in c and run_check(tensor, c) is None
        ]
        assert passing == []

    def test_exact_rejects_a_different_dtype(self):
        a = np.ones((3, 2), dtype=np.float32)
        assert harness._exact_mismatch(a, a.copy(), "same") is None
        message = harness._exact_mismatch(a, a.astype(np.float64), "planted")
        assert message is not None and "dtype" in message

    def test_exact_rejects_different_metadata(self, tensor):
        from repro.formats import HicooTensor

        message = harness._exact_mismatch(
            HicooTensor.from_coo(tensor, 4), HicooTensor.from_coo(tensor, 8), "planted"
        )
        assert message is not None and "block_size" in message
        wider = CooTensor((13, 10, 8), tensor.indices, tensor.values, validate=False)
        message = harness._exact_mismatch(tensor, wider, "planted")
        assert message is not None and "shape" in message

    @pytest.mark.parametrize("axis", sorted(harness.TWIN_AXES))
    def test_every_twin_axis_compares_exactly(self, tensor, axis, monkeypatch):
        # One ulp apart is inside the oracle tolerance, yet a mismatch on
        # every twin axis: no axis carries a tolerance.
        a = np.ones((4, 3), dtype=np.float32)
        b = np.nextafter(a, np.float32(2))
        assert harness._tolerance_mismatch(a, b, "one ulp") is None
        planted = harness.TwinAxis(
            lambda *args: [("", a, b)], harness.TWIN_AXES[axis].description
        )
        monkeypatch.setitem(harness.TWIN_AXES, axis, planted)
        config = {"check": "twin", "kernel": "MTTKRP", "variant": "coo",
                  "axis": axis, "mode": 0, "rank": 3}
        assert run_check(tensor, config) is not None

    def test_threads_twin_catches_a_planted_dtype(self, tensor, monkeypatch):
        # A parallel run that returns float64 values passes an equality
        # of values, but not the exact twin contract.
        import repro.core.ttv as ttv_module
        from repro.perf.parallel import get_num_threads

        real = ttv_module.ttv_coo

        def planted(x, vector, mode):
            out = real(x, vector, mode)
            if get_num_threads() > 1:
                out.values = out.values.astype(np.float64)
            return out

        monkeypatch.setattr(ttv_module, "ttv_coo", planted)
        config = {
            "check": "twin",
            "kernel": "TTV",
            "variant": "coo",
            "axis": "threads",
            "threads": 2,
            "schedule": "static",
        }
        message = run_check(tensor, config)
        assert message is not None and "dtype" in message
