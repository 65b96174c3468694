"""Tests for the suite self-verification module."""

import numpy as np
import pytest

from repro.bench.verify import (
    VerificationReport,
    VerificationResult,
    verify_suite,
)
from repro.cli import main
from repro.conformance import enumerate_checks
from repro.core.reference import as_comparable, dense_reference, dense_ttv
from repro.core.registry import make_operands
from repro.formats import CooTensor, HicooTensor


class TestVerifySuite:
    def test_all_checks_pass(self):
        report = verify_suite()
        assert report.all_passed, report.summary()
        assert len(report.results) > 88

    def test_custom_probe_tensor(self):
        probe = CooTensor.random((10, 9, 8), 80, seed=0)
        report = verify_suite([probe], rank=4, block_size=4)
        assert report.all_passed
        # One result per check of the conformance matrix for the probe.
        checks = enumerate_checks(probe, block_size=4, rank=4, seed=0, mode=0)
        assert len(report.results) == len(checks)

    def test_detects_corruption(self, monkeypatch):
        # Sabotage one kernel and confirm verification notices.  The
        # kernel × variant table looks implementations up when called,
        # so rebinding the module attribute reaches every entry point.
        import importlib

        # ``repro.core.ts`` the attribute is the function; get the module.
        ts_module = importlib.import_module("repro.core.ts")

        original = ts_module.ts

        def corrupted(tensor, scalar, op="mul"):
            result = original(tensor, scalar, op)
            if isinstance(result, HicooTensor):
                result = type(result)(
                    result.shape,
                    result.block_size,
                    result.bptr,
                    result.binds,
                    result.einds,
                    result.values * 2.0,
                    validate=False,
                )
            return result

        monkeypatch.setattr(ts_module, "ts", corrupted)
        probes = [CooTensor.random((10, 9, 8), 80, seed=1)]
        report = verify_suite(probes, rank=4, block_size=4)
        assert not report.all_passed
        assert all("hicoo-TS" in f.check for f in report.failures)
        assert any("oracle hicoo-TS" in f.check for f in report.failures)

    def test_corrupted_tensor_is_flagged(self):
        # A NaN-poisoned probe tensor must fail verification: NaN never
        # compares close, so every cross-implementation check trips.
        tensor = CooTensor.random((10, 9, 8), 80, seed=2)
        tensor.values[0] = np.nan
        report = verify_suite([tensor], rank=4, block_size=4)
        assert not report.all_passed
        assert report.failures

    def test_failures_property_lists_only_failures(self):
        report = VerificationReport(
            [
                VerificationResult("good", True),
                VerificationResult("bad", False, "boom"),
            ]
        )
        assert [f.check for f in report.failures] == ["bad"]

    def test_summary_format(self):
        report = VerificationReport(
            [
                VerificationResult("a", True),
                VerificationResult("b", False, "mismatch"),
            ]
        )
        text = report.summary()
        assert "[ok  ] a" in text
        assert "[FAIL] b — mismatch" in text
        assert "1/2 checks passed" in text


class TestAsComparable:
    def test_ndarray_passthrough_promotes_to_float64(self):
        arr = np.ones((3, 2), dtype=np.float32)
        out = as_comparable(arr)
        assert out.dtype == np.float64
        assert np.array_equal(out, arr)

    def test_sparse_output_densified(self):
        tensor = CooTensor.random((6, 5), 8, seed=0)
        hicoo = HicooTensor.from_coo(tensor, 4)
        out = as_comparable(hicoo)
        assert out.dtype == np.float64
        assert np.allclose(out, tensor.to_dense())


class TestDenseReference:
    @pytest.fixture
    def tensor(self):
        return CooTensor.random((7, 6, 5), 40, seed=5)

    def test_tew(self, tensor):
        operands = make_operands(tensor, "TEW", seed=1)
        dense = tensor.to_dense().astype(np.float64)
        expected = dense + operands.second_tensor.to_dense()
        assert np.allclose(dense_reference("TEW", dense, operands, 0), expected)

    def test_ts_scales_only_nonzeros(self, tensor):
        operands = make_operands(tensor, "TS", seed=1)
        dense = tensor.to_dense().astype(np.float64)
        out = dense_reference("TS", dense, operands, 0)
        assert np.allclose(out[dense != 0], dense[dense != 0] * operands.scalar)
        assert np.all(out[dense == 0] == 0)

    def test_ttv_matches_reference_kernel(self, tensor):
        operands = make_operands(tensor, "TTV", mode=1, seed=1)
        dense = tensor.to_dense().astype(np.float64)
        out = dense_reference("TTV", dense, operands, 1)
        assert np.allclose(out, dense_ttv(dense, operands.vector.astype(np.float64), 1))

    def test_unknown_kernel_returns_none(self, tensor):
        dense = tensor.to_dense().astype(np.float64)
        assert dense_reference("NOPE", dense, None, 0) is None


class TestVerifyCli:
    def test_cli_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_cli_verify_exits_one_on_failure(self, capsys, monkeypatch):
        import repro.bench.verify as verify_module

        failing = VerificationReport([VerificationResult("bad", False, "boom")])
        monkeypatch.setattr(verify_module, "verify_suite", lambda: failing)
        assert main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_verify_names_a_corrupted_kernel(self, capsys, monkeypatch):
        import repro.core.mttkrp as mttkrp_module

        original = mttkrp_module.mttkrp_hicoo
        monkeypatch.setattr(
            mttkrp_module,
            "mttkrp_hicoo",
            lambda *args, **kwargs: original(*args, **kwargs) * 1.5,
        )
        assert main(["verify"]) == 1
        failed = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[FAIL]")
        ]
        assert failed
        assert any("oracle hicoo-MTTKRP" in line for line in failed)
