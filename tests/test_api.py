"""Tests of the public API surface and error hierarchy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import (
    DatasetError,
    FormatParameterError,
    IncompatibleOperandsError,
    ModeError,
    PastaError,
    PlatformError,
    TensorShapeError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            TensorShapeError,
            IncompatibleOperandsError,
            FormatParameterError,
            ModeError,
            DatasetError,
            PlatformError,
        ],
    )
    def test_all_derive_from_pasta_error(self, exc):
        assert issubclass(exc, PastaError)
        with pytest.raises(PastaError):
            raise exc("boom")

    def test_one_catch_covers_kernel_failures(self):
        t = repro.CooTensor.random((4, 4), 4, seed=0)
        with pytest.raises(PastaError):
            repro.ttv_coo(t, np.ones(99, dtype=np.float32), 0)
        with pytest.raises(PastaError):
            repro.get_platform("cray")
        with pytest.raises(PastaError):
            repro.realize("r77")


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_helpers(self):
        v = repro.random_vector(10, seed=1)
        assert v.shape == (10,) and v.dtype == np.float32
        m = repro.random_matrix(4, 3, seed=2)
        assert m.shape == (4, 3)
        default_cols = repro.random_matrix(4)
        assert default_cols.shape == (4, repro.DEFAULT_RANK)

    def test_quickstart_docstring_flow(self):
        # The exact flow advertised in the package docstring must work.
        x = repro.kronecker_tensor((256, 256, 256), 2000, seed=7)
        v = repro.random_vector(x.shape[2], seed=1)
        y = repro.ttv_coo(x, v, mode=2)
        assert y.order == 2
        h = repro.HicooTensor.from_coo(x)
        est = repro.predict(
            "dgx1v", repro.make_schedule("HiCOO-MTTKRP-GPU", x, hicoo=h)
        )
        assert est.gflops > 0

    def test_subpackages_importable(self):
        for name in (
            "formats", "core", "machine", "platforms", "roofline",
            "generators", "datasets", "io", "bench", "apps",
        ):
            assert hasattr(repro, name)

    def test_bench_and_serving_load_on_first_use(self):
        # A fresh interpreter: this process has long since imported both.
        script = (
            "import sys, repro\n"
            "lazy = ('repro.bench', 'repro.serving')\n"
            "assert not any(m in sys.modules for m in lazy), sys.modules.keys()\n"
            "assert repro.serving.__name__ == 'repro.serving'\n"
            "assert repro.BenchmarkHarness.__name__ == 'BenchmarkHarness'\n"
            "namespace = {}\n"
            "exec('from repro import *', namespace)\n"
            "assert set(repro.__all__) <= set(namespace)\n"
            "assert namespace['run_experiment'] is repro.bench.run_experiment\n"
        )
        src = Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018


class TestExecutionEstimate:
    def test_gflops_zero_time(self):
        from repro.machine.result import ExecutionEstimate

        est = ExecutionEstimate("P", "A", 0.0, 100)
        assert est.gflops == 0.0

    def test_breakdown_default(self):
        from repro.machine.result import ExecutionEstimate

        est = ExecutionEstimate("P", "A", 1.0, 10**9)
        assert est.breakdown == {}
        assert est.gflops == pytest.approx(1.0)
