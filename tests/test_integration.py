"""Integration tests across subsystems.

These exercise multi-module flows: generator -> format -> kernel ->
machine model -> roofline, the .tns interchange path, and the
application workloads driving the kernels end to end.
"""

import numpy as np
import pytest

from repro.apps import cp_als, random_low_rank_tensor
from repro.bench.harness import BenchmarkHarness
from repro.core import (
    dense_mttkrp,
    make_schedule,
    mttkrp_coo,
    run_algorithm,
    ttv_coo,
)
from repro.datasets import realize
from repro.formats import CooTensor, HicooTensor, to_coo
from repro.generators import kronecker_tensor, powerlaw_tensor
from repro.io import dumps_tns, loads_tns
from repro.machine import predict
from repro.roofline import RooflineModel


class TestGeneratorToKernelFlow:
    def test_kronecker_through_all_kernels(self):
        t = kronecker_tensor((256, 256, 256), 3000, seed=0)
        for name in (
            "COO-TEW-OMP", "COO-TS-OMP", "COO-TTV-OMP",
            "COO-TTM-OMP", "COO-MTTKRP-OMP",
        ):
            result = run_algorithm(name, t, mode=1, seed=1)
            assert result is not None

    def test_powerlaw_hicoo_kernels_match_coo(self):
        t = powerlaw_tensor((2000, 2000, 32), 4000, dense_modes=(2,), seed=1)
        for kernel in ("TTV", "TTM"):
            from repro.core import make_operands

            ops = make_operands(t, kernel, mode=0, seed=2)
            coo_out = run_algorithm(f"COO-{kernel}-OMP", t, ops, mode=0)
            hicoo_out = run_algorithm(f"HiCOO-{kernel}-OMP", t, ops, mode=0)
            a = to_coo(coo_out) if not isinstance(coo_out, np.ndarray) else coo_out
            b = to_coo(hicoo_out) if not isinstance(hicoo_out, np.ndarray) else hicoo_out
            assert np.allclose(a.to_dense(), b.to_dense(), rtol=1e-3, atol=1e-4)

    def test_tns_interchange_preserves_kernel_results(self):
        t = kronecker_tensor((128, 128, 128), 1000, seed=2)
        reloaded = loads_tns(dumps_tns(t), t.shape)
        rng = np.random.default_rng(3)
        v = rng.uniform(size=128).astype(np.float32)
        assert ttv_coo(t, v, 0).allclose(ttv_coo(reloaded, v, 0))


class TestModelRooflineConsistency:
    def test_modeled_streaming_bounded_by_llc_roofline(self):
        # Any modeled kernel stays below the LLC ceiling at its OI.
        t = realize("s1", scale_divisor=4096)
        model = RooflineModel.for_platform("bluesky")
        for name in ("COO-TEW-OMP", "COO-TS-OMP"):
            schedule = make_schedule(name, t)
            est = predict("bluesky", schedule)
            ceiling = model.attainable_gflops(
                schedule.operational_intensity, "ERT-LLC"
            )
            assert est.gflops <= ceiling * 1.05

    def test_harness_matches_direct_prediction(self):
        harness = BenchmarkHarness("dgx1p", scale_divisor=4096)
        r = harness.run_cell("s1", "TS", "COO")
        from repro.datasets import get_dataset

        x = harness.tensor(get_dataset("s1"))
        schedule = make_schedule("COO-TS-GPU", x)
        direct = harness.model.predict(schedule)
        assert r.modeled.seconds == pytest.approx(direct.seconds, rel=1e-9)


class TestDatasetKernelCorrectness:
    @pytest.mark.parametrize("key", ["r11", "s1", "s13"])
    def test_mttkrp_on_registry_tensors(self, key):
        t = realize(key, scale_divisor=16384)
        if t.nnz > 3000 or max(t.shape) > 4000:
            t = CooTensor(
                tuple(min(s, 4000) for s in t.shape),
                np.minimum(t.indices[:, :2000], 3999),
                t.values[:2000],
            ).sum_duplicates()
        rng = np.random.default_rng(4)
        factors = [
            rng.uniform(0.5, 1.5, size=(s, 4)).astype(np.float32)
            for s in t.shape
        ]
        sparse = mttkrp_coo(t, factors, 0)
        hicoo = HicooTensor.from_coo(t, 128)
        from repro.core import mttkrp_hicoo

        blocked = mttkrp_hicoo(hicoo, factors, 0)
        assert np.allclose(sparse, blocked, rtol=1e-3, atol=1e-3)


class TestApplicationWorkloads:
    def test_cpd_on_generated_dataset(self):
        x = random_low_rank_tensor((40, 30, 20), 3, seed=5)
        result = cp_als(x, 3, max_sweeps=150, tolerance=1e-8, seed=6)
        assert result.final_fit > 0.99

    def test_cpd_hicoo_on_powerlaw_tensor_runs(self):
        x = powerlaw_tensor((300, 300, 16), 2000, dense_modes=(2,), seed=7)
        result = cp_als(x, 4, max_sweeps=10, seed=8, variant="hicoo", block_size=16)
        assert 0.0 <= result.final_fit <= 1.0
        assert len(result.fits) <= 10


class TestFullPipeline:
    def test_one_platform_one_dataset_all_cells(self):
        harness = BenchmarkHarness(
            "wingtip", scale_divisor=4096, measure_wallclock=True,
            wallclock_repeats=1,
        )
        results = harness.run_dataset("s4")
        assert len(results) == 10
        for r in results:
            assert r.gflops > 0
            assert r.measured_seconds > 0
            assert r.roofline_gflops > 0
