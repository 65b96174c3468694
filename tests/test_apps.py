"""Tests for the application workloads (power method, CP-ALS)."""

import numpy as np
import pytest

from repro.apps import (
    cp_als,
    orthogonal_decomposition,
    power_iteration,
    random_low_rank_tensor,
    rank1_tensor,
    symmetric_tensor_from_components,
    tensor_apply,
)
from repro.errors import IncompatibleOperandsError
from repro.formats import CooTensor


def orthonormal_columns(size, count, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(size, count)))
    return q[:, :count]


class TestTensorApply:
    def test_matches_dense_contraction(self):
        t = CooTensor.random((8, 8, 8), 60, seed=1)
        v = np.random.default_rng(2).normal(size=8).astype(np.float32)
        result = tensor_apply(t, v)
        expected = np.einsum("ijk,j,k->i", t.to_dense(), v, v)
        assert np.allclose(result, expected, rtol=1e-3, atol=1e-4)

    def test_fourth_order(self):
        t = CooTensor.random((6, 6, 6, 6), 40, seed=3)
        v = np.random.default_rng(4).normal(size=6).astype(np.float32)
        result = tensor_apply(t, v)
        expected = np.einsum("ijkl,j,k,l->i", t.to_dense(), v, v, v)
        assert np.allclose(result, expected, rtol=1e-3, atol=1e-4)


class TestPowerIteration:
    def test_converges_to_a_ground_truth_component(self):
        # Every component of an odeco tensor is an attractor of the
        # power iteration; the start vector decides which one is found.
        q = orthonormal_columns(15, 3, seed=5)
        weights = np.array([4.0, 2.0, 1.0])
        t = symmetric_tensor_from_components(weights, q)
        result = power_iteration(t, seed=6)
        assert result.converged
        component = int(np.argmin(np.abs(weights - result.eigenvalue)))
        assert result.eigenvalue == pytest.approx(
            weights[component], rel=1e-3
        )
        assert abs(result.eigenvector @ q[:, component]) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_rank1_exact(self):
        v = np.zeros(10)
        v[3] = 1.0
        t = rank1_tensor(7.0, v, 3)
        result = power_iteration(t, seed=0)
        assert result.eigenvalue == pytest.approx(7.0, rel=1e-4)

    def test_rejects_non_cubical(self):
        t = CooTensor.random((4, 5, 6), 10, seed=0)
        with pytest.raises(IncompatibleOperandsError):
            power_iteration(t)

    def test_rejects_zero_start(self):
        t = CooTensor.random((4, 4, 4), 10, seed=0)
        with pytest.raises(IncompatibleOperandsError):
            power_iteration(t, start=np.zeros(4))

    def test_zero_tensor_converges_trivially(self):
        t = CooTensor.empty((5, 5, 5))
        result = power_iteration(t, seed=1)
        assert result.converged
        assert result.eigenvalue == 0.0


class TestOrthogonalDecomposition:
    def test_recovers_all_components_in_order(self):
        weights = np.array([5.0, 3.0, 1.5])
        q = orthonormal_columns(20, 3, seed=7)
        t = symmetric_tensor_from_components(weights, q)
        comps = orthogonal_decomposition(t, 3, seed=8)
        recovered = sorted((abs(c.eigenvalue) for c in comps), reverse=True)
        assert np.allclose(recovered, weights, rtol=1e-2)
        for c in comps:
            overlap = max(abs(c.eigenvector @ q[:, j]) for j in range(3))
            assert overlap == pytest.approx(1.0, abs=1e-2)


class TestRandomLowRankTensor:
    def test_exact_rank_construction(self):
        t = random_low_rank_tensor((20, 18, 16), 3, seed=0)
        # Dense rank check: mode-0 unfolding has rank <= 3.
        unfolded = t.to_dense().reshape(20, -1)
        singulars = np.linalg.svd(unfolded, compute_uv=False)
        assert (singulars > 1e-4 * singulars[0]).sum() <= 3

    def test_deterministic(self):
        a = random_low_rank_tensor((10, 10, 10), 2, seed=4)
        b = random_low_rank_tensor((10, 10, 10), 2, seed=4)
        assert a.allclose(b)


class TestCpAls:
    def test_fits_exact_low_rank_tensor(self):
        x = random_low_rank_tensor((25, 20, 15), 3, seed=1)
        result = cp_als(x, 3, max_sweeps=200, tolerance=1e-8, seed=2)
        assert result.final_fit > 0.99
        assert result.rank == 3

    def test_hicoo_path_matches_coo(self):
        x = random_low_rank_tensor((25, 20, 15), 3, seed=3)
        coo = cp_als(x, 3, max_sweeps=30, seed=4)
        hicoo = cp_als(x, 3, max_sweeps=30, seed=4, variant="hicoo", block_size=8)
        assert coo.final_fit == pytest.approx(hicoo.final_fit, abs=1e-6)

    def test_reconstruction_error_small(self):
        x = random_low_rank_tensor((15, 15, 15), 2, seed=5)
        result = cp_als(x, 2, max_sweeps=200, tolerance=1e-9, seed=6)
        err = np.abs(result.reconstruct_dense() - x.to_dense()).max()
        assert err < 1e-3

    def test_fit_trace_monotone_tail(self):
        x = random_low_rank_tensor((20, 20, 20), 3, seed=7)
        result = cp_als(x, 3, max_sweeps=40, seed=8)
        fits = result.fits
        assert fits[-1] >= fits[0]

    def test_fourth_order(self):
        x = random_low_rank_tensor((10, 10, 10, 10), 2, support=4, seed=9)
        result = cp_als(x, 2, max_sweeps=150, tolerance=1e-8, seed=10)
        assert result.final_fit > 0.95

    def test_initial_factors_respected(self):
        x = random_low_rank_tensor((12, 12, 12), 2, seed=11)
        rng = np.random.default_rng(12)
        init = [rng.uniform(0.1, 1.0, size=(12, 2)) for _ in range(3)]
        result = cp_als(x, 2, max_sweeps=5, initial_factors=init)
        assert len(result.fits) <= 5

    def test_rejects_bad_initial_factors(self):
        x = random_low_rank_tensor((12, 12, 12), 2, seed=13)
        bad = [np.ones((5, 2))] * 3
        with pytest.raises(IncompatibleOperandsError):
            cp_als(x, 2, initial_factors=bad)

    @pytest.mark.parametrize("rank", (0, -1))
    def test_rejects_rank_below_one(self, rank):
        x = random_low_rank_tensor((12, 12, 12), 2, seed=13)
        with pytest.raises(ValueError, match="rank must be at least 1"):
            cp_als(x, rank)

    def test_rejects_initial_factors_of_another_rank(self):
        x = random_low_rank_tensor((12, 12, 12), 2, seed=13)
        init = [np.ones((12, 3))] * 3
        with pytest.raises(ValueError, match="factor 0 has 3 columns.*rank is 2"):
            cp_als(x, 2, initial_factors=init)


def _recomputed_gram_als(x, rank, sweeps, seed, variant, block_size):
    """CP-ALS that recomputes every other factor's Gram at each mode.

    The textbook sweep ``cp_als`` must reproduce bit for bit: its stored
    Grams are the same ``f.T @ f`` products, taken once per update.
    """
    from repro.perf.dispatch import mttkrp

    rng = np.random.default_rng(seed)
    factors = [rng.uniform(0.1, 1.0, size=(s, rank)) for s in x.shape]
    f32 = [f.astype(np.float32) for f in factors]
    norm_x = float(np.linalg.norm(x.values.astype(np.float64)))
    ones = np.ones(rank, dtype=np.float64)
    fits = []
    for _ in range(sweeps):
        for mode in range(x.order):
            m_new = mttkrp(
                x, f32, mode, variant=variant, block_size=block_size
            ).astype(np.float64)
            v = np.ones((rank, rank), dtype=np.float64)
            for m, factor in enumerate(factors):
                if m != mode:
                    v *= factor.T @ factor
            factors[mode] = m_new @ np.linalg.pinv(v)
            f32[mode] = factors[mode].astype(np.float32)
        inner = float(np.sum(m_new * factors[-1]))
        v = np.ones((rank, rank), dtype=np.float64)
        for factor in factors:
            v *= factor.T @ factor
        residual_sq = max(norm_x**2 - 2 * inner + float(ones @ v @ ones), 0.0)
        fits.append(1.0 - np.sqrt(residual_sq) / norm_x)
    weights = np.ones(rank, dtype=np.float64)
    for mode, factor in enumerate(factors):
        norms = np.linalg.norm(factor, axis=0)
        norms[norms == 0] = 1.0
        factors[mode] = factor / norms
        weights = weights * norms
    return fits, weights, factors


class TestStoredGrams:
    @pytest.mark.parametrize("variant", (None, "hicoo", "coo_jit"))
    def test_bitwise_equal_to_recomputed_grams(self, variant):
        x = random_low_rank_tensor((30, 25, 20), 4, seed=21)
        result = cp_als(
            x, 4, max_sweeps=6, tolerance=0.0, seed=22, variant=variant,
            block_size=8,
        )
        fits, weights, factors = _recomputed_gram_als(
            x, 4, 6, 22, variant or "coo", 8
        )
        assert np.array_equal(result.fits, fits)
        assert np.array_equal(result.weights, weights)
        for got, want in zip(result.factors, factors):
            assert np.array_equal(got, want)
