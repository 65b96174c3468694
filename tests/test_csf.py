"""Unit tests for the CSF format and its kernels."""

import itertools

import numpy as np
import pytest

from repro.core import mttkrp_coo, mttkrp_csf, schedule_mttkrp_csf, ttv_coo, ttv_csf
from repro.errors import ModeError, TensorShapeError
from repro.formats import CooTensor, CsfTensor, csf_for_mode, csf_storage_bytes


class TestConstruction:
    @pytest.mark.parametrize("mode_order", list(itertools.permutations(range(3))))
    def test_roundtrip_every_mode_order(self, tensor3, mode_order):
        tree = CsfTensor.from_coo(tensor3, mode_order)
        assert tree.to_coo().allclose(tensor3)
        assert tree.mode_order == mode_order

    def test_roundtrip_fourth_order(self, tensor4):
        tree = CsfTensor.from_coo(tensor4, [2, 0, 3, 1])
        assert tree.to_coo().allclose(tensor4)

    def test_level_sizes_shrink_upward(self, tensor3):
        tree = CsfTensor.from_coo(tensor3)
        nodes = tree.nodes_per_level()
        assert nodes[-1] == tensor3.nnz
        assert all(a <= b for a, b in zip(nodes, nodes[1:]))

    def test_root_ids_distinct(self, tensor3):
        tree = CsfTensor.from_coo(tensor3)
        assert len(np.unique(tree.fids[0])) == tree.fids[0].shape[0]

    def test_leaf_counts_sum_to_nnz(self, tensor3):
        tree = csf_for_mode(tensor3, 1)
        counts = tree.leaf_counts_per_root()
        assert counts.sum() == tensor3.nnz
        assert counts.shape == (tree.fids[0].shape[0],)

    def test_duplicates_combined(self):
        indices = np.array([[0, 0], [1, 1]])
        t = CooTensor((2, 2), indices, np.array([1.0, 2.0], dtype=np.float32))
        tree = CsfTensor.from_coo(t)
        assert tree.nnz == 1
        assert tree.values[0] == pytest.approx(3.0)

    def test_rejects_non_permutation(self, tensor3):
        with pytest.raises(ModeError):
            CsfTensor.from_coo(tensor3, [0, 0, 1])

    def test_csf_for_mode_roots_correctly(self, tensor3):
        for mode in range(3):
            tree = csf_for_mode(tensor3, mode)
            assert tree.root_mode == mode

    def test_storage_matches_closed_form(self, tensor3):
        tree = CsfTensor.from_coo(tensor3)
        assert tree.storage_bytes() == csf_storage_bytes(
            tree.order, tree.nnz, tree.nodes_per_level()
        )

    def test_csf_compresses_vs_coo_on_long_fibers(self):
        dense = np.ones((8, 8, 64), dtype=np.float32)
        t = CooTensor.from_dense(dense)
        tree = CsfTensor.from_coo(t)
        assert tree.storage_bytes() < t.storage_bytes()

    def test_validation_rejects_bad_fptr(self, tensor3):
        tree = CsfTensor.from_coo(tensor3)
        bad_fptr = [p.copy() for p in tree.fptr]
        bad_fptr[0][-1] += 1
        with pytest.raises(TensorShapeError):
            CsfTensor(tree.shape, tree.mode_order, tree.fids, bad_fptr, tree.values)


class TestCsfMttkrp:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_coo_third_order(self, tensor3, factors3, mode):
        a = mttkrp_coo(tensor3, factors3, mode)
        b = mttkrp_csf(tensor3, factors3, mode)
        assert np.allclose(a, b, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_coo_fourth_order(self, tensor4, rng, mode):
        factors = [
            rng.uniform(0.5, 1.5, size=(s, 4)).astype(np.float32)
            for s in tensor4.shape
        ]
        a = mttkrp_coo(tensor4, factors, mode)
        b = mttkrp_csf(tensor4, factors, mode)
        assert np.allclose(a, b, rtol=1e-3, atol=1e-3)

    def test_accepts_prebuilt_tree(self, tensor3, factors3):
        tree = csf_for_mode(tensor3, 1)
        a = mttkrp_csf(tree, factors3, 1)
        b = mttkrp_coo(tensor3, factors3, 1)
        assert np.allclose(a, b, rtol=1e-3, atol=1e-3)

    def test_rejects_misrooted_tree(self, tensor3, factors3):
        tree = csf_for_mode(tensor3, 0)
        with pytest.raises(ModeError):
            mttkrp_csf(tree, factors3, 2)

    def test_second_order_is_spmm(self):
        t = CooTensor.random((20, 15), 60, seed=3)
        rng = np.random.default_rng(4)
        factors = [
            rng.uniform(0.5, 1.5, size=(s, 5)).astype(np.float32)
            for s in t.shape
        ]
        out = mttkrp_csf(t, factors, 0)
        expected = t.to_dense() @ factors[1]
        assert np.allclose(out, expected, rtol=1e-3, atol=1e-4)


class TestCsfTtv:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_coo(self, tensor3, rng, mode):
        v = rng.uniform(0.5, 1.5, size=tensor3.shape[mode]).astype(np.float32)
        a = ttv_coo(tensor3, v, mode)
        b = ttv_csf(tensor3, v, mode)
        assert b.allclose(a)

    def test_fourth_order(self, tensor4, rng):
        for mode in range(4):
            v = rng.uniform(0.5, 1.5, size=tensor4.shape[mode]).astype(np.float32)
            assert ttv_csf(tensor4, v, mode).allclose(ttv_coo(tensor4, v, mode))

    def test_rejects_misplaced_leaf(self, tensor3, rng):
        tree = csf_for_mode(tensor3, 0)  # mode 0 at the ROOT
        v = rng.uniform(size=tensor3.shape[0]).astype(np.float32)
        with pytest.raises(ModeError):
            ttv_csf(tree, v, 0)


class TestCsfSchedule:
    def test_no_atomics(self, tensor3):
        s = schedule_mttkrp_csf(tensor3, 0, 16)
        assert s.atomic_updates == 0
        assert s.parallel_grain == "fiber"

    def test_fewer_flops_than_coo_on_long_fibers(self):
        from repro.core import schedule_mttkrp_coo

        dense = np.ones((16, 16, 64), dtype=np.float32)
        t = CooTensor.from_dense(dense)
        csf = schedule_mttkrp_csf(t, 0, 16)
        coo = schedule_mttkrp_coo(t, 0, 16)
        assert csf.flops < coo.flops
        assert csf.irregular_bytes < coo.irregular_bytes

    def test_work_units_are_root_subtrees(self, tensor3):
        s = schedule_mttkrp_csf(tensor3, 2, 16)
        assert s.work_units.sum() == tensor3.nnz

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize("cold", [True, False])
    def test_counts_match_built_tree(self, order, duplicates, cold):
        # A COO input is scheduled from counts; a built tree reports its
        # own.  The two must agree field for field, whether the counts
        # build the leaf fiber plan (cold) or reuse a cached one (warm).
        from repro.perf import fresh_cache

        rng = np.random.default_rng(order)
        t = CooTensor.random((9, 7, 6, 5)[:order], 40, rng=rng)
        if duplicates:
            repeat = rng.integers(0, t.nnz, size=15)
            t = CooTensor(
                t.shape,
                np.concatenate([t.indices, t.indices[:, repeat]], axis=1),
                np.concatenate([t.values, t.values[repeat]]),
            )
        for mode in range(order):
            with fresh_cache():
                if not cold:
                    schedule_mttkrp_csf(t, mode, 8)
                counted = schedule_mttkrp_csf(t, mode, 8)
            built = schedule_mttkrp_csf(csf_for_mode(t, mode), mode, 8)
            for name in (
                "flops", "streamed_bytes", "irregular_bytes", "atomic_updates",
                "working_set_bytes", "random_operand_bytes", "notes",
            ):
                assert getattr(counted, name) == getattr(built, name), name
            np.testing.assert_array_equal(counted.work_units, built.work_units)
            for workers in (2, 3, 8):
                assert counted.load_imbalance(workers) == built.load_imbalance(
                    workers
                )
