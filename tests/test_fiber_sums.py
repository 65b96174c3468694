"""The length-split fiber sum shared by TTV and TTM.

``fiber_sums`` must give the bits ``np.add.reduceat`` gives over each
fiber, at every fiber length, magnitude and sign of zero, in any split of
the fibers into chunks.  The TTV/TTM kernels built on it must match the
``reduceat`` bodies they replace and stay bit-identical at every thread
count.
"""

import numpy as np
import pytest

from repro.core.ttm import ttm_coo, ttm_ghicoo_direct
from repro.core.ttv import ttv_coo, ttv_ghicoo_direct
from repro.formats import CooTensor
from repro.perf.parallel import last_parallel_report, parallel_config
from repro.perf.plans import (
    SEQUENTIAL_FIBER_MAX,
    build_fiber_sum_plan,
    fiber_plan,
    ghicoo_fiber_plan,
    ghicoo_for_mode,
)
from repro.perf.scatter import fiber_sums

RANK = 16


def _spread(rng, shape, low=-10, high=10, zeros=0.05):
    """float32 of magnitude 10**low..10**high, both signs, some ±0.0."""
    out = (10.0 ** rng.uniform(low, high, size=shape)).astype(np.float32)
    out *= rng.choice(np.float32([-1.0, 1.0]), size=shape)
    zero = rng.random(shape) < zeros
    out[zero] = rng.choice(np.float32([0.0, -0.0]), size=int(zero.sum()))
    return out


class TestNumpyThreshold:
    def test_reduceat_sums_eight_terms_in_order_and_nine_pairwise(self):
        # Left to right, 1e16 swallows each 1.0; numpy's pairwise sum of
        # the last eight terms of the nine-term segment keeps two of them.
        rest = [1e16, 1.0, 1.0, 1.0, -1e16, 0.0, 0.0, 0.0]
        for length, expected in ((8, 0.0), (9, 2.0)):
            segment = np.array([0.0] + rest[: length - 1])
            assert np.add.reduceat(segment, [0])[0] == expected
            assert np.add.reduceat(segment[:, None], [0], axis=0)[0, 0] == expected
        assert SEQUENTIAL_FIBER_MAX == 8


class TestBitsAgainstReduceat:
    """Fibers of every length 1..300, each one or more times."""

    @staticmethod
    def _case(rng, width, product_dtype):
        lengths = np.concatenate([np.arange(1, 301), rng.integers(1, 12, size=400)])
        rng.shuffle(lengths)
        fptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        nnz = int(fptr[-1])
        perm = rng.permutation(nnz)
        values = _spread(rng, nnz)
        operand = _spread(rng, (50,) + width, low=-5, high=5)
        operand_rows = rng.integers(0, 50, size=nnz).astype(np.int32)
        terms = np.multiply(
            values[perm].reshape((-1,) + (1,) * len(width)),
            operand[operand_rows[perm]],
            dtype=product_dtype,
        ).astype(np.float64)
        expected = np.add.reduceat(terms, fptr[:-1], axis=0)
        plan = build_fiber_sum_plan(fptr, perm)
        operands = (values, operand, operand_rows, product_dtype)
        return plan, len(lengths), operands, expected

    @pytest.mark.parametrize("width", [(), (RANK,)], ids=["ttv", "ttm"])
    @pytest.mark.parametrize("product_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_dtype", [np.float64, np.float32])
    def test_bytes_equal_reduceat(self, rng, width, product_dtype, out_dtype):
        plan, num_fibers, operands, expected = self._case(rng, width, product_dtype)
        out = np.empty((num_fibers,) + width, dtype=out_dtype)
        fiber_sums(out, plan, 0, num_fibers, *operands)
        assert out.tobytes() == expected.astype(out_dtype).tobytes()

    @pytest.mark.parametrize("width", [(), (RANK,)], ids=["ttv", "ttm"])
    def test_any_fiber_split_gives_the_same_bytes(self, rng, width):
        plan, num_fibers, operands, expected = self._case(rng, width, np.float32)
        inner = rng.integers(0, num_fibers, 9)
        cuts = np.unique(np.concatenate([[0, num_fibers], inner]))
        out = np.empty((num_fibers,) + width, dtype=np.float64)
        for u0, u1 in zip(cuts[:-1], cuts[1:]):
            fiber_sums(out[u0:u1], plan, int(u0), int(u1), *operands)
        assert out.tobytes() == expected.tobytes()

    def test_plan_ids_are_int32_and_cover_every_element_once(self, rng):
        lengths = rng.integers(1, 20, size=300)
        fptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        plan = build_fiber_sum_plan(fptr, rng.permutation(int(fptr[-1])))
        for name in (
            "first", "short_fibers", "step_ids", "step_rows", "long_fibers", "long_ids"
        ):
            assert getattr(plan, name).dtype == np.int32, name
        # Long fibers list their first element twice: in first and long_ids.
        ids = np.concatenate([plan.first, plan.step_ids, plan.long_ids])
        every = np.arange(fptr[-1])
        twice = plan.first[plan.long_fibers]
        assert np.array_equal(np.sort(ids), np.sort(np.concatenate([every, twice])))


def _mixed_fibers(seed=3):
    """An order-3 tensor whose fibers in every mode have 1, 2..8 and 9+
    nonzeros, with values spread over 1e-10..1e10 and some ±0.0."""
    rng = np.random.default_rng(seed)
    shape = (40, 40, 40)
    coords = []
    for mode in range(3):
        for length in list(range(1, 13)) * 6 + [20, 33]:
            fixed = rng.integers(0, 40, size=3)
            block = np.repeat(fixed[:, None], length, axis=1)
            block[mode] = rng.choice(40, size=length, replace=False)
            coords.append(block)
    indices = np.unique(np.concatenate(coords, axis=1), axis=1)
    indices = indices[:, rng.permutation(indices.shape[1])]
    return CooTensor(shape, indices, _spread(rng, indices.shape[1]))


def _arrays(out):
    names = ("indices", "bptr", "binds", "einds", "values")
    return [getattr(out, n) for n in names if hasattr(out, n)]


def _operand(kernel, size, seed):
    rng = np.random.default_rng(seed)
    width = (RANK,) if kernel in (ttm_coo, ttm_ghicoo_direct) else ()
    return _spread(rng, (size,) + width, low=-5, high=5, zeros=0.0)


KERNELS = [
    (ttv_coo, "TTV-COO"),
    (ttv_ghicoo_direct, "TTV-HiCOO"),
    (ttm_coo, "TTM-COO"),
    (ttm_ghicoo_direct, "TTM-HiCOO"),
]


def _reduceat_body(kernel, x, operand, mode):
    """Reference: one ``np.add.reduceat`` over the kernel's products in fiber order."""
    if kernel in (ttv_coo, ttm_coo):
        ordered, fptr = x.fiber_partition(mode)
        values, rows, starts = ordered.values, ordered.indices[mode], fptr[:-1]
        dtype = np.float32
    else:
        plan = ghicoo_fiber_plan(x)
        values, rows = x.values[plan.perm], x.cinds[0][plan.perm]
        starts, dtype = plan.fiber_starts, np.float64
    scale = values.reshape((-1,) + (1,) * (operand.ndim - 1))
    terms = np.multiply(scale, operand[rows], dtype=dtype).astype(np.float64)
    return np.add.reduceat(terms, starts, axis=0).astype(np.float32)


class TestKernels:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_input_mixes_every_fiber_length_class(self, mode):
        lengths = np.diff(fiber_plan(_mixed_fibers(), mode).fptr)
        assert (lengths == 1).any()
        assert ((lengths > 1) & (lengths <= SEQUENTIAL_FIBER_MAX)).any()
        assert (lengths > SEQUENTIAL_FIBER_MAX).any()

    @pytest.mark.parametrize("kernel, label", KERNELS)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_bytes_equal_the_reduceat_body(self, kernel, label, mode):
        x = _mixed_fibers()
        if "HiCOO" in label:
            x = ghicoo_for_mode(x, mode, 8)
        operand = _operand(kernel, x.shape[mode], mode)
        out = kernel(x, operand, mode)
        expected = _reduceat_body(kernel, x, operand, mode)
        assert out.values.tobytes() == expected.tobytes()


class TestThreadCountBits:
    @pytest.mark.parametrize("kernel, label", KERNELS)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_bitwise_equal_at_every_thread_count(self, kernel, label, mode):
        x = _mixed_fibers()
        if "HiCOO" in label:
            x = ghicoo_for_mode(x, mode, 8)
        operand = _operand(kernel, x.shape[mode], mode)
        outs = []
        for threads in (1, 2, 4):
            with parallel_config(num_threads=threads, min_parallel_nnz=0):
                outs.append(kernel(x, operand, mode))
                if threads > 1:
                    report = last_parallel_report()
                    assert report.kernel == label
                    assert report.num_chunks > 1
        for out in outs[1:]:
            for got, want in zip(_arrays(out), _arrays(outs[0])):
                assert got.tobytes() == want.tobytes()


class TestOutputsOwnTheirArrays:
    @pytest.mark.parametrize("kernel, label", KERNELS)
    def test_mutating_one_output_leaves_the_next_unchanged(self, kernel, label):
        x = _mixed_fibers()
        if "HiCOO" in label:
            x = ghicoo_for_mode(x, 1, 8)
        operand = _operand(kernel, x.shape[1], 1)
        first = kernel(x, operand, 1)
        kept = [a.copy() for a in _arrays(first)]
        for array in _arrays(first):
            array[...] = 0
        for got, want in zip(_arrays(kernel(x, operand, 1)), kept):
            assert np.array_equal(got, want)
