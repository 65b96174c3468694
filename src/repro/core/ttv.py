"""Tensor-times-vector (TTV) product in a chosen mode.

Paper Section II-C / III-B/III-D: ``Y = X ×_n v`` contracts mode ``n`` of a
sparse tensor with a dense vector, producing an order-``(N-1)`` sparse
tensor with one nonzero per mode-``n`` fiber of ``X`` (the sparse-dense
property of Li et al.).  The pre-processing stage groups nonzeros into
fibers and pre-allocates the output, exactly as Algorithm 1's lines 1-2;
the value computation then reduces each fiber.

The HiCOO variant represents the input in gHiCOO with the product mode
left *uncompressed*, which lets the kernel read product-mode coordinates
directly and keeps fibers intact across block boundaries (Section III-D1).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import IncompatibleOperandsError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.ghicoo import GHicooTensor
from ..formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor
from ..formats.modes import check_mode, normalize_mode
from ..perf.parallel import kernel_chunk_plan, run_chunks
from ..perf.plans import (
    fiber_fptr,
    fiber_plan,
    ghicoo_fiber_plan,
    ghicoo_for_mode,
)
from ..perf.scatter import fiber_sums
from .schedule import GRAIN_FIBER, KernelSchedule


def _check_vector(x_shape_mode: int, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=VALUE_DTYPE)
    if v.ndim != 1:
        raise IncompatibleOperandsError(f"v must be a vector, got ndim={v.ndim}")
    if v.shape[0] != x_shape_mode:
        raise IncompatibleOperandsError(
            f"vector length {v.shape[0]} does not match mode size {x_shape_mode}"
        )
    return v


def ttv_coo(x: CooTensor, v: np.ndarray, mode: int) -> CooTensor:
    """COO-TTV (Algorithm 1): ``Y = X ×_mode v`` with a COO output.

    The output has one nonzero per mode-``mode`` fiber of ``X`` and drops
    that mode from the shape.
    """
    mode = x.check_mode(mode)
    v = _check_vector(x.shape[mode], v)
    plan = fiber_plan(x, mode)
    chunks = kernel_chunk_plan(
        x, grain="fiber", key=("ttv", mode), element_offsets=plan.fptr
    )
    # Fibers are the units, so every chunk owns a disjoint run of output
    # nonzeros and sums each of its fibers in an order fixed by the fiber
    # (float64 accumulation); serial is the one-chunk run.
    out_shape = tuple(x.shape[m] for m in plan.other_modes)
    sums = np.empty(plan.num_fibers, dtype=VALUE_DTYPE)
    reduction = plan.sum_plan()

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        fiber_sums(
            sums[u0:u1], reduction, u0, u1, x.values, v, x.indices[mode], VALUE_DTYPE
        )

    run_chunks(
        chunks,
        task,
        units=plan.num_fibers,
        elements=x.nnz,
        kernel="TTV-COO",
        grain="fiber",
        outputs=((sums, "unit"),),
    )
    return CooTensor(
        out_shape,
        plan.fiber_indices().copy(),
        sums,
        validate=False,
    )


def ttv_hicoo(
    x: Union[CooTensor, HicooTensor, GHicooTensor],
    v: np.ndarray,
    mode: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> HicooTensor:
    """HiCOO-TTV: gHiCOO input (product mode uncompressed), HiCOO output.

    The value computation is identical to COO-TTV (paper: "the same
    computation will be implemented ... as in their COO counterparts");
    only the storage of the input and the pre-allocated output differ.
    The kernel itself runs directly on the gHiCOO arrays
    (:func:`ttv_ghicoo_direct`).
    """
    source: Union[CooTensor, HicooTensor, GHicooTensor] = x
    if isinstance(x, GHicooTensor):
        block_size = x.block_size
        mode = normalize_mode(x.order, mode)
        if tuple(x.uncompressed_modes) == (mode % x.order,):
            return ttv_ghicoo_direct(x, v, mode)
    elif isinstance(x, HicooTensor):
        block_size = x.block_size
    mode = source.check_mode(mode)
    # The gHiCOO representation the kernel consumes: compress all modes
    # except the product mode.  The rebuild is memoized per (mode, block
    # size) on the source tensor, so repeated TTVs pay it once.
    ghicoo = ghicoo_for_mode(source, mode, block_size)
    return ttv_ghicoo_direct(ghicoo, v, mode)


def ttv_ghicoo_direct(
    ghicoo: GHicooTensor, v: np.ndarray, mode: int
) -> HicooTensor:
    """TTV directly on gHiCOO arrays, never materializing COO.

    Exploits the representation's design (paper Section III-D1): with the
    product mode *uncompressed*, every mode-``mode`` fiber lies entirely
    inside one block — fixing the other modes fixes the block — so the
    kernel can (a) group fibers by sorting only within the blocked
    order, (b) reduce each fiber with no data race between blocks, and
    (c) emit the output's HiCOO block structure for free, reusing the
    input's ``binds``.
    """
    order = ghicoo.order
    mode = check_mode(order, mode, exc=IncompatibleOperandsError)
    if tuple(ghicoo.uncompressed_modes) != (mode,):
        raise IncompatibleOperandsError(
            f"direct gHiCOO TTV needs exactly the product mode {mode} "
            f"uncompressed, got uncompressed={ghicoo.uncompressed_modes}"
        )
    v = _check_vector(ghicoo.shape[mode], v)
    nnz = ghicoo.nnz
    out_shape = tuple(
        s for m, s in enumerate(ghicoo.shape) if m != mode
    )
    if nnz == 0:
        empty = CooTensor.empty(out_shape)
        return HicooTensor.from_coo(empty, ghicoo.block_size)
    # Sort nonzeros by (block, element indices of the compressed modes):
    # fibers become contiguous, and blocks stay contiguous.  The sort,
    # fiber boundaries, fiber sum plan and output block structure are all
    # index-derived, so they live in a (cached) plan; only the products
    # and their fiber sums run per call.
    plan = ghicoo_fiber_plan(ghicoo)
    chunks = kernel_chunk_plan(
        ghicoo,
        grain="fiber",
        key="ghicoo_ttv",
        element_offsets=plan.fiber_offsets(),
    )
    sums = np.empty(plan.num_fibers, dtype=VALUE_DTYPE)
    reduction = plan.sum_plan()

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        fiber_sums(
            sums[u0:u1], reduction, u0, u1, ghicoo.values, v, ghicoo.cinds[0],
            np.float64,
        )

    run_chunks(
        chunks,
        task,
        units=plan.num_fibers,
        elements=nnz,
        kernel="TTV-HiCOO",
        grain="fiber",
        outputs=((sums, "unit"),),
    )
    return HicooTensor(
        out_shape,
        ghicoo.block_size,
        plan.out_bptr.copy(),
        plan.out_binds.copy(),
        plan.fiber_einds.copy(),
        sums,
        validate=False,
    )


def schedule_ttv(
    x: CooTensor, mode: int, tensor_format: str = "COO"
) -> KernelSchedule:
    """Machine schedule of TTV (Table I row three).

    Parallelized over fibers; ``work_units`` are the actual fiber lengths,
    whose skew produces the load imbalance the paper flags for
    COO-TTV-OMP/GPU.  Traffic: ``8M`` streamed input (values plus
    product-mode indices), ``4M`` irregular vector gathers, and ``12 M_F``
    streamed output entries.
    """
    mode = x.check_mode(mode)
    fiber_lengths = np.diff(fiber_fptr(x, mode))
    nnz = x.nnz
    num_fibers = len(fiber_lengths)
    vector_bytes = 4 * x.shape[mode]
    return KernelSchedule(
        kernel="TTV",
        tensor_format=tensor_format,
        flops=2 * nnz,
        streamed_bytes=8 * nnz + 12 * num_fibers,
        irregular_bytes=4 * nnz,
        work_units=fiber_lengths,
        parallel_grain=GRAIN_FIBER,
        working_set_bytes=8 * nnz + 12 * num_fibers + vector_bytes,
        reuse_bytes=max(4 * nnz - vector_bytes, 0),
        writeallocate_bytes=12 * num_fibers,
        irregular_chunk_bytes=4,
        random_operand_bytes=vector_bytes,
        notes={"num_fibers": float(num_fibers), "vector_bytes": float(vector_bytes)},
    )
