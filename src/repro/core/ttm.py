"""Tensor-times-matrix (TTM, the n-mode product) in a chosen mode.

Paper Section II-D / III-B: ``Y = X ×_n U`` with ``U ∈ R^{I_n × R}``
replaces mode ``n``'s extent by ``R``.  By the sparse-dense property the
product mode of the output is *dense*, so COO-TTM emits an sCOO tensor and
HiCOO-TTM emits an sHiCOO tensor, both pre-allocated with one dense row of
width ``R`` per mode-``n`` fiber of ``X``.  The matrix is stored with
modes transposed relative to Kolda & Bader (rows indexed by ``i_n``) for
row-major efficiency, as the paper's footnote 2 explains.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import IncompatibleOperandsError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.ghicoo import GHicooTensor
from ..formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor
from ..formats.modes import check_mode
from ..formats.scoo import SemiSparseCooTensor
from ..formats.shicoo import SHicooTensor
from ..perf.parallel import kernel_chunk_plan, run_chunks
from ..perf.plans import (
    fiber_fptr,
    fiber_plan,
    ghicoo_fiber_plan,
    ghicoo_for_mode,
)
from ..perf.scatter import fiber_sums
from .analysis import DEFAULT_RANK
from .schedule import GRAIN_FIBER, KernelSchedule


def _check_matrix(mode_size: int, matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=VALUE_DTYPE)
    if matrix.ndim != 2:
        raise IncompatibleOperandsError(f"U must be a matrix, got ndim={matrix.ndim}")
    if matrix.shape[0] != mode_size:
        raise IncompatibleOperandsError(
            f"matrix has {matrix.shape[0]} rows but mode size is {mode_size}"
        )
    return matrix


def ttm_coo(x: CooTensor, matrix: np.ndarray, mode: int) -> SemiSparseCooTensor:
    """COO-TTM: ``Y = X ×_mode U`` with a semi-sparse (sCOO) output.

    Pre-processing groups nonzeros into mode-``mode`` fibers and
    pre-allocates one dense output row per fiber; the kernel accumulates
    ``value * U[i_n, :]`` into its fiber's row.
    """
    mode = x.check_mode(mode)
    matrix = _check_matrix(x.shape[mode], matrix)
    rank = matrix.shape[1]
    plan = fiber_plan(x, mode)
    out_shape = list(x.shape)
    out_shape[mode] = rank
    chunks = kernel_chunk_plan(
        x, grain="fiber", key=("ttm", mode), element_offsets=plan.fptr
    )
    # Fiber-parallel: each chunk owns whole fibers, hence a disjoint
    # slice of output rows, and sums straight into it; serial is the
    # one-chunk run.  Products are float32, their fiber sums float64.
    rows = np.empty((plan.num_fibers, rank), dtype=VALUE_DTYPE)
    reduction = plan.sum_plan()

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        fiber_sums(
            rows[u0:u1], reduction, u0, u1, x.values, matrix, x.indices[mode],
            VALUE_DTYPE,
        )

    run_chunks(
        chunks,
        task,
        units=plan.num_fibers,
        elements=x.nnz,
        kernel="TTM-COO",
        grain="fiber",
        outputs=((rows, "unit"),),
    )
    return SemiSparseCooTensor(
        out_shape, [mode], plan.fiber_indices().copy(), rows
    )


def ttm_ghicoo_direct(
    ghicoo: GHicooTensor, matrix: np.ndarray, mode: int
) -> SHicooTensor:
    """TTM directly on gHiCOO arrays, never materializing COO.

    Mirrors :func:`repro.core.ttv.ttv_ghicoo_direct`: with the product
    mode uncompressed, every fiber lies inside one block, so fibers are
    grouped by an intra-block sort, each fiber accumulates
    ``value * U[i_n, :]`` rows without cross-block races, and the
    semi-sparse output's block structure is inherited from the input's
    ``binds`` — emitted straight into sHiCOO.
    """
    order = ghicoo.order
    mode = check_mode(order, mode, exc=IncompatibleOperandsError)
    if tuple(ghicoo.uncompressed_modes) != (mode,):
        raise IncompatibleOperandsError(
            f"direct gHiCOO TTM needs exactly the product mode {mode} "
            f"uncompressed, got uncompressed={ghicoo.uncompressed_modes}"
        )
    matrix = _check_matrix(ghicoo.shape[mode], matrix)
    rank = matrix.shape[1]
    out_shape = list(ghicoo.shape)
    out_shape[mode] = rank
    nnz = ghicoo.nnz
    if nnz == 0:
        from ..formats.coo import CooTensor

        return SHicooTensor.from_coo(
            CooTensor.empty(out_shape), [mode], ghicoo.block_size
        )
    # The fiber sort and output block structure come from the same cached
    # plan the direct TTV kernel uses; only the value/matrix work is
    # per-call.
    plan = ghicoo_fiber_plan(ghicoo)
    chunks = kernel_chunk_plan(
        ghicoo,
        grain="fiber",
        key="ghicoo_ttm",
        element_offsets=plan.fiber_offsets(),
    )
    rows = np.empty((plan.num_fibers, rank), dtype=VALUE_DTYPE)
    reduction = plan.sum_plan()

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        fiber_sums(
            rows[u0:u1], reduction, u0, u1, ghicoo.values, matrix, ghicoo.cinds[0],
            np.float64,
        )

    run_chunks(
        chunks,
        task,
        units=plan.num_fibers,
        elements=nnz,
        kernel="TTM-HiCOO",
        grain="fiber",
        outputs=((rows, "unit"),),
    )
    return SHicooTensor(
        out_shape,
        ghicoo.block_size,
        [mode],
        plan.out_bptr.copy(),
        plan.out_binds.copy(),
        plan.fiber_einds.copy(),
        rows,
        validate=False,
    )


def ttm_hicoo(
    x: Union[CooTensor, HicooTensor, GHicooTensor],
    matrix: np.ndarray,
    mode: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SHicooTensor:
    """HiCOO-TTM: gHiCOO input (product mode uncompressed), sHiCOO output.

    Value computation matches COO-TTM; the input leaves the product mode
    uncompressed so blocking never splits a fiber, and the semi-sparse
    output is stored with its sparse modes block-compressed.  The kernel
    itself runs directly on the gHiCOO arrays (:func:`ttm_ghicoo_direct`).
    """
    if isinstance(x, GHicooTensor):
        block_size = x.block_size
        if -x.order <= mode < x.order and tuple(x.uncompressed_modes) == (
            mode % x.order,
        ):
            return ttm_ghicoo_direct(x, matrix, mode)
    elif isinstance(x, HicooTensor):
        block_size = x.block_size
    mode = x.check_mode(mode)
    ghicoo = ghicoo_for_mode(x, mode, block_size)
    return ttm_ghicoo_direct(ghicoo, matrix, mode)


def schedule_ttm(
    x: CooTensor,
    mode: int,
    rank: int = DEFAULT_RANK,
    tensor_format: str = "COO",
) -> KernelSchedule:
    """Machine schedule of TTM (Table I row four).

    Fiber-parallel like TTV.  Traffic per Table I: ``4MR`` irregular
    matrix-row gathers, ``4 M_F R`` streamed output rows, ``8M`` streamed
    input values/indices, and ``8 M_F`` output indices (twice for COO's
    extra index copy, once for HiCOO).  The dense matrix (``4 I_n R``
    bytes) is the reusable operand that can live in the LLC.
    """
    mode = x.check_mode(mode)
    fiber_lengths = np.diff(fiber_fptr(x, mode))
    nnz = x.nnz
    num_fibers = len(fiber_lengths)
    matrix_bytes = 4 * x.shape[mode] * rank
    if tensor_format.upper() == "HICOO":
        streamed = 4 * num_fibers * rank + 8 * nnz + 8 * num_fibers
    else:
        streamed = 4 * num_fibers * rank + 8 * nnz + 16 * num_fibers
    return KernelSchedule(
        kernel="TTM",
        tensor_format=tensor_format,
        flops=2 * nnz * rank,
        streamed_bytes=streamed,
        irregular_bytes=4 * nnz * rank,
        work_units=fiber_lengths,
        parallel_grain=GRAIN_FIBER,
        working_set_bytes=streamed + matrix_bytes,
        reuse_bytes=max(4 * nnz * rank - matrix_bytes, 0),
        writeallocate_bytes=4 * num_fibers * rank,
        irregular_chunk_bytes=4 * rank,
        random_operand_bytes=matrix_bytes,
        notes={
            "num_fibers": float(num_fibers),
            "rank": float(rank),
            "matrix_bytes": float(matrix_bytes),
        },
    )
