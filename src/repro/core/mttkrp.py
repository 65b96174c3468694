"""Matricized tensor times Khatri-Rao product (MTTKRP).

Paper Section II-E / III-B/III-D: the workhorse of CPD.  For mode ``n``
and factor matrices ``U^(1..N)``, each nonzero ``x`` at coordinates
``(i_1, ..., i_N)`` scales the elementwise product of the *other* modes'
factor rows and accumulates it into row ``i_n`` of the output:

    out[i_n, :] += value * U^(1)[i_1, :] ∘ ... ∘ U^(N)[i_N, :]   (mode n skipped)

The Khatri-Rao product is never materialized — it is fused into the
sparse traversal, as the paper prescribes.  COO-MTTKRP parallelizes over
nonzeros with atomic row updates; HiCOO-MTTKRP (Algorithm 3) parallelizes
over tensor blocks, reusing a window of ``B`` factor rows per block.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..errors import IncompatibleOperandsError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor
from ..formats.modes import check_mode
from ..perf.parallel import kernel_chunk_plan, run_chunks
from ..perf.plans import ModeSortPlan, expanded_indices, hicoo_for, mode_sort_plan
from ..perf.scatter import scatter_cols_segmented
from .schedule import (
    GRAIN_BLOCK,
    GRAIN_NONZERO,
    KernelSchedule,
    estimate_conflict_fraction,
    uniform_work_units,
)


def check_factors(
    shape: Sequence[int], factors: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Validate one factor matrix per mode, all with a common rank."""
    if len(factors) != len(shape):
        raise IncompatibleOperandsError(
            f"need {len(shape)} factor matrices, got {len(factors)}"
        )
    checked = []
    rank = None
    for mode, (size, factor) in enumerate(zip(shape, factors)):
        factor = np.asarray(factor, dtype=VALUE_DTYPE)
        if factor.ndim != 2:
            raise IncompatibleOperandsError(f"factor {mode} must be a matrix")
        if factor.shape[0] != size:
            raise IncompatibleOperandsError(
                f"factor {mode} has {factor.shape[0]} rows, mode size is {size}"
            )
        if rank is None:
            rank = factor.shape[1]
        elif factor.shape[1] != rank:
            raise IncompatibleOperandsError(
                f"factor {mode} has rank {factor.shape[1]}, expected {rank}"
            )
        checked.append(factor)
    return checked


def _transposed_factors(
    factors: Sequence[np.ndarray], mode: int
) -> List[np.ndarray]:
    """Each factor as ``(rank, I_m)``, the layout the gathers read.

    The factors the Khatri-Rao product gathers from become contiguous
    copies, made once per MTTKRP call: ``np.take`` along axis 1 of a
    transposed *view* would first copy the whole factor on every call.
    The output mode's factor is never gathered, so it stays a view.
    """
    return [
        factor.T if m == mode else np.ascontiguousarray(factor.T)
        for m, factor in enumerate(factors)
    ]


def _khatri_rao_cols_sorted(
    sorted_indices: np.ndarray,
    sorted_values: np.ndarray,
    factors_t: Sequence[np.ndarray],
    mode: int,
) -> np.ndarray:
    """Khatri-Rao products in plan sort order, as ``(rank, nnz)`` columns.

    ``factors_t`` are the :func:`_transposed_factors` of the call.  The
    segmented scatter accumulates in float64 anyway, so the products
    stay float32 here — the first factor gather doubles as the
    accumulator.  The transposed layout makes each reduceat segment
    contiguous.
    """
    cols = None
    for m, factor_t in enumerate(factors_t):
        if m == mode:
            continue
        gathered = np.take(factor_t, sorted_indices[m], axis=1)
        if cols is None:
            cols = gathered
        else:
            cols *= gathered
    if cols is None:  # order-1 tensor: no other factors
        rank = factors_t[0].shape[0]
        return np.broadcast_to(
            sorted_values, (rank, sorted_values.shape[0])
        ).copy()
    cols *= sorted_values
    return cols


def _mttkrp_segmented(
    owner: object,
    plan: ModeSortPlan,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    num_rows: int,
    kernel_label: str,
) -> np.ndarray:
    """Segmented MTTKRP over a mode-sort plan, serial or partitioned.

    The units are *output segments* — contiguous runs of sorted nonzeros
    sharing an output row — so each chunk writes a disjoint set of
    output rows and reduces every segment over the same elements in the
    same order.  Serial execution is the one-chunk run of the same task,
    so results are bit-identical at every thread count (no atomics;
    float64 accumulation), and chunked execution keeps the
    ``(rank, chunk)`` Khatri-Rao temporaries cache-resident instead of
    making several full-memory passes over a ``(rank, nnz)`` array.
    """
    sorted_values = plan.sorted_values(values)
    chunks = kernel_chunk_plan(
        owner,
        grain="segment",
        key=plan.mode,
        element_offsets=plan.segment_offsets(),
    )
    rank = factors[0].shape[1]
    out = np.zeros((num_rows, rank), dtype=np.float64)
    factors_t = _transposed_factors(factors, mode)
    sorted_indices = plan.sorted_indices
    starts = plan.segment_starts
    targets = plan.unique_targets

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        cols = _khatri_rao_cols_sorted(
            sorted_indices[:, e0:e1], sorted_values[e0:e1], factors_t, mode
        )
        scatter_cols_segmented(out, targets[u0:u1], starts[u0:u1] - e0, cols)

    run_chunks(
        chunks,
        task,
        units=plan.num_segments,
        elements=plan.nnz,
        kernel=kernel_label,
        grain="segment",
        outputs=((out, ("rows", targets)),),
    )
    return out


def mttkrp_coo(
    x: CooTensor, factors: Sequence[np.ndarray], mode: int
) -> np.ndarray:
    """COO-MTTKRP: nonzero-parallel with (fused) atomic output updates.

    Returns the updated dense matrix ``out ∈ R^{I_mode × R}``.  The entry
    of ``factors`` at position ``mode`` participates only through its
    shape (it defines the output's row count), matching equation (3).

    Nonzeros are pre-sorted by the output mode (once per tensor, in the
    plan cache) and the scatter is a single segmented reduction —
    executed in parallel over output-segment chunks when
    ``repro.perf.parallel`` is configured with more than one thread.
    """
    mode = x.check_mode(mode)
    factors = check_factors(x.shape, factors)
    plan = mode_sort_plan(x, mode)
    out = _mttkrp_segmented(
        x, plan, x.values, factors, mode, x.shape[mode], "MTTKRP-COO"
    )
    return out.astype(VALUE_DTYPE)


def mttkrp_hicoo(
    x: Union[HicooTensor, CooTensor],
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    literal_blocked: bool = False,
) -> np.ndarray:
    """HiCOO-MTTKRP (Algorithm 3): block-parallel with factor-row reuse.

    With ``literal_blocked=True`` the computation follows Algorithm 3
    line-by-line — looping blocks, slicing ``B``-row windows of each
    factor (``A_b``, ``B_b``, ``C_b``), and indexing them with the 8-bit
    element indices — which is useful for small tensors and for testing
    that the blocked arithmetic matches the vectorized path.  The default
    path computes the identical reduction vectorized over all nonzeros.
    """
    if isinstance(x, CooTensor):
        x = hicoo_for(x, DEFAULT_BLOCK_SIZE)
    mode = check_mode(x.order, mode, exc=IncompatibleOperandsError)
    factors = check_factors(x.shape, factors)
    if literal_blocked:
        return _mttkrp_hicoo_blocked(x, factors, mode)
    plan = mode_sort_plan(x, mode)
    out = _mttkrp_segmented(
        x, plan, x.values, factors, mode, x.shape[mode], "MTTKRP-HiCOO"
    )
    return out.astype(VALUE_DTYPE)


def _mttkrp_hicoo_blocked(
    x: HicooTensor, factors: Sequence[np.ndarray], mode: int
) -> np.ndarray:
    """Literal Algorithm 3: per-block windows of the factor matrices."""
    rank = factors[0].shape[1]
    block = x.block_size
    out = np.zeros((x.shape[mode], rank), dtype=np.float64)
    for b in range(x.num_blocks):
        lo, hi = int(x.bptr[b]), int(x.bptr[b + 1])
        base = [int(x.binds[m, b]) * block for m in range(x.order)]
        windows = [
            factor[base[m] : base[m] + block] for m, factor in enumerate(factors)
        ]
        eind = x.einds[:, lo:hi].astype(np.int64)
        rows = np.broadcast_to(
            x.values[lo:hi, None].astype(np.float64), (hi - lo, rank)
        ).copy()
        for m in range(x.order):
            if m == mode:
                continue
            rows *= windows[m][eind[m]]
        # Scatter into the block's output window with one bincount per
        # rank column.  Element indices stay below the window span, so
        # the bincount length is exactly the window — no ``np.add.at``,
        # whose per-element dispatch made this path unusable beyond toy
        # tensors.
        span = min(block, x.shape[mode] - base[mode])
        window_targets = eind[mode]
        acc = np.empty((span, rank), dtype=np.float64)
        for r in range(rank):
            acc[:, r] = np.bincount(
                window_targets, weights=rows[:, r], minlength=span
            )
        out[base[mode] : base[mode] + span] += acc
    return out.astype(VALUE_DTYPE)


def schedule_mttkrp_coo(
    x: CooTensor, mode: int, rank: int
) -> KernelSchedule:
    """Machine schedule of COO-MTTKRP (Table I row five, COO column).

    Nonzero-parallel.  Per nonzero: ``N`` irregular factor-row accesses of
    ``4R`` bytes each (``N-1`` reads plus the atomic output update) and
    ``4(N+1)`` streamed bytes of indices and value — ``12MR + 16M`` for
    order 3.  Every nonzero issues ``R`` scalar ``omp atomic`` adds (one
    per output column); the conflict fraction is measured from the actual
    output-index multiplicity.
    """
    mode = x.check_mode(mode)
    order = x.order
    nnz = x.nnz
    irregular = 4 * rank * order * nnz
    streamed = 4 * (order + 1) * nnz
    factor_bytes = 4 * rank * sum(x.shape)
    # 1 - (distinct rows / nnz) == sum(c_i - 1) / sum(c_i); one bincount,
    # no sort.
    rows = np.count_nonzero(np.bincount(x.indices[mode], minlength=x.shape[mode]))
    conflict = 1.0 - rows / nnz if nnz else 0.0
    return KernelSchedule(
        kernel="MTTKRP",
        tensor_format="COO",
        flops=order * nnz * rank,
        streamed_bytes=streamed,
        irregular_bytes=irregular,
        work_units=uniform_work_units(nnz),
        parallel_grain=GRAIN_NONZERO,
        atomic_updates=nnz * rank,
        atomic_conflict_fraction=conflict,
        working_set_bytes=streamed + factor_bytes,
        reuse_bytes=max(irregular - factor_bytes, 0),
        irregular_chunk_bytes=4 * rank,
        random_operand_bytes=factor_bytes,
        notes={"rank": float(rank), "factor_bytes": float(factor_bytes)},
    )


def schedule_mttkrp_hicoo(
    x: HicooTensor, mode: int, rank: int
) -> KernelSchedule:
    """Machine schedule of HiCOO-MTTKRP (Table I row five, HiCOO column).

    Block-parallel; ``work_units`` are the real per-block nonzero counts,
    whose skew is why the paper's HiCOO-MTTKRP-GPU loses to COO.  Factor
    traffic shrinks to ``4R * N * min(n_b * B, M)`` because each block
    touches at most a ``B``-row window per factor; element streams cost
    ``(N + 4)`` bytes per nonzero and block metadata ``(4N + 8)`` bytes
    per block — ``12R min(n_b M_B, M) + 7M + 20 n_b`` for order 3.
    """
    order = x.order
    nnz = x.nnz
    nb = x.num_blocks
    mode = mode % order
    matrix_rows = min(nb * x.block_size, nnz)
    irregular = 4 * rank * order * matrix_rows
    streamed = (order + 4) * nnz + (4 * order + 8) * nb
    factor_bytes = 4 * rank * sum(x.shape)
    counts = x.nnz_per_block()
    # The atomics still land on individual output rows (Algorithm 3 line
    # 8), so contention is measured at element granularity just like COO.
    element_targets = expanded_indices(x)[mode]
    return KernelSchedule(
        kernel="MTTKRP",
        tensor_format="HiCOO",
        flops=order * nnz * rank,
        streamed_bytes=streamed,
        irregular_bytes=irregular,
        work_units=counts,
        parallel_grain=GRAIN_BLOCK,
        atomic_updates=nnz * rank,
        atomic_conflict_fraction=estimate_conflict_fraction(element_targets),
        working_set_bytes=streamed + factor_bytes,
        reuse_bytes=max(irregular - factor_bytes, 0),
        irregular_chunk_bytes=4 * rank,
        random_operand_bytes=factor_bytes,
        notes={
            "rank": float(rank),
            "num_blocks": float(nb),
            "factor_bytes": float(factor_bytes),
        },
    )
