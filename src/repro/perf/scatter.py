"""Row scatter engine: segmented reduction over pre-sorted nonzeros.

MTTKRP's output update is a scatter-add of per-nonzero rank-``R`` rows
into the output factor.  The seed implemented it as one ``np.bincount``
per rank column; Nisa et al. show the winning formulation is a segmented
reduction over nonzeros pre-sorted by the output index.  With a cached
:class:`~repro.perf.plans.ModeSortPlan` the sort is free after the first
call and the whole scatter is a single ``np.add.reduceat`` across all
rank columns at once.

Implementations with identical semantics:

* :func:`scatter_rows_segmented` — reduceat over a mode sort plan;
* :func:`scatter_cols_segmented` — the same reduction on a transposed
  ``(rank, n)`` operand whose segments are contiguous, written into a
  caller's output for one chunk of segments (the MTTKRP kernel's task
  calls it on every path, serial being the one-chunk run);
* :func:`scatter_rows_bincount` — the seed's per-column bincount (no
  sort needed; :func:`scatter_rows` runs it when given no plan);
* :func:`scatter_rows_add_at` — ``np.add.at`` reference used by tests.

All accumulate in float64 regardless of input dtype, matching the
seed's numerics.

TTV and TTM reduce fibers rather than scatter: :func:`fiber_sums` sums
each fiber of a :class:`~repro.perf.plans.FiberSumPlan` into its own
output row, bit-identical to ``np.add.reduceat`` over the fiber.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .plans import FiberSumPlan, ModeSortPlan


def scatter_rows_bincount(
    target_indices: np.ndarray, rows: np.ndarray, num_rows: int
) -> np.ndarray:
    """Seed scatter: one ``np.bincount`` per rank column (f64 accumulate)."""
    rank = rows.shape[1]
    out = np.empty((num_rows, rank), dtype=np.float64)
    for r in range(rank):
        out[:, r] = np.bincount(
            target_indices, weights=rows[:, r], minlength=num_rows
        )
    return out


def scatter_rows_add_at(
    target_indices: np.ndarray, rows: np.ndarray, num_rows: int
) -> np.ndarray:
    """Reference scatter via ``np.add.at`` (slow, unconditionally correct)."""
    out = np.zeros((num_rows, rows.shape[1]), dtype=np.float64)
    np.add.at(out, target_indices, rows.astype(np.float64, copy=False))
    return out


def scatter_rows_segmented(
    plan: ModeSortPlan, sorted_rows: np.ndarray, num_rows: int
) -> np.ndarray:
    """Segmented-reduction scatter over rows already in plan sort order.

    ``sorted_rows`` must be permuted by ``plan.perm`` (the kernels build
    them directly from ``plan.sorted_indices`` so no permute is needed).
    ``reduceat`` accumulates in float64 even for float32 rows.
    """
    out = np.zeros((num_rows, sorted_rows.shape[1]), dtype=np.float64)
    if plan.num_segments:
        out[plan.unique_targets] = np.add.reduceat(
            sorted_rows, plan.segment_starts, axis=0, dtype=np.float64
        )
    return out


def scatter_cols_segmented(
    out: np.ndarray,
    targets: np.ndarray,
    starts: np.ndarray,
    sorted_cols: np.ndarray,
) -> None:
    """Segmented scatter of a ``(rank, n)`` column-major operand into ``out``.

    Segment ``s`` spans columns ``starts[s]`` up to the next start (the
    last one to the end) and its float64 sum lands in row
    ``targets[s]`` of the ``(num_rows, rank)`` output.  Each segment is
    contiguous in memory (``reduceat`` along axis 1 of a C-contiguous
    array), which is markedly faster than :func:`scatter_rows_segmented`
    for the wide, shallow shapes MTTKRP produces.  A chunk of a mode
    sort plan passes its own slice of segments, rebased to its columns.
    """
    out[targets] = np.add.reduceat(
        sorted_cols, starts, axis=1, dtype=np.float64
    ).T


def scatter_rows(
    target_indices: np.ndarray,
    rows: np.ndarray,
    num_rows: int,
    *,
    plan: Optional[ModeSortPlan] = None,
) -> np.ndarray:
    """Scatter-add rank rows into ``num_rows`` output rows.

    With a plan, ``rows`` are permuted into sort order and reduced with
    ``reduceat``; without one the bincount scatter runs (no sort, same
    result).
    """
    if rows.shape[0] == 0:
        return np.zeros((num_rows, rows.shape[1]), dtype=np.float64)
    if plan is not None:
        return scatter_rows_segmented(plan, rows[plan.perm], num_rows)
    return scatter_rows_bincount(target_indices, rows, num_rows)


def fiber_sums(
    out: np.ndarray,
    plan: FiberSumPlan,
    u0: int,
    u1: int,
    values: np.ndarray,
    operand: np.ndarray,
    operand_rows: np.ndarray,
    dtype: type,
) -> None:
    """Write the sums of fibers ``u0:u1`` of ``plan`` into ``out``.

    Element ``e`` contributes ``values[e] * operand[operand_rows[e]]``,
    multiplied in ``dtype``: a scalar for a vector operand (TTV), a row
    for a matrix operand (TTM).  Fibers are summed in float64 and rounded
    once to ``out``'s dtype; every float64 sum is bit-identical to
    ``np.add.reduceat`` over the fiber's terms, which is the first term
    plus the rest added left to right for fibers of up to
    :data:`~repro.perf.plans.SEQUENTIAL_FIBER_MAX` terms.  So the first
    terms go straight into ``out`` (the whole sum of a one-element
    fiber), the short fibers' other terms into one accumulator, and only
    the long fibers' own terms are gathered for ``reduceat``.  The order
    is fixed by the fiber alone, so any split of the fibers into chunks
    gives the same bits.
    """
    width = operand.shape[1:]

    def terms(ids: np.ndarray, dest: Optional[np.ndarray] = None) -> np.ndarray:
        if dest is None:
            dest = np.empty((ids.shape[0],) + width, dtype=np.float64)
        scale = values[ids].reshape((-1,) + (1,) * len(width))
        gathered = np.take(operand, operand_rows[ids], axis=0)
        return np.multiply(scale, gathered, out=dest, dtype=dtype)

    terms(plan.first[u0:u1], out)
    s0, s1 = np.searchsorted(plan.short_fibers, (u0, u1))
    if s1 > s0:
        # Step 0 holds every short fiber, so it starts the accumulator.
        acc = terms(plan.step_ids[s0:s1])
        for k in range(1, len(plan.step_ptr) - 1):
            p0, p1 = plan.step_ptr[k], plan.step_ptr[k + 1]
            step_rows = plan.step_rows[p0:p1]
            a, b = np.searchsorted(step_rows, (s0, s1))
            if a == b:
                break
            acc[step_rows[a:b] - s0] += terms(plan.step_ids[p0 + a : p0 + b])
        short = plan.short_fibers[s0:s1]
        out[short - u0] = acc + terms(plan.first[short])
    l0, l1 = np.searchsorted(plan.long_fibers, (u0, u1))
    if l1 > l0:
        e0, e1 = plan.long_starts[l0], plan.long_starts[l1]
        out[plan.long_fibers[l0:l1] - u0] = np.add.reduceat(
            terms(plan.long_ids[e0:e1]), plan.long_starts[l0:l1] - e0, axis=0
        )
