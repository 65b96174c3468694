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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .plans import ModeSortPlan


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
