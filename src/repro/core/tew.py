"""Tensor element-wise (TEW) operations: add, sub, mul, div.

Paper Section II-A / III-B.  The fast path handles two tensors with the
*same nonzero pattern* (the case the paper analyzes: one loop over values,
``M`` flops, ``12M`` bytes).  The general path handles different patterns
and even different shapes of the same order, predicting the output storage
by a sorted coordinate merge, as the paper's suite also supports.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

import numpy as np

from ..errors import IncompatibleOperandsError, PastaError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.hicoo import HicooTensor
from ..perf.parallel import kernel_chunk_plan, run_chunks
from .schedule import GRAIN_NONZERO, KernelSchedule, uniform_work_units

#: Supported element-wise operations and their numpy ufuncs.
OPERATIONS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}

#: Operations whose result at a position is nonzero when either input is
#: present there; ``mul``'s result is only nonzero where both are.
_UNION_OPS = ("add", "sub")
_INTERSECTION_OPS = ("mul", "div")


def _check_op(op: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if op not in OPERATIONS:
        raise PastaError(f"unknown TEW operation {op!r}; use one of {sorted(OPERATIONS)}")
    return OPERATIONS[op]


def _elementwise(
    ufunc: Callable[..., np.ndarray],
    x_values: np.ndarray,
    y_values: np.ndarray,
    kernel: str,
) -> np.ndarray:
    """Apply ``ufunc`` over aligned value arrays, chunked when parallel.

    Elementwise ops have no cross-element dependency, so any nonzero-range
    partition yields the exact serial result.
    """
    nnz = x_values.shape[0]
    chunks = kernel_chunk_plan(None, grain="nonzero", total_elements=nnz)
    out = np.empty(nnz, dtype=VALUE_DTYPE)

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        ufunc(x_values[e0:e1], y_values[e0:e1], out=out[e0:e1])

    run_chunks(
        chunks,
        task,
        units=nnz,
        elements=nnz,
        kernel=kernel,
        grain="nonzero",
        outputs=((out, "element"),),
    )
    return out


def tew_coo(x: CooTensor, y: CooTensor, op: str = "add") -> CooTensor:
    """Element-wise ``x (op) y`` for same-pattern COO tensors.

    This is the paper's benchmarked case.  Raises
    :class:`IncompatibleOperandsError` when the patterns differ — use
    :func:`tew_general_coo` for that case.
    """
    ufunc = _check_op(op)
    if x.shape != y.shape:
        raise IncompatibleOperandsError(
            f"shapes differ: {x.shape} vs {y.shape}; use tew_general_coo"
        )
    if x.nnz != y.nnz or not np.array_equal(x.indices, y.indices):
        if not x.pattern_equals(y):
            raise IncompatibleOperandsError(
                "nonzero patterns differ; use tew_general_coo"
            )
        # Same pattern in a different stored order: align y to x.
        y = y.sorted_lexicographic()
        x_sorted = x.sorted_lexicographic()
        values = _elementwise(ufunc, x_sorted.values, y.values, "TEW-COO")
        return CooTensor(x.shape, x_sorted.indices, values, validate=False)
    values = _elementwise(ufunc, x.values, y.values, "TEW-COO")
    return CooTensor(x.shape, x.indices, values, validate=False)


def tew_hicoo(x: HicooTensor, y: HicooTensor, op: str = "add") -> HicooTensor:
    """Element-wise ``x (op) y`` for same-pattern HiCOO tensors.

    The pre-processing phase (format conversion) already aligned both
    tensors' nonzeros in Morton order, so the value computation is the
    same single loop as COO (paper Section III-D1).
    """
    ufunc = _check_op(op)
    if x.shape != y.shape or x.block_size != y.block_size:
        raise IncompatibleOperandsError("HiCOO TEW needs matching shape and block size")
    same_layout = (
        x.nnz == y.nnz
        and np.array_equal(x.bptr, y.bptr)
        and np.array_equal(x.binds, y.binds)
        and np.array_equal(x.einds, y.einds)
    )
    if not same_layout:
        raise IncompatibleOperandsError(
            "HiCOO TEW requires identical nonzero patterns; "
            "convert through tew_general_coo instead"
        )
    values = _elementwise(ufunc, x.values, y.values, "TEW-HiCOO")
    return HicooTensor(
        x.shape, x.block_size, x.bptr, x.binds, x.einds, values, validate=False
    )


def tew_general_coo(x: CooTensor, y: CooTensor, op: str = "add") -> CooTensor:
    """Element-wise op for COO tensors with different patterns or shapes.

    Tensors must have the same order; the output shape is the per-mode
    maximum.  For ``add``/``sub`` the output pattern is the union of the
    two input patterns (absent entries are zero); for ``mul``/``div`` it
    is the intersection (a product with an absent entry is zero, and a
    division by an absent entry is undefined and excluded, matching the
    sparse semantics of dividing stored entries only).
    """
    ufunc = _check_op(op)
    if x.order != y.order:
        raise IncompatibleOperandsError(
            f"orders differ: {x.order} vs {y.order}"
        )
    shape = tuple(max(a, b) for a, b in zip(x.shape, y.shape))
    xs = x.sum_duplicates().sorted_lexicographic()
    ys = y.sum_duplicates().sorted_lexicographic()
    x_pos, y_pos, x_only, y_only = _match_sorted_patterns(xs.indices, ys.indices)
    matched_values = ufunc(xs.values[x_pos], ys.values[y_pos]).astype(VALUE_DTYPE)
    if op in _INTERSECTION_OPS:
        return CooTensor(shape, xs.indices[:, x_pos], matched_values, validate=False)
    pieces_idx = [xs.indices[:, x_pos], xs.indices[:, x_only], ys.indices[:, y_only]]
    y_unmatched = ys.values[y_only]
    if op == "sub":
        y_unmatched = -y_unmatched
    pieces_val = [matched_values, xs.values[x_only], y_unmatched.astype(VALUE_DTYPE)]
    indices = np.concatenate(pieces_idx, axis=1)
    values = np.concatenate(pieces_val)
    return CooTensor(shape, indices, values, validate=False).sorted_lexicographic()


def _match_sorted_patterns(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Match coordinate columns of two lexicographically sorted index sets.

    Returns positions of matches in ``a`` and ``b`` plus the unmatched
    positions of each, via a vectorized merge on linearized keys.
    """
    key_a = _linearize(a, b)
    key_b = _linearize(b, a)
    _, a_pos, b_pos = np.intersect1d(key_a, key_b, return_indices=True)
    # Unmatched positions fall out of a boolean mask over the matched
    # ones; ``np.setdiff1d`` would re-sort and deduplicate an arange
    # that is already sorted and unique.
    a_only = _unmatched_positions(a.shape[1], a_pos)
    b_only = _unmatched_positions(b.shape[1], b_pos)
    return a_pos, b_pos, a_only, b_only


def _unmatched_positions(count: int, matched: np.ndarray) -> np.ndarray:
    mask = np.ones(count, dtype=bool)
    mask[matched] = False
    return np.flatnonzero(mask)


def _linearize(indices: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Map coordinate columns to unique int64 keys shared by both tensors."""
    order = indices.shape[0]
    strides = np.ones(order, dtype=np.int64)
    for mode in range(order - 2, -1, -1):
        width = 1 + max(
            int(indices[mode + 1].max(initial=0)),
            int(other[mode + 1].max(initial=0)),
        )
        strides[mode] = strides[mode + 1] * width
    return (indices.astype(np.int64) * strides[:, None]).sum(axis=0)


def schedule_tew(
    x: Union[CooTensor, HicooTensor], tensor_format: str = "COO"
) -> KernelSchedule:
    """Machine schedule of same-pattern TEW (Table I row one).

    Streams three value arrays of ``M`` entries (both inputs, the output)
    with one flop per nonzero; fully parallel over nonzeros with no
    atomics and no irregular traffic.
    """
    nnz = x.nnz
    return KernelSchedule(
        kernel="TEW",
        tensor_format=tensor_format,
        flops=nnz,
        streamed_bytes=12 * nnz,
        irregular_bytes=0,
        work_units=uniform_work_units(nnz),
        parallel_grain=GRAIN_NONZERO,
        working_set_bytes=12 * nnz,
        reuse_bytes=0,
        writeallocate_bytes=4 * nnz,
    )
