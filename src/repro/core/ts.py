"""Tensor-scalar (TS) operations: TSA, TSS, TSM, TSD.

Paper Section II-B.  The suite implements addition (TSA) and
multiplication (TSM), which suffice for all four operations
(``x - s == x + (-s)``, ``x / s == x * (1/s)``); subtraction and division
are provided here as conveniences built on those two.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import PastaError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.hicoo import HicooTensor
from ..formats.scoo import SemiSparseCooTensor
from ..formats.shicoo import SHicooTensor
from ..perf.parallel import kernel_chunk_plan, run_chunks
from ..perf.plans import adopt_plans
from .schedule import GRAIN_NONZERO, KernelSchedule, uniform_work_units

_SparseTensor = Union[CooTensor, HicooTensor, SemiSparseCooTensor, SHicooTensor]

_SUPPORTED_TYPES = (CooTensor, HicooTensor, SemiSparseCooTensor, SHicooTensor)


def _check_tensor(tensor: _SparseTensor) -> _SparseTensor:
    """Reject operand types TS does not support, with a clear error."""
    if not isinstance(tensor, _SUPPORTED_TYPES):
        raise PastaError(
            f"unsupported tensor type for TS: {type(tensor).__name__}"
        )
    return tensor


def _apply_to_values(tensor: _SparseTensor, values: np.ndarray) -> _SparseTensor:
    """Rebuild a tensor of the same format around new values.

    The result shares the input's index arrays, so any cached structural
    plans (sort permutations, fiber partitions, ...) remain valid and are
    shared with the output.  ``values`` is the fresh float32 output of
    :func:`_ts_values`; the result holds it without a copy.
    """
    if isinstance(tensor, CooTensor):
        result: _SparseTensor = CooTensor(
            tensor.shape, tensor.indices, values, validate=False
        )
    elif isinstance(tensor, HicooTensor):
        result = HicooTensor(
            tensor.shape,
            tensor.block_size,
            tensor.bptr,
            tensor.binds,
            tensor.einds,
            values,
            validate=False,
        )
    elif isinstance(tensor, SemiSparseCooTensor):
        result = SemiSparseCooTensor(
            tensor.shape, tensor.dense_modes, tensor.indices, values,
            validate=False,
        )
    elif isinstance(tensor, SHicooTensor):
        result = SHicooTensor(
            tensor.shape,
            tensor.block_size,
            tensor.dense_modes,
            tensor.bptr,
            tensor.binds,
            tensor.einds,
            values,
            validate=False,
        )
    else:
        raise PastaError(f"unsupported tensor type for TS: {type(tensor).__name__}")
    adopt_plans(result, tensor)
    return result


def _ts_values(
    values: np.ndarray, ufunc: np.ufunc, scalar: np.ndarray
) -> np.ndarray:
    """``ufunc(values, scalar)``, chunked over nonzero ranges when parallel.

    ``values`` is one entry per nonzero, or one dense row per fiber for
    the semi-sparse formats; the output takes its shape.
    """
    nnz = values.shape[0]
    chunks = kernel_chunk_plan(None, grain="nonzero", total_elements=nnz)
    out = np.empty_like(values, dtype=VALUE_DTYPE)

    def task(chunk: int, u0: int, u1: int, e0: int, e1: int) -> None:
        ufunc(values[e0:e1], scalar, out=out[e0:e1])

    run_chunks(
        chunks,
        task,
        units=nnz,
        elements=nnz,
        kernel="TS",
        grain="nonzero",
        outputs=((out, "element"),),
    )
    return out


def ts_add(tensor: _SparseTensor, scalar: float) -> _SparseTensor:
    """TSA: add ``scalar`` to every stored nonzero value.

    Note the sparse semantics: *absent* entries stay zero, as in the
    paper's suite, which operates on the nonzero values only.
    """
    tensor = _check_tensor(tensor)
    return _apply_to_values(
        tensor, _ts_values(tensor.values, np.add, VALUE_DTYPE(scalar))
    )


def ts_mul(tensor: _SparseTensor, scalar: float) -> _SparseTensor:
    """TSM: multiply every stored nonzero value by ``scalar``."""
    tensor = _check_tensor(tensor)
    return _apply_to_values(
        tensor, _ts_values(tensor.values, np.multiply, VALUE_DTYPE(scalar))
    )


def ts_sub(tensor: _SparseTensor, scalar: float) -> _SparseTensor:
    """TSS, expressed through TSA as the paper prescribes."""
    return ts_add(tensor, -scalar)


def ts_div(tensor: _SparseTensor, scalar: float) -> _SparseTensor:
    """TSD, expressed through TSM as the paper prescribes."""
    if scalar == 0:
        raise PastaError("tensor-scalar division by zero")
    return ts_mul(tensor, 1.0 / scalar)


def ts(tensor: _SparseTensor, scalar: float, op: str = "mul") -> _SparseTensor:
    """Dispatch a tensor-scalar operation by name (add/sub/mul/div)."""
    table = {"add": ts_add, "sub": ts_sub, "mul": ts_mul, "div": ts_div}
    if op not in table:
        raise PastaError(f"unknown TS operation {op!r}; use one of {sorted(table)}")
    return table[op](tensor, scalar)


def schedule_ts(tensor: _SparseTensor, tensor_format: str = "COO") -> KernelSchedule:
    """Machine schedule of TS (Table I row two).

    Streams the value array in and out (``8M`` bytes) with one flop per
    nonzero; embarrassingly parallel.
    """
    nnz = tensor.nnz
    return KernelSchedule(
        kernel="TS",
        tensor_format=tensor_format,
        flops=nnz,
        streamed_bytes=8 * nnz,
        irregular_bytes=0,
        work_units=uniform_work_units(nnz),
        parallel_grain=GRAIN_NONZERO,
        working_set_bytes=8 * nnz,
        reuse_bytes=0,
        writeallocate_bytes=4 * nnz,
    )
