"""Compiled kernel entry points: numpy marshaling around the C loops.

Every function here returns ``None`` whenever the compiled path cannot
run — no compiler, ``REPRO_JIT=0``, an unsupported specialization — and
the caller (``dispatch.run_config``) falls back to the numpy kernel.
When it does run, it reuses the *same* plans, chunk plans, and sanitizer
ownership declarations as the numpy path:

* MTTKRP consumes the cached mode-sort plan and partitions by output
  segments (``grain="segment"``, key ``plan.mode``);
* HiCOO MTTKRP partitions by output windows of the ownership plan
  (:func:`repro.perf.plans.build_hicoo_ownership_plan`, ``grain="window"``);
* TTV/TTM consume the cached fiber partition and partition by fibers
  (``grain="fiber"``, keys ``("ttv", mode)`` / ``("ttm", mode)``).

There is one entry per kernel; the thread count comes from the ambient
:func:`~repro.perf.parallel.kernel_chunk_plan`, and
:func:`_run_compiled` picks how to execute it.  A serial-sized input runs
the serial C entry; a multi-chunk plan goes to the compiled ``_par``
entry in one ctypes call, which runs the whole chunk table on an
in-process pthreads team.  Chunks own disjoint outputs, so results are
bit-identical at every thread count and schedule.  Under
``REPRO_SANITIZE=1`` the chunks run through the checked-serial executor
instead, so the write sanitizer verifies every chunk's ownership.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ...analysis.sanitizer import sanitizer_enabled
from ...formats.coo import VALUE_DTYPE, CooTensor
from ...formats.hicoo import HicooTensor
from ..parallel import kernel_chunk_plan, run_chunks, want_parallel
from ..partition import POLICY_STATIC, ChunkPlan
from ..plans import hicoo_ownership_plan, mode_sort_plan, sorted_values_for
from . import build, codegen

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_PTR_F32 = np.ctypeslib.ndpointer(dtype=np.float32, flags="C_CONTIGUOUS")
_PTR_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_PTR_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PTR_I32 = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_PTR_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


def _f32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32)


def _i32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int32)


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


@lru_cache(maxsize=None)
def _source(generator: Callable, *args) -> Tuple[str, str]:
    """``generator(*args)``, generated once per specialization.

    Regenerating a kernel's C source costs tens of microseconds, more
    than the compiled call it selects; the generators are pure, so the
    ``(name, source)`` of each (kernel, order, rank) is kept.
    """
    return generator(*args)


def _load(source: Tuple[str, str], argtypes: Sequence, parallel: bool):
    """The serial entry of ``source``, or its ``_par`` entry.

    The serial ``(u0, u1)`` unit range becomes ``(num_chunks,
    chunk_bounds, num_threads, sched)`` in the ``_par`` entry; the tail
    is unchanged.
    """
    name, code = source
    if parallel:
        argtypes = [_I64, _PTR_I64, _I64, _I32] + list(argtypes[2:])
        name += "_par"
    return build.load_function(name, code, argtypes)


def _sched_kind(policy: str) -> int:
    """Map an executor policy to the C team's schedule kind.

    Static is the deterministic round-robin; dynamic *and* guided both
    become the pull queue — guided's decreasing chunk sizes are already
    baked into the chunk bounds.
    """
    return 0 if policy == POLICY_STATIC else 1


def _run_compiled(
    load: Callable,
    chunks: Optional[ChunkPlan],
    units: int,
    args: tuple,
    *,
    serial: Optional[tuple] = None,
    **region,
) -> bool:
    """Run one compiled kernel over units ``[0, units)``.

    The single place a compiled kernel's execution is chosen:

    * more than one chunk: one call to the ``_par`` entry's thread team;
    * otherwise the serial C entry through :func:`run_chunks` — over the
      whole range as its one-chunk run (``serial=(load, units, args)``
      substitutes a different entry), or, under ``REPRO_SANITIZE=1``,
      chunk by chunk through the checked-serial executor, whose
      ``region`` ``outputs=`` ownership declarations verify every write.

    Returns ``False`` when the needed compiled function is unavailable.
    """
    team = chunks is not None and chunks.num_chunks > 1
    if not team and serial is not None:
        load, units, args = serial
    par = team and not sanitizer_enabled()
    fn = load(parallel=True) if par else load()
    if fn is None:
        return False
    if par:
        # One ctypes call running every chunk on the compiled thread team.
        workers = max(1, min(chunks.workers, chunks.num_chunks))
        fn(
            chunks.num_chunks,
            _i64(chunks.unit_bounds),
            workers,
            _sched_kind(chunks.policy),
            *args,
        )
    else:
        run_chunks(
            chunks if team else None,
            lambda chunk, u0, u1, e0, e1: fn(u0, u1, *args),
            units=units,
            **region,
        )
    return True


# ----------------------------------------------------------------------
# MTTKRP
# ----------------------------------------------------------------------


def _mttkrp_coo_fn(order: int, rank: int, parallel: bool = False):
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _PTR_I32, _PTR_F32]
        + [_PTR_I32] * k
        + [_PTR_F32] * k
        + [_PTR_F32]
    )
    source = _source(codegen.mttkrp_coo_source, order, rank)
    return _load(source, argtypes, parallel)


def mttkrp_coo(
    x: CooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """Compiled segmented COO MTTKRP; ``None`` when JIT is unavailable.

    Accepts COO and HiCOO owners (the mode-sort plan expands HiCOO
    coordinates exactly as the numpy kernel does).  The values in sort
    order are plan-cached per mode, so a tensor whose values are mutated
    in place must be invalidated.  Chunks own disjoint output segments,
    so every thread count gives the same bits.
    """
    from ...core.mttkrp import check_factors

    order = len(x.shape)
    if order < 2:
        return None
    mode = x.check_mode(mode)
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    plan = mode_sort_plan(x, mode)
    offsets = _i64(plan.segment_offsets())
    targets = _i32(plan.unique_targets)
    out = np.zeros((x.shape[mode], rank), dtype=VALUE_DTYPE)
    non_mode = [m for m in range(order) if m != mode]
    args = (
        offsets,
        targets,
        sorted_values_for(x, mode),
        *[_i32(plan.sorted_indices[m]) for m in non_mode],
        *[_f32(factors[m]) for m in non_mode],
        out,
    )
    chunks = kernel_chunk_plan(
        x, grain="segment", key=plan.mode, element_offsets=offsets
    )
    if not _run_compiled(
        partial(_mttkrp_coo_fn, order, rank),
        chunks,
        plan.num_segments,
        args,
        kernel="MTTKRP-COO-JIT",
        grain="segment",
        outputs=((out, ("rows", targets)),),
    ):
        return None
    return out


def _mttkrp_hicoo_fn(order: int, rank: int):
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _I64, _PTR_F32]
        + [_PTR_I32, _PTR_U8] * order
        + [_PTR_F32] * k
        + [_PTR_F64]
    )
    source = _source(codegen.mttkrp_hicoo_source, order, rank)
    return _load(source, argtypes, False)


def _mttkrp_hicoo_own_fn(order: int, rank: int, parallel: bool = False):
    k = order - 1
    argtypes = (
        [_I64, _I64, _PTR_I64, _PTR_I64, _PTR_I64, _I64, _PTR_F32]
        + [_PTR_I32, _PTR_U8] * order
        + [_PTR_F32] * k
        + [_PTR_F64]
    )
    source = _source(codegen.mttkrp_hicoo_owned_source, order, rank)
    return _load(source, argtypes, parallel)


def mttkrp_hicoo(
    x: HicooTensor, factors: Sequence[np.ndarray], mode: int
) -> Optional[np.ndarray]:
    """Compiled blocked HiCOO MTTKRP (Algorithm 3); ``None`` when unavailable.

    One thread runs the blocked loop nest over every block.  More threads
    run the owned-window nest on the compiled team: the ownership plan
    regroups blocks by their output-window block coordinate with a
    stable sort, so windows own disjoint ``block_size`` output row ranges
    and the per-row double accumulation order matches the blocked nest
    exactly — parallel results are bit-identical to one thread.
    Sanitized runs check every window against its ``row_blocks``
    ownership declaration.
    """
    from ...core.mttkrp import check_factors

    order = x.order
    if order < 2:
        return None
    mode = x.check_mode(mode)
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    if rank < 1:
        return None
    non_mode = [m for m in range(order) if m != mode]
    pairs = []
    for m in (*non_mode, mode):  # codegen convention: output mode last
        pairs.append(_i32(x.binds[m]))
        pairs.append(np.ascontiguousarray(x.einds[m]))
    fac_arrays = [_f32(factors[m]) for m in non_mode]
    out = np.zeros((x.shape[mode], rank), dtype=np.float64)
    blocked = (
        _i64(x.bptr),
        int(x.block_size),
        _f32(x.values),
        *pairs,
        *fac_arrays,
        out,
    )
    chunks, owned, outputs = None, (), ()
    if want_parallel(x.nnz):
        plan = hicoo_ownership_plan(x, mode)
        chunks = kernel_chunk_plan(
            x,
            grain="window",
            key=("hicoo_own", mode),
            element_offsets=plan.element_offsets,
        )
        owned = (_i64(plan.win_ptr), _i64(plan.block_perm), *blocked)
        outputs = (
            (out, ("row_blocks", plan.window_targets, int(x.block_size))),
        )
    if not _run_compiled(
        partial(_mttkrp_hicoo_own_fn, order, rank),
        chunks,
        0,
        owned,
        serial=(partial(_mttkrp_hicoo_fn, order, rank), x.num_blocks, blocked),
        kernel="MTTKRP-HiCOO-JIT",
        grain="window",
        outputs=outputs,
    ):
        return None
    return out.astype(VALUE_DTYPE)


# ----------------------------------------------------------------------
# TTV / TTM
# ----------------------------------------------------------------------


_FIBER_ARGTYPES = [_I64, _I64, _PTR_I64, _PTR_F32, _PTR_I32, _PTR_F32, _PTR_F64]


def _ttv_fn(parallel: bool = False):
    return _load(_source(codegen.ttv_source), _FIBER_ARGTYPES, parallel)


def _ttm_fn(rank: int, parallel: bool = False):
    return _load(_source(codegen.ttm_source, rank), _FIBER_ARGTYPES, parallel)


def _run_fibers(x: CooTensor, mode: int, name: str, load, operand, row_shape):
    """One compiled fiber-grain kernel (TTV/TTM) of ``x`` along ``mode``.

    Returns ``(out_indices, rows)``: the other modes' coordinates of each
    fiber and its result row, or ``None`` when the kernel is unavailable.
    """
    ordered, fptr = x.fiber_partition(mode)
    num_fibers = len(fptr) - 1
    rows = np.empty((num_fibers, *row_shape), dtype=np.float64)
    if num_fibers:
        fptr = _i64(fptr)
        chunks = kernel_chunk_plan(
            x, grain="fiber", key=(name, mode), element_offsets=fptr
        )
        args = (
            fptr,
            _f32(ordered.values),
            _i32(ordered.indices[mode]),
            _f32(operand),
            rows,
        )
        if not _run_compiled(
            load,
            chunks,
            num_fibers,
            args,
            kernel=f"{name.upper()}-COO-JIT",
            grain="fiber",
            outputs=((rows, "unit"),),
        ):
            return None
    other_modes = [m for m in range(x.order) if m != mode]
    out_indices = ordered.indices[other_modes][:, fptr[:-1]]
    return out_indices, rows.astype(VALUE_DTYPE)


def ttv_coo(x: CooTensor, v: np.ndarray, mode: int) -> Optional[CooTensor]:
    """Compiled fiber-grain COO TTV; same output object shape as numpy.

    Fibers own disjoint output slots, so any schedule and thread count
    reproduces the serial reduction exactly.
    """
    from ...core.ttv import _check_vector

    mode = x.check_mode(mode)
    v = _check_vector(x.shape[mode], v)
    result = _run_fibers(x, mode, "ttv", _ttv_fn, v, ())
    if result is None:
        return None
    out_shape = tuple(s for m, s in enumerate(x.shape) if m != mode)
    return CooTensor(out_shape, *result, validate=False)


def ttm_coo(x: CooTensor, matrix: np.ndarray, mode: int):
    """Compiled fiber-grain COO TTM returning the numpy kernel's sCOO."""
    from ...core.ttm import _check_matrix
    from ...formats.scoo import SemiSparseCooTensor

    mode = x.check_mode(mode)
    matrix = _check_matrix(x.shape[mode], matrix)
    rank = matrix.shape[1]
    if rank < 1:
        return None
    result = _run_fibers(x, mode, "ttm", partial(_ttm_fn, rank), matrix, (rank,))
    if result is None:
        return None
    out_shape = list(x.shape)
    out_shape[mode] = rank
    return SemiSparseCooTensor(out_shape, [mode], *result)


# perfbench/layertrace.py traces these two names; they alias the merged entries.
mttkrp_coo_mt = mttkrp_coo
mttkrp_hicoo_mt = mttkrp_hicoo
