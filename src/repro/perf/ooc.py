"""Out-of-core kernel execution over mmap-backed tensors.

The paper's suite assumes the tensor fits in RAM; real FROSTT inputs
often do not.  This module runs the suite's segmented kernels
chunk-at-a-time over a :class:`~repro.io.binfile.MmapCooTensor`, keeping
resident memory bounded by a configurable *budget* instead of the
tensor size:

* the **budget** (:func:`get_memory_budget`, default 64 MiB, env
  ``REPRO_OOC_BUDGET`` with ``K``/``M``/``G`` suffixes) caps the bytes a
  single kernel step may materialize;
* the **iteration plan** (:func:`iteration_plan`) reuses the OpenMP
  ``dynamic`` partitioner from :mod:`repro.perf.partition` — fixed-size
  element chunks sized so one step's read buffers, sort artifacts, and
  Khatri-Rao temporaries fit in about half the budget;
* each step's mode-sort plan is memoized in the plan cache under the
  structural kind ``"ooc_chunk"``, keyed ``(mode, e0, e1)`` on top of
  the tensor's file-state token.  A step whose plan is warm reads only
  the *values* of its range (:meth:`MmapCooTensor.read_values` — a
  quarter of the bytes), which is what makes multi-sweep CP-ALS cheap.
  A module-level LRU bounds the resident bytes of those plans to one
  budget, evicting the oldest via :meth:`PlanCache.evict`.

The kernels accumulate in float64 exactly like their in-RAM
counterparts; only the *association* of the per-step partial sums
differs, so results match the in-RAM kernels to floating-point
tolerance (bit-for-bit when a single step covers the tensor).  Outputs
(a dense factor-sized matrix for MTTKRP, the reduced sparse tensor for
TTV/TTM) are assumed to fit in RAM — out-of-core applies to the *input*
nonzeros.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .partition import KIND_PARTITION, ChunkPlan, build_element_chunk_plan
from .plan_cache import get_plan_cache
from .plans import ModeSortPlan, _build_mode_sort

#: Environment variable overriding the default memory budget.
ENV_BUDGET = "REPRO_OOC_BUDGET"

#: Default per-kernel resident-memory budget (bytes).
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

#: Plan-cache kind of the per-step mode-sort plans (structural).
KIND_OOC_CHUNK = "ooc_chunk"

#: Floor on the step size: below this the per-step numpy dispatch
#: overhead dominates and shrinking steps buys no memory that matters.
MIN_STEP_NNZ = 1024

_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_budget(text: Union[str, int]) -> int:
    """Parse a byte budget: a plain integer or ``K``/``M``/``G`` suffix."""
    if isinstance(text, int):
        value = text
    else:
        raw = str(text).strip().lower()
        if raw and raw[-1] in _SUFFIXES:
            try:
                value = int(float(raw[:-1]) * _SUFFIXES[raw[-1]])
            except ValueError:
                raise ValueError(f"bad memory budget {text!r}") from None
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"bad memory budget {text!r}") from None
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return value


_BUDGET: Optional[int] = None


def get_memory_budget() -> int:
    """The active out-of-core budget in bytes.

    Resolution order: the last :func:`set_memory_budget`, then the
    ``REPRO_OOC_BUDGET`` environment variable, then
    :data:`DEFAULT_BUDGET_BYTES`.
    """
    global _BUDGET
    if _BUDGET is None:
        env = os.environ.get(ENV_BUDGET)
        _BUDGET = parse_budget(env) if env else DEFAULT_BUDGET_BYTES
    return _BUDGET


def set_memory_budget(budget: Union[str, int, None]) -> Optional[int]:
    """Set the budget (bytes or a suffixed string); returns the previous.

    ``None`` resets to the environment/default resolution.
    """
    global _BUDGET
    previous = _BUDGET
    _BUDGET = None if budget is None else parse_budget(budget)
    return previous


@contextmanager
def memory_budget(budget: Union[str, int]) -> Iterator[int]:
    """Run a block under a temporary out-of-core budget."""
    global _BUDGET
    previous = set_memory_budget(budget)
    try:
        yield get_memory_budget()
    finally:
        _BUDGET = previous


# ----------------------------------------------------------------------
# Iteration plan (how much of the tensor one step materializes)
# ----------------------------------------------------------------------


def step_bytes_per_nnz(order: int, rank: int) -> int:
    """Resident bytes one nonzero costs a kernel step.

    Read buffers (int64 indices + float32 value), the mode-sort plan's
    permutation and sorted copy, and the ``(rank, step)`` float32
    Khatri-Rao columns with their float64 reduction.
    """
    read = 8 * order + 4
    plan = 8 + 8 * order + 4
    temporaries = 4 * rank + 8 * rank
    return read + plan + temporaries


def step_nnz_for(order: int, rank: int, budget: Optional[int] = None) -> int:
    """Elements per step so one step uses about half the budget.

    Half, because a step's plan may be cached while the next step
    builds its own — two steps' artifacts briefly coexist.
    """
    budget = get_memory_budget() if budget is None else int(budget)
    per_nnz = step_bytes_per_nnz(order, max(1, int(rank)))
    return max(MIN_STEP_NNZ, budget // 2 // per_nnz)


def iteration_plan(
    x: object, rank: int = 1, *, budget: Optional[int] = None
) -> ChunkPlan:
    """Fixed-size element chunking of ``x`` honoring the memory budget.

    Reuses the ``dynamic`` OpenMP partitioner with an explicit
    ``chunk_units``, memoized under the structural ``"partition"`` kind —
    for a :class:`MmapCooTensor` the file-state token keys the cache, so
    re-opened handles of the same file share the plan.
    """
    step = step_nnz_for(len(x.shape), rank, budget)

    def build() -> ChunkPlan:
        return build_element_chunk_plan(
            x.nnz, workers=1, policy="dynamic", chunk_units=step
        )

    return get_plan_cache().get(x, KIND_PARTITION, ("ooc", step), build)


# ----------------------------------------------------------------------
# Per-step plan cache with budget-bounded residency
# ----------------------------------------------------------------------


class _TokenHandle:
    """A stand-in carrying only a plan-cache token (for LRU eviction)."""

    __slots__ = ("plan_cache_token",)

    def __init__(self, token: Hashable) -> None:
        self.plan_cache_token = token


_PLAN_LRU: "OrderedDict[Tuple[Hashable, Tuple[int, int, int]], int]"
_PLAN_LRU = OrderedDict()
_PLAN_LRU_BYTES = 0


def reset_plan_lru() -> None:
    """Forget the LRU bookkeeping (tests; cached plans are untouched)."""
    global _PLAN_LRU_BYTES
    _PLAN_LRU.clear()
    _PLAN_LRU_BYTES = 0


def plan_lru_bytes() -> int:
    """Resident bytes currently attributed to ``"ooc_chunk"`` plans."""
    return _PLAN_LRU_BYTES


def _plan_nbytes(plan: ModeSortPlan) -> int:
    return (
        plan.perm.nbytes
        + plan.sorted_indices.nbytes
        + plan.segment_starts.nbytes
        + plan.unique_targets.nbytes
    )


def _lru_note(
    token: Hashable, key: Tuple[int, int, int], nbytes: int, budget: int
) -> None:
    """Record a cached step plan; evict the oldest past one budget."""
    global _PLAN_LRU_BYTES
    entry = (token, key)
    if entry in _PLAN_LRU:
        _PLAN_LRU.move_to_end(entry)
        return
    _PLAN_LRU[entry] = nbytes
    _PLAN_LRU_BYTES += nbytes
    cache = get_plan_cache()
    while _PLAN_LRU_BYTES > budget and len(_PLAN_LRU) > 1:
        (old_token, old_key), old_bytes = _PLAN_LRU.popitem(last=False)
        _PLAN_LRU_BYTES -= old_bytes
        cache.evict(_TokenHandle(old_token), KIND_OOC_CHUNK, old_key)


def _step_mode_sort(
    x: object, mode: int, e0: int, e1: int, budget: int
) -> Tuple[ModeSortPlan, np.ndarray]:
    """The step's mode-sort plan plus its values in plan sort order.

    On a plan-cache hit only the values of ``[e0, e1)`` are read from
    disk; a miss reads the full range and builds (and caches) the plan.
    """
    cache = get_plan_cache()
    key = (mode, e0, e1)
    fresh: Dict[str, np.ndarray] = {}

    def build() -> ModeSortPlan:
        idx, raw = x.read_range(e0, e1)
        fresh["values"] = raw
        return _build_mode_sort(idx, mode)

    plan = cache.get(x, KIND_OOC_CHUNK, key, build)
    raw = fresh.get("values")
    if raw is None:
        raw = x.read_values(e0, e1)
    token = getattr(x, "plan_cache_token", None)
    if token is not None:
        _lru_note(token, key, _plan_nbytes(plan), budget)
    return plan, plan.sorted_values(raw)


def _steps(x: object, plan: ChunkPlan) -> Iterator[Tuple[int, int]]:
    """Yield element ranges, dropping resident file pages between steps.

    ``release_pages`` (when the source supports it) evicts the mapping's
    pages after each step, so nonzeros already streamed past stop
    counting toward the resident set — that, plus the bounded step size,
    is the out-of-core memory guarantee.
    """
    release = getattr(x, "release_pages", None)
    for s in range(plan.num_chunks):
        yield int(plan.offsets[s]), int(plan.offsets[s + 1])
        if release is not None:
            release()


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------


def mttkrp(x: object, factors, mode: int) -> np.ndarray:
    """Out-of-core MTTKRP: segmented reduction one bounded step at a time.

    The factors are transposed once per call, not once per step.  Per
    step: gather the Khatri-Rao columns of the step's nonzeros in
    mode-sorted order, ``reduceat`` them in float64, and add the partial
    into the dense output — additive over any partition of the nonzeros,
    so the result matches the in-RAM kernel to float tolerance.
    """
    from ..core.mttkrp import (
        _khatri_rao_cols_sorted,
        _transposed_factors,
        check_factors,
    )
    from ..formats.coo import VALUE_DTYPE
    from ..formats.modes import check_mode

    mode = check_mode(len(x.shape), mode)
    factors = check_factors(x.shape, factors)
    rank = factors[0].shape[1]
    factors_t = _transposed_factors(factors, mode)
    budget = get_memory_budget()
    out = np.zeros((x.shape[mode], rank), dtype=np.float64)
    for e0, e1 in _steps(x, iteration_plan(x, rank, budget=budget)):
        plan, svals = _step_mode_sort(x, mode, e0, e1, budget)
        cols = _khatri_rao_cols_sorted(
            plan.sorted_indices, svals, factors_t, mode
        )
        out[plan.unique_targets] += np.add.reduceat(
            cols, plan.segment_starts, axis=1, dtype=np.float64
        ).T
    return out.astype(VALUE_DTYPE)


def _step_coo(x: object, e0: int, e1: int):
    from ..formats.coo import CooTensor

    idx, raw = x.read_range(e0, e1)
    return CooTensor(x.shape, idx, raw)


def ttv(x: object, v: np.ndarray, mode: int):
    """Out-of-core TTV: per-step COO-TTV partials merged by coordinate.

    Each step's partial holds one nonzero per fiber *of the step*; the
    running merge concatenates and re-deduplicates, so resident state is
    the output plus one step — the output itself must fit in RAM.
    """
    from ..core.ttv import _check_vector, ttv_coo
    from ..formats.coo import CooTensor, concatenate_tensors
    from ..formats.modes import check_mode

    mode = check_mode(len(x.shape), mode)
    v = _check_vector(x.shape[mode], v)
    budget = get_memory_budget()
    merged = None
    for e0, e1 in _steps(x, iteration_plan(x, 1, budget=budget)):
        partial = ttv_coo(_step_coo(x, e0, e1), v, mode)
        if merged is None:
            merged = partial
        else:
            merged = concatenate_tensors([merged, partial])
    if merged is None:
        out_shape = tuple(s for m, s in enumerate(x.shape) if m != mode)
        return CooTensor.empty(out_shape)
    return merged.sum_duplicates()


def ttm(x: object, matrix: np.ndarray, mode: int):
    """Out-of-core TTM: per-step sCOO partials merged by sparse coordinate.

    Value *rows* are summed (float64) wherever two steps produced the
    same sparse coordinate, then the merged rows are re-sorted into the
    canonical fiber order — the same grouping ``ttm_coo`` emits.
    """
    from ..core.ttm import _check_matrix, ttm_coo
    from ..formats.modes import check_mode
    from ..formats.scoo import SemiSparseCooTensor

    mode = check_mode(len(x.shape), mode)
    matrix = _check_matrix(x.shape[mode], matrix)
    budget = get_memory_budget()
    partials: List[SemiSparseCooTensor] = []
    for e0, e1 in _steps(x, iteration_plan(x, matrix.shape[1], budget=budget)):
        partials.append(ttm_coo(_step_coo(x, e0, e1), matrix, mode))
        if len(partials) > 1:
            partials = [_merge_scoo(partials)]
    if not partials:
        return ttm_coo(_empty_coo(x.shape), matrix, mode)
    return partials[0]


def _empty_coo(shape):
    from ..formats.coo import CooTensor

    return CooTensor.empty(shape)


def _merge_scoo(partials):
    """Sum sCOO partials that share shape/dense modes, deduplicating."""
    from ..formats.coo import VALUE_DTYPE
    from ..formats.scoo import SemiSparseCooTensor

    first = partials[0]
    indices = np.concatenate([p.indices for p in partials], axis=1)
    values = np.concatenate([p.values for p in partials], axis=0)
    # Canonical order: lexicographic by sparse coordinate (row 0 most
    # significant), matching the fiber order ttm_coo emits.
    perm = np.lexsort(tuple(indices[::-1]))
    indices = indices[:, perm]
    values = values[perm]
    if indices.shape[1] == 0:
        return first
    boundary = np.any(indices[:, 1:] != indices[:, :-1], axis=0)
    starts = np.flatnonzero(np.concatenate(([True], boundary)))
    summed = np.add.reduceat(values.astype(np.float64), starts, axis=0)
    return SemiSparseCooTensor(
        first.shape,
        first.dense_modes,
        indices[:, starts],
        summed.astype(VALUE_DTYPE),
        validate=False,
    )


def tensor_norm(x: object) -> float:
    """Frobenius norm accumulated in float64 over bounded value reads."""
    total = 0.0
    for e0, e1 in _steps(x, iteration_plan(x, 1)):
        vals = x.read_values(e0, e1).astype(np.float64)  # repro: ignore[dtype]
        total += float(np.dot(vals, vals))
    return float(np.sqrt(total))


__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "ENV_BUDGET",
    "KIND_OOC_CHUNK",
    "get_memory_budget",
    "set_memory_budget",
    "memory_budget",
    "parse_budget",
    "iteration_plan",
    "step_nnz_for",
    "plan_lru_bytes",
    "reset_plan_lru",
    "mttkrp",
    "ttv",
    "ttm",
    "tensor_norm",
]
