"""OpenMP-style partitioners: tensor structure into per-worker chunks.

The paper's CPU kernels are OpenMP loops over nonzeros, fibers, or
blocks, and its performance discussion repeatedly comes back to *which
iterations land on which thread* — the schedule clause.  PASTA picks a
parallelization grain per kernel; Nisa et al. show the partitioning
strategy is the dominant MTTKRP performance lever.  This module
reproduces that layer for the executor in :mod:`repro.perf.parallel`:

* a *unit* is one indivisible work item a kernel cannot split without
  breaking output ownership — an output-row segment (MTTKRP), a fiber
  (TTV/TTM), or a single nonzero (TEW/TS);
* a :class:`ChunkPlan` cuts the unit range into contiguous chunks with
  one of the OpenMP policies — ``static`` (one even block per worker,
  pre-assigned), ``dynamic`` (fixed-size chunks pulled by whichever
  worker is free), ``guided`` (decreasing chunk sizes, large first);
* because chunks always cover *whole* units, every chunk owns a
  disjoint slice of the output: no atomics are needed and the chunked
  execution is bit-identical to serial.

Chunk boundaries are index-derived (they depend only on the unit
offsets, worker count, and policy), so plans are memoized in the
:mod:`repro.perf.plan_cache` under the structural kind ``"partition"``,
keyed by ``(grain, mode, workers, policy, chunk_units)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from .plan_cache import get_plan_cache

#: OpenMP schedule policies the partitioners implement.
POLICY_STATIC = "static"
POLICY_DYNAMIC = "dynamic"
POLICY_GUIDED = "guided"
POLICIES = (POLICY_STATIC, POLICY_DYNAMIC, POLICY_GUIDED)

#: Plan-cache kind for memoized chunk plans (index-derived, structural).
KIND_PARTITION = "partition"

#: Default chunks-per-worker for the dynamic policy: enough chunks that
#: a skewed unit distribution can rebalance, few enough that per-chunk
#: dispatch overhead stays negligible next to the numpy work.
DYNAMIC_CHUNKS_PER_WORKER = 8


def check_policy(policy: str) -> str:
    """Validate a schedule policy name, returning it unchanged."""
    if policy not in POLICIES:
        raise ValueError(
            f"unknown schedule policy {policy!r}; use one of {POLICIES}"
        )
    return policy


@dataclass(frozen=True)
class ChunkPlan:
    """Contiguous chunks of a kernel's unit range, ready to execute.

    Attributes
    ----------
    policy:
        The OpenMP schedule policy that produced the chunks.
    workers:
        Worker count the plan was built for.  ``static`` pre-assigns
        chunk ``i`` to worker ``i % workers``; the other policies let
        any worker pull the next chunk.
    unit_bounds:
        ``(num_chunks + 1,)`` boundaries in unit space; chunk ``c``
        covers units ``unit_bounds[c]:unit_bounds[c + 1]``.
    offsets:
        ``(num_chunks + 1,)`` boundaries in element (nonzero) space —
        the slice of the underlying arrays each chunk touches.
    """

    policy: str
    workers: int
    unit_bounds: np.ndarray
    offsets: np.ndarray

    @property
    def num_chunks(self) -> int:
        """Number of chunks (0 for an empty unit range)."""
        return int(self.unit_bounds.shape[0]) - 1

    @property
    def num_units(self) -> int:
        """Number of units covered."""
        return int(self.unit_bounds[-1]) if self.unit_bounds.size else 0

    @property
    def total_elements(self) -> int:
        """Number of elements (nonzeros) covered by all chunks."""
        return int(self.offsets[-1]) if self.offsets.size else 0

    def unit_counts(self) -> np.ndarray:
        """Units per chunk."""
        return np.diff(self.unit_bounds)

    def element_counts(self) -> np.ndarray:
        """Elements per chunk — the per-chunk work sizes."""
        return np.diff(self.offsets)


# ----------------------------------------------------------------------
# Policy chunkers (unit space)
# ----------------------------------------------------------------------


def _static_bounds(num_units: int, workers: int) -> np.ndarray:
    """One contiguous, near-even block of units per worker (OMP static)."""
    chunks = min(workers, num_units)
    if chunks <= 0:
        return np.zeros(1, dtype=np.int64)
    return (np.arange(chunks + 1, dtype=np.int64) * num_units) // chunks


def _dynamic_bounds(
    num_units: int, workers: int, chunk_units: Optional[int]
) -> np.ndarray:
    """Fixed-size chunks, pulled at runtime by whichever worker is free."""
    if num_units <= 0:
        return np.zeros(1, dtype=np.int64)
    if chunk_units is None:
        chunk_units = -(-num_units // (workers * DYNAMIC_CHUNKS_PER_WORKER))
    chunk_units = max(1, int(chunk_units))
    bounds = np.arange(0, num_units, chunk_units, dtype=np.int64)
    return np.append(bounds, num_units)


def _guided_bounds(
    num_units: int, workers: int, chunk_units: Optional[int]
) -> np.ndarray:
    """Decreasing chunk sizes: each is ``ceil(remaining / workers)``."""
    if num_units <= 0:
        return np.zeros(1, dtype=np.int64)
    min_chunk = max(1, int(chunk_units)) if chunk_units is not None else 1
    bounds = [0]
    remaining = num_units
    while remaining > 0:
        step = max(min_chunk, -(-remaining // workers))
        step = min(step, remaining)
        bounds.append(bounds[-1] + step)
        remaining -= step
    return np.asarray(bounds, dtype=np.int64)


_CHUNKERS = {
    POLICY_STATIC: lambda n, w, c: _static_bounds(n, w),
    POLICY_DYNAMIC: _dynamic_bounds,
    POLICY_GUIDED: _guided_bounds,
}


# ----------------------------------------------------------------------
# Plan builders
# ----------------------------------------------------------------------


def build_chunk_plan(
    element_offsets: np.ndarray,
    workers: int,
    policy: str = POLICY_DYNAMIC,
    chunk_units: Optional[int] = None,
) -> ChunkPlan:
    """Chunk a unit range described by its element offsets.

    ``element_offsets`` has length ``num_units + 1``; unit ``u`` spans
    elements ``element_offsets[u]:element_offsets[u + 1]`` of the
    kernel's (sorted) arrays — e.g. a mode-sort plan's segment offsets
    or a fiber pointer array.
    """
    check_policy(policy)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    element_offsets = np.asarray(element_offsets, dtype=np.int64)
    num_units = int(element_offsets.shape[0]) - 1
    unit_bounds = _CHUNKERS[policy](num_units, workers, chunk_units)
    return ChunkPlan(
        policy=policy,
        workers=workers,
        unit_bounds=unit_bounds,
        offsets=element_offsets[unit_bounds],
    )


def build_element_chunk_plan(
    total_elements: int,
    workers: int,
    policy: str = POLICY_DYNAMIC,
    chunk_units: Optional[int] = None,
) -> ChunkPlan:
    """Chunk an elementwise range (unit == element, TEW/TS grain).

    Equivalent to :func:`build_chunk_plan` with identity offsets but
    without materializing an ``arange`` over every nonzero.
    """
    check_policy(policy)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    bounds = _CHUNKERS[policy](int(total_elements), workers, chunk_units)
    return ChunkPlan(
        policy=policy, workers=workers, unit_bounds=bounds, offsets=bounds
    )


def chunk_plan_for(
    tensor: object,
    *,
    grain: str,
    key: Hashable,
    element_offsets: np.ndarray,
    workers: int,
    policy: str = POLICY_DYNAMIC,
    chunk_units: Optional[int] = None,
) -> ChunkPlan:
    """Memoized chunk plan for one tensor's unit structure.

    Keyed by ``(grain, key, workers, policy, chunk_units)`` on top of the
    tensor's identity, so e.g. CP-ALS pays the partitioning once per
    (mode, worker count) for the whole decomposition.
    """

    def build() -> ChunkPlan:
        return build_chunk_plan(element_offsets, workers, policy, chunk_units)

    return get_plan_cache().get(
        tensor,
        KIND_PARTITION,
        (grain, key, int(workers), policy, chunk_units),
        build,
    )
