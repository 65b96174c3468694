"""Shared-memory parallel kernel executor with schedule-driven partitioning.

The paper's CPU algorithms are OpenMP parallel loops; the seed executed
every kernel single-threaded even though the :class:`KernelSchedule`
layer models grains and load imbalance.  This module closes that gap
with a persistent pool of worker threads — numpy releases the GIL inside
its inner loops, so chunked gathers/multiplies/reductions genuinely
overlap — driven by the OpenMP-style partitioners in
:mod:`repro.perf.partition`.

Design points:

* **Disjoint output ownership.**  Kernels partition by *output* units
  (MTTKRP's output-row segments, TTV/TTM's fibers, TEW/TS's nonzero
  ranges), so no two workers ever write the same output row.  There are
  no atomics, partial sums accumulate in float64 exactly as the serial
  path does, and every chunk reduces the same elements in the same
  order — parallel results are **bit-identical to serial**.
* **One body per kernel.**  A kernel states its arithmetic once, as the
  chunk task.  Serial execution is the one-chunk run of that task:
  ``run_chunks(None, task, units=..., elements=...)`` makes one inline
  call over the whole range, with no report and no sanitizer check.
* **Persistent workers.**  Helper threads are spawned once and kept
  (daemon, idle on a queue); each parallel region enqueues one ticket
  per helper and the calling thread works as worker 0, mirroring an
  OpenMP parallel region.
* **Measured imbalance.**  Each worker records its share's wall time and
  element count; the resulting :class:`ExecutionReport` puts *measured*
  load imbalance next to :meth:`KernelSchedule.load_imbalance`'s
  prediction, closing the loop between machine models and execution.
* **Configuration.**  ``set_num_threads()`` / ``REPRO_NUM_THREADS``
  select the worker count (default 1 = serial, the seed behavior),
  ``set_schedule()`` / ``REPRO_SCHEDULE`` the policy, and
  ``set_min_parallel_nnz()`` / ``REPRO_PARALLEL_MIN_NNZ`` the one
  parallel threshold: the nonzeros each worker must receive.  An input
  gets ``nnz // min_parallel_nnz`` workers, clamped to the thread
  count, and stays serial below two workers' worth — for tiny tensors
  thread dispatch costs more than the kernel itself.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from queue import SimpleQueue
from time import perf_counter
from typing import Any, Callable, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from ..analysis.sanitizer import checked_task, sanitizer_enabled
from .partition import (
    POLICY_DYNAMIC,
    POLICY_STATIC,
    ChunkPlan,
    build_element_chunk_plan,
    check_policy,
    chunk_plan_for,
)

#: Nonzeros each worker must receive by default: below that the numpy
#: calls finish in microseconds and chunk dispatch would dominate.
DEFAULT_MIN_PARALLEL_NNZ = 8192


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


_NUM_THREADS = max(1, _env_int("REPRO_NUM_THREADS", 1))
_POLICY = os.environ.get("REPRO_SCHEDULE", POLICY_DYNAMIC)
if _POLICY not in ("static", "dynamic", "guided"):
    _POLICY = POLICY_DYNAMIC
_CHUNK_UNITS: Optional[int] = None
_MIN_PARALLEL_NNZ = max(0, _env_int("REPRO_PARALLEL_MIN_NNZ", DEFAULT_MIN_PARALLEL_NNZ))


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


def get_num_threads() -> int:
    """Worker count parallel kernels use (1 = serial)."""
    return _NUM_THREADS


def _at_least(name: str, value: int, minimum: int) -> int:
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def set_num_threads(num_threads: int) -> int:
    """Set the worker count; returns the previous value."""
    global _NUM_THREADS
    previous = _NUM_THREADS
    _NUM_THREADS = _at_least("num_threads", num_threads, 1)
    return previous


def get_schedule() -> Tuple[str, Optional[int]]:
    """Current ``(policy, chunk_units)`` schedule."""
    return _POLICY, _CHUNK_UNITS


def set_schedule(
    policy: str, chunk_units: Optional[int] = None
) -> Tuple[str, Optional[int]]:
    """Set the OpenMP-style schedule; returns the previous setting."""
    global _POLICY, _CHUNK_UNITS
    check_policy(policy)
    if chunk_units is not None:
        chunk_units = _at_least("chunk_units", chunk_units, 1)
    previous = (_POLICY, _CHUNK_UNITS)
    _POLICY = policy
    _CHUNK_UNITS = chunk_units
    return previous


def get_min_parallel_nnz() -> int:
    """Nonzeros each worker must receive before a kernel parallelizes."""
    return _MIN_PARALLEL_NNZ


def set_min_parallel_nnz(min_nnz: int) -> int:
    """Set the per-worker threshold; returns the previous value."""
    global _MIN_PARALLEL_NNZ
    previous = _MIN_PARALLEL_NNZ
    _MIN_PARALLEL_NNZ = _at_least("min_parallel_nnz", min_nnz, 0)
    return previous


def max_parallel_workers(total_elements: int) -> int:
    """Worker count the threshold allows for this input size.

    ``total // min_parallel_nnz`` workers, clamped to the configured
    thread count — an input big enough for 3 productive workers on an
    8-thread config runs with 3, and one below ``2x`` the threshold
    returns 1 (serial).  A zero threshold disables the gate.
    """
    if _NUM_THREADS <= 1:
        return 1
    if _MIN_PARALLEL_NNZ <= 0:
        return _NUM_THREADS
    return max(1, min(_NUM_THREADS, int(total_elements) // _MIN_PARALLEL_NNZ))


@contextmanager
def parallel_config(
    num_threads: Optional[int] = None,
    schedule: Optional[str] = None,
    chunk_units: Optional[int] = None,
    min_parallel_nnz: Optional[int] = None,
) -> Iterator[None]:
    """Run a block under a temporary parallel configuration.

    ``None`` leaves a knob unchanged, so apps can forward their own
    optional ``num_threads=``/``schedule=`` arguments straight through.
    Every argument is validated before any knob changes, so an invalid
    one leaves the whole configuration as it was.
    """
    if num_threads is not None:
        _at_least("num_threads", num_threads, 1)
    if schedule is not None or chunk_units is not None:
        check_policy(schedule)
    if chunk_units is not None:
        _at_least("chunk_units", chunk_units, 1)
    if min_parallel_nnz is not None:
        _at_least("min_parallel_nnz", min_parallel_nnz, 0)
    prev_threads = set_num_threads(num_threads) if num_threads is not None else None
    prev_schedule = (
        set_schedule(schedule, chunk_units)
        if schedule is not None or chunk_units is not None
        else None
    )
    prev_min = (
        set_min_parallel_nnz(min_parallel_nnz)
        if min_parallel_nnz is not None
        else None
    )
    try:
        yield
    finally:
        if prev_threads is not None:
            set_num_threads(prev_threads)
        if prev_schedule is not None:
            set_schedule(*prev_schedule)
        if prev_min is not None:
            set_min_parallel_nnz(prev_min)


# ----------------------------------------------------------------------
# Execution reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionReport:
    """What one parallel kernel region actually did, per worker.

    ``measured_imbalance`` is the wall-time analogue of
    :meth:`KernelSchedule.load_imbalance`: the slowest worker's share
    time over the mean.  ``element_imbalance`` is the same ratio on
    per-worker element counts — deterministic under the static policy,
    which makes it the quantity tests compare against the model.
    """

    kernel: str
    grain: str
    policy: str
    workers: int
    num_chunks: int
    total_elements: int
    wall_seconds: float
    worker_seconds: Tuple[float, ...] = field(default_factory=tuple)
    worker_elements: Tuple[int, ...] = field(default_factory=tuple)
    worker_chunks: Tuple[int, ...] = field(default_factory=tuple)

    @staticmethod
    def _imbalance(loads: Tuple[float, ...]) -> float:
        if not loads:
            return 1.0
        total = float(sum(loads))
        if total <= 0.0:
            return 1.0
        return max(loads) * len(loads) / total

    @property
    def measured_imbalance(self) -> float:
        """Slowest worker's wall time over the mean (1.0 = perfect)."""
        return self._imbalance(self.worker_seconds)

    @property
    def element_imbalance(self) -> float:
        """Heaviest worker's element count over the mean (deterministic)."""
        return self._imbalance(tuple(float(c) for c in self.worker_elements))


_LAST_REPORT: Optional[ExecutionReport] = None


def last_parallel_report() -> Optional[ExecutionReport]:
    """The most recent parallel region's report (``None`` if none ran)."""
    return _LAST_REPORT


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------

_ACTIVE = threading.local()
_QUEUE: "SimpleQueue[Tuple[_Job, int]]" = SimpleQueue()
_HELPERS: List[threading.Thread] = []
_POOL_LOCK = threading.Lock()


def _in_parallel_region() -> bool:
    return bool(getattr(_ACTIVE, "flag", False))


def _helper_loop() -> None:
    while True:
        job, slot = _QUEUE.get()
        job.run_share(slot)


def _ensure_helpers(count: int) -> None:
    """Grow the persistent helper pool to at least ``count`` threads."""
    with _POOL_LOCK:
        while len(_HELPERS) < count:
            thread = threading.Thread(
                target=_helper_loop,
                name=f"repro-worker-{len(_HELPERS) + 1}",
                daemon=True,
            )
            thread.start()
            _HELPERS.append(thread)


def pool_size() -> int:
    """Number of persistent helper threads currently alive."""
    return len(_HELPERS)


class _Job:
    """One parallel region: tasks, scheduling state, per-worker stats."""

    __slots__ = (
        "plan",
        "task",
        "workers",
        "static",
        "element_counts",
        "worker_seconds",
        "worker_elements",
        "worker_chunks",
        "_next",
        "_lock",
        "_remaining",
        "_done",
        "errors",
    )

    def __init__(
        self,
        plan: ChunkPlan,
        task: Callable[[int, int, int, int, int], None],
        workers: int,
        static: bool,
    ) -> None:
        self.plan = plan
        self.task = task
        self.workers = workers
        self.static = static
        self.element_counts = plan.element_counts()
        self.worker_seconds = [0.0] * workers
        self.worker_elements = [0] * workers
        self.worker_chunks = [0] * workers
        self._next = 0
        self._lock = threading.Lock()
        self._remaining = workers
        self._done = threading.Event()
        self.errors: List[BaseException] = []

    def _run_task(self, index: int, slot: int) -> None:
        bounds = self.plan.unit_bounds
        offsets = self.plan.offsets
        self.task(
            index,
            int(bounds[index]),
            int(bounds[index + 1]),
            int(offsets[index]),
            int(offsets[index + 1]),
        )
        self.worker_elements[slot] += int(self.element_counts[index])
        self.worker_chunks[slot] += 1

    def run_share(self, slot: int) -> None:
        was_active = _in_parallel_region()
        _ACTIVE.flag = True
        start = perf_counter()
        try:
            if self.static:
                # OMP static: chunk i belongs to worker i (round-robin
                # when the partitioner emitted more chunks than workers).
                for index in range(slot, self.plan.num_chunks, self.workers):
                    self._run_task(index, slot)
            else:
                # OMP dynamic/guided: pull the next chunk when free.
                while True:
                    with self._lock:
                        index = self._next
                        self._next += 1
                    if index >= self.plan.num_chunks:
                        break
                    self._run_task(index, slot)
        except BaseException as exc:  # propagate to the caller
            with self._lock:
                self.errors.append(exc)
        finally:
            self.worker_seconds[slot] = perf_counter() - start
            _ACTIVE.flag = was_active
            with self._lock:
                self._remaining -= 1
                if self._remaining == 0:
                    self._done.set()


def run_chunks(
    plan: Optional[ChunkPlan],
    task: Callable[[int, int, int, int, int], None],
    *,
    units: int = 0,
    elements: int = 0,
    kernel: str = "",
    grain: str = "",
    outputs: Tuple[Tuple[np.ndarray, Any], ...] = (),
) -> Optional[ExecutionReport]:
    """Execute one chunked kernel region; returns its report.

    ``task(chunk, unit_lo, unit_hi, elem_lo, elem_hi)`` computes one
    chunk; it must write only output owned by units
    ``unit_lo:unit_hi``.  The caller participates as worker 0, helpers
    cover the remaining slots; with one worker (or inside an enclosing
    parallel region) everything runs inline on the calling thread.

    ``plan=None`` (what :func:`kernel_chunk_plan` returns for a serial
    run) is the one-chunk run: a single inline ``task(0, 0, units, 0,
    elements)`` over the whole range.  It returns ``None``, records no
    report, and is not checked by the sanitizer.

    ``outputs`` declares the arrays the task writes and which rows each
    chunk owns (``(array, kind)`` with kind ``"element"``, ``"unit"``,
    or ``("rows", targets)`` — see :mod:`repro.analysis.sanitizer`).
    It is ignored in normal runs; under ``REPRO_SANITIZE=1`` the region
    executes in checked-serial mode, which verifies every chunk claims
    a disjoint region and writes only the rows it owns.  Checked-serial
    results stay bit-identical to both serial and parallel execution.
    """
    global _LAST_REPORT
    if plan is None:
        task(0, 0, units, 0, elements)
        return None
    start = perf_counter()
    workers = max(1, min(plan.workers, plan.num_chunks))
    if sanitizer_enabled():
        # Checked serial: each worker's static share runs in turn on this
        # thread with ownership claims and complement-snapshot write
        # verification, so the report still carries per-worker shares.
        job = _Job(plan, checked_task(task, outputs), workers, True)
        for slot in range(workers):
            job.run_share(slot)
    elif workers <= 1 or _in_parallel_region():
        job = _Job(plan, task, 1, True)
        job.run_share(0)
    else:
        job = _Job(plan, task, workers, plan.policy == POLICY_STATIC)
        _ensure_helpers(workers - 1)
        for slot in range(1, workers):
            _QUEUE.put((job, slot))
        job.run_share(0)
        job._done.wait()
    if job.errors:
        raise job.errors[0]
    report = ExecutionReport(
        kernel=kernel,
        grain=grain,
        policy=plan.policy,
        workers=job.workers,
        num_chunks=plan.num_chunks,
        total_elements=plan.total_elements,
        wall_seconds=perf_counter() - start,
        worker_seconds=tuple(job.worker_seconds),
        worker_elements=tuple(job.worker_elements),
        worker_chunks=tuple(job.worker_chunks),
    )
    _LAST_REPORT = report
    return report


# ----------------------------------------------------------------------
# Kernel-facing gate
# ----------------------------------------------------------------------


def want_parallel(total_elements: int) -> bool:
    """Whether the current config asks for a parallel execution at all."""
    return (
        total_elements > 0
        and max_parallel_workers(total_elements) > 1
        and not _in_parallel_region()
    )


def kernel_chunk_plan(
    tensor: Optional[Any],
    *,
    grain: str,
    key: Hashable = None,
    element_offsets: Optional[np.ndarray] = None,
    total_elements: Optional[int] = None,
) -> Optional[ChunkPlan]:
    """The chunk plan a kernel should execute, or ``None`` to run serial.

    Unit-structured grains (``segment``, ``fiber``, ``block``) pass
    ``element_offsets`` (length ``num_units + 1``) and get a plan
    memoized on ``tensor``; the elementwise ``nonzero`` grain passes
    ``total_elements`` and gets an unmemoized plan (chunking a flat
    range costs nothing to rebuild).
    """
    if element_offsets is not None:
        num_units = int(len(element_offsets)) - 1
        total = int(element_offsets[-1]) if num_units > 0 else 0
    else:
        if total_elements is None:
            raise ValueError("need element_offsets or total_elements")
        total = int(total_elements)
        num_units = total
    if num_units <= 1 or not want_parallel(total):
        return None
    workers = min(max_parallel_workers(total), num_units)
    if element_offsets is None:
        return build_element_chunk_plan(total, workers, _POLICY, _CHUNK_UNITS)
    return chunk_plan_for(
        tensor,
        grain=grain,
        key=key,
        element_offsets=element_offsets,
        workers=workers,
        policy=_POLICY,
        chunk_units=_CHUNK_UNITS,
    )
