"""Request grouping and fused batch execution.

The server drains its job queue and hands each drained slice to
:func:`group_jobs`, which buckets compatible requests: same tensor, same
kernel, same mode, same variant/block size.  Every job in a group shares
one resolved :class:`~repro.perf.autotune.TuneConfig` and therefore one
mode-sort plan (and HiCOO conversion) out of the plan cache — the
pre-processing the paper amortizes is paid once per group instead of
once per request.

Groups of a column-separable row of the kernel × variant table
(:attr:`repro.perf.variants.Row.separable`) go further and **fuse**:
MTTKRP and TTM consume their dense operand column-by-column
(elementwise products plus per-column segmented reductions), so
concatenating the per-request factor/matrix columns into one
rank-``sum(r_i)`` operand and slicing the output columns apart
afterwards executes the identical floating-point operations in the
identical order per column.  Fused results are
therefore *bit-identical* to sequential per-request execution — the
property the conformance ``batch`` twin check and the hypothesis
suite assert.  Chunked parallel execution preserves this too: chunk
plans are built from nonzero offsets only (never the dense rank), so
fused and sequential runs see the same chunk boundaries.

Fusion is deliberately conservative:

* only in-RAM tensors (the out-of-core kernels pick their step plan
  from the memory budget *and the rank*, so a fused rank would change
  partial-sum boundaries);
* only the rows the table marks separable — the numpy ``coo`` and
  ``hicoo`` MTTKRP/TTM kernels, whose per-column independence is
  verified;
* only up to :data:`FUSED_RANK_CAP` total columns, to bound the fused
  intermediate.

Everything else in a group still executes sequentially per request —
amortizing the shared plans — via the exact same single-request path
the unbatched baseline uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.registry import KernelOperands, make_operands
from ..formats.scoo import SemiSparseCooTensor
from ..formats.shicoo import SHicooTensor
from ..perf.autotune import TUNED_KERNELS
from ..perf.dispatch import resolve_config, run_config
from ..perf.variants import TABLE, lookup
from .protocol import ProtocolError, result_digest
from .registry import TensorEntry

#: Cap on the summed rank of one fused kernel call; groups past it are
#: split so the fused dense intermediate stays bounded.
FUSED_RANK_CAP = 256


@dataclass
class KernelJob:
    """One admitted kernel request, bound to its registry entry."""

    entry: TensorEntry
    kernel: str
    mode: int
    rank: int
    seed: int
    variant: str
    block_size: Optional[int]
    request_id: Any = None
    client: Any = None
    submitted: float = field(default_factory=time.monotonic)


@dataclass
class JobOutcome:
    """What one job produced: a result + digest, or a protocol error."""

    result: Any = None
    digest: Optional[str] = None
    error: Optional[ProtocolError] = None
    batch_size: int = 1
    fused: bool = False


def _served(kind: str) -> List[Tuple[str, str]]:
    """The (kernel, variant) pairs an entry of ``kind`` serves."""
    if kind == "mmap":
        return [key for key, row in TABLE.items() if row.ooc is not None]
    # TEW and TS are not tunable: serving offers them their coo row only.
    rows = [(k, v) for k, v in TABLE if k in TUNED_KERNELS or v == "coo"]
    return rows + [(k, "auto") for k in TUNED_KERNELS]


def check_job(entry: TensorEntry, req: Dict[str, Any]) -> None:
    """Admission checks that need the registry entry; raises 400."""
    kernel, variant = req["kernel"], req["variant"]
    if not 0 <= req["mode"] < entry.order:
        raise ProtocolError(
            400,
            f"mode {req['mode']} out of range for order-{entry.order} "
            f"tensor {entry.name!r}",
        )
    served = _served(entry.kind)
    if (kernel, variant) not in served:
        options = [v for k, v in served if k == kernel]
        raise ProtocolError(
            400,
            f"{kernel} variant {variant!r} is not served on {entry.kind} "
            f"tensors; served variants: {options or 'none'}",
        )


def group_key(job: KernelJob) -> Hashable:
    """Jobs sharing this key can share plans (and possibly fuse)."""
    return (job.entry.name, job.kernel, job.mode, job.variant, job.block_size)


def group_jobs(jobs: List[KernelJob], max_batch: int) -> List[List[KernelJob]]:
    """Bucket jobs by :func:`group_key`, preserving arrival order.

    Groups are split at ``max_batch`` jobs, and fusable groups also at
    :data:`FUSED_RANK_CAP` summed columns.
    """
    buckets: "Dict[Hashable, List[KernelJob]]" = {}
    order: List[Hashable] = []
    for job in jobs:
        key = group_key(job)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(job)
    groups: List[List[KernelJob]] = []
    for key in order:
        bucket = buckets[key]
        fusable = _separable(bucket[0])
        current: List[KernelJob] = []
        ranks = 0
        for job in bucket:
            over_rank = fusable and current and ranks + job.rank > FUSED_RANK_CAP
            if len(current) >= max_batch or over_rank:
                groups.append(current)
                current, ranks = [], 0
            current.append(job)
            ranks += job.rank
        if current:
            groups.append(current)
    return groups


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _operands(job: KernelJob) -> KernelOperands:
    return make_operands(
        job.entry.tensor,
        job.kernel,
        mode=job.mode,
        rank=job.rank,
        seed=job.seed,
    )


def _execute_one(job: KernelJob) -> Any:
    """The single-request path — also the sequential baseline."""
    tensor = job.entry.tensor
    operands = _operands(job)
    if job.entry.kind == "mmap":
        return lookup(job.kernel, job.variant).run_ooc(tensor, operands, job.mode)
    config = resolve_config(
        tensor,
        job.kernel,
        variant=job.variant,
        block_size=job.block_size,
        mode=job.mode,
        rank=job.rank,
        seed=job.seed,
    )
    return run_config(tensor, job.kernel, config, operands, mode=job.mode)


def _separable(job: KernelJob) -> bool:
    """Whether ``job`` runs an in-RAM column-separable row (may fuse)."""
    row = TABLE.get((job.kernel, job.variant))
    return job.entry.kind == "ram" and row is not None and row.separable


def _can_fuse(jobs: List[KernelJob]) -> bool:
    return (
        len(jobs) > 1
        and _separable(jobs[0])
        and sum(j.rank for j in jobs) <= FUSED_RANK_CAP
    )


def _column_edges(jobs: List[KernelJob]) -> List[Tuple[int, int]]:
    edges, start = [], 0
    for job in jobs:
        edges.append((start, start + job.rank))
        start += job.rank
    return edges


def _execute_fused(jobs: List[KernelJob]) -> List[Any]:
    """One fused kernel call; outputs sliced back per request.

    Column ``r`` of the fused operand sees exactly the floating-point
    operations column ``r`` of the per-request call would, so each
    slice is bitwise equal to :func:`_execute_one` on that job.
    """
    head = jobs[0]
    tensor = head.entry.tensor
    row = lookup(head.kernel, head.variant)
    config = resolve_config(
        tensor,
        head.kernel,
        variant=head.variant,
        block_size=head.block_size,
        mode=head.mode,
        rank=head.rank,
        seed=head.seed,
    )
    per_job = [row.operand_of(_operands(job)) for job in jobs]
    if row.operand == "factors":  # one matrix per mode
        fused = tuple(np.concatenate(cols, axis=1) for cols in zip(*per_job))
    else:
        fused = np.concatenate(per_job, axis=1)
    operands = KernelOperands(**{row.operand: fused})
    out = run_config(tensor, head.kernel, config, operands, mode=head.mode)
    return [_columns(out, job, a, b) for job, (a, b) in zip(jobs, _column_edges(jobs))]


def _columns(out: Any, job: KernelJob, a: int, b: int) -> Any:
    """Columns ``a:b`` of a fused output, as ``job``'s own result.

    A semi-sparse TTM output is rebuilt around the shared
    (rank-independent) index structure.
    """
    if isinstance(out, np.ndarray):
        return np.ascontiguousarray(out[:, a:b])
    shape = out.shape[: job.mode] + (job.rank,) + out.shape[job.mode + 1 :]
    values = np.ascontiguousarray(out.values[:, a:b])
    modes = list(out.dense_modes)
    if isinstance(out, SHicooTensor):
        return SHicooTensor(
            shape, out.block_size, modes, out.bptr, out.binds, out.einds, values,
            validate=False,
        )
    return SemiSparseCooTensor(shape, modes, out.indices, values, validate=False)


def execute_group(
    jobs: List[KernelJob], *, batch: bool = True
) -> List[JobOutcome]:
    """Run one compatible group; one outcome per job, in job order.

    ``batch=False`` is the unbatched baseline: every job takes the
    single-request path.  Exceptions are captured per group (fused) or
    per job (sequential) as 500-style outcomes — a poisoned request
    never takes down its neighbors' connections.
    """
    if batch and _can_fuse(jobs):
        try:
            results = _execute_fused(jobs)
        except ProtocolError as exc:
            return [JobOutcome(error=exc, batch_size=len(jobs)) for _ in jobs]
        except Exception as exc:  # noqa: BLE001 — surfaced as 500s
            err = ProtocolError(500, f"{type(exc).__name__}: {exc}")
            return [JobOutcome(error=err, batch_size=len(jobs)) for _ in jobs]
        return [
            JobOutcome(
                result=result,
                digest=result_digest(result),
                batch_size=len(jobs),
                fused=True,
            )
            for result in results
        ]
    outcomes = []
    for job in jobs:
        try:
            result = _execute_one(job)
        except ProtocolError as exc:
            outcomes.append(JobOutcome(error=exc, batch_size=len(jobs)))
            continue
        except Exception as exc:  # noqa: BLE001 — surfaced as a 500
            err = ProtocolError(500, f"{type(exc).__name__}: {exc}")
            outcomes.append(JobOutcome(error=err, batch_size=len(jobs)))
            continue
        outcomes.append(
            JobOutcome(
                result=result,
                digest=result_digest(result),
                batch_size=len(jobs),
            )
        )
    return outcomes
