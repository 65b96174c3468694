"""Request grouping and fused batch execution.

The server drains its job queue and hands each drained slice to
:func:`group_jobs`, which buckets compatible requests: same tensor, same
kernel, same mode, same variant/block size.  Every job in a group shares
one resolved :class:`~repro.perf.autotune.TuneConfig` and therefore one
mode-sort plan (and HiCOO conversion) out of the plan cache — the
pre-processing the paper amortizes is paid once per group instead of
once per request.

Groups of column-separable kernels go further and **fuse**: MTTKRP and
TTM consume their dense operand column-by-column (elementwise products
plus per-column segmented reductions), so concatenating the per-request
factor/matrix columns into one rank-``sum(r_i)`` operand and slicing the
output columns apart afterwards executes the identical floating-point
operations in the identical order per column.  Fused results are
therefore *bit-identical* to sequential per-request execution — the
property the conformance ``batch`` twin check and the hypothesis
suite assert.  Chunked parallel execution preserves this too: chunk
plans are built from nonzero offsets only (never the dense rank), so
fused and sequential runs see the same chunk boundaries.

Fusion is deliberately conservative:

* only in-RAM tensors (the out-of-core kernels pick their step plan
  from the memory budget *and the rank*, so a fused rank would change
  partial-sum boundaries);
* only the ``coo`` and ``hicoo`` variants, whose per-column
  independence is guaranteed by the numpy kernels;
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
from ..core.tew import tew_coo
from ..core.ts import ts
from ..errors import PastaError
from ..formats.scoo import SemiSparseCooTensor
from ..formats.shicoo import SHicooTensor
from ..perf import ooc
from ..perf.dispatch import resolve_config, run_config
from .protocol import ProtocolError, result_digest
from .registry import TensorEntry

#: Cap on the summed rank of one fused kernel call; groups past it are
#: split so the fused dense intermediate stays bounded.
FUSED_RANK_CAP = 256

#: Kernels whose dense operand is consumed column-by-column.
FUSABLE_KERNELS = ("MTTKRP", "TTM")

#: Variants whose numpy kernels are per-column independent (verified).
FUSABLE_VARIANTS = ("coo", "hicoo")

#: Kernels an mmap-backed entry can serve (out-of-core implementations).
MMAP_KERNELS = ("TTV", "TTM", "MTTKRP")


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


def check_job(entry: TensorEntry, req: Dict[str, Any]) -> None:
    """Admission checks that need the registry entry; raises 400."""
    kernel = req["kernel"]
    if not 0 <= req["mode"] < entry.order:
        raise ProtocolError(
            400,
            f"mode {req['mode']} out of range for order-{entry.order} "
            f"tensor {entry.name!r}",
        )
    if entry.kind == "mmap":
        if kernel not in MMAP_KERNELS:
            raise ProtocolError(
                400,
                f"kernel {kernel!r} is not available on mmap-backed "
                f"tensors; use one of {MMAP_KERNELS}",
            )
        if req["variant"] != "coo":
            raise ProtocolError(
                400, "mmap-backed tensors serve only the 'coo' variant"
            )
    elif kernel in ("TEW", "TS") and req["variant"] != "coo":
        raise ProtocolError(
            400, f"kernel {kernel!r} serves only the 'coo' variant"
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
        fusable = bucket[0].kernel in FUSABLE_KERNELS
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
        if job.kernel == "MTTKRP":
            return ooc.mttkrp(tensor, list(operands.factors), job.mode)
        if job.kernel == "TTV":
            return ooc.ttv(tensor, operands.vector, job.mode)
        if job.kernel == "TTM":
            return ooc.ttm(tensor, operands.matrix, job.mode)
        raise ProtocolError(400, f"kernel {job.kernel!r} unsupported on mmap")
    if job.kernel == "TEW":
        return tew_coo(tensor, operands.second_tensor, "add")
    if job.kernel == "TS":
        return ts(tensor, operands.scalar, "mul")
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


def _can_fuse(jobs: List[KernelJob]) -> bool:
    head = jobs[0]
    return (
        len(jobs) > 1
        and head.entry.kind == "ram"
        and head.kernel in FUSABLE_KERNELS
        and head.variant in FUSABLE_VARIANTS
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
    config = resolve_config(
        tensor,
        head.kernel,
        variant=head.variant,
        block_size=head.block_size,
        mode=head.mode,
        rank=head.rank,
        seed=head.seed,
    )
    per_job = [_operands(job) for job in jobs]
    edges = _column_edges(jobs)
    if head.kernel == "MTTKRP":
        order = head.entry.order
        fused_factors = tuple(
            np.concatenate([ops.factors[m] for ops in per_job], axis=1)
            for m in range(order)
        )
        out = run_config(
            tensor,
            "MTTKRP",
            config,
            KernelOperands(factors=fused_factors),
            mode=head.mode,
        )
        return [np.ascontiguousarray(out[:, a:b]) for a, b in edges]
    # TTM: concatenate matrix columns; rebuild per-request semi-sparse
    # outputs around the shared (rank-independent) index structure.
    fused_matrix = np.concatenate([ops.matrix for ops in per_job], axis=1)
    out = run_config(
        tensor,
        "TTM",
        config,
        KernelOperands(matrix=fused_matrix),
        mode=head.mode,
    )
    results = []
    for job, (a, b) in zip(jobs, edges):
        out_shape = list(head.entry.shape)
        out_shape[job.mode] = job.rank
        values = np.ascontiguousarray(out.values[:, a:b])
        if isinstance(out, SemiSparseCooTensor):
            results.append(
                SemiSparseCooTensor(
                    tuple(out_shape),
                    list(out.dense_modes),
                    out.indices,
                    values,
                    validate=False,
                )
            )
        elif isinstance(out, SHicooTensor):
            results.append(
                SHicooTensor(
                    tuple(out_shape),
                    out.block_size,
                    list(out.dense_modes),
                    out.bptr,
                    out.binds,
                    out.einds,
                    values,
                    validate=False,
                )
            )
        else:  # pragma: no cover — ttm variants return the two above
            raise PastaError(
                f"unexpected fused TTM output {type(out).__name__}"
            )
    return results


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
