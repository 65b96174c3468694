"""Tucker decomposition via TTM chains (HOSVD / HOOI).

The paper's future-work list opens with "TTM-chain in Tucker
decomposition" (Section VII), and motivates TTM itself through the
Tucker method (Section II-D).  This module implements:

* :func:`ttm_chain` — successive sparse/semi-sparse TTMs over several
  modes, the composite operation Tucker sweeps execute;
* :func:`hosvd` — truncated higher-order SVD initialization;
* :func:`hooi` — higher-order orthogonal iteration, each sweep being a
  TTM chain over all-but-one mode followed by an SVD of the unfolding.

The factor convention matches the suite's TTM: ``U^(n)`` has shape
``(I_n, R_n)`` and ``ttm(x, U, n)`` contracts ``sum_i x[.., i, ..] *
U[i, r]`` — i.e. projection onto the factor columns, which is exactly
the contraction HOOI needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.reference import unfold
from ..core.ttm import ttm_coo
from ..errors import IncompatibleOperandsError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..perf.parallel import parallel_config


@dataclass
class TuckerResult:
    """Tucker model: core tensor plus one orthonormal factor per mode."""

    core: np.ndarray
    factors: List[np.ndarray]
    fits: List[float]

    @property
    def ranks(self) -> tuple:
        """The multilinear rank (core shape)."""
        return self.core.shape

    @property
    def final_fit(self) -> float:
        """Fit of the last sweep (1 is perfect)."""
        return self.fits[-1] if self.fits else 0.0

    def reconstruct_dense(self) -> np.ndarray:
        """Materialize the model: ``core x_1 U1 x_2 U2 ...`` (dense)."""
        out = self.core
        for mode, factor in enumerate(self.factors):
            out = np.moveaxis(
                np.tensordot(out, factor, axes=([mode], [1])), -1, mode
            )
        return out


def _check_ranks(tensor: CooTensor, ranks: Sequence[int]) -> List[int]:
    if len(ranks) != tensor.order:
        raise IncompatibleOperandsError(
            f"need one rank per mode ({tensor.order}), got {len(ranks)}"
        )
    checked = []
    for mode, (rank, size) in enumerate(zip(ranks, tensor.shape)):
        if not 1 <= rank <= size:
            raise IncompatibleOperandsError(
                f"rank {rank} invalid for mode {mode} of size {size}"
            )
        checked.append(int(rank))
    return checked


def ttm_chain(
    tensor: CooTensor,
    matrices: Dict[int, np.ndarray],
    configs: Optional[Dict[int, object]] = None,
) -> CooTensor:
    """Apply TTM in several modes successively (a Tucker sweep's core op).

    ``matrices[mode]`` has shape ``(I_mode, R_mode)``.  Each step uses
    the suite's sparse TTM; the semi-sparse intermediate is re-sparsified
    between steps.  Contracting the largest modes first keeps the
    intermediates smallest, so modes are processed in decreasing size.
    ``configs`` optionally maps a mode to a
    :class:`~repro.perf.autotune.TuneConfig` that routes that step
    through the dispatch layer's chosen kernel variant.
    """
    current = tensor
    for mode in sorted(matrices, key=lambda m: -tensor.shape[m]):
        matrix = np.asarray(matrices[mode], dtype=VALUE_DTYPE)
        if configs is not None and mode in configs:
            from ..perf.dispatch import ttm as ttm_dispatch

            semi = ttm_dispatch(current, matrix, mode, variant=configs[mode])
        else:
            semi = ttm_coo(current, matrix, mode)
        current = semi.to_coo(drop_zeros=True)
    return current


def _ttm_configs(
    tensor: CooTensor, ranks: Sequence[int], variant: Optional[str]
) -> Optional[Dict[int, object]]:
    """Resolve one TTM dispatch config per mode (None when not dispatching)."""
    if variant is None:
        return None
    from ..perf.dispatch import resolve_config

    return {
        mode: resolve_config(
            tensor, "TTM", variant=variant, mode=mode, rank=int(ranks[mode])
        )
        for mode in range(tensor.order)
    }


def hosvd(
    tensor: CooTensor,
    ranks: Sequence[int],
    *,
    variant: Optional[str] = None,
    num_threads: Optional[int] = None,
    schedule: Optional[str] = None,
) -> TuckerResult:
    """Truncated HOSVD: per-mode SVD of the unfolding, then core by TTM.

    Materializes per-mode Gram matrices ``X_(n) X_(n)^T`` sparsely (size
    ``I_n x I_n``), so it is practical whenever every dimension fits in
    memory squared.  ``variant`` routes each TTM through the dispatch
    layer (``"auto"`` tunes once per mode on the input tensor).
    ``num_threads`` / ``schedule`` run the TTM chain under that parallel
    configuration (``None`` keeps the process-wide setting).
    """
    ranks = _check_ranks(tensor, ranks)
    with parallel_config(num_threads=num_threads, schedule=schedule):
        configs = _ttm_configs(tensor, ranks, variant)
        factors: List[np.ndarray] = []
        for mode, rank in enumerate(ranks):
            gram = _mode_gram(tensor, mode)
            eigenvalues, eigenvectors = np.linalg.eigh(gram)
            top = np.argsort(eigenvalues)[::-1][:rank]
            factors.append(np.ascontiguousarray(eigenvectors[:, top]))
        core_sparse = ttm_chain(tensor, dict(enumerate(factors)), configs)
        core = core_sparse.to_dense().astype(np.float64)
    fit = _fit(tensor, core)
    return TuckerResult(core=core, factors=factors, fits=[fit])


def hooi(
    tensor: CooTensor,
    ranks: Sequence[int],
    *,
    max_sweeps: int = 25,
    tolerance: float = 1e-6,
    initialization: Optional[TuckerResult] = None,
    variant: Optional[str] = None,
    num_threads: Optional[int] = None,
    schedule: Optional[str] = None,
) -> TuckerResult:
    """Higher-order orthogonal iteration (HOOI) for sparse tensors.

    Each sweep updates every factor: project onto all *other* factors
    with a TTM chain, unfold the (now small) result in the target mode,
    and take its top left singular vectors.  Initialized by HOSVD unless
    ``initialization`` is given.  The fit is
    ``||core|| / ||X||`` (orthonormal factors make this exact).
    ``variant`` routes every TTM through the dispatch layer; ``"auto"``
    tunes once per mode before the first sweep and reuses the decision
    across sweeps.  ``num_threads`` / ``schedule`` run every TTM under
    that parallel configuration (``None`` keeps the process-wide
    setting).
    """
    ranks = _check_ranks(tensor, ranks)
    with parallel_config(num_threads=num_threads, schedule=schedule):
        start = (
            initialization
            if initialization is not None
            else hosvd(tensor, ranks, variant=variant)
        )
        configs = _ttm_configs(tensor, ranks, variant)
        factors = [f.copy() for f in start.factors]
        fits: List[float] = []
        previous_fit = -1.0
        for _sweep in range(max_sweeps):
            for mode in range(tensor.order):
                others = {
                    m: factors[m] for m in range(tensor.order) if m != mode
                }
                projected = ttm_chain(tensor, others, configs)
                unfolded = unfold(projected.to_dense().astype(np.float64), mode)
                u, _s, _vt = np.linalg.svd(unfolded, full_matrices=False)
                factors[mode] = np.ascontiguousarray(u[:, : ranks[mode]])
            core_sparse = ttm_chain(tensor, dict(enumerate(factors)), configs)
            core = core_sparse.to_dense().astype(np.float64)
            fit = _fit(tensor, core)
            fits.append(fit)
            if abs(fit - previous_fit) < tolerance:
                break
            previous_fit = fit
    return TuckerResult(core=core, factors=factors, fits=fits)


def _mode_gram(tensor: CooTensor, mode: int) -> np.ndarray:
    """Sparse ``X_(n) X_(n)^T``: Gram matrix of the mode-``n`` unfolding."""
    from ..perf.plans import fiber_plan

    plan = fiber_plan(tensor, mode)
    fptr = plan.fptr
    size = tensor.shape[mode]
    gram = np.zeros((size, size), dtype=np.float64)
    ids = plan.sorted_indices[mode]
    values = tensor.values[plan.perm].astype(np.float64)
    for f in range(len(fptr) - 1):
        lo, hi = fptr[f], fptr[f + 1]
        rows = ids[lo:hi]
        vals = values[lo:hi]
        gram[np.ix_(rows, rows)] += np.outer(vals, vals)
    return gram


def _fit(tensor: CooTensor, core: np.ndarray) -> float:
    """Tucker fit with orthonormal factors: ||core|| / ||X||."""
    norm_x = float(np.linalg.norm(tensor.values.astype(np.float64)))
    if norm_x == 0.0:
        return 1.0
    captured = min(float(np.linalg.norm(core)), norm_x)
    residual = np.sqrt(max(norm_x**2 - captured**2, 0.0))
    return 1.0 - residual / norm_x
