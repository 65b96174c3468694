"""CANDECOMP/PARAFAC decomposition (CPD) by alternating least squares.

The paper calls MTTKRP "the most computational expensive kernel in
CANDECOMP/PARAFAC decomposition (CPD)" (Section II-E).  This module
implements sparse CP-ALS on top of the suite's MTTKRP kernel, both to
exercise the kernel in its real application context and to serve as a
runnable example workload.

Each ALS sweep updates every factor in turn:

    U^(n)  <-  MTTKRP_n(X, U) @ pinv( hadamard_{m != n} (U^(m)T U^(m)) )

with the Gram matrices ``U^(m)T U^(m)`` stored across the sweep and
column normalization absorbed into ``weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from ..core.mttkrp import check_factors
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..perf.parallel import parallel_config

if TYPE_CHECKING:  # pragma: no cover
    from ..io.binfile import MmapCooTensor


@dataclass
class CpdResult:
    """CP model: per-component weights, factor matrices, fit trace."""

    weights: np.ndarray
    factors: List[np.ndarray]
    fits: List[float]

    @property
    def rank(self) -> int:
        """Number of rank-1 components."""
        return int(self.weights.shape[0])

    @property
    def final_fit(self) -> float:
        """Fit of the last sweep (1 is perfect)."""
        return self.fits[-1] if self.fits else 0.0

    def reconstruct_dense(self) -> np.ndarray:
        """Materialize the CP model as a dense tensor (small inputs only)."""
        rank = self.rank
        order = len(self.factors)
        shape = tuple(f.shape[0] for f in self.factors)
        out = np.zeros(shape, dtype=np.float64)
        for r in range(rank):
            component = self.weights[r]
            outer = self.factors[0][:, r]
            for m in range(1, order):
                outer = np.multiply.outer(outer, self.factors[m][:, r])
            out += component * outer
        return out


def _hadamard(
    grams: Sequence[np.ndarray], skip: Optional[int] = None
) -> np.ndarray:
    """Hadamard product of the stored Gram matrices, excluding ``skip``."""
    rank = grams[0].shape[0]
    v = np.ones((rank, rank), dtype=np.float64)
    for m, g in enumerate(grams):
        if m != skip:
            v *= g
    return v


def _tensor_norm(tensor: CooTensor) -> float:
    return float(np.linalg.norm(tensor.values.astype(np.float64)))


def cp_als(
    tensor: Union[CooTensor, "MmapCooTensor"],
    rank: int,
    *,
    max_sweeps: int = 50,
    tolerance: float = 1e-5,
    seed: int = 0,
    block_size: int = 128,
    variant: Optional[str] = None,
    initial_factors: Optional[Sequence[np.ndarray]] = None,
    num_threads: Optional[int] = None,
    schedule: Optional[str] = None,
) -> CpdResult:
    """Sparse CP-ALS driven by the suite's MTTKRP kernel.

    The fit is ``1 - ||X - model|| / ||X||``, evaluated sparsely; sweeps
    stop early when the fit improves by less than ``tolerance``.  Every
    MTTKRP goes through the dispatch layer with ``variant`` (``None``
    means ``"coo"``): ``"auto"`` autotunes one configuration per mode
    before the first sweep and reuses it for all sweeps; ``"coo"``/
    ``"hicoo"``/``"csf"``/``"coo_jit"``/``"hicoo_jit"`` force that
    kernel, ``"hicoo"`` matching the paper's HiCOO-MTTKRP algorithm at
    ``block_size``.  ``num_threads`` / ``schedule`` run every MTTKRP
    under that parallel configuration (``None`` keeps the process-wide
    setting); parallel sweeps produce bit-identical factors to serial
    ones.

    Each factor's Gram matrix ``U.T @ U`` is computed once at the start
    and refreshed only when that factor is updated; the normal-equation
    matrix of each mode and the model norm are Hadamard products of the
    stored Grams.

    An on-disk :class:`~repro.io.binfile.MmapCooTensor` runs the sweeps
    out of core: every MTTKRP and the norm go through
    :mod:`repro.perf.ooc`, so resident memory stays bounded by the
    out-of-core budget plus the factor matrices.  The out-of-core path
    is COO-only — any ``variant`` raises ``ValueError``.

    ``ValueError`` is also raised, before any work, when ``rank < 1`` or
    an initial factor does not have ``rank`` columns.
    """
    from ..io.binfile import MmapCooTensor
    from ..perf import ooc

    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    out_of_core = isinstance(tensor, MmapCooTensor)
    if out_of_core and variant is not None:
        raise ValueError(
            "out-of-core CP-ALS supports only the COO kernel; "
            "variant is unavailable for mmap-backed tensors"
        )
    rng = np.random.default_rng(seed)
    if initial_factors is not None:
        factors = [np.array(f, dtype=np.float64) for f in initial_factors]
        check_factors(tensor.shape, [f.astype(VALUE_DTYPE) for f in factors])
        for mode, factor in enumerate(factors):
            if factor.shape[1] != rank:
                raise ValueError(
                    f"initial factor {mode} has {factor.shape[1]} columns, "
                    f"but rank is {rank}"
                )
    else:
        factors = [
            rng.uniform(0.1, 1.0, size=(s, rank)) for s in tensor.shape
        ]
    if not out_of_core:
        from ..perf.dispatch import mttkrp as mttkrp_dispatch
        from ..perf.dispatch import resolve_config

        # Resolve once per mode, before the sweep loop; every sweep then
        # reuses the committed configuration.  Resolution runs under the
        # caller's parallel configuration so explicit variants adopt it.
        with parallel_config(num_threads=num_threads, schedule=schedule):
            configs = {
                mode: resolve_config(
                    tensor,
                    "MTTKRP",
                    variant="coo" if variant is None else variant,
                    block_size=block_size,
                    mode=mode,
                    rank=rank,
                    seed=seed,
                )
                for mode in range(tensor.order)
            }
    norm_x = ooc.tensor_norm(tensor) if out_of_core else _tensor_norm(tensor)
    fits: List[float] = []
    ones = np.ones(rank, dtype=np.float64)
    previous_fit = 0.0
    # Working float32 copies of the factors, refreshed one factor at a
    # time as each mode is updated — not all N factors N times per sweep.
    f32 = [f.astype(VALUE_DTYPE) for f in factors]
    grams = [f.T @ f for f in factors]
    last = tensor.order - 1
    with parallel_config(num_threads=num_threads, schedule=schedule):
        for _sweep in range(max_sweeps):
            for mode in range(tensor.order):
                if out_of_core:
                    m_new = ooc.mttkrp(tensor, f32, mode).astype(np.float64)  # repro: ignore[dtype]
                else:
                    m_new = mttkrp_dispatch(
                        tensor, f32, mode, variant=configs[mode]
                    ).astype(np.float64)
                factors[mode] = m_new @ np.linalg.pinv(_hadamard(grams, mode))
                f32[mode] = factors[mode].astype(VALUE_DTYPE)
                grams[mode] = factors[mode].T @ factors[mode]
            # Sparse fit evaluation with the raw (unnormalized) factors.
            # The last mode's MTTKRP already contracted every other mode,
            # so <X, model> is just its elementwise product with that
            # factor — no extra pass over the nonzeros.
            inner = float(np.sum(m_new * factors[last]))
            norm_model_sq = float(ones @ _hadamard(grams) @ ones)
            residual_sq = max(norm_x**2 - 2 * inner + norm_model_sq, 0.0)
            fit = 1.0 - np.sqrt(residual_sq) / norm_x if norm_x else 1.0
            fits.append(fit)
            if abs(fit - previous_fit) < tolerance:
                break
            previous_fit = fit
    # Pull column norms out into the weight vector.
    weights = np.ones(rank, dtype=np.float64)
    for mode, factor in enumerate(factors):
        norms = np.linalg.norm(factor, axis=0)
        norms[norms == 0] = 1.0
        factors[mode] = factor / norms
        weights = weights * norms
    return CpdResult(weights=weights, factors=factors, fits=fits)


def random_low_rank_tensor(
    shape: Sequence[int],
    rank: int,
    *,
    support: int = 6,
    seed: int = 0,
) -> CooTensor:
    """A sparse tensor that is *exactly* rank-``rank`` (ground truth input).

    Each component's factor vectors are supported on ``support`` random
    rows per mode, so every rank-1 component is a sparse outer product
    and their sum — including all implicit zeros — has CP rank at most
    ``rank``.  CP-ALS at the generating rank should drive the fit to ~1.
    """
    import itertools

    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    order = len(shape)
    pieces_idx = []
    pieces_val = []
    for _r in range(rank):
        supports = [
            rng.choice(s, size=min(support, s), replace=False) for s in shape
        ]
        coefficients = [
            rng.uniform(0.2, 1.0, size=len(sup)) for sup in supports
        ]
        grids = np.meshgrid(*supports, indexing="ij")
        coords = np.vstack([g.reshape(-1) for g in grids])
        value_grids = np.meshgrid(*coefficients, indexing="ij")
        values = np.ones(coords.shape[1], dtype=np.float64)
        for g in value_grids:
            values = values * g.reshape(-1)
        pieces_idx.append(coords)
        pieces_val.append(values)
    indices = np.concatenate(pieces_idx, axis=1)
    values = np.concatenate(pieces_val).astype(VALUE_DTYPE)
    tensor = CooTensor(shape, indices.astype(np.int32), values, validate=False)
    return tensor.sum_duplicates()
