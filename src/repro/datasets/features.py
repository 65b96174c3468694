"""Tensor feature extraction and synthetic stand-in fitting.

Observation 5 closes: "Extracting features from real tensors as a basis
to create more complete synthetic tensors would be very helpful for
sparse tensor research."  This module does exactly that:

* :func:`extract_features` measures the structural features that drive
  the suite's kernel behavior — density, per-mode fiber counts, degree
  skew (power-law tail), short/dense modes, HiCOO block occupancy;
* :func:`fit_powerlaw_alpha` estimates a mode's power-law exponent from
  its degree distribution (a discrete MLE, Clauset-style);
* :func:`synthesize_like` generates a synthetic tensor whose features
  match a measured profile, using the suite's own generators.

Together they close the loop the paper proposes: measure a (possibly
private) real tensor once, publish its feature vector, and regenerate a
shareable stand-in anywhere.  The registry's real-tensor stand-ins
(DESIGN.md substitution #2) are the manual version of this pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import TensorShapeError
from ..formats.coo import CooTensor
from ..formats.hicoo import DEFAULT_BLOCK_SIZE
from ..generators.powerlaw import mode_degree_distribution, powerlaw_tensor

#: Modes covering at least this fraction of their index range with
#: nonzeros are considered dense-ish (the irregular tensors' short modes).
DENSE_MODE_COVERAGE = 0.9


@dataclass(frozen=True)
class TensorFeatures:
    """Structural profile of a sparse tensor.

    ``degree_skew`` is max-degree over mean-degree per mode (heavy-tail
    indicator); ``alpha`` the fitted power-law exponent per mode (NaN for
    dense-ish modes); ``fiber_counts`` the mode-n fiber counts feeding
    the TTV/TTM work distributions.
    """

    shape: Tuple[int, ...]
    nnz: int
    density: float
    dense_modes: Tuple[int, ...]
    degree_skew: Tuple[float, ...]
    alpha: Tuple[float, ...]
    fiber_counts: Tuple[int, ...]
    block_occupancy: float
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def order(self) -> int:
        """Number of modes."""
        return len(self.shape)

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        lines = [
            f"order {self.order}, dims {'x'.join(map(str, self.shape))}, "
            f"nnz {self.nnz}, density {self.density:.2E}",
            f"dense modes: {list(self.dense_modes) or 'none'}",
            "per-mode skew: "
            + ", ".join(f"{s:.1f}" for s in self.degree_skew),
            "per-mode alpha: "
            + ", ".join(
                "-" if np.isnan(a) else f"{a:.2f}" for a in self.alpha
            ),
            f"HiCOO block occupancy (B={DEFAULT_BLOCK_SIZE}): "
            f"{self.block_occupancy:.2f}",
        ]
        return "\n".join(lines)


def fit_powerlaw_alpha(degrees: np.ndarray, minimum_degree: int = 2) -> float:
    """MLE of the power-law exponent of a degree sequence.

    Uses the continuous approximation
    ``alpha = 1 + n / sum(ln(d / (d_min - 0.5)))`` over degrees >=
    ``minimum_degree`` (Clauset, Shalizi & Newman 2009).  The
    approximation needs ``minimum_degree >= 2`` to be accurate, hence
    the default.  Returns NaN when fewer than ten qualifying degrees
    exist.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    degrees = degrees[degrees >= minimum_degree]
    if degrees.size < 10:
        return float("nan")
    logs = np.log(degrees / (minimum_degree - 0.5))
    total = logs.sum(dtype=np.float64)
    if total <= 0:
        return float("nan")
    return float(1.0 + degrees.size / total)


def extract_features(
    tensor: CooTensor, block_size: int = DEFAULT_BLOCK_SIZE
) -> TensorFeatures:
    """Measure the structural features of a sparse tensor.

    The HiCOO conversion is the plan-cached one
    (:func:`~repro.perf.plans.hicoo_for`), shared with the HiCOO kernels
    and the autotuner's fingerprint.
    """
    from ..perf.plans import hicoo_for

    dense_modes = []
    skews = []
    alphas = []
    for mode in range(tensor.order):
        degrees = mode_degree_distribution(tensor, mode)
        used = degrees[degrees > 0]
        coverage = used.size / tensor.shape[mode]
        skew = float(used.max() / used.mean(dtype=np.float64)) if used.size else 0.0
        skews.append(skew)
        if coverage >= DENSE_MODE_COVERAGE:
            dense_modes.append(mode)
            alphas.append(float("nan"))
        else:
            alphas.append(fit_powerlaw_alpha(used))
    fiber_counts = tuple(tensor.num_fibers(m) for m in range(tensor.order))
    hicoo = hicoo_for(tensor, block_size)
    return TensorFeatures(
        shape=tensor.shape,
        nnz=tensor.nnz,
        density=tensor.density,
        dense_modes=tuple(dense_modes),
        degree_skew=tuple(skews),
        alpha=tuple(alphas),
        fiber_counts=fiber_counts,
        block_occupancy=hicoo.average_block_occupancy(),
        extras={
            "num_blocks": float(hicoo.num_blocks),
            "compression_ratio": hicoo.compression_ratio(),
        },
    )


def synthesize_like(
    features: TensorFeatures,
    *,
    seed: int = 0,
    scale: float = 1.0,
) -> CooTensor:
    """Generate a synthetic tensor matching a measured feature profile.

    Uses the biased power-law generator with the profile's fitted alpha
    (averaged over sparse modes) and its dense-mode set; ``scale``
    shrinks or grows nnz and the sparse dimensions together, preserving
    density ordering.
    """
    if scale <= 0:
        raise TensorShapeError(f"scale must be positive, got {scale}")
    sparse_modes = [
        m for m in range(features.order) if m not in features.dense_modes
    ]
    if not sparse_modes:
        raise TensorShapeError("profile has no sparse modes to synthesize")
    nnz = max(int(features.nnz * scale), 100)
    per_mode = scale ** (1.0 / max(len(sparse_modes), 1))
    dims = []
    for mode, size in enumerate(features.shape):
        if mode in features.dense_modes:
            dims.append(size)
        else:
            dims.append(max(int(round(size * per_mode)), 2))
    fitted = [
        a for m, a in zip(range(features.order), features.alpha)
        if m in sparse_modes and not np.isnan(a)
    ]
    alpha = float(np.mean(fitted)) if fitted else 2.0
    alpha = min(max(alpha, 0.5), 3.5)
    return powerlaw_tensor(
        dims,
        nnz,
        alpha=alpha,
        dense_modes=features.dense_modes,
        seed=seed,
    )


def feature_distance(a: TensorFeatures, b: TensorFeatures) -> float:
    """A scale-free dissimilarity between two profiles (0 is identical).

    Compares log-density, log-skew per mode, dense-mode sets, and log
    block occupancy; used by tests to confirm a synthesized stand-in
    lands near its target.
    """
    if a.order != b.order:
        return float("inf")
    terms = []
    terms.append(abs(np.log10(max(a.density, 1e-30)) - np.log10(max(b.density, 1e-30))))
    for sa, sb in zip(a.degree_skew, b.degree_skew):
        terms.append(abs(np.log10(max(sa, 1.0)) - np.log10(max(sb, 1.0))))
    terms.append(
        abs(
            np.log10(max(a.block_occupancy, 0.1))
            - np.log10(max(b.block_occupancy, 0.1))
        )
    )
    mismatch = len(set(a.dense_modes) ^ set(b.dense_modes))
    terms.append(float(mismatch))
    return float(np.mean(terms))
