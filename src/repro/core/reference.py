"""Dense reference implementations used to validate the sparse kernels.

These are deliberately straightforward numpy formulations of the paper's
equations (1)-(3) on dense arrays.  Tests convert sparse operands to
dense, run these, and compare against the sparse kernels' outputs;
:func:`dense_reference` is the float64 oracle every conformance check
(and so ``repro verify``) compares against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..formats.convert import to_coo


def dense_ttv(x: np.ndarray, v: np.ndarray, mode: int) -> np.ndarray:
    """Equation (1): contract mode ``mode`` of ``x`` with vector ``v``."""
    return np.tensordot(x, v, axes=([mode], [0]))


def dense_ttm(x: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Equation (2): ``Y = X ×_mode U`` with ``U ∈ R^{I_mode × R}``.

    The product mode keeps its position in the output (its extent becomes
    ``R``), matching the paper's row-major ``U`` convention.
    """
    contracted = np.tensordot(x, matrix, axes=([mode], [0]))
    # tensordot appends the R axis last; rotate it back into position.
    return np.moveaxis(contracted, -1, mode)


def dense_mttkrp(
    x: np.ndarray, factors: Sequence[np.ndarray], mode: int
) -> np.ndarray:
    """Equation (3): mode-``mode`` matricization times the Khatri-Rao product.

    Computed by explicitly materializing the Khatri-Rao product of the
    other factors (reverse mode order, as the matricization convention
    requires) and multiplying — the transformation-based formulation the
    sparse kernels are designed to avoid.
    """
    order = x.ndim
    mode = mode % order
    other = [m for m in range(order) if m != mode]
    unfolded = unfold(x, mode)
    krp = khatri_rao([factors[m] for m in reversed(other)])
    return unfolded @ krp


def unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization ``X_(n)`` with the Kolda ordering.

    Rows are indexed by the mode-``mode`` coordinate; columns iterate the
    remaining modes with the *first* remaining mode varying fastest.
    """
    mode = mode % x.ndim
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1, order="F")


def khatri_rao(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Equation (4): column-matching Kronecker product of matrices."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    rank = matrices[0].shape[1]
    for m in matrices:
        if m.shape[1] != rank:
            raise ValueError("all matrices must share a column count")
    result = matrices[0]
    for m in matrices[1:]:
        # Outer product per column, flattened so result rows iterate the
        # later matrix's rows fastest.
        result = (result[:, None, :] * m[None, :, :]).reshape(-1, rank)
    return result


def dense_kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two arbitrary-order dense tensors.

    Generalizes :func:`numpy.kron` to N dimensions; the synthetic
    Kronecker generator's sampling is validated against this.
    """
    if a.ndim != b.ndim:
        raise ValueError("tensors must have the same order")
    expand_a = a.reshape(
        tuple(s for pair in zip(a.shape, (1,) * a.ndim) for s in pair)
    )
    expand_b = b.reshape(
        tuple(s for pair in zip((1,) * b.ndim, b.shape) for s in pair)
    )
    product = expand_a * expand_b
    final_shape = tuple(sa * sb for sa, sb in zip(a.shape, b.shape))
    return product.reshape(final_shape)


def dense_reference(kernel: str, dense: np.ndarray, operands, mode: int):
    """The dense float64 reference output of ``kernel``.

    ``dense`` is the densified input tensor; ``operands`` the
    :class:`~repro.core.registry.KernelOperands` the kernel consumed.
    Returns ``None`` for kernels without a dense formulation.  The
    oracle densifies by design; callers bound the tensor's capacity.
    """
    if kernel == "TEW":
        second = operands.second_tensor.to_dense()  # repro: ignore[densify]
        return dense + second.astype(np.float64)
    if kernel == "TS":
        scaled = dense.copy()
        scaled[dense != 0] *= operands.scalar
        return scaled
    if kernel == "TTV":
        return dense_ttv(dense, operands.vector.astype(np.float64), mode)
    if kernel == "TTM":
        return dense_ttm(dense, operands.matrix.astype(np.float64), mode)
    if kernel == "MTTKRP":
        return dense_mttkrp(
            dense, [f.astype(np.float64) for f in operands.factors], mode
        )
    return None


def as_comparable(result) -> np.ndarray:
    """Any kernel output as a dense float64 array, for oracle comparison."""
    if isinstance(result, np.ndarray):
        return result.astype(np.float64)
    return to_coo(result).to_dense().astype(np.float64)  # repro: ignore[densify]
