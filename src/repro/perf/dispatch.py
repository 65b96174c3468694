"""Format-agnostic kernel dispatch with autotuned ``variant="auto"``.

Generic :func:`mttkrp` / :func:`ttv` / :func:`ttm` entry points that
accept a *variant* — ``"coo"``, ``"hicoo"``, ``"csf"``, a compiled
``"coo_jit"`` / ``"hicoo_jit"`` (see :mod:`repro.perf.jit`; the thread
count comes from the ambient or tuned config), an explicit
:class:`~repro.perf.autotune.TuneConfig`, or ``"auto"`` to delegate the
choice to the autotuner.  The auto path and a direct invocation of the
winning configuration execute byte-identical code (:func:`run_config` is
the single executor both go through), so ``variant="auto"`` results are
exactly equal to the chosen variant's results by construction.

Core kernels are imported inside functions: ``repro.core`` modules import
``repro.perf.parallel`` at module scope, so importing them here at module
scope would create an import cycle.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from ..errors import PastaError
from .autotune import (
    CSF_KERNELS,
    JIT_VARIANT_KERNELS,
    TUNED_KERNELS,
    TuneConfig,
    decide,
)
from .parallel import get_num_threads, get_schedule, parallel_config

VARIANTS = ("auto", "coo", "hicoo", "csf", "coo_jit", "hicoo_jit")

#: Downgrade target of each compiled variant when the JIT declines (no
#: compiler, ``REPRO_JIT=0``, unsupported specialization), so cached
#: tuning decisions stay runnable on a host without a compiler.
JIT_FALLBACK = {"coo_jit": "coo", "hicoo_jit": "hicoo"}

#: The :class:`~repro.core.registry.KernelOperands` field each kernel
#: reads, and how to name it when it is missing.
_OPERANDS = {
    "MTTKRP": ("factors", "factor matrices"),
    "TTV": ("vector", "a vector operand"),
    "TTM": ("matrix", "a matrix operand"),
}

VariantLike = Union[str, TuneConfig]


def _as_coo(x: Any):
    from ..formats.coo import CooTensor
    from ..formats.hicoo import HicooTensor

    if isinstance(x, CooTensor):
        return x
    if isinstance(x, HicooTensor):
        from .plans import expanded_coo

        # Memoized per tensor (plan-cache kind "expanded_coo"), so
        # repeated dispatch on the same HiCOO tensor reuses both the
        # expansion and every downstream plan keyed on the wrapper.
        return expanded_coo(x)
    raise PastaError(
        f"dispatch needs a COO or HiCOO tensor, got {type(x).__name__}"
    )


def resolve_config(
    x: Any,
    kernel: str,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    mode: int = 0,
    rank: int = 16,
    seed: int = 0,
    probe: bool = True,
) -> TuneConfig:
    """Turn a ``variant`` argument into a concrete :class:`TuneConfig`.

    ``"auto"`` consults the autotuner (memoized per tensor under the
    plan cache); explicit variants adopt the ambient thread count and
    schedule so they behave exactly like a direct kernel call.
    """
    if isinstance(variant, TuneConfig):
        return variant
    kernel = kernel.upper()
    if kernel not in TUNED_KERNELS:
        raise PastaError(
            f"kernel {kernel!r} is not dispatchable; use one of {TUNED_KERNELS}"
        )
    name = str(variant).lower()
    if name not in VARIANTS:
        raise PastaError(f"unknown variant {name!r}; use one of {VARIANTS}")
    if name == "auto":
        return decide(x, kernel, mode=mode, rank=rank, seed=seed, probe=probe)
    if name == "csf" and kernel not in CSF_KERNELS:
        raise PastaError(f"kernel {kernel!r} has no CSF implementation")
    if name in JIT_FALLBACK and kernel not in JIT_VARIANT_KERNELS[name]:
        raise PastaError(f"kernel {kernel!r} has no {name} implementation")
    policy, _ = get_schedule()
    if name in ("hicoo", "hicoo_jit"):
        from ..formats.hicoo import DEFAULT_BLOCK_SIZE, check_block_size

        block = check_block_size(block_size or DEFAULT_BLOCK_SIZE)
        return TuneConfig(name, block, get_num_threads(), policy)
    return TuneConfig(name, None, get_num_threads(), policy)


def run_config(
    x: Any,
    kernel: str,
    config: TuneConfig,
    operands: Any,
    *,
    mode: int = 0,
    rank: Optional[int] = None,
) -> Any:
    """Execute ``kernel`` exactly as ``config`` prescribes.

    This is the single executor behind both ``variant="auto"`` and the
    tuner's micro-probes, which is what makes auto-dispatch results
    bit-identical to a direct invocation of the winning configuration.
    """
    kernel = kernel.upper()
    coo = _as_coo(x)
    variant = config.variant
    field, what = _OPERANDS.get(kernel, (None, None))
    operand = getattr(operands, field) if field else None
    if field and operand is None:
        raise PastaError(f"{kernel} dispatch needs {what}")
    if kernel == "MTTKRP":
        operand = list(operand)
    with parallel_config(num_threads=config.num_threads, schedule=config.schedule):
        if kernel in JIT_VARIANT_KERNELS.get(variant, ()):
            from . import jit

            # jit.mttkrp_coo, jit.mttkrp_hicoo, jit.ttv_coo or jit.ttm_coo
            fmt = variant.removesuffix("_jit")
            tensor = _hicoo(coo, config) if fmt == "hicoo" else coo
            result = getattr(jit, f"{kernel.lower()}_{fmt}")(tensor, operand, mode)
            if result is not None:
                return result
            variant = JIT_FALLBACK[variant]
        if kernel == "MTTKRP":
            if variant == "coo":
                from ..core.mttkrp import mttkrp_coo

                return mttkrp_coo(coo, operand, mode)
            if variant == "hicoo":
                from ..core.mttkrp import mttkrp_hicoo

                return mttkrp_hicoo(_hicoo(coo, config), operand, mode)
            if variant == "csf":
                from ..core.csf_kernels import mttkrp_csf

                return mttkrp_csf(coo, operand, mode)
        elif kernel == "TTV":
            if variant == "coo":
                from ..core.ttv import ttv_coo

                return ttv_coo(coo, operand, mode)
            if variant == "hicoo":
                from ..core.ttv import ttv_hicoo

                return ttv_hicoo(coo, operand, mode, block_size=_block(config))
            if variant == "csf":
                from ..core.csf_kernels import ttv_csf

                return ttv_csf(coo, operand, mode)
        elif kernel == "TTM":
            if variant == "coo":
                from ..core.ttm import ttm_coo

                return ttm_coo(coo, operand, mode)
            if variant == "hicoo":
                from ..core.ttm import ttm_hicoo

                return ttm_hicoo(coo, operand, mode, block_size=_block(config))
    raise PastaError(
        f"no implementation for kernel {kernel!r} variant {variant!r}"
    )


def _block(config: TuneConfig) -> int:
    from ..formats.hicoo import DEFAULT_BLOCK_SIZE

    return config.block_size or DEFAULT_BLOCK_SIZE


def _hicoo(coo: Any, config: TuneConfig):
    from .plans import hicoo_for

    return hicoo_for(coo, _block(config))


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------


def mttkrp(
    x: Any,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    seed: int = 0,
    probe: bool = True,
) -> np.ndarray:
    """Matricized-tensor-times-Khatri-Rao-product with variant dispatch."""
    from ..core.registry import KernelOperands

    rank = int(np.asarray(factors[0]).shape[1])
    config = resolve_config(
        x,
        "MTTKRP",
        variant=variant,
        block_size=block_size,
        mode=mode,
        rank=rank,
        seed=seed,
        probe=probe,
    )
    return run_config(
        x, "MTTKRP", config, KernelOperands(factors=tuple(factors)), mode=mode
    )


def ttv(
    x: Any,
    vector: np.ndarray,
    mode: int,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    seed: int = 0,
    probe: bool = True,
) -> Any:
    """Tensor-times-vector with variant dispatch.

    The output format follows the chosen variant (COO for ``coo``/``csf``,
    HiCOO for ``hicoo``), exactly as a direct call would return.
    """
    from ..core.registry import KernelOperands

    config = resolve_config(
        x,
        "TTV",
        variant=variant,
        block_size=block_size,
        mode=mode,
        seed=seed,
        probe=probe,
    )
    return run_config(x, "TTV", config, KernelOperands(vector=vector), mode=mode)


def ttm(
    x: Any,
    matrix: np.ndarray,
    mode: int,
    *,
    variant: VariantLike = "auto",
    block_size: Optional[int] = None,
    seed: int = 0,
    probe: bool = True,
) -> Any:
    """Tensor-times-matrix with variant dispatch (semi-sparse output)."""
    from ..core.registry import KernelOperands

    rank = int(np.asarray(matrix).shape[1])
    config = resolve_config(
        x,
        "TTM",
        variant=variant,
        block_size=block_size,
        mode=mode,
        rank=rank,
        seed=seed,
        probe=probe,
    )
    return run_config(x, "TTM", config, KernelOperands(matrix=matrix), mode=mode)
