"""Format-agnostic kernel dispatch with autotuned ``variant="auto"``.

Generic :func:`mttkrp` / :func:`ttv` / :func:`ttm` entry points that
accept a *variant* — ``"coo"``, ``"hicoo"``, ``"csf"``, a compiled
``"coo_jit"`` / ``"hicoo_jit"`` (see :mod:`repro.perf.jit`; the thread
count comes from the ambient or tuned config), an explicit
:class:`~repro.perf.autotune.TuneConfig`, or ``"auto"`` to delegate the
choice to the autotuner.  The auto path and a direct invocation of the
winning configuration execute byte-identical code (:func:`run_config` is
the single executor both go through), so ``variant="auto"`` results are
exactly equal to the chosen variant's results by construction.  Which
function runs each (kernel, variant) pair is stated once, in
:data:`repro.perf.variants.TABLE`.

The table names each implementation by module attribute and looks it up
when called: ``repro.core`` modules import ``repro.perf.parallel`` at
module scope, so importing them here at module scope would create an
import cycle.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from ..errors import PastaError
from .autotune import TUNED_KERNELS, TuneConfig, decide
from .parallel import get_num_threads, get_schedule, parallel_config
from .variants import JIT_FALLBACK, TABLE, lookup

VARIANTS = ("auto",) + tuple(dict.fromkeys(variant for _, variant in TABLE))

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
    plan cache); explicit variants name a row of the kernel × variant
    table and adopt the ambient thread count and schedule so they behave
    exactly like a direct kernel call.  A HiCOO variant without a
    ``block_size`` keeps a HiCOO input's own block size.
    """
    if isinstance(variant, TuneConfig):
        return variant
    kernel = kernel.upper()
    name = str(variant).lower()
    if name not in VARIANTS:
        raise PastaError(f"unknown variant {name!r}; use one of {VARIANTS}")
    if name == "auto":
        if kernel not in TUNED_KERNELS:
            raise PastaError(
                f"kernel {kernel!r} is not tunable; use one of {TUNED_KERNELS}"
            )
        return decide(x, kernel, mode=mode, rank=rank, seed=seed, probe=probe)
    row = lookup(kernel, name)
    policy, _ = get_schedule()
    block = None
    if row.blocked:
        from ..formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor, check_block_size

        if block_size is None and isinstance(x, HicooTensor):
            block_size = x.block_size
        block = check_block_size(block_size or DEFAULT_BLOCK_SIZE)
    return TuneConfig(name, block, get_num_threads(), policy)


def run_config(
    x: Any,
    kernel: str,
    config: TuneConfig,
    operands: Any,
    *,
    mode: int = 0,
) -> Any:
    """Execute ``kernel`` exactly as ``config`` prescribes.

    This is the single executor behind both ``variant="auto"`` and the
    tuner's micro-probes, which is what makes auto-dispatch results
    bit-identical to a direct invocation of the winning configuration.
    The kernel × variant table (:mod:`repro.perf.variants`) is its only
    routing; a compiled row the JIT declines runs its numpy twin.  A
    HiCOO input at the config's block size is what HiCOO rows run on.
    """
    from ..formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor

    kernel = kernel.upper()
    row = lookup(kernel, config.variant)
    coo = _as_coo(x)
    block = config.block_size or DEFAULT_BLOCK_SIZE
    hicoo = x if isinstance(x, HicooTensor) else None
    with parallel_config(num_threads=config.num_threads, schedule=config.schedule):
        result = row.run(coo, operands, mode, block, hicoo)
        if result is None and row.compiled:
            fallback = lookup(kernel, JIT_FALLBACK[row.variant])
            result = fallback.run(coo, operands, mode, block, hicoo)
        return result


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------


def _dispatch(x: Any, kernel: str, operands: Any, mode: int, **resolve: Any) -> Any:
    config = resolve_config(x, kernel, mode=mode, **resolve)
    return run_config(x, kernel, config, operands, mode=mode)


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

    return _dispatch(
        x, "MTTKRP", KernelOperands(factors=tuple(factors)), mode,
        variant=variant, block_size=block_size, seed=seed, probe=probe,
        rank=int(np.asarray(factors[0]).shape[1]),
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

    return _dispatch(
        x, "TTV", KernelOperands(vector=vector), mode,
        variant=variant, block_size=block_size, seed=seed, probe=probe,
    )


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

    return _dispatch(
        x, "TTM", KernelOperands(matrix=matrix), mode,
        variant=variant, block_size=block_size, seed=seed, probe=probe,
        rank=int(np.asarray(matrix).shape[1]),
    )
