"""Named algorithm registry: "[Format]-[Kernel]-[Parallelization]".

The paper names every algorithm in this pattern (COO-TTV-OMP,
HiCOO-MTTKRP-GPU, ...).  This module is the single place that maps those
names to (a) the numeric kernel implementation (the ``coo`` or ``hicoo``
row of the kernel × variant table, :mod:`repro.perf.variants`), (b) the
schedule extractor the machine models consume, and (c) an operand
factory that builds the dense vector/matrix/factor operands a kernel
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import PastaError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor
from ..perf.variants import lookup
from .analysis import DEFAULT_RANK, KERNELS
from .mttkrp import schedule_mttkrp_coo, schedule_mttkrp_hicoo
from .schedule import KernelSchedule
from .tew import schedule_tew
from .ts import schedule_ts
from .ttm import schedule_ttm
from .ttv import schedule_ttv

FORMATS = ("COO", "HiCOO")
TARGETS = ("OMP", "GPU")


@dataclass(frozen=True)
class AlgorithmName:
    """Parsed "[Format]-[Kernel]-[Parallelization]" algorithm name."""

    tensor_format: str
    kernel: str
    target: str

    def __str__(self) -> str:
        return f"{self.tensor_format}-{self.kernel}-{self.target}"


def parse_algorithm_name(name: str) -> AlgorithmName:
    """Parse e.g. ``"HiCOO-MTTKRP-GPU"`` into its three components."""
    parts = name.split("-")
    if len(parts) != 3:
        raise PastaError(
            f"algorithm name must look like 'COO-TTV-OMP', got {name!r}"
        )
    fmt, kernel, target = parts
    fmt_map = {f.upper(): f for f in FORMATS}
    if fmt.upper() not in fmt_map:
        raise PastaError(f"unknown format {fmt!r}; use one of {FORMATS}")
    if kernel.upper() not in KERNELS:
        raise PastaError(f"unknown kernel {kernel!r}; use one of {KERNELS}")
    if target.upper() not in TARGETS:
        raise PastaError(f"unknown target {target!r}; use one of {TARGETS}")
    return AlgorithmName(fmt_map[fmt.upper()], kernel.upper(), target.upper())


def all_algorithm_names() -> Tuple[str, ...]:
    """Every algorithm the suite implements, in paper order."""
    return tuple(
        f"{fmt}-{kernel}-{target}"
        for target in TARGETS
        for fmt in FORMATS
        for kernel in KERNELS
    )


@dataclass
class KernelOperands:
    """Dense operands for one kernel invocation on one tensor."""

    second_tensor: Optional[CooTensor] = None
    scalar: Optional[float] = None
    vector: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    factors: Optional[Tuple[np.ndarray, ...]] = None


def make_operands(
    x: CooTensor,
    kernel: str,
    *,
    mode: int = 0,
    rank: int = DEFAULT_RANK,
    seed: int = 0,
) -> KernelOperands:
    """Build the operands the named kernel needs, deterministically."""
    kernel = kernel.upper()
    rng = np.random.default_rng(seed)
    if kernel == "TEW":
        other_values = rng.uniform(0.5, 1.5, size=x.nnz).astype(VALUE_DTYPE)
        other = CooTensor(x.shape, x.indices, other_values, validate=False)
        return KernelOperands(second_tensor=other)
    if kernel == "TS":
        return KernelOperands(scalar=float(rng.uniform(0.5, 1.5)))
    if kernel == "TTV":
        vector = rng.uniform(0.5, 1.5, size=x.shape[mode]).astype(VALUE_DTYPE)
        return KernelOperands(vector=vector)
    if kernel == "TTM":
        matrix = rng.uniform(0.5, 1.5, size=(x.shape[mode], rank)).astype(VALUE_DTYPE)
        return KernelOperands(matrix=matrix)
    if kernel == "MTTKRP":
        factors = tuple(
            rng.uniform(0.5, 1.5, size=(size, rank)).astype(VALUE_DTYPE)
            for size in x.shape
        )
        return KernelOperands(factors=factors)
    raise PastaError(f"unknown kernel: {kernel!r}")


def run_algorithm(
    name: str,
    x: CooTensor,
    operands: Optional[KernelOperands] = None,
    *,
    mode: int = 0,
    rank: int = DEFAULT_RANK,
    block_size: Optional[int] = None,
    hicoo: Optional[HicooTensor] = None,
    seed: int = 0,
) -> Any:
    """Run the named algorithm's numeric implementation.

    ``x`` is always supplied in COO; HiCOO algorithms reuse a
    pre-converted ``hicoo`` at ``block_size`` (mirroring the suite's
    format pre-processing being outside the timed region), or else the
    memoized conversion of ``x``, as :func:`repro.perf.dispatch.run_config`
    does.  ``block_size`` defaults to ``hicoo``'s own, if given.  The OMP
    and GPU variants of an algorithm compute identical values — they
    differ only in schedule — so both names dispatch to the same
    implementation here: the ``coo`` or ``hicoo`` row of the kernel ×
    variant table.
    """
    parsed = parse_algorithm_name(name)
    if operands is None:
        operands = make_operands(x, parsed.kernel, mode=mode, rank=rank, seed=seed)
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE if hicoo is None else hicoo.block_size
    row = lookup(parsed.kernel, parsed.tensor_format.lower())
    return row.run(x, operands, mode, block_size, hicoo)


def make_schedule(
    name: str,
    x: CooTensor,
    *,
    mode: int = 0,
    rank: int = DEFAULT_RANK,
    block_size: int = DEFAULT_BLOCK_SIZE,
    hicoo: Optional[HicooTensor] = None,
) -> KernelSchedule:
    """Extract the machine schedule of the named algorithm on ``x``."""
    parsed = parse_algorithm_name(name)
    if parsed.kernel == "TEW":
        return schedule_tew(x, parsed.tensor_format)
    if parsed.kernel == "TS":
        return schedule_ts(x, parsed.tensor_format)
    if parsed.kernel == "TTV":
        return schedule_ttv(x, mode, parsed.tensor_format)
    if parsed.kernel == "TTM":
        return schedule_ttm(x, mode, rank, parsed.tensor_format)
    if parsed.kernel == "MTTKRP":
        if parsed.tensor_format == "COO":
            return schedule_mttkrp_coo(x, mode, rank)
        hx = hicoo if hicoo is not None else HicooTensor.from_coo(x, block_size)
        return schedule_mttkrp_hicoo(hx, mode, rank)
    raise PastaError(f"unhandled kernel {parsed.kernel!r}")


def algorithm_descriptions() -> Dict[str, str]:
    """One-line description of each algorithm, for CLI listings."""
    notes = {
        "TEW": "element-wise op over matching nonzeros",
        "TS": "scalar op over nonzero values",
        "TTV": "fiber-parallel tensor-times-vector",
        "TTM": "fiber-parallel tensor-times-matrix (semi-sparse output)",
        "MTTKRP": "matricized tensor times Khatri-Rao product",
    }
    grain = {
        ("COO", "MTTKRP"): "nonzero-parallel with atomics",
        ("HiCOO", "MTTKRP"): "block-parallel with factor-row reuse",
    }
    out = {}
    for name in all_algorithm_names():
        parsed = parse_algorithm_name(name)
        detail = grain.get((parsed.tensor_format, parsed.kernel), notes[parsed.kernel])
        out[name] = f"{detail} on {parsed.target}"
    return out
