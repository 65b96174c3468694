"""Pre-processing stages and their cost model.

The suite's design principle (paper Section III): "we use more
pre-processing to trade for less kernel computation time".  Every kernel
has a pre-processing stage executed *outside* the timed region — sorting,
fiber partitioning, output pre-allocation, format conversion.  This
module names those stages, runs them, and models their cost, so the
trade-off itself can be quantified (how many kernel executions amortize
one conversion?).

Stage inventory per algorithm:

* TEW / TS — output allocation with copied indices (COO) or shared block
  structure (HiCOO);
* TTV / TTM — fiber partition of the product mode (sort by the other
  modes) and output pre-allocation via the sparse-dense property;
* MTTKRP (HiCOO) — HiCOO conversion: Morton sort plus block grouping;
* CSF kernels — tree construction per target mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import PastaError
from ..formats.coo import CooTensor
from ..formats.csf import csf_for_mode
from ..formats.hicoo import DEFAULT_BLOCK_SIZE, HicooTensor
from ..perf.plan_cache import fresh_cache
from ..platforms.specs import PlatformSpec, get_platform
from .registry import parse_algorithm_name

#: Modeled cost of comparison-sorting one nonzero record, expressed as
#: bytes of equivalent memory traffic per log2(M) pass (radix-style
#: multi-pass sorting moves the whole record each pass).
_SORT_BYTES_PER_RECORD_PASS = 8


@dataclass(frozen=True)
class PreprocessingReport:
    """Cost of one algorithm's pre-processing on one tensor.

    ``modeled_seconds`` uses the platform's memory system (sorting and
    grouping are bandwidth-bound); ``measured_seconds`` is the wall-clock
    of actually running the stage with this package's numpy code.
    ``amortization_runs`` is the modeled number of kernel executions
    after which the pre-processing has paid for itself relative to the
    kernel's own modeled time.
    """

    algorithm: str
    stage: str
    modeled_seconds: float
    measured_seconds: float
    kernel_seconds: float

    @property
    def amortization_runs(self) -> float:
        """Pre-processing time over per-run kernel time."""
        if self.kernel_seconds <= 0:
            return float("inf")
        return self.modeled_seconds / self.kernel_seconds


def _stage_for(algorithm_name: str) -> str:
    parsed = parse_algorithm_name(algorithm_name)
    if parsed.kernel in ("TEW", "TS"):
        return "output-allocation"
    if parsed.kernel in ("TTV", "TTM"):
        return "fiber-partition"
    if parsed.tensor_format == "HiCOO":
        return "hicoo-conversion"
    return "output-allocation"


def run_stage(
    algorithm_name: str,
    tensor: CooTensor,
    *,
    mode: int = 0,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> float:
    """Execute the algorithm's pre-processing stage; returns wall seconds.

    The stage runs against a fresh plan cache, where every lookup misses,
    so the measurement always reflects the real cost of the stage, not a
    cache hit.
    """
    parsed = parse_algorithm_name(algorithm_name)
    with fresh_cache():
        start = time.perf_counter()
        if parsed.kernel in ("TEW", "TS"):
            # Output allocation: copy the index structure (HiCOO TEW/TS
            # share the input's block structure, so this is the whole
            # stage there too).
            tensor.indices.copy()
        elif parsed.kernel in ("TTV", "TTM"):
            tensor.fiber_partition(mode)
        elif parsed.tensor_format == "HiCOO":
            HicooTensor.from_coo(tensor, block_size)
        else:
            tensor.indices.copy()
        return time.perf_counter() - start


def modeled_stage_seconds(
    algorithm_name: str,
    tensor: CooTensor,
    platform: PlatformSpec,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> float:
    """Bandwidth-bound model of the pre-processing stage.

    Sorting ``M`` records of ``4(N+1)`` bytes takes ``log2 M`` passes of
    record movement; grouping/allocation is a single pass.  All passes
    move at the platform's obtainable DRAM bandwidth (pre-processing is
    single-socket and not cache-resident for the sizes of interest).
    """
    import math

    from ..machine.params import obtainable_dram_bandwidth_gbs

    stage = _stage_for(algorithm_name)
    record_bytes = 4 * (tensor.order + 1)
    m = max(tensor.nnz, 2)
    bandwidth = obtainable_dram_bandwidth_gbs(platform) * 1e9
    if stage == "output-allocation":
        passes = 1.0
    else:
        passes = math.log2(m)
        if stage == "hicoo-conversion":
            passes += 2.0  # Morton encode pass + block grouping pass
    moved = m * max(record_bytes, _SORT_BYTES_PER_RECORD_PASS) * passes
    return moved / bandwidth


def analyze(
    algorithm_name: str,
    tensor: CooTensor,
    platform: str = "bluesky",
    *,
    mode: int = 0,
    rank: int = 16,
    block_size: int = DEFAULT_BLOCK_SIZE,
    hicoo: Optional[HicooTensor] = None,
) -> PreprocessingReport:
    """Full pre-processing analysis of one algorithm on one tensor."""
    from ..machine import predict
    from .registry import make_schedule

    spec = get_platform(platform)
    parsed = parse_algorithm_name(algorithm_name)
    expected_target = "GPU" if spec.is_gpu else "OMP"
    if parsed.target != expected_target:
        raise PastaError(
            f"{algorithm_name} targets {parsed.target} but {spec.name} "
            f"needs {expected_target}"
        )
    measured = run_stage(
        algorithm_name, tensor, mode=mode, block_size=block_size
    )
    modeled = modeled_stage_seconds(
        algorithm_name, tensor, spec, block_size=block_size
    )
    schedule = make_schedule(
        algorithm_name, tensor, mode=mode, rank=rank,
        block_size=block_size, hicoo=hicoo,
    )
    kernel_seconds = predict(spec, schedule).seconds
    return PreprocessingReport(
        algorithm=algorithm_name,
        stage=_stage_for(algorithm_name),
        modeled_seconds=modeled,
        measured_seconds=measured,
        kernel_seconds=kernel_seconds,
    )


def csf_tree_costs(
    tensor: CooTensor, platform: str = "bluesky"
) -> Dict[int, float]:
    """Modeled seconds to build one CSF tree per mode.

    Quantifies CSF's mode-specific storage tax against the mode-generic
    COO/HiCOO (paper Section III): a tensor method touching all modes
    needs ``order`` trees.
    """
    spec = get_platform(platform)
    return {
        mode: modeled_stage_seconds("COO-TTV-OMP", tensor, spec)
        for mode in range(tensor.order)
    }
