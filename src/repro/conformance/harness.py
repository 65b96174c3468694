"""Differential checks: the conformance matrix one tensor is run through.

A *check* is a small JSON-serializable dict — ``{"check": kind, ...}`` —
and :func:`run_check` executes one of them against a COO tensor,
returning ``None`` on success or a failure message.  Keeping checks as
plain data is what makes the rest of the subsystem composable: the
fuzzer enumerates them, the shrinker re-runs a single failing one on
smaller tensors, and corpus reproducers replay them verbatim from disk.

Check kinds
-----------
``roundtrip``
    Convert through a path of formats (validating the structural
    invariants after every hop) and compare the final expansion against
    the original tensor.
``kernel_oracle``
    Run one kernel on one format serially and compare against the dense
    numpy reference (skipped automatically for tensors too large to
    densify).
``cross_format``
    Run one kernel on every applicable representation — COO, HiCOO, and
    the CSF / F-COO extension kernels — and compare all outputs against
    the COO baseline with float32 tolerances.
``parallel_exact``
    Run one kernel serially and under a parallel schedule and require
    **bit-identical** outputs (the executor's output-ownership
    guarantee).
``cache_exact``
    Run one kernel with the plan cache disabled and with a warm cache
    and compare outputs with float32 tolerances (a cached plan may
    legally reorder float accumulation; only serial-vs-parallel carries
    the bit-identical guarantee).
``auto_dispatch``
    Run one kernel through ``variant="auto"`` (model-only tuning, disk
    cache disabled) and require tolerance agreement with the serial COO
    baseline plus bit-identical agreement with a direct invocation of
    the tuner's chosen configuration.
``jit_tolerance``
    Run every applicable compiled (``repro.perf.jit``) variant and
    compare against the numpy COO baseline and the dense oracle under
    tolerance comparison — compiled accumulation order may legitimately
    differ in the last ulps, so this is never bit-exact.  Passes
    trivially when no compiler is available or ``REPRO_JIT=0``.
``jit_parallel``
    Run each compiled entry point at a requested thread count and
    schedule (one ctypes call driving a C thread team), and require the
    output to be **bit-identical** to the same entry at one thread (the
    ownership partition's guarantee) and tolerance-equal to the numpy
    baseline.  Passes trivially when the compiled backend is
    unavailable.
``jit_sanitize``
    Re-run the ``jit_tolerance`` differential under the
    sanitizer-instrumented JIT build profile
    (``REPRO_JIT_BUILD=sanitize``: ASan + UBSan, ``-O1 -g``) so every
    compiled kernel the fuzzer exercises also runs with memory and
    undefined-behavior checking armed — a sanitizer abort or report
    surfaces as a check failure.  Passes trivially when the compiled
    backend is unavailable or the toolchain lacks sanitizer runtimes
    (``profile_supported`` probes once per process).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bench.verify import as_comparable, dense_reference
from ..core.csf_kernels import mttkrp_csf, ttv_csf
from ..core.registry import KernelOperands, make_operands, run_algorithm
from ..formats.coo import CooTensor
from ..formats.convert import convert
from ..formats.csf import CsfTensor
from ..formats.fcoo import FcooTensor, ttm_fcoo, ttv_fcoo
from ..perf.parallel import parallel_config
from ..perf.plan_cache import cache_disabled, fresh_cache
from .invariants import validate

#: Mirrors bench.verify's float32 cross-implementation tolerances.
RTOL = 1e-3
ATOL = 1e-3

#: Tensors with more cells than this skip the dense oracle (the
#: differential cross-format check remains, and scales to any size).
MAX_DENSE_CELLS = 200_000

KERNELS = ("TEW", "TS", "TTV", "TTM", "MTTKRP")

#: Kernels that contract a mode need at least two modes to leave an
#: output mode standing.
MODE_KERNELS = ("TTV", "TTM", "MTTKRP")


def _capacity(shape: Sequence[int]) -> int:
    total = 1
    for s in shape:
        total *= int(s)
    return total


def _to_coo(tensor) -> CooTensor:
    """Normalize any suite tensor — including the mmap-backed
    :class:`~repro.io.binfile.MmapCooTensor` — to an in-RAM COO."""
    if isinstance(tensor, CooTensor):
        return tensor
    return tensor.to_coo()


def _convert_hop(current, name: str, config: Dict[str, Any]):
    """One conversion step of a roundtrip path."""
    block_size = int(config.get("block_size", 8))
    if name == "coo":
        return _to_coo(current)
    if name == "hicoo":
        return convert(_to_coo(current), "hicoo", block_size=block_size)
    if name == "ghicoo":
        return convert(
            _to_coo(current),
            "ghicoo",
            compressed_modes=config["compressed_modes"],
            block_size=block_size,
        )
    if name == "scoo":
        return convert(_to_coo(current), "scoo", dense_modes=config["dense_modes"])
    if name == "shicoo":
        return convert(
            _to_coo(current),
            "shicoo",
            dense_modes=config["dense_modes"],
            block_size=block_size,
        )
    if name == "csf":
        return CsfTensor.from_coo(_to_coo(current))
    if name == "fcoo":
        return FcooTensor.from_coo(_to_coo(current), int(config.get("mode", 0)))
    raise ValueError(f"unknown roundtrip format {name!r}")


def _sparse_mismatch(a: CooTensor, b: CooTensor, label: str) -> Optional[str]:
    """Tolerance comparison of two COO tensors without ever densifying.

    Shapes here can exceed memory as dense arrays (the block-boundary
    fuzz tensors force every dimension past the einds uint8 range), so
    the comparison works on the sparse difference ``a - b``: concatenate
    the nonzeros with ``b`` negated, combine duplicates, and bound the
    surviving values against a combined float32 tolerance.
    """
    if a.shape != b.shape:
        return f"{label}: shapes differ ({a.shape} vs {b.shape})"
    diff_indices = np.concatenate([a.indices, b.indices], axis=1)
    diff_values = np.concatenate([a.values, -b.values])
    diff = CooTensor(a.shape, diff_indices, diff_values, validate=False)
    residual = diff.sum_duplicates().values
    if residual.size == 0:
        return None
    scale = max(
        float(np.max(np.abs(a.values), initial=0.0)),
        float(np.max(np.abs(b.values), initial=0.0)),
    )
    worst = float(np.max(np.abs(residual)))
    if worst > ATOL + RTOL * scale:
        return f"{label} (max abs error {worst:.3g})"
    return None


def _run_roundtrip(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    current: Any = tensor
    for hop in config["path"]:
        current = _convert_hop(current, hop, config)
        validate(current)
    back = _to_coo(current)
    return _sparse_mismatch(
        back,
        tensor,
        f"roundtrip through {'->'.join(config['path'])} does not "
        f"reproduce the original tensor",
    )


# ----------------------------------------------------------------------
# Kernel execution helpers
# ----------------------------------------------------------------------


def _operands(tensor: CooTensor, config: Dict[str, Any]) -> KernelOperands:
    return make_operands(
        tensor,
        config["kernel"],
        mode=int(config.get("mode", 0)),
        rank=int(config.get("rank", 4)),
        seed=int(config.get("seed", 0)),
    )


def _execute(
    tensor: CooTensor,
    config: Dict[str, Any],
    operands: KernelOperands,
    *,
    tensor_format: Optional[str] = None,
    num_threads: int = 1,
    schedule: Optional[str] = None,
):
    name = f"{tensor_format or config['format']}-{config['kernel']}-OMP"
    with parallel_config(
        num_threads=num_threads,
        schedule=schedule,
        min_parallel_nnz=0 if num_threads > 1 else None,
    ):
        return run_algorithm(
            name,
            tensor,
            operands,
            mode=int(config.get("mode", 0)),
            rank=int(config.get("rank", 4)),
            block_size=int(config.get("block_size", 8)),
        )


def _exact_mismatch(a, b, label: str) -> Optional[str]:
    """Require two kernel outputs to be bit-identical."""
    if type(a) is not type(b):
        return f"{label}: output types differ ({type(a).__name__} vs {type(b).__name__})"
    if isinstance(a, np.ndarray):
        if not np.array_equal(a, b):
            return f"{label}: dense outputs are not bit-identical"
        return None
    for attr in ("indices", "values", "bptr", "binds", "einds", "cinds"):
        left = getattr(a, attr, None)
        right = getattr(b, attr, None)
        if left is None and right is None:
            continue
        if not np.array_equal(left, right):
            return f"{label}: {attr} arrays are not bit-identical"
    return None


def _tolerance_mismatch(a, b, label: str) -> Optional[str]:
    """Compare two kernel outputs with float32 tolerances.

    Dense outputs (MTTKRP factor matrices) compare directly; sparse
    outputs compare in canonical COO via :func:`_sparse_mismatch`, so no
    output is ever densified — the fuzzer's tensors can be far too large
    for that.
    """
    a_dense = isinstance(a, np.ndarray)
    b_dense = isinstance(b, np.ndarray)
    if a_dense != b_dense:
        return (
            f"{label}: output kinds differ "
            f"({type(a).__name__} vs {type(b).__name__})"
        )
    if a_dense:
        if a.shape != b.shape:
            return f"{label}: shapes differ ({a.shape} vs {b.shape})"
        if not np.allclose(a, b, rtol=RTOL, atol=ATOL):
            worst = float(np.max(np.abs(a.astype(np.float64) - b)))
            return f"{label} (max abs error {worst:.3g})"
        return None
    return _sparse_mismatch(_to_coo(a), _to_coo(b), label)


def _run_kernel_oracle(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    if _capacity(tensor.shape) > MAX_DENSE_CELLS:
        return None
    operands = _operands(tensor, config)
    out = as_comparable(_execute(tensor, config, operands))
    dense = tensor.to_dense().astype(np.float64)
    reference = dense_reference(
        config["kernel"], dense, operands, int(config.get("mode", 0))
    )
    if reference is None:
        return None
    if not np.allclose(out, reference, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(out - reference)))
        return (
            f"{config['format']}-{config['kernel']} deviates from the dense "
            f"oracle (max abs error {worst:.3g})"
        )
    return None


def _run_cross_format(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    kernel = config["kernel"]
    mode = int(config.get("mode", 0))
    operands = _operands(tensor, config)
    baseline = _execute(tensor, config, operands, tensor_format="COO")
    others: List[Tuple[str, Any]] = [
        ("HiCOO", _execute(tensor, config, operands, tensor_format="HiCOO"))
    ]
    if kernel == "MTTKRP":
        others.append(("CSF", mttkrp_csf(tensor, operands.factors, mode)))
    if kernel == "TTV":
        others.append(("CSF", ttv_csf(tensor, operands.vector, mode)))
        fcoo = FcooTensor.from_coo(tensor, mode)
        validate(fcoo)
        others.append(("F-COO", ttv_fcoo(fcoo, operands.vector)))
    if kernel == "TTM":
        fcoo = FcooTensor.from_coo(tensor, mode)
        validate(fcoo)
        others.append(("F-COO", ttm_fcoo(fcoo, operands.matrix)))
    for label, out in others:
        mismatch = _tolerance_mismatch(
            out, baseline, f"{label}-{kernel} disagrees with COO baseline"
        )
        if mismatch is not None:
            return mismatch
    return None


def _run_parallel_exact(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    operands = _operands(tensor, config)
    serial = _execute(tensor, config, operands, num_threads=1)
    parallel = _execute(
        tensor,
        config,
        operands,
        num_threads=int(config.get("threads", 2)),
        schedule=config.get("schedule", "dynamic"),
    )
    return _exact_mismatch(
        serial,
        parallel,
        f"{config['format']}-{config['kernel']} "
        f"serial vs {config.get('threads', 2)}x{config.get('schedule', 'dynamic')}",
    )


def _run_cache_exact(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    operands = _operands(tensor, config)
    with cache_disabled():
        cold = _execute(tensor, config, operands)
    with fresh_cache():
        _execute(tensor, config, operands)  # populate the plan cache
        warm = _execute(tensor, config, operands)
    return _tolerance_mismatch(
        cold, warm, f"{config['format']}-{config['kernel']} uncached vs cached"
    )


def _run_auto_dispatch(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    """``variant="auto"`` differential: serial COO vs the tuned dispatch.

    Model-only selection (no probes) with the disk tuning cache disabled
    keeps the check deterministic and independent of the host's tuning
    file.  Auto-dispatch must agree with the serial COO baseline to
    float32 tolerance AND be bit-identical to a direct invocation of the
    configuration the tuner chose.
    """
    from ..perf import dispatch
    from ..perf.autotune import disk_cache_disabled

    kernel = config["kernel"]
    mode = int(config.get("mode", 0))
    rank = int(config.get("rank", 4))
    seed = int(config.get("seed", 0))
    operands = _operands(tensor, config)
    baseline = _execute(tensor, config, operands, tensor_format="COO")
    with disk_cache_disabled():
        # The same resolution the public variant="auto" entry points use
        # (including their rank derivation), so `chosen` is exactly the
        # config the auto calls below execute.
        resolve_kwargs = {} if kernel == "TTV" else {"rank": rank}
        chosen = dispatch.resolve_config(
            tensor, kernel, variant="auto", mode=mode, seed=seed,
            probe=False, **resolve_kwargs,
        )
        if kernel == "MTTKRP":
            auto = dispatch.mttkrp(
                tensor, operands.factors, mode, variant="auto",
                seed=seed, probe=False,
            )
        elif kernel == "TTV":
            auto = dispatch.ttv(
                tensor, operands.vector, mode, variant="auto",
                seed=seed, probe=False,
            )
        else:
            auto = dispatch.ttm(
                tensor, operands.matrix, mode, variant="auto",
                seed=seed, probe=False,
            )
        direct = dispatch.run_config(tensor, kernel, chosen, operands, mode=mode)
    mismatch = _exact_mismatch(
        auto,
        direct,
        f"{kernel} variant=auto vs direct {chosen.label()}",
    )
    if mismatch is not None:
        return mismatch
    return _tolerance_mismatch(
        auto,
        baseline,
        f"{kernel} variant=auto ({chosen.label()}) disagrees with serial COO",
    )


def _run_jit_tolerance(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    """Compiled variants vs the numpy baseline and the dense oracle.

    Enumerated unconditionally; when the compiled backend is unavailable
    (no compiler, ``REPRO_JIT=0``) there is nothing to differentiate and
    the check passes trivially — fallback correctness is covered by the
    dispatch checks, which downgrade to numpy.
    """
    from ..perf import jit

    if not jit.jit_available():
        return None
    kernel = config["kernel"]
    mode = int(config.get("mode", 0))
    operands = _operands(tensor, config)
    baseline = _execute(tensor, config, operands, tensor_format="COO")
    outputs: List[Tuple[str, Any]] = []
    if kernel == "MTTKRP":
        out = jit.mttkrp_coo(tensor, list(operands.factors), mode)
        if out is not None:
            outputs.append(("COO-MTTKRP-JIT", out))
        from ..perf.plans import hicoo_for

        hicoo = hicoo_for(tensor, int(config.get("block_size", 8)))
        out = jit.mttkrp_hicoo(hicoo, list(operands.factors), mode)
        if out is not None:
            outputs.append(("HICOO-MTTKRP-JIT", out))
    elif kernel == "TTV":
        out = jit.ttv_coo(tensor, operands.vector, mode)
        if out is not None:
            outputs.append(("COO-TTV-JIT", out))
    elif kernel == "TTM":
        out = jit.ttm_coo(tensor, operands.matrix, mode)
        if out is not None:
            outputs.append(("COO-TTM-JIT", out))
    use_oracle = _capacity(tensor.shape) <= MAX_DENSE_CELLS
    reference = None
    if use_oracle:
        dense = tensor.to_dense().astype(np.float64)
        reference = dense_reference(kernel, dense, operands, mode)
    for label, out in outputs:
        mismatch = _tolerance_mismatch(
            out, baseline, f"{label} disagrees with the numpy COO baseline"
        )
        if mismatch is not None:
            return mismatch
        if reference is not None:
            comparable = as_comparable(out)
            if not np.allclose(comparable, reference, rtol=RTOL, atol=ATOL):
                worst = float(np.max(np.abs(comparable - reference)))
                return (
                    f"{label} deviates from the dense oracle "
                    f"(max abs error {worst:.3g})"
                )
    return None


def _run_jit_parallel(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    """Compiled kernels on the in-kernel thread team vs one thread.

    Above one chunk each compiled entry hands the whole chunk table to a
    C thread team in one ctypes call; the output-ownership partition
    makes that race-free, so the result must be *bit-identical* to the
    same entry at one thread for any thread count and schedule.  The
    parallel thresholds are forced to zero so the team actually runs on
    fuzz-sized tensors.  Passes trivially when the compiled backend is
    unavailable (no compiler, ``REPRO_JIT=0``) or a specialization
    declines — fallback correctness is covered by the dispatch checks.
    """
    from ..perf import jit
    from ..perf.plans import hicoo_for

    if not jit.jit_available():
        return None
    kernel = config["kernel"]
    mode = int(config.get("mode", 0))
    threads = int(config.get("threads", 2))
    schedule = config.get("schedule", "static")
    operands = _operands(tensor, config)
    baseline = _execute(tensor, config, operands, tensor_format="COO")
    if kernel == "MTTKRP":
        factors = list(operands.factors)
        hicoo = hicoo_for(tensor, int(config.get("block_size", 8)))
        calls = [
            ("coo_jit-MTTKRP", lambda: jit.mttkrp_coo(tensor, factors, mode)),
            ("hicoo_jit-MTTKRP", lambda: jit.mttkrp_hicoo(hicoo, factors, mode)),
        ]
    elif kernel == "TTV":
        calls = [("coo_jit-TTV", lambda: jit.ttv_coo(tensor, operands.vector, mode))]
    else:
        calls = [("coo_jit-TTM", lambda: jit.ttm_coo(tensor, operands.matrix, mode))]
    for label, call in calls:
        with parallel_config(num_threads=1):
            serial_out = call()
        with parallel_config(
            num_threads=threads,
            schedule=schedule,
            min_parallel_nnz=0,
            min_nnz_per_thread=0,
        ):
            team_out = call()
        if serial_out is None or team_out is None:
            continue  # specialization declined; the dispatch checks cover it
        message = _exact_mismatch(
            serial_out,
            team_out,
            f"{label} 1 thread vs in-kernel x{threads} {schedule}",
        )
        if message is not None:
            return message
        message = _tolerance_mismatch(
            team_out, baseline, f"{label} disagrees with the numpy COO baseline"
        )
        if message is not None:
            return message
    return None


def _run_jit_sanitize(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    """The jit_tolerance differential under the sanitize build profile.

    Compiles (or reuses from the profile-keyed object cache) every
    applicable kernel with ASan + UBSan instrumentation and runs the
    same compiled-vs-numpy/oracle comparison.  A sanitizer report means
    the generated C has a real memory or UB defect that the tolerance
    comparison alone could miss.  Passes trivially when the backend or
    the sanitizer runtimes are unavailable.
    """
    from ..perf.jit import build

    if not build.jit_enabled() or build.compiler_path() is None:
        return None
    with build.profile_override(build.PROFILE_SANITIZE):
        if not build.profile_supported():
            return None
        return _run_jit_tolerance(tensor, config)


def _run_serving_batch(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    """Batched (fused) serving execution must equal sequential, bitwise.

    Builds a small request mix against the tensor — several ranks and
    seeds of one kernel, so the batching layer fuses them into a single
    column-concatenated kernel call — and requires every per-request
    output (and its wire digest) to be bit-identical to the same job
    executed through the unbatched single-request path.
    """
    from ..serving.batching import KernelJob, execute_group, group_jobs
    from ..serving.protocol import result_digest
    from ..serving.registry import TensorRegistry

    kernel = config["kernel"]
    variant = config.get("variant", "coo")
    rank = int(config.get("rank", 4))
    seed = int(config.get("seed", 0))
    registry = TensorRegistry()
    entry = registry.add_ram("conformance", tensor, source="fuzz")
    jobs = [
        KernelJob(
            entry=entry,
            kernel=kernel,
            mode=int(config.get("mode", 0)),
            rank=r,
            seed=seed + i,
            variant=variant,
            block_size=config.get("block_size") if variant == "hicoo" else None,
        )
        for i, r in enumerate((rank, max(1, rank // 2), rank + 1, rank))
    ]
    groups = group_jobs(jobs, max_batch=len(jobs))
    batched = [o for g in groups for o in execute_group(g, batch=True)]
    sequential = [o for g in groups for o in execute_group(g, batch=False)]
    flat_jobs = [j for g in groups for j in g]
    for i, (job, b, s) in enumerate(zip(flat_jobs, batched, sequential)):
        if b.error is not None or s.error is not None:
            return (
                f"serving_batch {kernel} job {i} errored: "
                f"{b.error or s.error}"
            )
        label = (
            f"serving_batch {variant}-{kernel} job {i} "
            f"(rank {job.rank}) batched vs sequential"
        )
        message = _exact_mismatch(b.result, s.result, label)
        if message:
            return message
        if b.digest != s.digest or b.digest != result_digest(s.result):
            return f"{label}: wire digests differ"
    return None


_RUNNERS = {
    "roundtrip": _run_roundtrip,
    "kernel_oracle": _run_kernel_oracle,
    "cross_format": _run_cross_format,
    "parallel_exact": _run_parallel_exact,
    "cache_exact": _run_cache_exact,
    "auto_dispatch": _run_auto_dispatch,
    "jit_tolerance": _run_jit_tolerance,
    "jit_parallel": _run_jit_parallel,
    "jit_sanitize": _run_jit_sanitize,
    "serving_batch": _run_serving_batch,
}


def run_check(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    """Execute one check config; ``None`` on pass, a message on failure.

    Any exception a conversion or kernel raises is itself a conformance
    failure (fuzz inputs are constructed to be valid), so it is caught
    and reported rather than propagated.
    """
    runner = _RUNNERS.get(config.get("check"))
    if runner is None:
        raise ValueError(f"unknown check kind {config.get('check')!r}")
    try:
        return runner(_to_coo(tensor), config)
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Check enumeration
# ----------------------------------------------------------------------


def roundtrip_paths(order: int) -> List[List[str]]:
    """The format conversion paths a tensor of this order supports.

    Single-hop paths cover every format; two-hop paths cross the format
    pairs where conversions compose (the paper's formats all expand
    through COO, so pairs exercise both directions of each conversion).
    """
    singles = ["hicoo", "ghicoo", "csf"]
    if order >= 2:
        singles += ["scoo", "shicoo", "fcoo"]
    paths = [[name] for name in singles]
    pair_chain = ["hicoo", "ghicoo"] if order < 2 else ["hicoo", "scoo", "ghicoo"]
    paths.append(pair_chain)
    if order >= 2:
        paths.append(["fcoo", "hicoo"])
        paths.append(["shicoo", "csf"])
    return paths


def enumerate_checks(
    tensor: CooTensor,
    *,
    block_size: int = 8,
    rank: int = 4,
    seed: int = 0,
    mode: Optional[int] = None,
    threads: Sequence[int] = (2, 4),
    schedule: str = "dynamic",
) -> List[Dict[str, Any]]:
    """The conformance matrix for one tensor, as runnable check configs.

    ``mode`` selects the product/target mode for mode-specific kernels
    (default: rotated from the seed so successive iterations cover all
    modes); ``schedule`` is the parallel policy this enumeration pairs
    with each thread count (the fuzzer rotates it across iterations).
    """
    order = tensor.order
    if mode is None:
        mode = seed % order
    mode = mode % order
    compressed = [m for m in range(order) if m != mode] or [0]
    dense_modes = [min(range(order), key=lambda m: tensor.shape[m])] if order >= 2 else []
    checks: List[Dict[str, Any]] = []
    for path in roundtrip_paths(order):
        checks.append(
            {
                "check": "roundtrip",
                "path": path,
                "block_size": block_size,
                "compressed_modes": compressed,
                "dense_modes": dense_modes,
                "mode": mode,
            }
        )
    kernels = [k for k in KERNELS if order >= 2 or k not in MODE_KERNELS]
    for kernel in kernels:
        base = {
            "kernel": kernel,
            "mode": mode,
            "rank": rank,
            "block_size": block_size,
            "seed": seed,
        }
        checks.append({"check": "cross_format", "format": "COO", **base})
        if kernel in MODE_KERNELS:
            checks.append({"check": "auto_dispatch", "format": "COO", **base})
            checks.append({"check": "jit_tolerance", "format": "COO", **base})
            checks.append({"check": "jit_sanitize", "format": "COO", **base})
            for t in threads:
                checks.append(
                    {
                        "check": "jit_parallel",
                        "format": "COO",
                        "threads": int(t),
                        "schedule": schedule,
                        **base,
                    }
                )
        if kernel in ("MTTKRP", "TTM"):
            for variant in ("coo", "hicoo"):
                checks.append(
                    {"check": "serving_batch", "variant": variant, **base}
                )
        for fmt in ("COO", "HiCOO"):
            checks.append({"check": "kernel_oracle", "format": fmt, **base})
            checks.append({"check": "cache_exact", "format": fmt, **base})
            for t in threads:
                checks.append(
                    {
                        "check": "parallel_exact",
                        "format": fmt,
                        "threads": int(t),
                        "schedule": schedule,
                        **base,
                    }
                )
    return checks


def describe_check(config: Dict[str, Any]) -> str:
    """A short human-readable label for one check config."""
    kind = config.get("check", "?")
    if kind == "roundtrip":
        return f"roundtrip {'->'.join(config.get('path', []))}"
    if kind == "auto_dispatch":
        return f"auto_dispatch {config.get('kernel', '')} (serial vs auto)"
    if kind == "jit_tolerance":
        return f"jit_tolerance {config.get('kernel', '')} (compiled vs numpy/oracle)"
    if kind == "jit_sanitize":
        return (
            f"jit_sanitize {config.get('kernel', '')} "
            f"(compiled under ASan/UBSan vs numpy/oracle)"
        )
    if kind == "jit_parallel":
        return (
            f"jit_parallel {config.get('kernel', '')} "
            f"x{config.get('threads')} {config.get('schedule')} "
            f"(in-kernel team vs serial)"
        )
    if kind == "serving_batch":
        return (
            f"serving_batch {config.get('variant', 'coo')}-"
            f"{config.get('kernel', '')} (fused vs sequential)"
        )
    label = f"{kind} {config.get('format', '')}-{config.get('kernel', '')}"
    if kind == "parallel_exact":
        label += f" x{config.get('threads')} {config.get('schedule')}"
    return label
