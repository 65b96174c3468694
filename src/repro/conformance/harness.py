"""Differential checks: the conformance matrix one tensor is run through.

A *check* is a small JSON-serializable dict — ``{"check": kind, ...}`` —
and :func:`run_check` executes one of them against a COO tensor,
returning ``None`` on success or a failure message.  Keeping checks as
plain data is what makes the rest of the subsystem composable: the
fuzzer enumerates them, the shrinker re-runs a single failing one on
smaller tensors, corpus reproducers replay them verbatim from disk, and
``repro verify`` runs the matrix over fixed probe tensors.

The matrix is derived, not written out.  Each kernel's variants are its
rows of the kernel × variant table (:data:`repro.perf.variants.TABLE`)
plus the conformance-only F-COO rows of :data:`EXTENSION_VARIANTS`, so a
new table row is verified by being added.  Every kernel a check runs
goes through one executor, :func:`_execute`.

Check kinds
-----------
``roundtrip``
    Convert through a path of formats (validating the structural
    invariants after every hop) and compare the final expansion against
    the original tensor.
``oracle``
    Run one variant of one kernel once, at one thread (``variant="auto"``
    runs whatever the tuner picks), and compare the output with the
    float64 dense oracle (for tensors of at most :data:`MAX_DENSE_CELLS`
    cells) and with the serial numpy COO output, within :data:`RTOL` /
    :data:`ATOL`.  ``build: "sanitize"`` runs the
    check with the compiled kernels built under ASan + UBSan; it passes
    trivially when the compiled backend or the sanitizer runtimes are
    unavailable.
``twin``
    Run two executions of one variant that differ along one ``axis``,
    declared once in :data:`TWIN_AXES`, and require them to agree bit
    for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.reference import as_comparable, dense_reference
from ..core.registry import KernelOperands, make_operands
from ..errors import PastaError
from ..formats.coo import CooTensor
from ..formats.convert import convert
from ..formats.csf import CsfTensor
from ..formats.fcoo import FcooTensor, ttm_fcoo, ttv_fcoo
from ..perf import autotune, dispatch
from ..perf.parallel import parallel_config
from ..perf.plan_cache import fresh_cache
from ..perf.variants import MODE_KERNELS, rows_of
from .invariants import validate

#: Float32 tolerances the oracle checks use (every twin is exact).
RTOL = 1e-3
ATOL = 1e-3

#: Tensors with more cells than this skip the dense oracle (the
#: comparison against serial COO remains, and scales to any size).
MAX_DENSE_CELLS = 200_000

KERNELS = ("TEW", "TS", "TTV", "TTM", "MTTKRP")

#: Rows outside the kernel × variant table: the F-COO TTV/TTM kernels,
#: which run on a per-mode F-COO build and are not a dispatch variant.
EXTENSION_VARIANTS = {"TTV": ("fcoo",), "TTM": ("fcoo",)}


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
    # NaN compares false against any bound, so test it explicitly: a NaN
    # residual is a mismatch, as it is for np.allclose on dense outputs.
    if np.isnan(worst) or worst > ATOL + RTOL * scale:
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
# The executor
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
    variant: Any = None,
    threads: Optional[int] = 1,
    schedule: Optional[str] = None,
):
    """Run ``config``'s kernel once: the only place a check runs one.

    ``variant`` defaults to the config's.  A row of the kernel × variant
    table runs through :func:`repro.perf.dispatch.run_config` (a
    :class:`~repro.perf.autotune.TuneConfig` runs as given); ``"auto"``
    goes through the public dispatch entry point with model-only tuning
    and the disk tuning cache disabled, so it is deterministic and
    independent of the host's tuning file; F-COO calls its kernels
    directly.  More than one thread zeroes the parallel cutovers so the
    schedule really runs on fuzz-sized tensors; ``threads=None`` keeps
    the ambient setting.
    """
    kernel = config["kernel"]
    variant = config["variant"] if variant is None else variant
    mode = int(config.get("mode", 0))
    block_size = int(config.get("block_size", 8))
    forced = (
        {"min_parallel_nnz": 0}
        if threads is not None and threads > 1
        else {}
    )
    # Every row of a kernel reads the same operand field.
    operand = rows_of(kernel)[0].operand_of(operands)
    with parallel_config(num_threads=threads, schedule=schedule, **forced):
        if variant == "fcoo":
            fcoo = FcooTensor.from_coo(tensor, mode)
            validate(fcoo)
            return (ttv_fcoo if kernel == "TTV" else ttm_fcoo)(fcoo, operand)
        if variant == "auto":
            with autotune.disk_cache_disabled():
                # dispatch.mttkrp, dispatch.ttv or dispatch.ttm
                return getattr(dispatch, kernel.lower())(
                    tensor,
                    operand,
                    mode,
                    variant="auto",
                    seed=int(config.get("seed", 0)),
                    probe=False,
                )
        tune = dispatch.resolve_config(
            tensor, kernel, variant=variant, block_size=block_size
        )
        return dispatch.run_config(tensor, kernel, tune, operands, mode=mode)


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------

#: What an exact twin must reproduce besides the array bits: format
#: metadata, then every array (with its dtype) a kernel output carries.
_METADATA = ("shape", "block_size", "dense_modes")
_ARRAYS = ("indices", "values", "bptr", "binds", "einds", "cinds")


def _exact_mismatch(a, b, label: str) -> Optional[str]:
    """Require two outputs to be identical: type, metadata, dtypes, bits."""
    if type(a) is not type(b):
        return (
            f"{label}: output types differ "
            f"({type(a).__name__} vs {type(b).__name__})"
        )
    if not hasattr(a, "shape"):  # a plain payload, such as wire digests
        return None if a == b else f"{label}: {a!r} != {b!r}"
    for attr in _METADATA:
        left, right = getattr(a, attr, None), getattr(b, attr, None)
        if left != right:
            return f"{label}: {attr} differs ({left} vs {right})"
    if isinstance(a, np.ndarray):
        arrays = [("dense", a, b)]
    else:
        arrays = [
            (attr, getattr(a, attr, None), getattr(b, attr, None))
            for attr in _ARRAYS
        ]
    for attr, left, right in arrays:
        if left is None and right is None:
            continue
        if left is None or right is None or left.dtype != right.dtype:
            return f"{label}: {attr} dtypes differ"
        if not np.array_equal(left, right):
            return f"{label}: {attr} arrays are not bit-identical"
    return None


def _tolerance_mismatch(a, b, label: str) -> Optional[str]:
    """Compare two outputs within :data:`RTOL` / :data:`ATOL`.

    Dense outputs (MTTKRP factor matrices, densified oracle comparisons)
    compare directly; sparse outputs compare in canonical COO via
    :func:`_sparse_mismatch`, so no output is ever densified — the
    fuzzer's tensors can be far too large for that.
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


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def _run_oracle(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    profile = config.get("build")
    if profile is None:
        return _oracle_mismatch(tensor, config)
    from ..perf.jit import build

    if not build.jit_enabled() or build.compiler_path() is None:
        return None
    with build.profile_override(profile):
        if not build.profile_supported():
            return None
        return _oracle_mismatch(tensor, config)


def _oracle_mismatch(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    kernel, variant = config["kernel"], config["variant"]
    operands = _operands(tensor, config)
    out = _execute(tensor, config, operands)
    if variant != "coo":
        baseline = _execute(tensor, config, operands, variant="coo")
        mismatch = _tolerance_mismatch(
            out, baseline, f"{variant}-{kernel} disagrees with serial numpy COO"
        )
        if mismatch is not None:
            return mismatch
    if _capacity(tensor.shape) > MAX_DENSE_CELLS:
        return None
    dense = tensor.to_dense().astype(np.float64)
    mode = int(config.get("mode", 0))
    reference = dense_reference(kernel, dense, operands, mode)
    return _tolerance_mismatch(
        as_comparable(out),
        reference,
        f"{variant}-{kernel} deviates from the dense oracle",
    )


# ----------------------------------------------------------------------
# twin
# ----------------------------------------------------------------------

#: One compared pair: a label suffix and the two outputs.
Pair = Tuple[str, Any, Any]


def _threads_pairs(tensor, config, operands) -> List[Pair]:
    serial = _execute(tensor, config, operands)
    team = _execute(
        tensor,
        config,
        operands,
        threads=int(config.get("threads", 2)),
        schedule=config.get("schedule", "dynamic"),
    )
    return [("", serial, team)]


def _auto_pairs(tensor, config, operands) -> List[Pair]:
    kernel = config["kernel"]
    # The resolution the public entry point makes, including its rank
    # derivation (TTV passes none), so ``chosen`` is exactly the config
    # the auto run executes.
    rank = {} if kernel == "TTV" else {"rank": int(config.get("rank", 4))}
    with autotune.disk_cache_disabled():
        chosen = dispatch.resolve_config(
            tensor,
            kernel,
            variant="auto",
            mode=int(config.get("mode", 0)),
            seed=int(config.get("seed", 0)),
            probe=False,
            **rank,
        )
    auto = _execute(tensor, config, operands, threads=None)
    direct = _execute(tensor, config, operands, variant=chosen, threads=None)
    return [(f" (chose {chosen.label()})", auto, direct)]


def _batch_pairs(tensor, config, operands) -> List[Pair]:
    """A serving request mix run fused and sequentially.

    Several ranks and seeds of one kernel, so the batching layer fuses
    them into one column-concatenated kernel call; every per-request
    output and its wire digest must equal the unbatched path's.
    """
    from ..serving.batching import KernelJob, execute_group, group_jobs
    from ..serving.protocol import result_digest
    from ..serving.registry import TensorRegistry

    variant = config["variant"]
    rank = int(config.get("rank", 4))
    seed = int(config.get("seed", 0))
    entry = TensorRegistry().add_ram("conformance", tensor, source="fuzz")
    jobs = [
        KernelJob(
            entry=entry,
            kernel=config["kernel"],
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
    pairs: List[Pair] = []
    for i, (job, b, s) in enumerate(zip(flat_jobs, batched, sequential)):
        if b.error is not None or s.error is not None:
            raise PastaError(f"serving job {i} errored: {b.error or s.error}")
        label = f" job {i} (rank {job.rank})"
        pairs.append((label, b.result, s.result))
        pairs.append(
            (
                f"{label} wire digests",
                (b.digest, b.digest),
                (s.digest, result_digest(s.result)),
            )
        )
    return pairs


def _cache_pairs(tensor, config, operands) -> List[Pair]:
    with fresh_cache():
        cold = _execute(tensor, config, operands)  # builds every plan
        warm = _execute(tensor, config, operands)
    return [("", cold, warm)]


@dataclass(frozen=True)
class TwinAxis:
    """What a twin axis compares; every twin must agree bit for bit."""

    pairs: Callable[[CooTensor, Dict[str, Any], KernelOperands], List[Pair]]
    description: str


#: Every twin axis, declared once.  All of them are exact: the output
#: ownership partition makes every thread count and schedule reduce in
#: the serial order, and a kernel has one pre-processing path, so the
#: first call in a fresh plan cache runs the same arithmetic as a warm
#: call.
TWIN_AXES: Dict[str, TwinAxis] = {
    "threads": TwinAxis(_threads_pairs, "1 thread vs"),
    "auto": TwinAxis(_auto_pairs, 'variant="auto" vs its direct config'),
    "batch": TwinAxis(_batch_pairs, "serving fused vs sequential"),
    "cache": TwinAxis(_cache_pairs, "fresh plan cache, first call vs warm"),
}


def _run_twin(tensor: CooTensor, config: Dict[str, Any]) -> Optional[str]:
    axis = TWIN_AXES[config["axis"]]
    label = describe_check(config)
    for suffix, a, b in axis.pairs(tensor, config, _operands(tensor, config)):
        mismatch = _exact_mismatch(a, b, label + suffix)
        if mismatch is not None:
            return mismatch
    return None


_RUNNERS = {
    "roundtrip": _run_roundtrip,
    "oracle": _run_oracle,
    "twin": _run_twin,
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


def kernel_variants(kernel: str) -> List[str]:
    """The variants the matrix runs ``kernel`` through.

    The kernel's rows of the kernel × variant table, in table order,
    then its :data:`EXTENSION_VARIANTS`.
    """
    return [row.variant for row in rows_of(kernel)] + list(
        EXTENSION_VARIANTS.get(kernel, ())
    )


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

    Per kernel: an ``oracle`` check of every variant (plus one under the
    sanitize build for each compiled variant), a ``threads`` twin per
    thread count and a ``cache`` twin of every variant, a ``batch`` twin
    of every variant serving can fuse, and for tunable kernels an
    ``oracle`` check and an ``auto`` twin of ``variant="auto"``.
    """
    from ..perf.jit.build import PROFILE_SANITIZE

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
    # A kernel that contracts a mode needs two modes to leave one standing.
    kernels = [k for k in KERNELS if order >= 2 or k not in MODE_KERNELS]
    for kernel in kernels:
        base = {
            "kernel": kernel,
            "mode": mode,
            "rank": rank,
            "block_size": block_size,
            "seed": seed,
        }
        variants = kernel_variants(kernel)
        separable = {row.variant for row in rows_of(kernel) if row.separable}
        for variant in variants:
            checks.append({"check": "oracle", "variant": variant, **base})
            if variant in dispatch.JIT_FALLBACK:
                checks.append(
                    {
                        "check": "oracle",
                        "variant": variant,
                        "build": PROFILE_SANITIZE,
                        **base,
                    }
                )
        if kernel in autotune.TUNED_KERNELS:
            checks.append({"check": "oracle", "variant": "auto", **base})
            checks.append(
                {"check": "twin", "variant": "auto", "axis": "auto", **base}
            )
        for variant in variants:
            twin = {"check": "twin", "variant": variant, **base}
            for t in threads:
                checks.append(
                    {**twin, "axis": "threads", "threads": int(t), "schedule": schedule}
                )
            checks.append({**twin, "axis": "cache"})
            if variant in separable:
                checks.append({**twin, "axis": "batch"})
    return checks


def describe_check(config: Dict[str, Any]) -> str:
    """A short human-readable label for one check config."""
    kind = config.get("check", "?")
    if kind == "roundtrip":
        return f"roundtrip {'->'.join(config.get('path', []))}"
    label = f"{kind} {config.get('variant', '?')}-{config.get('kernel', '')}"
    if kind == "oracle":
        if config.get("build"):
            label += f" [{config['build']} build]"
        return label
    axis = config.get("axis", "?")
    label += f" {axis}: "
    if axis in TWIN_AXES:
        label += TWIN_AXES[axis].description
    if axis == "threads":
        label += f" x{config.get('threads')} {config.get('schedule')}"
    return label
