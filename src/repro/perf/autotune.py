"""Empirical two-stage autotuner for sparse kernel configurations.

The paper's central observation is that no single format wins: COO vs
HiCOO (and the HiCOO block size ``B``) flips winner per tensor and per
kernel.  This module turns that observation into a mechanism:

1. **Model stage** — enumerate candidate configurations (kernel variant,
   HiCOO block size, schedule policy, thread count) and rank them with
   the analytic :class:`~repro.core.schedule.KernelSchedule` cost model
   plus a few cheap counts of the tensor (:class:`TuningFeatures`).
   The model stage builds no CSF tree and no HiCOO beyond the
   plan-cached conversion the probes and kernels reuse: block occupancy
   comes from that conversion, and CSF is modeled from node counts — or,
   when its per-call rebuild sort alone already loses to the best serial
   candidate, bounded by that sort and not modeled further.
2. **Probe stage** — run short, time-budgeted, warm-cache micro-probes
   with deterministic seeded operands and commit the measured winner.
   The model only guesses how threads scale, so the probe set is the
   model's best candidate at each thread count (capped at ``top_k``,
   always keeping the best serial one).  Only when a multi-thread
   candidate wins are its other schedules probed as well.  The measured
   serial-over-team ratio is reported as ``notes["thread_speedup"]``.
   The probes measure the tensor, not the mode: when an earlier mode of
   the same live tensor was probed over the identical probe set, its
   measured winner is committed without probing again.

Decisions are memoized at two levels: in-process under the plan cache
(kind ``"autotune"``, so a tensor's decision dies with the tensor) and
on disk in a JSON tuning cache keyed by a structural fingerprint of the
tensor (shape, nnz, per-mode nonempty rows, block occupancy) plus kernel
and machine signature.  A disk hit skips the probe stage entirely, which
is what makes ``variant="auto"`` cheap on repeated runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import PastaError
from ..formats.hicoo import check_block_size
from .cachedir import machine_signature  # noqa: F401 — re-exported API
from .parallel import get_min_parallel_nnz, get_num_threads
from .partition import POLICIES, POLICY_DYNAMIC, check_policy
from .plan_cache import get_plan_cache
from .timing import budgeted_min_seconds
from .variants import JIT_FALLBACK, TABLE, rows_of

#: Plan-cache kind for in-memory tuning decisions (structural: safe to
#: transfer between tensors that share index structure).
KIND_AUTOTUNE = "autotune"

#: Kernels the tuner knows how to dispatch.
TUNED_KERNELS = ("MTTKRP", "TTV", "TTM")

#: HiCOO block sizes explored by the tuner (paper Section V sweeps B).
BLOCK_SIZES = (16, 32, 64, 128)

ENV_CACHE = "REPRO_TUNE_CACHE"

#: Tuning-file format version.  Version 1 decisions came from a probe
#: stage that never compared thread counts; version 2 keys hashed a
#: fingerprint of fiber counts that the tuner no longer computes.
DISK_VERSION = 3
ENV_BUDGET_MS = "REPRO_TUNE_BUDGET_MS"
ENV_TOPK = "REPRO_TUNE_TOPK"

#: Per-candidate probe budget (milliseconds) when the env knob is unset.
DEFAULT_BUDGET_MS = 25.0

#: How many thread counts reach the probe stage by default (the winner's
#: schedule probes come on top).
DEFAULT_TOP_K = 3

DEFAULT_RANK = 16

#: HiCOO block size whose occupancy enters the fingerprint and anchors the
#: model's block-count estimates (the default block size, so the same
#: conversion usually serves the probes and the chosen kernel too).
FINGERPRINT_BLOCK = 128

# ----------------------------------------------------------------------
# Host cost-model constants.  Absolute values only need to be plausible;
# the tuner consumes the *ranking*, and the probe stage corrects it.
# ----------------------------------------------------------------------

_STREAM_BANDWIDTH = 2.0e10  # bytes/s, contiguous
_IRREGULAR_BANDWIDTH = 2.5e9  # bytes/s, gather/scatter
_PEAK_FLOPS = 5.0e10  # flop/s
_ATOMIC_SECONDS = 2.0e-8  # per conflicting atomic update
_DISPATCH_SECONDS = 5.0e-5  # per extra worker, fork/join overhead
_SORT_SECONDS_PER_KEY = 2.0e-8  # per (mode, nonzero) key of a rebuild sort
#: Modeled advantage of a compiled loop nest over the numpy path: the
#: fused C loop makes one pass where numpy gathers/multiplies in several
#: full-array sweeps.  The probe stage measures the real ratio.
_JIT_MODEL_SPEEDUP = 3.0
_JIT_CALL_SECONDS = 2.0e-6  # ctypes marshalling overhead per call
#: Parallel efficiency of the compiled thread team: the fraction of an
#: extra thread's capacity that turns into speedup.  A guess: the probe
#: stage measures one candidate per thread count, so this only orders
#: thread counts when there are more of them than ``top_k``.
_MT_THREAD_EFFICIENCY = 0.85
_TEAM_SPAWN_SECONDS = 1.0e-5  # per extra thread, C team spawn/join


@dataclass(frozen=True)
class TuneConfig:
    """One concrete way to execute a kernel."""

    variant: str  # a variant of the kernel × variant table
    block_size: Optional[int]  # HiCOO B; None for coo/csf
    num_threads: int
    schedule: str  # partition policy name

    def label(self) -> str:
        """Short human-readable form, e.g. ``hicoo[B=32] 4T dynamic``."""
        fmt = self.variant
        if self.variant.startswith("hicoo") and self.block_size is not None:
            fmt = f"{self.variant}[B={self.block_size}]"
        if self.num_threads == 1:
            return f"{fmt} serial"
        return f"{fmt} {self.num_threads}T {self.schedule}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant": self.variant,
            "block_size": self.block_size,
            "num_threads": self.num_threads,
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneConfig":
        block = data.get("block_size")
        return cls(
            variant=str(data["variant"]),
            block_size=None if block is None else int(block),
            num_threads=int(data.get("num_threads", 1)),
            schedule=str(data.get("schedule", POLICY_DYNAMIC)),
        )


@dataclass(frozen=True)
class CandidateReport:
    """Model and (optional) probe outcome for one candidate."""

    config: TuneConfig
    modeled_seconds: float
    measured_seconds: Optional[float] = None
    probe_reps: int = 0


@dataclass(frozen=True)
class TuningReport:
    """Everything one :func:`tune` call decided and why."""

    kernel: str
    mode: int
    rank: int
    seed: int
    fingerprint: str
    machine: str
    chosen: TuneConfig
    candidates: Tuple[CandidateReport, ...]
    probes_run: int
    cache_hit: Optional[str]  # None | "disk" | "shared" (another mode's probes)
    budget_ms: float
    top_k: int
    notes: Dict[str, Any] = field(default_factory=dict)


_LAST_TUNING_REPORT: Optional[TuningReport] = None
_PROBE_CALLS = 0
_DISK_ENABLED = True
#: In-process view of each tuning-cache file, keyed by path.
_DISK_STATE: Dict[str, Dict[str, Any]] = {}


def last_tuning_report() -> Optional[TuningReport]:
    """The report of the most recent :func:`tune` call, if any."""
    return _LAST_TUNING_REPORT


def probe_count() -> int:
    """Total micro-probes executed since import (or the last reset)."""
    return _PROBE_CALLS


def reset_probe_count() -> int:
    """Zero the probe counter; returns the previous value."""
    global _PROBE_CALLS
    previous = _PROBE_CALLS
    _PROBE_CALLS = 0
    return previous


@contextmanager
def disk_cache_disabled() -> Iterator[None]:
    """Context manager: neither read nor write the on-disk tuning cache.

    The fuzzer runs its ``variant="auto"`` differential checks under this
    so results never depend on (or pollute) the user's tuning file.
    """
    global _DISK_ENABLED
    previous = _DISK_ENABLED
    _DISK_ENABLED = False
    try:
        yield
    finally:
        _DISK_ENABLED = previous


def reload_disk_cache() -> None:
    """Drop the in-process view of the tuning file; next use re-reads it."""
    _DISK_STATE.clear()


# ----------------------------------------------------------------------
# Tensor fingerprint (machine_signature lives in perf.cachedir and is
# re-exported above — the JIT object cache keys on the same identity)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TuningFeatures:
    """What the tuner measures of a tensor: counts, no kernel plans.

    ``nonempty_rows`` is the number of distinct indices per mode (one
    ``bincount`` each); ``block_occupancy`` the mean nonzeros per HiCOO
    block at :data:`FINGERPRINT_BLOCK`.
    """

    shape: Tuple[int, ...]
    nnz: int
    nonempty_rows: Tuple[int, ...]
    block_occupancy: float


def _features_for(tensor: Any) -> TuningFeatures:
    """Tuning features, memoized under the plan cache.

    The occupancy comes from :func:`~repro.perf.plans.hicoo_for`, the
    plan-cached conversion the HiCOO probes and kernels run on, so a cold
    tuning converts to HiCOO once.
    """
    from ..formats.hicoo import HicooTensor
    from .plans import hicoo_for

    coo = _as_coo(tensor)

    def build() -> TuningFeatures:
        if isinstance(tensor, HicooTensor) and tensor.block_size == FINGERPRINT_BLOCK:
            hicoo = tensor
        else:
            hicoo = hicoo_for(coo, FINGERPRINT_BLOCK)
        rows = tuple(
            int(np.count_nonzero(np.bincount(coo.indices[m], minlength=size)))
            for m, size in enumerate(coo.shape)
        )
        return TuningFeatures(
            coo.shape, coo.nnz, rows, hicoo.average_block_occupancy()
        )

    return get_plan_cache().get(tensor, KIND_AUTOTUNE, ("features",), build)


def tensor_fingerprint(tensor: Any) -> str:
    """Structural fingerprint: shape, nnz, nonempty rows, block occupancy.

    Two tensors with the same fingerprint have (statistically) the same
    best configuration, which is what lets disk-cached decisions carry
    across processes without re-probing.
    """
    features = _features_for(tensor)
    payload = "|".join(
        [
            "x".join(str(s) for s in features.shape),
            str(features.nnz),
            ",".join(str(r) for r in features.nonempty_rows),
            f"{features.block_occupancy:.4f}",
        ]
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def _as_coo(tensor: Any):
    from ..formats.coo import CooTensor
    from ..formats.hicoo import HicooTensor

    if isinstance(tensor, CooTensor):
        return tensor
    if isinstance(tensor, HicooTensor):
        from .plans import expanded_coo

        return expanded_coo(tensor)
    raise PastaError(
        f"autotuner needs a COO or HiCOO tensor, got {type(tensor).__name__}"
    )


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------


def _thread_candidates(max_threads: Optional[int] = None) -> Tuple[int, ...]:
    if max_threads is None:
        # Respect an ambient REPRO_NUM_THREADS above the visible core
        # count: an oversubscribed-on-purpose run (or a cgroup-limited
        # container) should still see multithreaded candidates.
        limit = max(os.cpu_count() or 1, get_num_threads())
    else:
        limit = max_threads
    limit = max(1, int(limit))
    out = [1]
    t = 2
    while t <= limit:
        out.append(t)
        t *= 2
    return tuple(out)


def candidate_configs(
    kernel: str, *, max_threads: Optional[int] = None
) -> Tuple[TuneConfig, ...]:
    """Every configuration the tuner considers for ``kernel``.

    Enumeration order is deterministic; the model stage sorts stably, so
    ties keep this order and selection is reproducible.
    """
    kernel = kernel.upper()
    if kernel not in TUNED_KERNELS:
        raise PastaError(
            f"kernel {kernel!r} is not tunable; use one of {TUNED_KERNELS}"
        )
    threads = _thread_candidates(max_threads)
    from . import jit

    # One family per row of the kernel × variant table, in table order;
    # compiled rows only when the JIT can run here.
    compiled_ok = jit.jit_available()
    configs: List[TuneConfig] = []
    for row in rows_of(kernel):
        if row.compiled and not compiled_ok:
            continue
        if not row.threaded:
            configs.append(TuneConfig(row.variant, None, 1, POLICY_DYNAMIC))
        else:
            configs += _grid(
                row.variant, threads, BLOCK_SIZES if row.blocked else (None,)
            )
    return tuple(configs)


def _grid(
    variant: str, threads: Tuple[int, ...], blocks: Tuple = (None,)
) -> List[TuneConfig]:
    """``variant`` over blocks × threads × policies (one policy serially)."""
    return [
        TuneConfig(variant, block, t, policy)
        for block in blocks
        for t in threads
        for policy in ((POLICY_DYNAMIC,) if t == 1 else POLICIES)
    ]


# ----------------------------------------------------------------------
# Model stage
# ----------------------------------------------------------------------


def _est_blocks(features: Any, block_size: int) -> int:
    """Estimated HiCOO block count at ``block_size``.

    Anchored on the measured occupancy at :data:`FINGERPRINT_BLOCK` (from
    :class:`TuningFeatures`) and scaled linearly: halving B
    roughly halves occupancy until blocks hold a single nonzero.  Crude,
    but conversion-free — the probe stage corrects mis-rankings.
    """
    occupancy = max(float(features.block_occupancy), 1.0)
    scaled = max(occupancy * block_size / FINGERPRINT_BLOCK, 1.0)
    return min(int(features.nnz), int(features.nnz / scaled) + 1)


def _base_schedule(coo: Any, kernel: str, mode: int, rank: int, variant: str):
    from ..core.mttkrp import schedule_mttkrp_coo
    from ..core.ttm import schedule_ttm
    from ..core.ttv import schedule_ttv

    fmt = {"coo": "COO", "hicoo": "HiCOO", "csf": "COO"}[variant]
    if kernel == "MTTKRP":
        if variant == "csf":
            from ..core.csf_kernels import schedule_mttkrp_csf

            return schedule_mttkrp_csf(coo, mode, rank)
        return schedule_mttkrp_coo(coo, mode, rank)
    if kernel == "TTV":
        return schedule_ttv(coo, mode, fmt)
    if kernel == "TTM":
        return schedule_ttm(coo, mode, rank, fmt)
    raise PastaError(f"kernel {kernel!r} is not tunable")


def modeled_seconds(
    schedule: Any, num_threads: int, extra_streamed_bytes: float = 0.0
) -> float:
    """Analytic wall-time estimate for a schedule at a thread count.

    Max of the bandwidth and compute rooflines, scaled by the measured
    load imbalance at ``num_threads`` workers, plus atomic-conflict and
    fork/join overhead terms.
    """
    streamed = max(0.0, schedule.streamed_bytes + extra_streamed_bytes)
    bytes_seconds = (
        streamed / _STREAM_BANDWIDTH + schedule.irregular_bytes / _IRREGULAR_BANDWIDTH
    )
    flop_seconds = schedule.flops / _PEAK_FLOPS
    serial = max(bytes_seconds, flop_seconds)
    atomic = (
        schedule.atomic_updates * schedule.atomic_conflict_fraction * _ATOMIC_SECONDS
    )
    t = max(1, int(num_threads))
    imbalance = schedule.load_imbalance(t) if t > 1 else 1.0
    return (serial + atomic) * imbalance / t + (t - 1) * _DISPATCH_SECONDS


def _modeled_candidate_seconds(
    coo: Any, features: Any, kernel: str, mode: int, rank: int, config: TuneConfig
) -> float:
    is_jit = config.variant in JIT_FALLBACK
    base_variant = JIT_FALLBACK.get(config.variant, config.variant)
    schedule = _base_schedule(coo, kernel, mode, rank, base_variant)
    order = coo.order
    nnz = coo.nnz
    extra = 0.0
    if base_variant == "hicoo":
        block = config.block_size or 128
        # Block metadata stream (binds + bptr) minus the einds savings of
        # storing 1-byte element indices instead of 4-byte coordinates.
        extra = (4.0 * order + 8.0) * _est_blocks(features, block) - 3.0 * order * nnz
    if is_jit:
        # Same traffic/flops as the numpy variant, minus the interpreter
        # orchestration the fused loop eliminates.  Compile cost is not
        # modeled: the object cache makes it a once-per-machine event.
        seconds = modeled_seconds(schedule, 1, extra)
        seconds = seconds / _JIT_MODEL_SPEEDUP + _JIT_CALL_SECONDS
        t = max(1, int(config.num_threads))
        if t > 1:
            # The in-kernel team amortizes one spawn over the whole
            # kernel and scales near-linearly.
            seconds = (
                seconds
                * schedule.load_imbalance(t)
                / (1.0 + (t - 1) * _MT_THREAD_EFFICIENCY)
                + (t - 1) * _TEAM_SPAWN_SECONDS
            )
    else:
        seconds = modeled_seconds(schedule, config.num_threads, extra)
    if config.variant == "csf":
        seconds += _csf_sort_seconds(coo)
    return seconds


def _csf_sort_seconds(coo: Any) -> float:
    """Modeled per-call cost of the CSF kernel's tree rebuild.

    The schedule comes from counts, but the kernel itself rebuilds the
    fiber tree (``csf_for_mode``) on every call; that lexsort over
    ``(order, nnz)`` keys is a real per-call cost, and on its own a lower
    bound on the CSF candidate's modeled time.
    """
    return _SORT_SECONDS_PER_KEY * coo.order * coo.nnz * math.log2(max(coo.nnz, 2))


def _model_stage(
    coo: Any,
    features: TuningFeatures,
    kernel: str,
    mode: int,
    rank: int,
    candidates: Tuple[TuneConfig, ...],
    notes: Dict[str, Any],
) -> List[CandidateReport]:
    """Every candidate with its modeled time, fastest first.

    CSF runs serially only, so it can reach the probe set only as the
    best serial candidate.  When its rebuild sort alone already exceeds
    the best modeled serial alternative, it cannot: its row then carries
    that bound (``notes["csf_bound"]``) and its schedule, which needs
    fiber plans no chosen kernel would reuse, is never evaluated.  The
    sort stays stable, so ties keep enumeration order.
    """

    def model(config: TuneConfig) -> float:
        return _modeled_candidate_seconds(coo, features, kernel, mode, rank, config)

    seconds = {c: model(c) for c in candidates if c.variant != "csf"}
    best_serial = min(
        (s for c, s in seconds.items() if c.num_threads == 1), default=math.inf
    )
    bound = _csf_sort_seconds(coo)
    for config in candidates:
        if config.variant == "csf":
            if bound > best_serial:
                notes["csf_bound"] = bound
                seconds[config] = bound
            else:
                seconds[config] = model(config)
    return sorted(
        (CandidateReport(config=c, modeled_seconds=seconds[c]) for c in candidates),
        key=attrgetter("modeled_seconds"),
    )


# ----------------------------------------------------------------------
# Probe stage
# ----------------------------------------------------------------------


def _thread_probe_set(
    ranked: List[CandidateReport], top_k: int
) -> List[CandidateReport]:
    """The model's best candidate at each thread count, capped at ``top_k``.

    Ordered by modeled time.  The best serial candidate is always kept
    (it displaces the last pick when the cap would drop it), so every
    tuning measures one thread against the best modeled team.
    """
    best: Dict[int, CandidateReport] = {}
    for cand in ranked:
        best.setdefault(cand.config.num_threads, cand)
    picks = list(best.values())[:top_k]
    if best[1] not in picks:
        picks[-1] = best[1]
    return picks


def _probe_candidate(
    coo: Any,
    kernel: str,
    mode: int,
    operands: Any,
    config: TuneConfig,
    budget_seconds: float,
) -> Tuple[float, int]:
    """Warm-cache, budgeted micro-probe of one candidate configuration."""
    global _PROBE_CALLS
    from .dispatch import run_config

    def call() -> Any:
        return run_config(coo, kernel, config, operands, mode=mode)

    _PROBE_CALLS += 1
    call()  # warm-up: pays conversion/plan costs outside the timed region
    return budgeted_min_seconds(call, budget_seconds, min_reps=2)


def _probe_stage(
    coo: Any,
    kernel: str,
    mode: int,
    rank: int,
    seed: int,
    budget_ms: float,
    ranked: List[CandidateReport],
    picks: List[CandidateReport],
) -> List[CandidateReport]:
    """Probe ``picks``, then the winner's other schedules (only a team has any)."""
    from ..core.registry import make_operands

    operands = make_operands(coo, kernel, mode=mode, rank=rank, seed=int(seed))

    def run_probe(cand: CandidateReport) -> CandidateReport:
        measured, reps = _probe_candidate(
            coo, kernel, mode, operands, cand.config, budget_ms / 1000.0
        )
        return replace(cand, measured_seconds=measured, probe_reps=reps)

    probed = [run_probe(cand) for cand in picks]
    winner = min(probed, key=attrgetter("measured_seconds"))
    schedules = {replace(winner.config, schedule=p) for p in POLICIES}
    schedules.discard(winner.config)
    return probed + [run_probe(c) for c in ranked if c.config in schedules]


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------


def tuning_cache_path() -> Path:
    """Location of the persistent tuning cache."""
    override = os.environ.get(ENV_CACHE)
    if override:
        return Path(override)
    from .cachedir import cache_root

    return cache_root() / "tuning.json"


def _disk_entries(path: Path) -> Dict[str, Any]:
    """Entries of the tuning file, tolerating absent or corrupt files.

    A file written under another :data:`DISK_VERSION` reads as empty, so
    each of its decisions is a miss that is re-tuned and overwritten.
    """
    key = str(path)
    state = _DISK_STATE.get(key)
    if state is None:
        state = {}
        try:
            raw = json.loads(path.read_text())
            current = isinstance(raw, dict) and raw.get("version") == DISK_VERSION
            entries = raw.get("entries") if current else None
            if isinstance(entries, dict):
                state = entries
        except (OSError, ValueError):
            state = {}
        _DISK_STATE[key] = state
    return state


def _disk_key(fingerprint: str, machine: str, kernel: str, mode: int, rank: int) -> str:
    return f"{fingerprint}|{machine}|{kernel}|mode={mode}|rank={rank}"


def _disk_lookup(path: Path, key: str, kernel: str) -> Optional[Dict[str, Any]]:
    """A usable cached decision, or ``None`` to (re-)tune and overwrite it.

    Entries no run could execute are misses: unparseable ones, a variant
    that cannot run ``kernel`` (such as one written by an older
    version), an unknown schedule, fewer than one thread, or a block
    size HiCOO rejects.
    """
    entry = _disk_entries(path).get(key)
    if not isinstance(entry, dict) or "config" not in entry:
        return None
    try:
        config = TuneConfig.from_dict(entry["config"])
        check_policy(config.schedule)
        if config.block_size is not None:
            check_block_size(config.block_size)
    except (KeyError, TypeError, ValueError, PastaError):
        return None
    if config.num_threads < 1 or (kernel, config.variant) not in TABLE:
        return None
    return entry


def _disk_store(path: Path, key: str, record: Dict[str, Any]) -> None:
    entries = _disk_entries(path)
    entries[key] = record
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"version": DISK_VERSION, "entries": entries},
                indent=2,
                sort_keys=True,
            )
        )
    except OSError:
        pass  # a read-only cache location degrades to in-process memoization


# ----------------------------------------------------------------------
# Tuning entry points
# ----------------------------------------------------------------------


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ[name])
    except (KeyError, ValueError):
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


def tune(
    tensor: Any,
    kernel: str,
    *,
    mode: int = 0,
    rank: int = DEFAULT_RANK,
    seed: int = 0,
    probe: bool = True,
    top_k: Optional[int] = None,
    budget_ms: Optional[float] = None,
    use_disk_cache: bool = True,
    max_threads: Optional[int] = None,
) -> TuningReport:
    """Select the best configuration for ``kernel`` on ``tensor``.

    Runs the model stage over every candidate, then (unless ``probe`` is
    false) micro-probes the model's best candidate at each thread count,
    at most ``top_k`` of them with the best serial one always among
    them, and then the winner's other schedules if it is multi-threaded.
    Each probe gets a ``budget_ms`` time budget; the measured winner is
    committed.  When an earlier mode of the same live tensor was probed
    over the identical probe set, its measurements are committed instead
    (``cache_hit="shared"``, no probes).  Consults and updates the
    on-disk tuning cache unless disabled.
    """
    global _LAST_TUNING_REPORT
    kernel = kernel.upper()
    if kernel not in TUNED_KERNELS:
        raise PastaError(
            f"kernel {kernel!r} is not tunable; use one of {TUNED_KERNELS}"
        )
    coo = _as_coo(tensor)
    mode = coo.check_mode(mode)
    rank = int(rank)
    top_k = _env_int(ENV_TOPK, DEFAULT_TOP_K) if top_k is None else max(1, int(top_k))
    budget_ms = (
        _env_float(ENV_BUDGET_MS, DEFAULT_BUDGET_MS)
        if budget_ms is None
        else max(0.0, float(budget_ms))
    )

    features = _features_for(tensor)
    fingerprint = tensor_fingerprint(tensor)
    machine = machine_signature()
    disk_on = use_disk_cache and _DISK_ENABLED
    disk_key = _disk_key(fingerprint, machine, kernel, mode, rank)
    path = tuning_cache_path()

    if disk_on:
        entry = _disk_lookup(path, disk_key, kernel)
        if entry is not None:
            chosen = TuneConfig.from_dict(entry["config"])
            cached = CandidateReport(
                config=chosen,
                modeled_seconds=float(entry.get("modeled_seconds", float("nan"))),
                measured_seconds=entry.get("measured_seconds"),
                probe_reps=int(entry.get("probe_reps", 0)),
            )
            report = TuningReport(
                kernel=kernel,
                mode=mode,
                rank=rank,
                seed=int(seed),
                fingerprint=fingerprint,
                machine=machine,
                chosen=chosen,
                candidates=(cached,),
                probes_run=0,
                cache_hit="disk",
                budget_ms=budget_ms,
                top_k=top_k,
            )
            _LAST_TUNING_REPORT = report
            return report

    notes: Dict[str, Any] = {}
    candidates = candidate_configs(kernel, max_threads=max_threads)
    cutover = get_min_parallel_nnz()
    if cutover > 0:
        # Parallel cutover: a candidate that would leave each worker
        # fewer than ``cutover`` nonzeros is a predicted loser (thread
        # overhead swamps the shrunken per-worker share) — drop it so
        # small tensors fall back to serial without wasting probes.
        kept = tuple(
            config
            for config in candidates
            if config.num_threads <= 1
            or features.nnz >= config.num_threads * cutover
        )
        if len(kept) < len(candidates):
            notes["cutover_dropped"] = len(candidates) - len(kept)
            notes["min_parallel_nnz"] = cutover
            candidates = kept

    ranked = _model_stage(coo, features, kernel, mode, rank, candidates, notes)

    probes_run = 0
    cache_hit = None
    if probe and top_k > 0:
        picks = _thread_probe_set(ranked, top_k)
        shared_key = ("probe_set", kernel, rank, tuple(c.config for c in picks))
        cache = get_plan_cache()
        shared = cache.peek(tensor, KIND_AUTOTUNE, shared_key)
        if shared is not None and shared[0] != mode:
            # An earlier mode measured this exact probe set on this
            # tensor: commit its measurements instead of repeating them.
            source_mode, measured = shared
            modeled = {c.config: c.modeled_seconds for c in ranked}
            probed = [
                replace(c, modeled_seconds=modeled[c.config]) for c in measured
            ]
            cache_hit = "shared"
            notes["shared_with_mode"] = source_mode
        else:
            probed = _probe_stage(
                coo, kernel, mode, rank, seed, budget_ms, ranked, picks
            )
            probes_run = len(probed)
            cache.evict(tensor, KIND_AUTOTUNE, shared_key)
            cache.get(
                tensor, KIND_AUTOTUNE, shared_key, lambda: (mode, tuple(probed))
            )
        by_time = attrgetter("measured_seconds")
        winner = min(probed, key=by_time)
        serial = next(c for c in probed if c.config.num_threads == 1)
        teams = [c for c in probed if c.config.num_threads > 1]
        if teams:
            team = min(teams, key=by_time)
            notes["thread_speedup"] = {
                "measured": serial.measured_seconds / team.measured_seconds,
                "modeled": serial.modeled_seconds / team.modeled_seconds,
            }
        done = {cand.config for cand in probed}
        ranked = probed + [cand for cand in ranked if cand.config not in done]
    else:
        winner = ranked[0]

    report = TuningReport(
        kernel=kernel,
        mode=mode,
        rank=rank,
        seed=int(seed),
        fingerprint=fingerprint,
        machine=machine,
        chosen=winner.config,
        candidates=tuple(ranked),
        probes_run=probes_run,
        cache_hit=cache_hit,
        budget_ms=budget_ms,
        top_k=top_k,
        notes=notes,
    )
    if disk_on and winner.measured_seconds is not None:
        _disk_store(
            path,
            disk_key,
            {
                "config": winner.config.to_dict(),
                "modeled_seconds": winner.modeled_seconds,
                "measured_seconds": winner.measured_seconds,
                "probe_reps": winner.probe_reps,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
        )
    _LAST_TUNING_REPORT = report
    return report


def decide(
    tensor: Any,
    kernel: str,
    *,
    mode: int = 0,
    rank: int = DEFAULT_RANK,
    seed: int = 0,
    probe: bool = True,
    top_k: Optional[int] = None,
    budget_ms: Optional[float] = None,
    use_disk_cache: bool = True,
) -> TuneConfig:
    """The tuned configuration, memoized in-process under the plan cache.

    Repeat calls for the same live tensor object return the stored
    decision without touching disk, features, or probes — this is the
    fast path ``variant="auto"`` kernels hit inside iteration loops.
    """
    kernel = kernel.upper()
    coo = _as_coo(tensor)
    mode = coo.check_mode(mode)

    def build() -> TuningReport:
        return tune(
            tensor,
            kernel,
            mode=mode,
            rank=rank,
            seed=seed,
            probe=probe,
            top_k=top_k,
            budget_ms=budget_ms,
            use_disk_cache=use_disk_cache,
        )

    key = ("decision", kernel, mode, int(rank))
    report = get_plan_cache().get(tensor, KIND_AUTOTUNE, key, build)
    return report.chosen
