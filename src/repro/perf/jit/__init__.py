"""Compiled C kernel backend (codegen + build cache + ctypes dispatch).

The TACO idea applied to this suite's numpy kernels: specialize each
(kernel × format × order × rank) into a fused C loop nest
(:mod:`~repro.perf.jit.codegen`), compile it once into a
content-addressed shared-object cache (:mod:`~repro.perf.jit.build`),
and call it through ctypes with the same plans, partitions, and
sanitizer ownership declarations as the interpreted path
(:mod:`~repro.perf.jit.kernels`).

Everything degrades gracefully: with no C compiler on PATH, with
``REPRO_JIT=0``, or for an unsupported specialization, every entry
point reports unavailable / returns ``None`` and callers keep the numpy
result.  The autotuner only enumerates ``*_jit`` variants when
:func:`jit_available` is true, and ``dispatch.run_config`` downgrades a
``*_jit`` config to its numpy twin when the compiled call declines —
so a tuning decision cached on a machine with gcc still runs correctly
on one without.
"""

from .build import (
    ENV_JIT,
    ENV_JIT_BUILD,
    ENV_JIT_CACHE,
    PROFILE_RELEASE,
    PROFILE_SANITIZE,
    PROFILE_TSAN,
    PROFILES,
    build_profile,
    cache_entries,
    clear_cache,
    compiler_path,
    entry_profile,
    jit_available,
    jit_enabled,
    object_cache_dir,
    profile_override,
    profile_supported,
    reset,
)
from .kernels import (
    mttkrp_coo,
    mttkrp_hicoo,
    ttm_coo,
    ttv_coo,
)

__all__ = [
    "ENV_JIT",
    "ENV_JIT_BUILD",
    "ENV_JIT_CACHE",
    "PROFILE_RELEASE",
    "PROFILE_SANITIZE",
    "PROFILE_TSAN",
    "PROFILES",
    "build_profile",
    "cache_entries",
    "clear_cache",
    "compiler_path",
    "entry_profile",
    "jit_available",
    "jit_enabled",
    "object_cache_dir",
    "profile_override",
    "profile_supported",
    "reset",
    "mttkrp_coo",
    "mttkrp_hicoo",
    "ttm_coo",
    "ttv_coo",
]
