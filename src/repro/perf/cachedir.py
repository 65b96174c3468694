"""Shared on-disk cache location and machine identity helpers.

Both persistent caches — the autotuner's tuning file and the JIT
compiler's object cache — key their entries on a coarse machine
signature and live under one per-user cache root.  This module owns
both concerns so the two subsystems cannot drift apart:

* :func:`cache_root` resolves the root directory, honoring
  ``XDG_CACHE_HOME`` and falling back to ``~/.cache/repro``;
* :func:`cache_subdir` creates (best-effort) a named subdirectory,
  returning the path even when the filesystem is read-only — callers
  degrade gracefully when their first write fails, exactly like the
  tuning cache always has;
* :func:`machine_signature` is the host fingerprint persisted next to
  every cached artifact, so entries never leak across architectures,
  Python versions, or numpy builds;
* :func:`toolchain_info` identifies the C compiler once per process —
  its name plus a hash of its ``--version`` banner — and the signature
  carries it, so compiled objects and persisted tuning decisions
  invalidate when the compiler is upgraded;
* :func:`cpu_identity` identifies the CPU's instruction set once per
  process, and the signature carries it too: release objects are built
  with ``-march=native``, so neither an object nor a tuning decision may
  be served on a CPU with another ISA.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np

_toolchain_memo: Optional[str] = None
_cpu_memo: Optional[str] = None


def cache_root() -> Path:
    """Per-user cache root: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


def cache_subdir(name: str) -> Path:
    """A named subdirectory of the cache root, created best-effort.

    A read-only home (or any other ``OSError`` from ``mkdir``) is
    tolerated: the path is still returned and the caller's first write
    attempt fails in its own ``try``, degrading to in-process behavior —
    the same contract the tuning cache's ``_disk_store`` follows.
    """
    path = cache_root() / name
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        pass
    return path


def toolchain_info() -> str:
    """The compiler identity, probed once per process.

    The identity is the compiler basename plus a short hash of the first
    line of ``--version`` output, so a toolchain upgrade (same path, new
    binary) changes the signature.  ``"nocc"`` when no compiler is on
    PATH.  Tests that monkeypatch ``shutil.which`` must call
    :func:`reset_toolchain` (``jit.build.reset`` does so).
    """
    global _toolchain_memo
    if _toolchain_memo is not None:
        return _toolchain_memo
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        _toolchain_memo = "nocc"
        return _toolchain_memo
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=30
        )
        banner = proc.stdout.decode("utf-8", "replace").splitlines()
        first = banner[0] if banner else ""
    except (OSError, subprocess.SubprocessError):
        first = ""
    digest = hashlib.sha1(first.encode("utf-8")).hexdigest()[:8]
    _toolchain_memo = f"{Path(cc).name}-{digest}"
    return _toolchain_memo


def reset_toolchain() -> None:
    """Drop the toolchain and CPU memos (tests monkeypatching the probes)."""
    global _toolchain_memo, _cpu_memo
    _toolchain_memo = None
    _cpu_memo = None


def _cpu_features() -> str:
    """The CPU's feature list: ``/proc/cpuinfo``'s ``flags`` (x86) or
    ``Features`` (Arm) line, or ``platform.processor()`` where that file
    is missing.  Where the file exists this starts no subprocess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                key, sep, value = line.partition(":")
                if sep and key.strip() in ("flags", "Features"):
                    return value.strip()
    except OSError:
        pass
    return platform.processor()


def cpu_identity() -> str:
    """Short hash of the CPU's instruction-set features, once per process."""
    global _cpu_memo
    if _cpu_memo is None:
        _cpu_memo = hashlib.sha1(_cpu_features().encode("utf-8")).hexdigest()[:8]
    return _cpu_memo


def machine_signature() -> str:
    """Coarse host identity baked into every persisted cache entry."""
    return "-".join(
        [
            platform.machine() or "unknown",
            f"isa{cpu_identity()}",
            f"{os.cpu_count() or 1}cpu",
            f"py{sys.version_info.major}.{sys.version_info.minor}",
            f"np{np.__version__}",
            toolchain_info(),
        ]
    )
