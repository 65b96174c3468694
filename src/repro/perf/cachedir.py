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
  invalidate when the compiler is upgraded.
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
    """Drop the toolchain memo (tests monkeypatching ``shutil.which``)."""
    global _toolchain_memo
    _toolchain_memo = None


def machine_signature() -> str:
    """Coarse host identity baked into every persisted cache entry."""
    return "-".join(
        [
            platform.machine() or "unknown",
            f"{os.cpu_count() or 1}cpu",
            f"py{sys.version_info.major}.{sys.version_info.minor}",
            f"np{np.__version__}",
            toolchain_info(),
        ]
    )
