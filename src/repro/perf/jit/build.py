"""Compile generated C into a content-addressed shared-object cache.

The pipeline is ``source -> sha256(source + machine signature + compiler
flags) -> ~/.cache/repro/jit/<hash>-<profile>.so -> ctypes.CDLL``.
Hashing the source text means two requests for the same specialization
share one object file, and any change to the generator invalidates old
entries automatically; mixing in
:func:`repro.perf.cachedir.machine_signature` keeps objects from
leaking across CPUs or toolchains, and mixing in the profile's flags
keeps a sanitizer-instrumented build from ever serving (or being
served) a release object, and a flag change from serving old objects.

Build profiles (``REPRO_JIT_BUILD``):

``release``
    The default: ``-O3 -march=native``, the flags benchmarks measure.
    Objects use the host CPU's whole instruction set, so they are only
    valid on CPUs with the same ISA; the machine signature carries the
    CPU's identity (:func:`repro.perf.cachedir.cpu_identity`) for that.
``sanitize``
    ``-O1 -g -fsanitize=address,undefined`` with recovery disabled —
    the conformance harness's ``build: "sanitize"`` oracle checks run
    kernels under this profile so an out-of-bounds store or undefined
    arithmetic in generated C aborts loudly instead of corrupting
    silently.  Loading
    an ASan runtime via ``dlopen`` from an uninstrumented host process
    requires ``verify_asan_link_order=0`` — and the runtime reads
    ``ASAN_OPTIONS`` from the *initial* process environment
    (``/proc/self/environ``), so setting it after interpreter start is
    too late.  Instead every instrumented TU gets a
    ``__asan_default_options`` callback compiled in (along with
    ``detect_leaks=0`` so the interpreter's own allocations do not trip
    the leak checker at exit); a user-set ``ASAN_OPTIONS`` still
    overrides individual keys.
``tsan``
    ``-O1 -g -fsanitize=thread`` where the toolchain supports loading
    it as a shared object; probed like ``sanitize``.

Every profile compiles with ``-ffp-contract=off``: no multiply-add is
fused, so each ``acc += v * a * b`` rounds its product and its sum
separately and no output bit depends on whether the CPU has FMA.

Failure handling is deliberately boring: every step that can fail —
no compiler on PATH, ``REPRO_JIT=0``, a missing sanitizer runtime,
read-only cache dir, a corrupt or truncated ``.so`` — resolves to
``None`` from :func:`load_function`, and the caller falls back to the
numpy kernel.  A corrupt cache entry is unlinked and recompiled once
before giving up.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from .. import cachedir
from ..cachedir import cache_subdir, machine_signature

#: Set to ``0``/``false``/``off``/``no`` to force the numpy path even
#: when a compiler is available.
ENV_JIT = "REPRO_JIT"

#: Override the object-cache directory (tests and benchmarks point this
#: at a tempdir so cold-compile timings are honest).
ENV_JIT_CACHE = "REPRO_JIT_CACHE"

#: Select the build profile (``release``, ``sanitize``, ``tsan``).
ENV_JIT_BUILD = "REPRO_JIT_BUILD"

PROFILE_RELEASE = "release"
PROFILE_SANITIZE = "sanitize"
PROFILE_TSAN = "tsan"
PROFILES = (PROFILE_RELEASE, PROFILE_SANITIZE, PROFILE_TSAN)

_FALSY = {"0", "false", "off", "no"}

_BASE_CFLAGS = ("-shared", "-fPIC", "-fno-math-errno", "-ffp-contract=off")

#: Per-profile compiler flags (before the ``-pthread`` suffix).
#: ``-ffp-contract=off`` is in every profile (see the module docstring).
#: ``-fno-sanitize-recover=all`` makes every sanitizer report fatal so
#: an instrumented conformance run fails loudly rather than printing
#: and continuing.
_PROFILE_CFLAGS: Dict[str, Tuple[str, ...]] = {
    PROFILE_RELEASE: ("-O3", "-march=native", *_BASE_CFLAGS),
    PROFILE_SANITIZE: (
        "-O1",
        "-g",
        *_BASE_CFLAGS,
        "-fno-omit-frame-pointer",
        "-fsanitize=address,undefined",
        "-fno-sanitize-recover=all",
    ),
    PROFILE_TSAN: (
        "-O1",
        "-g",
        *_BASE_CFLAGS,
        "-fno-omit-frame-pointer",
        "-fsanitize=thread",
    ),
}

#: Options an ASan runtime needs when it enters the process through
#: ``dlopen`` rather than ``LD_PRELOAD``; existing user-set keys win.
#: The in-process mechanism is the compiled-in default-options callback
#: (:data:`_SANITIZER_DEFAULTS_SRC`) — the runtime reads these env vars
#: from the *initial* environment only — but merging them here means
#: any worker subprocess this process spawns starts with them set.
_SANITIZER_ENV = {
    "ASAN_OPTIONS": (("verify_asan_link_order", "0"), ("detect_leaks", "0")),
    "UBSAN_OPTIONS": (("print_stacktrace", "1"),),
}

#: Per-profile C prelude prepended to every instrumented TU.  The
#: sanitizer runtimes call these weak hooks during initialization, which
#: is the only reliable way to deliver options to a runtime that enters
#: the process through ``dlopen`` (it reads ``ASAN_OPTIONS`` et al. from
#: ``/proc/self/environ``, frozen at exec time).  Env-var keys the user
#: *did* set at process start still win over these defaults.
_SANITIZER_DEFAULTS_SRC = {
    PROFILE_SANITIZE: (
        "const char *__asan_default_options(void) "
        '{ return "verify_asan_link_order=0:detect_leaks=0"; }\n'
        "const char *__ubsan_default_options(void) "
        '{ return "print_stacktrace=1"; }\n'
    ),
    PROFILE_TSAN: (
        "const char *__tsan_default_options(void) "
        '{ return "halt_on_error=1"; }\n'
    ),
}


def build_profile() -> str:
    """The active build profile; unknown values degrade to release.

    Read dynamically (not cached at import) so tests and the
    conformance harness can switch profiles per run.
    """
    raw = os.environ.get(ENV_JIT_BUILD, PROFILE_RELEASE).strip().lower()
    return raw if raw in PROFILES else PROFILE_RELEASE


@contextlib.contextmanager
def profile_override(profile: str) -> Iterator[None]:
    """Temporarily select a build profile via the environment.

    Used by the sanitize-build conformance ``oracle`` checks and corpus
    replay; restores the previous ``REPRO_JIT_BUILD`` value on exit.
    """
    previous = os.environ.get(ENV_JIT_BUILD)
    os.environ[ENV_JIT_BUILD] = profile
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_JIT_BUILD, None)
        else:
            os.environ[ENV_JIT_BUILD] = previous


def compile_flags(profile: Optional[str] = None) -> tuple:
    """Compiler flags for a build profile (default: the active one).

    The profile's flags plus ``-pthread`` for the pthreads team every
    generated ``_par`` entry runs on.
    """
    return _PROFILE_CFLAGS[profile or build_profile()] + ("-pthread",)

# Process-local memo: (function name, profile) -> ctypes function (or
# None when a previous attempt failed).  Loaded libraries are pinned
# separately so their function pointers stay valid for the process
# lifetime.
_functions: Dict[Tuple[str, str], Optional[Callable]] = {}
_libraries: Dict[Tuple[str, str], ctypes.CDLL] = {}
_compiler_memo: Optional[tuple] = None
_fallback_dir: Optional[Path] = None
_profile_probe: Dict[str, bool] = {}


def jit_enabled() -> bool:
    """False when ``REPRO_JIT`` is set to a falsy value."""
    return os.environ.get(ENV_JIT, "1").strip().lower() not in _FALSY


def compiler_path() -> Optional[str]:
    """Path to a usable C compiler, memoized; ``None`` when absent."""
    global _compiler_memo
    if _compiler_memo is None:
        _compiler_memo = (shutil.which("gcc") or shutil.which("cc"),)
    return _compiler_memo[0]


def _ensure_sanitizer_env() -> None:
    """Merge the dlopen-friendly sanitizer options into the environment.

    This cannot configure the *current* process's runtime (it reads the
    initial environment only — the compiled-in default-options hooks do
    that job); it exists so worker subprocesses spawned after this point
    inherit the right options.  Keys the user already set are left
    alone.
    """
    for variable, required in _SANITIZER_ENV.items():
        existing = os.environ.get(variable, "")
        present = {
            entry.split("=", 1)[0]
            for entry in existing.replace(",", ":").split(":")
            if entry
        }
        additions = [
            f"{key}={value}" for key, value in required if key not in present
        ]
        if additions:
            merged = ":".join(additions + ([existing] if existing else []))
            os.environ[variable] = merged


def profile_supported(profile: Optional[str] = None) -> bool:
    """Whether objects built under ``profile`` can load on this host.

    Release needs only a compiler.  Sanitizer profiles additionally
    need their runtime library to be present *and* loadable through
    ``dlopen`` from an uninstrumented process, so the probe compiles a
    trivial instrumented TU and actually loads it — memoized per
    process (cleared by :func:`reset`).
    """
    profile = profile or build_profile()
    if compiler_path() is None:
        return False
    if profile == PROFILE_RELEASE:
        return True
    if profile not in _profile_probe:
        _profile_probe[profile] = _probe_profile(profile)
    return _profile_probe[profile]


def _probe_profile(profile: str) -> bool:
    """Compile a one-function TU under ``profile`` and load-test it.

    The ``dlopen`` happens in a child interpreter: a sanitizer runtime
    that cannot initialize through ``dlopen`` (TSan on most glibc
    setups, ASan under a hostile ``ASAN_OPTIONS``) may abort the whole
    process rather than fail the load, and that must take down the
    probe child, not the host.
    """
    cc = compiler_path()
    if cc is None:
        return False
    source = "int repro_profile_probe(int x) { return x + 1; }\n"
    try:
        with tempfile.TemporaryDirectory(prefix="repro-jit-probe-") as tmp:
            c_path = os.path.join(tmp, "probe.c")
            so_path = os.path.join(tmp, "probe.so")
            with open(c_path, "w") as handle:
                handle.write(_SANITIZER_DEFAULTS_SRC.get(profile, "") + source)
            proc = subprocess.run(
                [cc, *compile_flags(profile), "-o", so_path, c_path],
                capture_output=True,
                timeout=60,
            )
            if proc.returncode != 0:
                return False
            _ensure_sanitizer_env()
            loader = (
                "import ctypes, sys\n"
                f"lib = ctypes.CDLL({so_path!r})\n"
                "sys.exit(0 if lib.repro_profile_probe(41) == 42 else 1)\n"
            )
            check = subprocess.run(
                [sys.executable, "-c", loader],
                capture_output=True,
                timeout=60,
            )
            return check.returncode == 0
    except (OSError, subprocess.SubprocessError):
        return False


def jit_available() -> bool:
    """True when compiled kernels can actually be produced right now.

    Under a sanitizer profile this includes the runtime-library probe,
    so a host without libasan degrades to the numpy path instead of
    failing every load.
    """
    return (
        jit_enabled()
        and compiler_path() is not None
        and profile_supported(build_profile())
    )


def reset() -> None:
    """Drop all process-local memos (compiler probe, loaded functions).

    Tests use this after monkeypatching ``shutil.which`` or the cache
    env vars; already-loaded ``CDLL`` handles are released to the GC but
    any outstanding function pointers remain valid until then.
    """
    global _compiler_memo, _fallback_dir
    _compiler_memo = None
    _fallback_dir = None
    _functions.clear()
    _libraries.clear()
    _profile_probe.clear()
    cachedir.reset_toolchain()


def object_cache_dir() -> Path:
    """Directory holding compiled ``.so`` files (created best-effort)."""
    override = os.environ.get(ENV_JIT_CACHE)
    if override:
        path = Path(override)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass
        return path
    return cache_subdir("jit")


def _writable_cache_dir() -> Path:
    """The object cache dir, or a process tempdir when it is read-only."""
    global _fallback_dir
    primary = object_cache_dir()
    if os.access(primary, os.W_OK):
        return primary
    if _fallback_dir is None:
        _fallback_dir = Path(tempfile.mkdtemp(prefix="repro-jit-"))
    return _fallback_dir


def source_key(source: str, profile: Optional[str] = None) -> str:
    """Content address for one translation unit on this machine.

    The source, the machine signature and the profile's compiler flags
    are hashed, so a flag change never serves an object built under the
    old flags.  The profile name is appended as a human-readable suffix,
    so ``repro jit-cache`` can attribute entries to a profile.
    """
    profile = profile or build_profile()
    digest = hashlib.sha256()
    for part in (source, machine_signature(), " ".join(compile_flags(profile))):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return f"{digest.hexdigest()[:24]}-{profile}"


def entry_profile(path: Path) -> str:
    """Build profile a cache entry was compiled under, from its name.

    Entries written before profiles existed have a bare-hash stem and
    report ``release`` (the only profile that ever produced them).
    """
    stem = path.stem
    for profile in PROFILES:
        if stem.endswith(f"-{profile}"):
            return profile
    return PROFILE_RELEASE


def _compile(source: str, out_path: Path, profile: Optional[str] = None) -> bool:
    """Compile ``source`` to ``out_path``; False on any failure.

    Under a sanitizer profile the TU is prefixed with the runtime's
    default-options hooks (see :data:`_SANITIZER_DEFAULTS_SRC`) so the
    resulting object is loadable via ``dlopen`` regardless of the host
    process's initial environment.
    """
    cc = compiler_path()
    if cc is None:
        return False
    profile = profile or build_profile()
    workdir = out_path.parent
    try:
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=workdir)
    except OSError:
        return False
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_SANITIZER_DEFAULTS_SRC.get(profile, "") + source)
        tmp_so = Path(c_path).with_suffix(".so.tmp")
        proc = subprocess.run(
            [cc, *compile_flags(profile), "-o", str(tmp_so), c_path],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return False
        # Atomic publish so a concurrent process never loads a half-
        # written object.
        os.replace(tmp_so, out_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        for leftover in (Path(c_path), Path(c_path).with_suffix(".so.tmp")):
            try:
                leftover.unlink(missing_ok=True)
            except OSError:
                pass


def _try_load(so_path: Path, name: str, profile: Optional[str] = None) -> Optional[Callable]:
    """Load ``name`` from ``so_path``; None when the entry is unusable."""
    profile = profile or build_profile()
    if profile != PROFILE_RELEASE:
        _ensure_sanitizer_env()
    try:
        lib = ctypes.CDLL(str(so_path))
        fn = getattr(lib, name)
    except (OSError, AttributeError):
        return None
    # Pin the owning library for the process lifetime so the function
    # pointer stays valid even if the memo is cleared mid-call.
    _libraries[(name, profile)] = lib
    return fn


def _load_via_unique_copy(so_path: Path, name: str) -> Optional[Callable]:
    """Load through a uniquely-named copy of ``so_path``.

    ``dlopen`` dedupes by pathname, so once a stale object has been
    mapped from the canonical path, reloading a recompiled replacement
    from that same path silently returns the old mapping.  A one-off
    copy gets a fresh pathname; unlinking it immediately is safe because
    the mapping outlives the directory entry.
    """
    try:
        fd, copy_path = tempfile.mkstemp(suffix=".so", dir=so_path.parent)
        os.close(fd)
        shutil.copyfile(so_path, copy_path)
    except OSError:
        return None
    try:
        return _try_load(Path(copy_path), name)
    finally:
        try:
            os.unlink(copy_path)
        except OSError:
            pass


def load_function(
    name: str,
    source: str,
    argtypes: Sequence,
    restype=None,
) -> Optional[Callable]:
    """Return the compiled function for ``source``, or None.

    Compilation results — including failures — are memoized per process
    and per build profile, so a missing compiler costs one ``which``
    probe, not one subprocess per kernel call, and switching
    ``REPRO_JIT_BUILD`` mid-process never serves an object built under
    the other profile.  ctypes foreign calls release the GIL, which is
    what lets the worker pool drive these concurrently.
    """
    memo_key = (name, build_profile())
    if memo_key in _functions:
        return _functions[memo_key]
    fn = _load_uncached(name, source, argtypes, restype)
    _functions[memo_key] = fn
    return fn


def _load_uncached(name, source, argtypes, restype) -> Optional[Callable]:
    if not jit_available():
        return None
    so_path = _writable_cache_dir() / f"{source_key(source)}.so"
    fn = None
    stale_mapped = False
    if so_path.exists():
        fn = _try_load(so_path, name)
        if fn is None:
            # Corrupt or stale entry (truncated write, wrong symbol from
            # a hash collision with an older generator): recompile once.
            # If the bad object was a valid library that merely lacked
            # the symbol, dlopen has already mapped the canonical path
            # and will keep returning that stale mapping.
            stale_mapped = True
            try:
                so_path.unlink(missing_ok=True)
            except OSError:
                return None
    if fn is None:
        if not _compile(source, so_path):
            return None
        loader = _load_via_unique_copy if stale_mapped else _try_load
        fn = loader(so_path, name)
        if fn is None:
            return None
    fn.argtypes = list(argtypes)
    fn.restype = restype
    return fn


def cache_entries() -> list:
    """(path, size_bytes, mtime) for each cached object, sorted by name."""
    entries = []
    root = object_cache_dir()
    try:
        paths = sorted(root.glob("*.so"))
    except OSError:
        return entries
    for path in paths:
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((path, stat.st_size, stat.st_mtime))
    return entries


def clear_cache() -> int:
    """Delete every cached object; returns the number removed."""
    removed = 0
    for path, _, _ in cache_entries():
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    _functions.clear()
    _libraries.clear()
    return removed
