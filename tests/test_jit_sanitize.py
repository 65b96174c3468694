"""Tests for JIT build profiles and the sanitizer-instrumented pipeline.

Covers the cache-key and memo plumbing (a sanitize build must never
serve or be served a release object), the environment override
machinery, the sanitize-build ``oracle`` conformance checks, and the corpus
``jit_build`` field.  Pieces that need a working ASan runtime skip with
a reason when :func:`profile_supported` says the host lacks one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.conformance import corpus
from repro.conformance.harness import (
    describe_check,
    enumerate_checks,
    run_check,
)
from repro.formats.coo import CooTensor
from repro.perf.jit import build

SOURCE = "double repro_sanity_probe(double x) { return x * 2.0; }\n"


def small_tensor(order: int = 3, nnz: int = 30, seed: int = 7) -> CooTensor:
    rng = np.random.default_rng(seed)
    return CooTensor.random((6,) * order, nnz, rng=rng)


# ----------------------------------------------------------------------
# Profile selection and cache keying
# ----------------------------------------------------------------------


def test_build_profile_default_and_unknown(monkeypatch):
    monkeypatch.delenv(build.ENV_JIT_BUILD, raising=False)
    assert build.build_profile() == build.PROFILE_RELEASE
    monkeypatch.setenv(build.ENV_JIT_BUILD, "sanitize")
    assert build.build_profile() == build.PROFILE_SANITIZE
    monkeypatch.setenv(build.ENV_JIT_BUILD, "bogus")
    assert build.build_profile() == build.PROFILE_RELEASE


def test_profile_override_restores_environment(monkeypatch):
    monkeypatch.delenv(build.ENV_JIT_BUILD, raising=False)
    with build.profile_override(build.PROFILE_SANITIZE):
        assert build.build_profile() == build.PROFILE_SANITIZE
    assert build.ENV_JIT_BUILD not in os.environ
    monkeypatch.setenv(build.ENV_JIT_BUILD, "tsan")
    with build.profile_override(build.PROFILE_RELEASE):
        assert build.build_profile() == build.PROFILE_RELEASE
    assert os.environ[build.ENV_JIT_BUILD] == "tsan"


def test_source_key_varies_by_profile():
    release = build.source_key(SOURCE, profile=build.PROFILE_RELEASE)
    sanitize = build.source_key(SOURCE, profile=build.PROFILE_SANITIZE)
    assert release != sanitize
    assert release.endswith("-release")
    assert sanitize.endswith("-sanitize")
    # The hash part differs too (the profile is mixed into the digest),
    # not just the suffix.
    assert release.split("-")[0] != sanitize.split("-")[0]


def test_source_key_follows_active_profile():
    with build.profile_override(build.PROFILE_SANITIZE):
        assert build.source_key(SOURCE).endswith("-sanitize")
    assert build.source_key(SOURCE) == build.source_key(
        SOURCE, profile=build.build_profile()
    )


def test_entry_profile_parsing():
    assert build.entry_profile(Path("abc123-sanitize.so")) == "sanitize"
    assert build.entry_profile(Path("abc123-tsan.so")) == "tsan"
    assert build.entry_profile(Path("abc123-release.so")) == "release"
    # Pre-profile entries have a bare hash stem.
    assert build.entry_profile(Path("0123456789abcdef.so")) == "release"


def test_compile_flags_per_profile():
    release = build.compile_flags(build.PROFILE_RELEASE)
    sanitize = build.compile_flags(build.PROFILE_SANITIZE)
    assert "-O3" in release
    assert not any(f.startswith("-fsanitize") for f in release)
    assert "-fsanitize=address,undefined" in sanitize
    assert "-fno-sanitize-recover=all" in sanitize
    assert "-O1" in sanitize


def test_sanitizer_env_merge_preserves_user_keys(monkeypatch):
    monkeypatch.setenv("ASAN_OPTIONS", "detect_leaks=1")
    monkeypatch.setenv("UBSAN_OPTIONS", "print_stacktrace=0")
    build._ensure_sanitizer_env()
    asan = os.environ["ASAN_OPTIONS"]
    assert "verify_asan_link_order=0" in asan
    assert "detect_leaks=1" in asan
    assert "detect_leaks=0" not in asan
    assert os.environ["UBSAN_OPTIONS"] == "print_stacktrace=0"


def test_profile_supported_release_needs_only_compiler():
    if build.compiler_path() is None:
        assert not build.profile_supported(build.PROFILE_RELEASE)
    else:
        assert build.profile_supported(build.PROFILE_RELEASE)


def test_profile_probe_memoized(monkeypatch):
    if build.compiler_path() is None:
        pytest.skip("no C compiler on this host")
    build._profile_probe.clear()
    calls = []
    real_probe = build._probe_profile

    def counting_probe(profile):
        calls.append(profile)
        return real_probe(profile)

    monkeypatch.setattr(build, "_probe_profile", counting_probe)
    first = build.profile_supported(build.PROFILE_SANITIZE)
    second = build.profile_supported(build.PROFILE_SANITIZE)
    assert first == second
    assert calls == [build.PROFILE_SANITIZE]
    build._profile_probe.clear()


# ----------------------------------------------------------------------
# Instrumented compile + run
# ----------------------------------------------------------------------


def _require_sanitize():
    if not build.jit_enabled() or build.compiler_path() is None:
        pytest.skip("JIT backend unavailable (no compiler or REPRO_JIT=0)")
    if not build.profile_supported(build.PROFILE_SANITIZE):
        pytest.skip("sanitizer runtime not loadable on this host")


def test_sanitize_profile_compiles_and_runs(tmp_path, monkeypatch):
    _require_sanitize()
    import ctypes

    monkeypatch.setenv(build.ENV_JIT_CACHE, str(tmp_path))
    with build.profile_override(build.PROFILE_SANITIZE):
        fn = build.load_function(
            "repro_sanity_probe", SOURCE, [ctypes.c_double], ctypes.c_double
        )
        assert fn is not None
        assert fn(21.0) == 42.0
        cached = list(tmp_path.glob("*.so"))
        assert len(cached) == 1
        assert build.entry_profile(cached[0]) == build.PROFILE_SANITIZE
    build._functions.clear()


def test_memo_isolated_per_profile(tmp_path, monkeypatch):
    _require_sanitize()
    import ctypes

    monkeypatch.setenv(build.ENV_JIT_CACHE, str(tmp_path))
    with build.profile_override(build.PROFILE_RELEASE):
        release_fn = build.load_function(
            "repro_sanity_probe", SOURCE, [ctypes.c_double], ctypes.c_double
        )
    with build.profile_override(build.PROFILE_SANITIZE):
        sanitize_fn = build.load_function(
            "repro_sanity_probe", SOURCE, [ctypes.c_double], ctypes.c_double
        )
    assert release_fn is not None and sanitize_fn is not None
    assert release_fn(1.5) == 3.0 and sanitize_fn(1.5) == 3.0
    # Two distinct cache objects, one per profile.
    profiles = sorted(build.entry_profile(p) for p in tmp_path.glob("*.so"))
    assert profiles == ["release", "sanitize"]
    build._functions.clear()


def test_jit_kernel_differential_under_sanitize(tmp_path, monkeypatch):
    """A real generated kernel, compiled instrumented, matches numpy."""
    _require_sanitize()
    from repro.core.mttkrp import mttkrp_coo as mttkrp_numpy
    from repro.core.registry import make_operands
    from repro.perf import jit

    monkeypatch.setenv(build.ENV_JIT_CACHE, str(tmp_path))
    tensor = small_tensor()
    operands = make_operands(tensor, "MTTKRP", rank=4, seed=3)
    expected = mttkrp_numpy(tensor, list(operands.factors), 0)
    with build.profile_override(build.PROFILE_SANITIZE):
        assert build.jit_available()
        out = jit.mttkrp_coo(tensor, list(operands.factors), 0)
    assert out is not None
    # float32 values: compiled accumulation order may differ in last ulps.
    np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)
    build._functions.clear()


# ----------------------------------------------------------------------
# Conformance integration
# ----------------------------------------------------------------------


def test_jit_sanitize_check_enumerated():
    checks = enumerate_checks(small_tensor())
    sanitize_checks = [c for c in checks if c.get("build") == "sanitize"]
    assert {c["check"] for c in sanitize_checks} == {"oracle"}
    assert {c["kernel"] for c in sanitize_checks} == {"TTV", "TTM", "MTTKRP"}
    assert {c["variant"] for c in sanitize_checks} == {"coo_jit", "hicoo_jit"}
    assert "sanitize build" in describe_check(sanitize_checks[0])


def test_jit_sanitize_check_passes_or_skips(tmp_path, monkeypatch):
    monkeypatch.setenv(build.ENV_JIT_CACHE, str(tmp_path))
    tensor = small_tensor()
    for variant in ("coo_jit", "hicoo_jit"):
        config = {
            "check": "oracle",
            "build": "sanitize",
            "kernel": "MTTKRP",
            "variant": variant,
            "mode": 0,
            "rank": 4,
            "block_size": 4,
            "seed": 1,
        }
        # Passes trivially (None) when unsupported; must also pass when
        # the sanitizer runtime is present.
        assert run_check(tensor, config) is None
    build._functions.clear()


# ----------------------------------------------------------------------
# Corpus build-profile recording
# ----------------------------------------------------------------------


def test_corpus_records_and_replays_jit_build(tmp_path):
    tensor = small_tensor(order=2, nnz=8)
    config = {"check": "oracle", "kernel": "TEW", "variant": "hicoo",
              "mode": 0, "rank": 2, "block_size": 4, "seed": 0}
    path = corpus.save_reproducer(
        tmp_path, tensor, config, "planted", jit_build="sanitize"
    )
    payload = json.loads(Path(path).read_text())
    assert payload["jit_build"] == "sanitize"
    repro = corpus.load_reproducer(path)
    assert repro.jit_build == "sanitize"

    seen = []
    real_override = build.profile_override

    def spying_override(profile):
        seen.append(profile)
        return real_override(profile)

    build_module = build
    original = build_module.profile_override
    build_module.profile_override = spying_override
    try:
        assert repro.replay() is None
    finally:
        build_module.profile_override = original
    assert seen == ["sanitize"]


def test_corpus_entry_without_jit_build_is_legacy_compatible(tmp_path):
    tensor = small_tensor(order=2, nnz=8)
    config = {"check": "oracle", "kernel": "TEW", "variant": "hicoo",
              "mode": 0, "rank": 2, "block_size": 4, "seed": 0}
    path = corpus.save_reproducer(tmp_path, tensor, config, "planted")
    payload = json.loads(Path(path).read_text())
    assert "jit_build" not in payload
    repro = corpus.load_reproducer(path)
    assert repro.jit_build is None
    assert repro.replay() is None


def test_corpus_digest_ignores_jit_build(tmp_path):
    tensor = small_tensor(order=2, nnz=8)
    config = {"check": "oracle", "kernel": "TEW", "variant": "hicoo",
              "mode": 0, "rank": 2, "block_size": 4, "seed": 0}
    bare = corpus.save_reproducer(tmp_path, tensor, config, "planted")
    tagged = corpus.save_reproducer(
        tmp_path, tensor, config, "planted", jit_build="sanitize"
    )
    assert bare == tagged  # same entry identity; profile is metadata
