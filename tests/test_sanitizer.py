"""Tests for the runtime parallel-write sanitizer (``REPRO_SANITIZE=1``).

The sanitizer switches ``run_chunks`` to checked-serial execution:
chunks claim disjoint unit/element intervals and every registered
output's complement is snapshot-compared after each chunk.  Planted
violations must *change bits* in a row another chunk owns — a stray
write of an identical value is a bitwise no-op the complement compare
cannot (and should not) flag.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    OverlappingWriteError,
    RegionTracker,
    SanitizerError,
    checked_task,
    sanitizer_enabled,
)
from repro.conformance.harness import run_check
from repro.formats import CooTensor
from repro.perf import (
    ChunkPlan,
    build_element_chunk_plan,
    parallel_config,
    run_chunks,
)


@pytest.fixture
def sanitize(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


class TestEnabledSwitch:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitizer_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "OFF"])
    def test_falsey_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitizer_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitizer_enabled()


class TestRegionTracker:
    def test_disjoint_claims_pass(self):
        tracker = RegionTracker("unit")
        tracker.claim(0, 0, 10)
        tracker.claim(1, 10, 20)

    def test_overlap_raises_with_both_chunks_named(self):
        tracker = RegionTracker("unit")
        tracker.claim(0, 0, 10)
        with pytest.raises(OverlappingWriteError, match="chunk 1.*chunk 0"):
            tracker.claim(1, 5, 15)

    def test_empty_claim_never_conflicts(self):
        tracker = RegionTracker("element")
        tracker.claim(0, 0, 10)
        tracker.claim(1, 5, 5)  # empty: owns nothing


class TestCheckedExecution:
    def test_well_behaved_element_task_passes(self, sanitize):
        out = np.zeros(100, dtype=np.float32)
        values = np.arange(100, dtype=np.float32)
        plan = build_element_chunk_plan(100, 4)

        def task(chunk, u0, u1, e0, e1):
            out[e0:e1] = values[e0:e1] * 2.0

        run_chunks(plan, task, outputs=((out, "element"),))
        assert np.array_equal(out, values * 2.0)

    def test_report_carries_per_worker_static_shares(self, sanitize):
        # Checked serial runs every worker's static share in turn on the
        # calling thread, so the report shows the per-worker split.
        plan = ChunkPlan(
            policy="static",
            workers=2,
            unit_bounds=np.array([0, 10, 40, 50, 100], dtype=np.int64),
            offsets=np.array([0, 10, 40, 50, 100], dtype=np.int64),
        )
        out = np.zeros(100, dtype=np.float32)
        threads = set()

        def task(chunk, u0, u1, e0, e1):
            threads.add(threading.get_ident())
            out[e0:e1] = chunk

        report = run_chunks(plan, task, outputs=((out, "element"),))
        assert threads == {threading.get_ident()}
        assert report.workers == 2
        assert report.worker_chunks == (2, 2)
        assert report.worker_elements == (20, 80)
        assert np.array_equal(out, np.repeat([0, 1, 2, 3], [10, 30, 10, 50]))

    def test_planted_overlapping_write_caught(self, sanitize):
        # Every chunk also bumps row 0 — owned by chunk 0 only.  The
        # increment changes bits each time, so the complement compare
        # must catch the first non-owner chunk.
        out = np.zeros(100, dtype=np.float32)
        plan = build_element_chunk_plan(100, 4)

        def racy_task(chunk, u0, u1, e0, e1):
            out[e0:e1] = 1.0
            out[0] += 1.0

        with pytest.raises(OverlappingWriteError, match=r"row\(s\) \[0\]"):
            run_chunks(plan, racy_task, outputs=((out, "element"),))

    def test_unit_owned_2d_violation_caught(self, sanitize):
        rows = np.zeros((8, 3), dtype=np.float64)
        plan = build_element_chunk_plan(8, 2)

        def racy_task(chunk, u0, u1, e0, e1):
            rows[u0:u1] = float(chunk + 1)
            if u1 < rows.shape[0]:
                rows[u1] += 0.5  # next chunk's first row

        with pytest.raises(OverlappingWriteError):
            run_chunks(plan, racy_task, outputs=((rows, "unit"),))

    def test_overlapping_plan_caught_at_claim_time(self, sanitize):
        plan = ChunkPlan(
            policy="static",
            workers=2,
            unit_bounds=np.array([0, 60, 40, 100], dtype=np.int64),
            offsets=np.array([0, 60, 40, 100], dtype=np.int64),
        )
        out = np.zeros(100, dtype=np.float32)

        def task(chunk, u0, u1, e0, e1):
            out[e0:e1] = 1.0

        with pytest.raises(OverlappingWriteError, match="claims"):
            run_chunks(plan, task, outputs=((out, "element"),))

    def test_rows_ownership_indirection(self, sanitize):
        # MTTKRP-style: chunk c owns out[targets[u0:u1]].
        targets = np.array([2, 5, 7, 9], dtype=np.int64)
        out = np.zeros((12, 4), dtype=np.float32)
        plan = build_element_chunk_plan(4, 2, "static")

        def task(chunk, u0, u1, e0, e1):
            out[targets[u0:u1]] = float(chunk + 1)

        run_chunks(plan, task, outputs=((out, ("rows", targets)),))
        assert np.all(out[targets[:2]] == 1.0)
        assert np.all(out[targets[2:]] == 2.0)
        untouched = np.setdiff1d(np.arange(12), targets)
        assert np.all(out[untouched] == 0.0)

    def test_rows_ownership_violation_caught(self, sanitize):
        targets = np.array([2, 5, 7, 9], dtype=np.int64)
        out = np.zeros((12, 4), dtype=np.float32)
        plan = build_element_chunk_plan(4, 2)

        def racy_task(chunk, u0, u1, e0, e1):
            out[targets[u0:u1]] = float(chunk + 1)
            out[0] += 1.0  # row 0 is in no chunk's target set

        with pytest.raises(OverlappingWriteError):
            run_chunks(plan, racy_task, outputs=((out, ("rows", targets)),))

    def test_unknown_ownership_kind_rejected(self, sanitize):
        out = np.zeros(10, dtype=np.float32)
        plan = build_element_chunk_plan(10, 2)

        def task(chunk, u0, u1, e0, e1):
            out[e0:e1] = 1.0

        with pytest.raises(ValueError, match="ownership kind"):
            run_chunks(plan, task, outputs=((out, "bogus"),))

    def test_violation_invisible_when_sanitizer_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        out = np.zeros(100, dtype=np.float32)
        plan = build_element_chunk_plan(100, 4)

        def racy_task(chunk, u0, u1, e0, e1):
            out[e0:e1] = 1.0
            out[0] += 1.0

        with parallel_config(num_threads=1):
            run_chunks(plan, racy_task, outputs=((out, "element"),))

    def test_checked_task_directly(self):
        out = np.zeros(10, dtype=np.float64)

        def task(chunk, u0, u1, e0, e1):
            out[e0:e1] += 1.0

        wrapped = checked_task(task, ((out, "element"),))
        wrapped(0, 0, 5, 0, 5)
        wrapped(1, 5, 10, 5, 10)
        assert np.all(out == 1.0)

    def test_sanitizer_error_hierarchy(self):
        assert issubclass(OverlappingWriteError, SanitizerError)
        assert issubclass(SanitizerError, RuntimeError)


class TestBitIdenticalUnderSanitizer:
    """Checked-serial execution must not perturb kernel results."""

    @pytest.mark.parametrize("kernel", ["MTTKRP", "TTV"])
    def test_kernel_matches_serial(self, monkeypatch, kernel):
        tensor = CooTensor.random((40, 30, 20), 600, seed=7)
        config = {
            "check": "twin",
            "axis": "threads",
            "kernel": kernel,
            "variant": "coo",
            "mode": 0,
            "rank": 4,
            "seed": 0,
            "block_size": 8,
            "threads": 4,
            "schedule": "dynamic",
        }
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert run_check(tensor, config) is None
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert run_check(tensor, config) is None

    def test_hicoo_parallel_exact_under_sanitizer(self, monkeypatch):
        tensor = CooTensor.random((32, 32, 32), 500, seed=11)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert (
            run_check(
                tensor,
                {
                    "check": "twin",
                    "axis": "threads",
                    "kernel": "TS",
                    "variant": "hicoo",
                    "mode": 0,
                    "rank": 4,
                    "seed": 3,
                    "block_size": 8,
                    "threads": 2,
                    "schedule": "static",
                },
            )
            is None
        )
