"""Batched serving execution is bit-identical to sequential execution.

The batching layer's fused path (column-concatenated MTTKRP/TTM) and
its plan-amortized sequential path must both reproduce the exact bytes
the single-request path produces — across request mixes, variants, and
plan-cache states.  The hypothesis properties drive the batching layer
directly; the conformance tests exercise the same guarantee through the
``batch`` twin checks the fuzzer enumerates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.conformance.harness import (
    describe_check,
    enumerate_checks,
    run_check,
)
from repro.formats import CooTensor
from repro.perf.plan_cache import fresh_cache
from repro.serving import KernelJob, TensorRegistry, execute_group, group_jobs
from repro.serving.batching import FUSED_RANK_CAP, group_key

pytestmark = pytest.mark.serving

SHAPE = (15, 12, 10)
NNZ = 200

_job_params = st.tuples(
    st.sampled_from(["MTTKRP", "TTM", "TTV", "TS", "TEW"]),
    st.integers(0, 2),  # mode
    st.sampled_from([1, 2, 4, 8]),  # rank
    st.integers(0, 3),  # operand seed
    st.sampled_from(["coo", "hicoo"]),  # variant
)


def _make_jobs(entry, params):
    jobs = []
    for kernel, mode, rank, seed, variant in params:
        if kernel in ("TS", "TEW"):
            variant = "coo"  # only COO serves the elementwise kernels
        jobs.append(
            KernelJob(
                entry=entry,
                kernel=kernel,
                mode=mode,
                rank=rank,
                seed=seed,
                variant=variant,
                block_size=4 if variant == "hicoo" else None,
            )
        )
    return jobs


def _digests(jobs, *, batch):
    out = []
    for group in group_jobs(jobs, max_batch=8):
        for outcome in execute_group(group, batch=batch):
            assert outcome.error is None, outcome.error
            out.append(outcome.digest)
    return out


@given(
    tensor_seed=st.integers(0, 10_000),
    params=st.lists(_job_params, min_size=1, max_size=12),
    cache_state=st.sampled_from(["fresh", "warm"]),
)
def test_batched_equals_sequential(tensor_seed, params, cache_state):
    """Every request mix digests identically batched vs per-request."""
    rng = np.random.default_rng(tensor_seed)
    tensor = CooTensor.random(SHAPE, NNZ, rng=rng)
    registry = TensorRegistry()
    entry = registry.add_ram("t", tensor)
    jobs = _make_jobs(entry, params)
    with fresh_cache():
        if cache_state == "warm":
            _digests(jobs, batch=False)  # populate every plan first
        assert _digests(jobs, batch=True) == _digests(jobs, batch=False)


@given(
    ranks=st.lists(st.sampled_from([1, 2, 4, 8, 16]), min_size=2, max_size=10),
    mode=st.integers(0, 2),
    kernel=st.sampled_from(["MTTKRP", "TTM"]),
)
def test_fused_group_matches_singletons(ranks, mode, kernel):
    """A fused group reproduces each job run entirely on its own."""
    rng = np.random.default_rng(7)
    tensor = CooTensor.random(SHAPE, NNZ, rng=rng)
    registry = TensorRegistry()
    entry = registry.add_ram("t", tensor)
    jobs = [
        KernelJob(
            entry=entry,
            kernel=kernel,
            mode=mode,
            rank=rank,
            seed=i,
            variant="coo",
            block_size=None,
        )
        for i, rank in enumerate(ranks)
    ]
    with fresh_cache():
        (group,) = group_jobs(jobs, max_batch=len(jobs))
        fused = execute_group(group, batch=True)
        assert all(o.fused for o in fused)
        for job, outcome in zip(group, fused):
            (alone,) = execute_group([job], batch=True)  # size-1: no fusion
            assert not alone.fused
            assert outcome.digest == alone.digest


def test_mmap_batch_equals_sequential(tmp_path, rng):
    """mmap-backed entries never fuse but still digest identically."""
    from repro.io import write_coo

    tensor = CooTensor.random((18, 14, 11), 400, rng=rng)
    path = tmp_path / "t.bin"
    write_coo(tensor, path)
    registry = TensorRegistry()
    entry = registry.add_mmap("m", str(path))
    try:
        jobs = [
            KernelJob(
                entry=entry,
                kernel=kernel,
                mode=mode,
                rank=rank,
                seed=seed,
                variant="coo",
                block_size=None,
            )
            for kernel, mode, rank, seed in [
                ("MTTKRP", 0, 4, 0),
                ("MTTKRP", 0, 8, 1),
                ("TTV", 1, 4, 0),
                ("TTM", 2, 4, 2),
            ]
        ]
        with fresh_cache():
            batched = _digests(jobs, batch=True)
            sequential = _digests(jobs, batch=False)
        assert batched == sequential
    finally:
        registry.close_all()


def test_group_jobs_preserves_order_and_caps(tensor3):
    registry = TensorRegistry()
    entry = registry.add_ram("t", tensor3)

    def job(kernel, mode, rank):
        return KernelJob(
            entry=entry,
            kernel=kernel,
            mode=mode,
            rank=rank,
            seed=0,
            variant="coo",
            block_size=None,
        )

    jobs = [job("MTTKRP", 0, 4), job("TTV", 1, 4), job("MTTKRP", 0, 8)]
    groups = group_jobs(jobs, max_batch=8)
    assert [len(g) for g in groups] == [2, 1]
    assert groups[0][0] is jobs[0] and groups[0][1] is jobs[2]
    assert group_key(jobs[0]) == group_key(jobs[2])
    assert group_key(jobs[0]) != group_key(jobs[1])

    # max_batch splits...
    many = [job("MTTKRP", 0, 1) for _ in range(5)]
    assert [len(g) for g in group_jobs(many, max_batch=2)] == [2, 2, 1]
    # ...and so does the fused-rank cap.
    wide = [job("MTTKRP", 0, FUSED_RANK_CAP // 2 + 1) for _ in range(5)]
    groups = group_jobs(wide, max_batch=8)
    assert all(
        sum(j.rank for j in group) <= FUSED_RANK_CAP for group in groups
    )
    assert sum(len(g) for g in groups) == len(wide)


def test_conformance_serving_batch_checks(tensor3):
    """The fuzzer's matrix includes a batch twin per fusable variant."""
    checks = [
        c for c in enumerate_checks(tensor3) if c.get("axis") == "batch"
    ]
    kinds = {(c["kernel"], c["variant"]) for c in checks}
    assert kinds == {
        ("MTTKRP", "coo"),
        ("MTTKRP", "hicoo"),
        ("TTM", "coo"),
        ("TTM", "hicoo"),
    }
    for check in checks:
        assert run_check(tensor3, check) is None
        assert "serving fused vs sequential" in describe_check(check)
