"""Autotuner quality benchmark; emits ``BENCH_autotune.json``.

Compares three ways of configuring each tuned kernel (MTTKRP, TTV, TTM)
on the standard 100k-nnz benchmark tensor:

* ``auto``        — ``variant="auto"``: the two-stage tuner picks the
  configuration (model ranking + budgeted micro-probes);
* ``best fixed``  — the fastest single fixed configuration, found by
  exhaustively measuring every candidate (the oracle);
* ``worst fixed`` — the slowest fixed configuration (what a user could
  plausibly hard-code).

The same comparison is then run end-to-end through CP-ALS: one factor
sweep budget, identical seed, with ``variant`` forcing each fixed
configuration versus ``variant="auto"``.  The acceptance headline is the
CP-ALS row: autotuned must be at least ``HEADLINE_MIN_SPEEDUP``x faster
than the worst fixed configuration and within ``HEADLINE_MAX_GAP`` of
the best fixed one.  Second-run tuning overhead (warm decision cache, no
probes) is also measured and must stay under ``MAX_SECOND_RUN_MS``.

The tuner's disk cache is redirected to a temporary file for the whole
run, so the benchmark neither reads nor pollutes ``~/.cache/repro``.

Usage::

    PYTHONPATH=src python benchmarks/bench_autotune.py [--smoke]

``--smoke`` runs a tiny tensor with one repetition and writes no JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from _timing import median_of_k
from repro.core.registry import make_operands
from repro.formats.coo import CooTensor
from repro.perf import fresh_cache
from repro.perf import autotune, dispatch

SHAPE = (300, 250, 200)
NNZ = 100_000
RANK = 16
SWEEPS = 10
SEED = 42
KERNEL_REPS = 5
APP_REPS = 3

SMOKE_SHAPE = (30, 25, 20)
SMOKE_NNZ = 2_000
SMOKE_SWEEPS = 2
SMOKE_REPS = 1

KERNELS = ("MTTKRP", "TTV", "TTM")

#: CP-ALS acceptance: auto >= this speedup over the worst fixed config.
HEADLINE_MIN_SPEEDUP = 1.2
#: CP-ALS acceptance: auto within this factor of the best fixed config.
HEADLINE_MAX_GAP = 1.1
#: Warm (cached, probe-free) tuning decision budget.
MAX_SECOND_RUN_MS = 5.0


def _fixed_cp_configs():
    """The fixed configurations a user could hard-code into CP-ALS.

    Every dispatch variant is eligible, including ``csf``: CP-ALS is
    exactly the workload where hard-coding it hurts, because the CSF
    tree is rebuilt on every one of the ``sweeps x modes`` MTTKRP calls.
    """
    configs = [("coo", None), ("csf", None)]
    configs += [("hicoo", b) for b in autotune.BLOCK_SIZES]
    return configs


def bench_kernel(tensor, kernel, reps):
    """Auto vs every fixed candidate for one kernel (mode 0)."""
    operands = make_operands(tensor, kernel, mode=0, rank=RANK, seed=SEED)
    fixed = []
    for config in autotune.candidate_configs(kernel):
        run = lambda: dispatch.run_config(  # noqa: E731
            tensor, kernel, config, operands, mode=0
        )
        run()  # warm numpy and the plan cache (untimed)
        fixed.append(
            {"config": config.label(), "seconds": median_of_k(run, reps)}
        )
    report = autotune.tune(tensor, kernel, mode=0, rank=RANK, seed=SEED)
    chosen = report.chosen
    run_auto = lambda: dispatch.run_config(  # noqa: E731
        tensor, kernel, chosen, operands, mode=0
    )
    run_auto()
    auto_s = median_of_k(run_auto, reps)
    best = min(fixed, key=lambda f: f["seconds"])
    worst = max(fixed, key=lambda f: f["seconds"])
    return {
        "kernel": kernel,
        "auto": {
            "config": chosen.label(),
            "seconds": auto_s,
            "probes_run": report.probes_run,
            "cache_hit": report.cache_hit,
        },
        "fixed": fixed,
        "best_fixed": best,
        "worst_fixed": worst,
        "speedup_vs_worst": worst["seconds"] / auto_s if auto_s else None,
        "gap_vs_best": auto_s / best["seconds"] if best["seconds"] else None,
    }


def bench_cp_als(tensor, reps, sweeps):
    """End-to-end CP-ALS: auto vs each hard-coded variant."""
    from repro.apps.cpd import cp_als

    def run(variant, block_size):
        return cp_als(
            tensor,
            RANK,
            max_sweeps=sweeps,
            tolerance=0.0,
            seed=SEED,
            variant=variant,
            block_size=block_size if block_size else 128,
        )

    fixed = []
    for variant, block_size in _fixed_cp_configs():
        label = variant if block_size is None else f"{variant}[B={block_size}]"
        call = lambda: run(variant, block_size)  # noqa: E731
        call()  # warm
        fixed.append({"config": label, "seconds": median_of_k(call, reps)})
    call_auto = lambda: run("auto", None)  # noqa: E731
    call_auto()  # warm; also tunes (probes) once, cached thereafter
    auto_s = median_of_k(call_auto, reps)
    best = min(fixed, key=lambda f: f["seconds"])
    worst = max(fixed, key=lambda f: f["seconds"])
    speedup = worst["seconds"] / auto_s if auto_s else None
    gap = auto_s / best["seconds"] if best["seconds"] else None
    return {
        "auto_seconds": auto_s,
        "fixed": fixed,
        "best_fixed": best,
        "worst_fixed": worst,
        "speedup_vs_worst": speedup,
        "gap_vs_best": gap,
        "meets_min_speedup": bool(
            speedup is not None and speedup >= HEADLINE_MIN_SPEEDUP
        ),
        "within_gap_of_best": bool(gap is not None and gap <= HEADLINE_MAX_GAP),
        "min_speedup": HEADLINE_MIN_SPEEDUP,
        "max_gap": HEADLINE_MAX_GAP,
    }


def bench_tuning_overhead(tensor):
    """First (probing) vs second (cached, probe-free) decision cost."""
    start = time.perf_counter()
    autotune.decide(tensor, "MTTKRP", mode=0, rank=RANK, seed=SEED)
    first_ms = (time.perf_counter() - start) * 1e3
    probes_before = autotune.probe_count()
    second_ms = float("inf")
    for _ in range(5):  # best-of-5: a GC pause must not fail the budget
        start = time.perf_counter()
        autotune.decide(tensor, "MTTKRP", mode=0, rank=RANK, seed=SEED)
        second_ms = min(second_ms, (time.perf_counter() - start) * 1e3)
    return {
        "first_run_ms": first_ms,
        "second_run_ms": second_ms,
        "second_run_probes": autotune.probe_count() - probes_before,
        "meets_budget": second_ms < MAX_SECOND_RUN_MS,
        "budget_ms": MAX_SECOND_RUN_MS,
    }


def main():
    global SHAPE, NNZ, SWEEPS, KERNEL_REPS, APP_REPS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny tensor, one rep, no JSON written (CI correctness pass)",
    )
    args = parser.parse_args()
    if args.smoke:
        SHAPE, NNZ, SWEEPS = SMOKE_SHAPE, SMOKE_NNZ, SMOKE_SWEEPS
        KERNEL_REPS = APP_REPS = SMOKE_REPS

    rng = np.random.default_rng(SEED)
    tensor = CooTensor.random(SHAPE, NNZ, rng=rng)

    with tempfile.TemporaryDirectory() as tmp:
        os.environ[autotune.ENV_CACHE] = str(Path(tmp) / "tuning.json")
        autotune.reload_disk_cache()
        try:
            with fresh_cache():
                results = {
                    "config": {
                        "shape": list(SHAPE),
                        "nnz": tensor.nnz,
                        "rank": RANK,
                        "sweeps": SWEEPS,
                        "seed": SEED,
                        "kernel_reps": KERNEL_REPS,
                        "app_reps": APP_REPS,
                        "machine": autotune.machine_signature(),
                    },
                    "kernels": [
                        bench_kernel(tensor, k, KERNEL_REPS) for k in KERNELS
                    ],
                    "tuning_overhead": bench_tuning_overhead(tensor),
                    "cp_als": bench_cp_als(tensor, APP_REPS, SWEEPS),
                }
        finally:
            del os.environ[autotune.ENV_CACHE]
            autotune.reload_disk_cache()

    cp = results["cp_als"]
    results["headline"] = {
        "what": "CP-ALS auto vs fixed MTTKRP configs",
        "speedup_vs_worst": cp["speedup_vs_worst"],
        "gap_vs_best": cp["gap_vs_best"],
        "meets_min_speedup": cp["meets_min_speedup"],
        "within_gap_of_best": cp["within_gap_of_best"],
        "second_run_ms": results["tuning_overhead"]["second_run_ms"],
        "second_run_under_budget": results["tuning_overhead"]["meets_budget"],
    }

    for entry in results["kernels"]:
        auto = entry["auto"]
        print(
            f"{entry['kernel']}: auto={auto['config']} "
            f"{auto['seconds']*1e3:.2f} ms "
            f"(best fixed {entry['best_fixed']['config']} "
            f"{entry['best_fixed']['seconds']*1e3:.2f} ms, "
            f"worst fixed {entry['worst_fixed']['config']} "
            f"{entry['worst_fixed']['seconds']*1e3:.2f} ms, "
            f"{entry['speedup_vs_worst']:.2f}x vs worst, "
            f"{entry['gap_vs_best']:.2f}x of best)"
        )
    over = results["tuning_overhead"]
    print(
        f"tuning overhead: first {over['first_run_ms']:.2f} ms, "
        f"second {over['second_run_ms']:.3f} ms "
        f"(probes on second run: {over['second_run_probes']}, "
        f"under {MAX_SECOND_RUN_MS} ms: {over['meets_budget']})"
    )
    print(
        f"CP-ALS: auto {cp['auto_seconds']*1e3:.1f} ms, "
        f"best fixed {cp['best_fixed']['config']} "
        f"{cp['best_fixed']['seconds']*1e3:.1f} ms, "
        f"worst fixed {cp['worst_fixed']['config']} "
        f"{cp['worst_fixed']['seconds']*1e3:.1f} ms -> "
        f"{cp['speedup_vs_worst']:.2f}x vs worst "
        f"(meets >= {HEADLINE_MIN_SPEEDUP}x: {cp['meets_min_speedup']}), "
        f"{cp['gap_vs_best']:.2f}x of best "
        f"(within {HEADLINE_MAX_GAP}x: {cp['within_gap_of_best']})"
    )

    if args.smoke:
        print("smoke run: no JSON written")
        return
    out_path = Path(__file__).resolve().parent.parent / "BENCH_autotune.json"
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
