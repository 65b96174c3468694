"""Parallel kernel scaling benchmark; emits ``BENCH_parallel.json``.

Runs the executor's three schedule policies at 1/2/4/8 workers against
the warm *serial* path (plan cache hot, one monolithic numpy call per
kernel — the PR-1 baseline) for the kernels the paper parallelizes:

* ``MTTKRP-HiCOO`` — the acceptance kernel (segment grain);
* ``MTTKRP-COO``   — same grain, COO storage;
* ``TTV-COO``      — fiber grain.

Every parallel result is verified **bit-identical** to the serial one
(``np.array_equal``, not allclose) before its timing is recorded, and
each run's measured load imbalance is stored next to the
:meth:`KernelSchedule.load_imbalance` prediction for the same worker
count.

On hosts with few cores the speedup is dominated by cache blocking
rather than concurrency: the monolithic serial path streams a
``rank x nnz`` temporary through DRAM several times, while the chunked
path keeps each chunk's slice cache-resident.  Both effects are real
executor wins and both are what this benchmark measures.

A second section covers the compiled kernels (``coo_jit`` /
``hicoo_jit``) above one thread: one ctypes call drives a C thread team
over the same ownership partition, and every parallel result is
verified bit-identical to the same compiled entry at one thread.  Thread counts
beyond the visible core count are still measured (and recorded next to
``cpu_count``) so a small CI box reports ~1x honestly instead of
pretending to scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--smoke]

``--smoke`` runs a tiny tensor with one repetition and writes no JSON.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np

from _timing import median_of_k
from repro.core.mttkrp import (
    mttkrp_coo,
    mttkrp_hicoo,
    schedule_mttkrp_coo,
    schedule_mttkrp_hicoo,
)
from repro.core.ttv import schedule_ttv, ttv_coo
from repro.formats.coo import CooTensor
from repro.formats.hicoo import HicooTensor
from repro.perf import (
    POLICIES,
    fresh_cache,
    jit,
    last_parallel_report,
    parallel_config,
)

SHAPE = (400, 400, 400)
NNZ = 2_000_000
RANK = 16
BLOCK_SIZE = 128
SEED = 7
THREAD_COUNTS = (1, 2, 4, 8)
REPS = 5

SMOKE_SHAPE = (30, 25, 20)
SMOKE_NNZ = 2_000
SMOKE_REPS = 1

#: The acceptance headline: HiCOO-MTTKRP at this thread count with this
#: policy must beat the serial path by at least this factor.
HEADLINE_THREADS = 4
HEADLINE_POLICY = "dynamic"
HEADLINE_MIN_SPEEDUP = 1.8


def _exact(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    # Tensor outputs: compare stored arrays exactly.
    return bool(
        a.shape == b.shape
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.values, b.values)
    )


def bench_kernel(name, run, modeled_imbalance, reps):
    """Scale one kernel across thread counts and policies.

    The serial baseline and every parallel configuration run against the
    same warm plan cache, so the comparison isolates the executor from
    pre-processing costs.
    """
    run()  # warm numpy and the plan cache (untimed)
    serial_s = median_of_k(run, reps)
    serial_out = run()
    runs = []
    for policy in POLICIES:
        for threads in THREAD_COUNTS:
            if threads == 1:
                continue  # identical to the serial baseline by design
            with parallel_config(
                num_threads=threads, schedule=policy, min_parallel_nnz=0
            ):
                out = run()
                exact = _exact(out, serial_out)
                seconds = median_of_k(run, reps)
                report = last_parallel_report()
            runs.append(
                {
                    "threads": threads,
                    "policy": policy,
                    "seconds": seconds,
                    "speedup_vs_serial": serial_s / seconds if seconds else None,
                    "exact_match": exact,
                    "num_chunks": report.num_chunks if report else None,
                    "measured_imbalance": (
                        report.measured_imbalance if report else None
                    ),
                    "element_imbalance": (
                        report.element_imbalance if report else None
                    ),
                    "modeled_imbalance": modeled_imbalance(threads),
                }
            )
    return {"kernel": name, "serial_seconds": serial_s, "runs": runs}


#: In-kernel team acceptance: hicoo_jit MTTKRP at this thread count
#: should beat the serial compiled kernel by this factor -- OR, on hosts
#: with fewer visible cores than that, the parallel efficiency at the
#: largest thread count <= cpu_count must clear this floor.  Both legs
#: are recorded so a 1-core CI box reports ~1x honestly.
JIT_TEAM_HEADLINE_THREADS = 8
JIT_TEAM_MIN_SPEEDUP = 3.0
JIT_TEAM_MIN_EFFICIENCY = 0.8


def bench_jit_team_kernel(name, run, reps):
    """Scale one compiled kernel on the in-kernel thread team.

    The baseline is the same entry pinned to one thread (the fair
    baseline: same codegen, no team).  Above one thread ``run`` makes
    ONE ctypes call per invocation; the C thread team inside it walks
    the ownership partition, so ``last_parallel_report`` is *not*
    consulted here -- there is no Python-side chunk executor to report
    on.
    """
    with parallel_config(num_threads=1):
        baseline = run()
        if baseline is None:
            return None  # toolchain unavailable: section degrades away
        serial_s = median_of_k(run, reps)
    runs = []
    for policy in POLICIES:
        for threads in THREAD_COUNTS:
            if threads == 1:
                continue  # one thread is the serial baseline above
            with parallel_config(
                num_threads=threads,
                schedule=policy,
                min_parallel_nnz=0,
            ):
                out = run()
                if out is None:
                    continue
                exact = _exact(out, baseline)
                seconds = median_of_k(run, reps)
            runs.append(
                {
                    "threads": threads,
                    "policy": policy,
                    "seconds": seconds,
                    "speedup_vs_serial_jit": (
                        serial_s / seconds if seconds else None
                    ),
                    "exact_match": exact,
                }
            )
    if not runs:
        return None
    return {"kernel": name, "serial_jit_seconds": serial_s, "runs": runs}


def jit_team_headline(entry):
    """Build the honesty block for the in-kernel team acceptance."""
    cpu_count = os.cpu_count() or 1
    if entry is None:
        return {
            "kernel": "hicoo_jit MTTKRP",
            "available": False,
            "cpu_count": cpu_count,
        }

    def best_at(threads):
        rows = [r for r in entry["runs"] if r["threads"] == threads]
        if not rows:
            return None
        return max(rows, key=lambda r: r["speedup_vs_serial_jit"] or 0.0)

    top = best_at(JIT_TEAM_HEADLINE_THREADS)
    # Parallel efficiency is only meaningful up to the visible core
    # count; at 1 visible core the team delegates to the serial kernel,
    # so efficiency is 1.0 by construction and the 8-thread number above
    # is reported for what it is: oversubscription on one core.
    eff_threads = max(
        (t for t in THREAD_COUNTS if t <= cpu_count), default=1
    )
    if eff_threads <= 1:
        efficiency = 1.0
    else:
        row = best_at(eff_threads)
        efficiency = (
            (row["speedup_vs_serial_jit"] or 0.0) / eff_threads
            if row
            else None
        )
    speedup = top["speedup_vs_serial_jit"] if top else None
    meets_speedup = bool(speedup is not None and speedup >= JIT_TEAM_MIN_SPEEDUP)
    meets_efficiency = bool(
        efficiency is not None and efficiency >= JIT_TEAM_MIN_EFFICIENCY
    )
    return {
        "kernel": "hicoo_jit MTTKRP",
        "available": True,
        "cpu_count": cpu_count,
        "threads": JIT_TEAM_HEADLINE_THREADS,
        "policy": top["policy"] if top else None,
        "speedup_vs_serial_jit": speedup,
        "efficiency_threads": eff_threads,
        "parallel_efficiency_at_cpu_count": efficiency,
        "min_speedup": JIT_TEAM_MIN_SPEEDUP,
        "min_efficiency": JIT_TEAM_MIN_EFFICIENCY,
        "meets_min_speedup": meets_speedup,
        "meets_min_efficiency": meets_efficiency,
        "meets": meets_speedup or meets_efficiency,
    }


def main():
    global SHAPE, NNZ, REPS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny tensor, one rep, no JSON written (CI correctness pass)",
    )
    args = parser.parse_args()
    if args.smoke:
        SHAPE, NNZ, REPS = SMOKE_SHAPE, SMOKE_NNZ, SMOKE_REPS

    rng = np.random.default_rng(SEED)
    tensor = CooTensor.random(SHAPE, NNZ, rng=rng)
    hicoo = HicooTensor.from_coo(tensor, BLOCK_SIZE)
    factors = [
        rng.uniform(0.1, 1.0, size=(s, RANK)).astype(np.float32)
        for s in SHAPE
    ]
    vector = rng.normal(size=SHAPE[0]).astype(np.float32)

    with fresh_cache():
        results = {
            "config": {
                "shape": list(SHAPE),
                "nnz": tensor.nnz,
                "rank": RANK,
                "block_size": BLOCK_SIZE,
                "seed": SEED,
                "thread_counts": list(THREAD_COUNTS),
                "policies": list(POLICIES),
                "reps": REPS,
            },
            "kernels": [
                bench_kernel(
                    "MTTKRP-HiCOO",
                    lambda: mttkrp_hicoo(hicoo, factors, 0),
                    lambda w: schedule_mttkrp_hicoo(
                        hicoo, 0, RANK
                    ).load_imbalance(w),
                    REPS,
                ),
                bench_kernel(
                    "MTTKRP-COO",
                    lambda: mttkrp_coo(tensor, factors, 0),
                    lambda w: schedule_mttkrp_coo(
                        tensor, 0, RANK
                    ).load_imbalance(w),
                    REPS,
                ),
                bench_kernel(
                    "TTV-COO",
                    lambda: ttv_coo(tensor, vector, 0),
                    lambda w: schedule_ttv(tensor, 0).load_imbalance(w),
                    REPS,
                ),
            ],
        }

        jit_entries = []
        if jit.jit_available():
            for name, run in (
                ("hicoo_jit MTTKRP", lambda: jit.mttkrp_hicoo(hicoo, factors, 0)),
                ("coo_jit MTTKRP", lambda: jit.mttkrp_coo(tensor, factors, 0)),
                ("coo_jit TTV", lambda: jit.ttv_coo(tensor, vector, 0)),
            ):
                entry = bench_jit_team_kernel(name, run, REPS)
                if entry is not None:
                    jit_entries.append(entry)
        results["jit_team_kernels"] = jit_entries

    headline = next(
        (
            run
            for entry in results["kernels"]
            if entry["kernel"] == "MTTKRP-HiCOO"
            for run in entry["runs"]
            if run["threads"] == HEADLINE_THREADS
            and run["policy"] == HEADLINE_POLICY
        ),
        None,
    )
    results["headline"] = {
        "kernel": "MTTKRP-HiCOO",
        "threads": HEADLINE_THREADS,
        "policy": HEADLINE_POLICY,
        "speedup_vs_serial": headline["speedup_vs_serial"] if headline else None,
        "meets_min_speedup": bool(
            headline
            and headline["speedup_vs_serial"] is not None
            and headline["speedup_vs_serial"] >= HEADLINE_MIN_SPEEDUP
        ),
        "min_speedup": HEADLINE_MIN_SPEEDUP,
    }
    results["headline_jit_team"] = jit_team_headline(
        next(
            (
                e
                for e in results["jit_team_kernels"]
                if e["kernel"] == "hicoo_jit MTTKRP"
            ),
            None,
        )
    )

    for entry in results["kernels"]:
        print(f"{entry['kernel']}: serial {entry['serial_seconds']*1e3:.2f} ms")
        for run in entry["runs"]:
            print(
                f"  {run['policy']:>8} x{run['threads']}: "
                f"{run['seconds']*1e3:8.2f} ms "
                f"({run['speedup_vs_serial']:.2f}x, "
                f"chunks={run['num_chunks']}, "
                f"imbalance {run['measured_imbalance']:.2f} measured / "
                f"{run['modeled_imbalance']:.2f} modeled, "
                f"exact={run['exact_match']})"
            )
    for entry in results["jit_team_kernels"]:
        print(
            f"{entry['kernel']}: serial jit "
            f"{entry['serial_jit_seconds']*1e3:.2f} ms"
        )
        for run in entry["runs"]:
            print(
                f"  {run['policy']:>8} x{run['threads']}: "
                f"{run['seconds']*1e3:8.2f} ms "
                f"({run['speedup_vs_serial_jit']:.2f}x vs serial jit, "
                f"exact={run['exact_match']})"
            )
    print(
        f"headline: {results['headline']['kernel']} at "
        f"{HEADLINE_THREADS} threads ({HEADLINE_POLICY}) = "
        f"{results['headline']['speedup_vs_serial']}x "
        f"(meets >= {HEADLINE_MIN_SPEEDUP}x: "
        f"{results['headline']['meets_min_speedup']})"
    )
    hl = results["headline_jit_team"]
    if hl.get("available"):
        print(
            f"headline_jit_team: {hl['kernel']} at {hl['threads']} threads "
            f"({hl['policy']}) = {hl['speedup_vs_serial_jit']:.2f}x vs "
            f"serial jit on {hl['cpu_count']} visible core(s); "
            f"efficiency at x{hl['efficiency_threads']} = "
            f"{hl['parallel_efficiency_at_cpu_count']:.2f} "
            f"(meets: {hl['meets']})"
        )
    else:
        print("headline_jit_team: compiled backend unavailable (skipped)")

    if args.smoke:
        print("smoke run: no JSON written")
        return
    out_path = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
