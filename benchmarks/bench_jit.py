"""Compiled-kernel (JIT) benchmark; emits ``BENCH_jit.json``.

Measures the compiled C backend (:mod:`repro.perf.jit`) against the
numpy kernels it shadows, on a >= 1M-nnz benchmark tensor:

* **serial speedup** — warm-cache COO-MTTKRP-JIT vs the numpy segmented
  kernel at one thread (acceptance: >= ``MIN_SERIAL_SPEEDUP``x), plus
  the same comparison for TTV and TTM;
* **thread scaling** — the JIT MTTKRP at 1/4/8 threads; above one
  chunk it runs on the in-kernel C thread team (one ctypes call total).
  Wall-clock scaling is bounded by the host: ``cpu_count`` is recorded
  so a 1-core CI box reporting ~1x is interpreted honestly rather than
  as a regression;
* **compile cost** — cold compile (empty object cache, one gcc
  subprocess per specialization) vs warm cache (reload an existing
  ``.so``) vs steady state (memoized function pointer);
* **auto dispatch** — whether ``variant="auto"`` picks a compiled
  variant for this workload, and that its result is exactly equal to
  invoking the winning configuration directly; a second, model-only
  resolution under an ambient 8-thread request checks that the tuner
  reaches for a compiled variant on the thread team and stays
  bit-exact.

The object cache and the tuner's disk cache are both redirected to a
tempdir for the whole run, so cold-compile timings are honest and
``~/.cache/repro`` is never touched.

Usage::

    PYTHONPATH=src python benchmarks/bench_jit.py [--smoke]

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
from repro.core.mttkrp import mttkrp_coo as np_mttkrp_coo
from repro.core.registry import make_operands
from repro.core.ttm import ttm_coo as np_ttm_coo
from repro.core.ttv import ttv_coo as np_ttv_coo
from repro.formats.coo import CooTensor
from repro.perf import autotune, dispatch, fresh_cache, jit
from repro.perf.jit import build
from repro.perf.parallel import parallel_config

SHAPE = (400, 400, 300)
NNZ = 1_200_000
RANK = 16
SEED = 42
REPS = 5

SMOKE_SHAPE = (30, 25, 20)
SMOKE_NNZ = 2_000
SMOKE_REPS = 1

THREAD_COUNTS = (1, 4, 8)

#: Acceptance: warm-cache serial COO-MTTKRP-JIT vs numpy at 1 thread.
MIN_SERIAL_SPEEDUP = 3.0


def bench_serial_kernels(tensor, factors, reps):
    """Warm-cache JIT vs numpy for each supported kernel at one thread."""
    rng = np.random.default_rng(SEED + 1)
    vector = rng.uniform(0.5, 1.5, tensor.shape[0]).astype(np.float32)
    matrix = rng.uniform(0.5, 1.5, (tensor.shape[0], RANK)).astype(np.float32)
    pairs = [
        (
            "MTTKRP",
            lambda: np_mttkrp_coo(tensor, factors, 0),
            lambda: jit.mttkrp_coo(tensor, factors, 0),
        ),
        (
            "TTV",
            lambda: np_ttv_coo(tensor, vector, 0),
            lambda: jit.ttv_coo(tensor, vector, 0),
        ),
        (
            "TTM",
            lambda: np_ttm_coo(tensor, matrix, 0),
            lambda: jit.ttm_coo(tensor, matrix, 0),
        ),
    ]
    rows = []
    with parallel_config(num_threads=1):
        for kernel, numpy_run, jit_run in pairs:
            numpy_run()  # warm the plan cache (untimed)
            assert jit_run() is not None, f"{kernel}: JIT unavailable"
            numpy_s = median_of_k(numpy_run, reps)
            jit_s = median_of_k(jit_run, reps)
            rows.append(
                {
                    "kernel": kernel,
                    "numpy_seconds": numpy_s,
                    "jit_seconds": jit_s,
                    "speedup": numpy_s / jit_s if jit_s else None,
                }
            )
    return rows


def bench_thread_scaling(tensor, factors, reps):
    """JIT MTTKRP wall-clock across thread counts (min nnz forced low).

    Above one thread the compiled entry makes ONE ctypes call per
    invocation and runs the chunk table on the in-kernel C thread team.
    Each result is verified bit-identical to the 1-thread run before its
    timing is recorded.
    """
    with parallel_config(num_threads=1):
        baseline = jit.mttkrp_coo(tensor, factors, 0)
    rows = []
    for threads in THREAD_COUNTS:
        with parallel_config(num_threads=threads, min_parallel_nnz=0):
            run = lambda: jit.mttkrp_coo(tensor, factors, 0)  # noqa: E731
            out = run()
            assert out is not None
            rows.append(
                {
                    "threads": threads,
                    "seconds": median_of_k(run, reps),
                    "exact_vs_1t": bool(np.array_equal(out, baseline)),
                }
            )
    base = rows[0]["seconds"]
    for row in rows:
        row["scaling_vs_1t"] = base / row["seconds"] if row["seconds"] else None
    return rows


def bench_compile_cost(tensor, factors, cache_dir):
    """Cold compile vs warm ``.so`` reload vs memoized steady state."""
    # Cold: empty object cache, every specialization hits gcc once.
    for path in Path(cache_dir).glob("*.so"):
        path.unlink()
    build.reset()
    start = time.perf_counter()
    assert jit.mttkrp_coo(tensor, factors, 0) is not None
    cold_s = time.perf_counter() - start
    # Warm: object on disk, but the process memo is empty (fresh
    # interpreter equivalent) — pays one dlopen, no compile.
    build.reset()
    start = time.perf_counter()
    assert jit.mttkrp_coo(tensor, factors, 0) is not None
    warm_s = time.perf_counter() - start
    # Steady state: memoized function pointer, pure kernel cost.
    start = time.perf_counter()
    assert jit.mttkrp_coo(tensor, factors, 0) is not None
    steady_s = time.perf_counter() - start
    return {
        "cold_compile_seconds": cold_s,
        "warm_cache_seconds": warm_s,
        "steady_state_seconds": steady_s,
        "cached_objects": len(jit.cache_entries()),
    }


def bench_auto_dispatch(tensor, factors):
    """Does ``variant="auto"`` pick a compiled variant, and exactly so?"""
    config = dispatch.resolve_config(
        tensor, "MTTKRP", variant="auto", mode=0, rank=RANK, seed=SEED
    )
    operands = make_operands(tensor, "MTTKRP", mode=0, rank=RANK, seed=SEED)
    auto = dispatch.run_config(
        tensor,
        "MTTKRP",
        dispatch.resolve_config(
            tensor, "MTTKRP", variant="auto", mode=0, rank=RANK, seed=SEED
        ),
        operands,
        mode=0,
    )
    direct = dispatch.run_config(tensor, "MTTKRP", config, operands, mode=0)
    return {
        "chosen_config": config.label(),
        "chose_jit": config.variant.endswith("_jit"),
        "chose_team": _on_team(config),
        "auto_equals_direct_exactly": bool(np.array_equal(auto, direct)),
    }


def _on_team(config):
    """Whether ``config`` runs a compiled kernel on the C thread team."""
    return config.variant.endswith("_jit") and config.num_threads > 1


def bench_auto_dispatch_team(tensor, factors):
    """``variant="auto"`` under an ambient 8-thread request.

    Model-only resolution (``probe=False``): on an oversubscribed host,
    probing would honestly rank the serial kernel first, but the point
    here is the model's decision and its bit-exactness -- the tuner must
    select a compiled variant on the in-kernel team when 8 threads are
    asked for, and running it through the dispatcher must match invoking the
    winning configuration directly, bit for bit.

    Both tuning caches are keyed without the ambient thread count, so
    the decision memoized by :func:`bench_auto_dispatch` (resolved at
    one ambient thread) would shadow this one -- re-resolve under a
    fresh plan cache with the disk cache off.
    """
    with parallel_config(
        num_threads=8, min_parallel_nnz=0
    ), fresh_cache(), autotune.disk_cache_disabled():
        config = dispatch.resolve_config(
            tensor,
            "MTTKRP",
            variant="auto",
            mode=0,
            rank=RANK,
            seed=SEED,
            probe=False,
        )
        operands = make_operands(
            tensor, "MTTKRP", mode=0, rank=RANK, seed=SEED
        )
        auto = dispatch.run_config(tensor, "MTTKRP", config, operands, mode=0)
        # Direct = the underlying compiled entry point itself, bypassing
        # the dispatcher, under the same ambient parallel config.
        factor_list = list(operands.factors)
        if config.variant == "hicoo_jit":
            from repro.perf.plans import hicoo_for

            direct = jit.mttkrp_hicoo(
                hicoo_for(tensor, config.block_size), factor_list, 0
            )
        elif config.variant == "coo_jit":
            direct = jit.mttkrp_coo(tensor, factor_list, 0)
        else:
            direct = dispatch.run_config(
                tensor, "MTTKRP", config, operands, mode=0
            )
    return {
        "chosen_config": config.label(),
        "chose_team": _on_team(config),
        "auto_equals_direct_exactly": bool(
            direct is not None and np.array_equal(auto, direct)
        ),
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

    if not jit.jit_available():
        print("JIT unavailable (no compiler or REPRO_JIT=0); nothing to measure")
        return

    rng = np.random.default_rng(SEED)
    tensor = CooTensor.random(SHAPE, NNZ, rng=rng)
    factors = [
        rng.uniform(0.5, 1.5, size=(size, RANK)).astype(np.float32)
        for size in tensor.shape
    ]

    with tempfile.TemporaryDirectory() as tmp:
        os.environ[jit.ENV_JIT_CACHE] = str(Path(tmp) / "objects")
        os.environ[autotune.ENV_CACHE] = str(Path(tmp) / "tuning.json")
        build.reset()
        autotune.reload_disk_cache()
        try:
            with fresh_cache():
                compile_cost = bench_compile_cost(
                    tensor, factors, jit.object_cache_dir()
                )
                results = {
                    "config": {
                        "shape": list(SHAPE),
                        "nnz": tensor.nnz,
                        "rank": RANK,
                        "seed": SEED,
                        "reps": REPS,
                        "cpu_count": os.cpu_count(),
                        "compiler": jit.compiler_path(),
                        "machine": autotune.machine_signature(),
                    },
                    "compile_cost": compile_cost,
                    "serial": bench_serial_kernels(tensor, factors, REPS),
                    "thread_scaling": bench_thread_scaling(
                        tensor, factors, REPS
                    ),
                    "auto_dispatch": bench_auto_dispatch(tensor, factors),
                    "auto_dispatch_team": bench_auto_dispatch_team(
                        tensor, factors
                    ),
                }
        finally:
            del os.environ[jit.ENV_JIT_CACHE]
            del os.environ[autotune.ENV_CACHE]
            build.reset()
            autotune.reload_disk_cache()

    mttkrp = next(r for r in results["serial"] if r["kernel"] == "MTTKRP")
    results["headline"] = {
        "what": "warm-cache serial COO-MTTKRP-JIT vs numpy",
        "speedup": mttkrp["speedup"],
        "meets_min_speedup": bool(
            mttkrp["speedup"] is not None
            and mttkrp["speedup"] >= MIN_SERIAL_SPEEDUP
        ),
        "min_speedup": MIN_SERIAL_SPEEDUP,
        "chose_jit_on_auto": results["auto_dispatch"]["chose_jit"],
        "chose_team_on_auto_at_8_threads": results["auto_dispatch_team"][
            "chose_team"
        ],
        "cpu_count": os.cpu_count(),
    }

    cost = results["compile_cost"]
    print(
        f"compile cost: cold {cost['cold_compile_seconds']*1e3:.1f} ms, "
        f"warm {cost['warm_cache_seconds']*1e3:.1f} ms, "
        f"steady {cost['steady_state_seconds']*1e3:.1f} ms "
        f"({cost['cached_objects']} object(s) cached)"
    )
    for row in results["serial"]:
        print(
            f"{row['kernel']}: numpy {row['numpy_seconds']*1e3:.2f} ms, "
            f"jit {row['jit_seconds']*1e3:.2f} ms -> "
            f"{row['speedup']:.2f}x"
        )
    for row in results["thread_scaling"]:
        print(
            f"jit MTTKRP x{row['threads']}: {row['seconds']*1e3:.2f} ms "
            f"({row['scaling_vs_1t']:.2f}x vs 1 thread, "
            f"exact={row['exact_vs_1t']})"
        )
    auto = results["auto_dispatch"]
    print(
        f"auto dispatch: chose {auto['chosen_config']} "
        f"(jit: {auto['chose_jit']}, team: {auto['chose_team']}, "
        f"exact vs direct: {auto['auto_equals_direct_exactly']})"
    )
    auto_team = results["auto_dispatch_team"]
    print(
        f"auto dispatch @8 threads (model-only): chose "
        f"{auto_team['chosen_config']} (team: {auto_team['chose_team']}, "
        f"exact vs direct: {auto_team['auto_equals_direct_exactly']})"
    )
    head = results["headline"]
    print(
        f"headline: serial MTTKRP speedup {head['speedup']:.2f}x "
        f"(meets >= {MIN_SERIAL_SPEEDUP}x: {head['meets_min_speedup']}) "
        f"on {head['cpu_count']} cpu(s)"
    )

    if args.smoke:
        print("smoke run: no JSON written")
        return
    out_path = Path(__file__).resolve().parent.parent / "BENCH_jit.json"
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
