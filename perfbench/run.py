"""Benchmark entry point: one workload, one seed, one closed-loop run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cpals_powerlaw --seed 1 --seconds 30 --trace 0

Steps, all outside every timed region unless said otherwise:

1. make (or reuse) the seeded REPROBIN input and verify its checksum;
2. compute the float64 reference the units are checked against;
3. with ``--trace 0``: run ``PROCESSES`` workers one after another, each
   a fresh process with empty private tuning and JIT caches that sets up
   cold, warms up for ``WARMUP_S`` and then measures for
   ``--seconds / PROCESSES``; print every end-to-end metric over the
   pooled units;
4. with ``--trace 1``: run one traced worker and print every per-layer
   metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Workers per untraced run.  Each sets up cold and measures a share of
#: the window, so one process's autotuning pick or placement cannot set
#: the whole run's figures; ``setup_s`` is the median of their set-ups.
PROCESSES = 4
#: Untimed, checked units each untraced worker runs before its window,
#: so first-use effects after set-up stay out of ``solve_s``.
WARMUP_S = 1.0
#: Wall-clock limit of one run; a worker still running at it is killed.
RUN_LIMIT_S = 170

#: Inherited thread settings are dropped; a workload sets its own.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("solve_tail_s", "s"),
              ("gflops", "GFLOP/s"), ("peak_rss_mb", "MB"))

#: Per-layer metric units; ``BENCHMARK.json`` lists the same names.
PER_LAYER_UNITS: Dict[str, str] = {
    "autotune.tune_s": "s", "autotune.probes": "count",
    "autotune.threads_m0": "count", "autotune.threads_m1": "count",
    "autotune.threads_m2": "count",
    "jit.compile_s": "s", "jit.compiles": "count",
    "jit.call_ms": "ms", "jit.c_ms": "ms", "jit.marshal_ms": "ms",
    "jit.gbs_computed": "GB/s",
    "dispatch.self_ms": "ms", "cpd.self_ms": "ms",
    **{f"core.{k}_{f}_ms": "ms" for k in ("tew", "ts", "ttv", "ttm", "mttkrp")
       for f in ("coo", "hicoo")},
    "core.khatri_rao_ms": "ms",
    "scatter.ms": "ms", "parallel.chunks": "count",
    "formats.hicoo_build_ms": "ms",
    "plans.build_s": "s", "plans.hit_ratio": "ratio",
    **{f"plans.hit_ratio.{k}": "ratio" for k in (
        "autotune", "mode_sort", "fiber_partition", "hicoo_build", "hicoo_ownership",
        "ghicoo_build", "ghicoo_fiber_sort", "partition", "ooc_chunk")},
    "io.load_s": "s", "io.read_mb": "MB",
    "ooc.mttkrp_ms": "ms", "ooc.norm_ms": "ms", "ooc.steps": "count",
    "ooc.plan_lru_mb": "MB",
    "trace.solve_s": "s", "trace.untraced_solve_s": "s", "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def tail(times: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with ten samples above it.

    With ``n`` sorted times that is the ``n - 10``-th smallest, the
    ``100 * (n - 10) / n`` percentile; below eleven samples it is the
    maximum (percentile 100).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spawn(cfg: Dict[str, Any], proc_dir: Path, env_extra: Dict[str, str],
          deadline: float) -> Dict[str, Any]:
    """Run one worker process with empty private caches; return its record."""
    proc_dir.mkdir(parents=True)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key not in THREAD_VARS}
    env.update(env_extra)
    env.update(
        REPRO_TUNE_CACHE=str(proc_dir / "tuning.json"),
        REPRO_JIT_CACHE=str(proc_dir / "jit"),
        XDG_CACHE_HOME=str(proc_dir / "xdg"),
    )
    cfg = dict(cfg, result=str(proc_dir / "result.json"))
    cfg_path = proc_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(cfg_path)],
            env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s; worker killed") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    record = json.loads((proc_dir / "result.json").read_text())
    if record["setup_s"] is None:
        raise BenchError("worker could not set up or run its first unit")
    return record


def run(args) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_LIMIT_S
    import inputs
    import layertrace
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    spec = workload.spec + ("-tiny" if args.size == "tiny" else "")
    path, checksum = inputs.ensure_input(spec, args.seed, WORK / "data")
    tensor = inputs.load_verified(path, checksum)
    print(f"input {path.name}: shape {tensor.shape}, nnz {tensor.nnz}, sha256 {checksum}")
    started = time.perf_counter()
    ref = workload.reference(tensor, args.seed)
    print(f"reference: float64 numpy, {time.perf_counter() - started:.2f} s (untimed)")
    flops = workload.flops_per_unit(tensor)
    del tensor

    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ref_path = run_dir / "reference.pkl"
        with open(ref_path, "wb") as handle:
            pickle.dump(ref, handle)
        cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "input": str(path), "reference": str(ref_path), "src": str(SRC),
               "trace": bool(args.trace)}
        if args.trace:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cfg["trace_path"] = str(traces / f"{args.workload}-s{args.seed}.jsonl")
            records = [spawn(cfg, run_dir / "traced", workload.env, deadline)]
        else:
            share = dict(cfg, seconds=args.seconds / PROCESSES, warmup_s=WARMUP_S)
            records = [spawn(share, run_dir / f"proc{i}", workload.env, deadline)
                       for i in range(PROCESSES)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    last = records[-1]
    print(f"environment: {json.dumps(last['env'], sort_keys=True)}")
    for i, rec in enumerate(records):
        labels = [c["label"] for c in rec["configs"]] or ["(no autotuning)"]
        print(f"process {i}: setup {rec['setup_s']:.3f} s, {len(rec['times'])} units, "
              f"peak RSS {rec['peak_rss_mb']:.1f} MB; TuneConfig per mode: {labels}")
    times = [t for rec in records for t in rec["times"]]
    if not times:
        raise BenchError("no unit completed in the measuring window")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.trace:
        metrics = {name: {"value": last["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        print(f"span calls: {json.dumps(last['calls'], sort_keys=True)}")
        print(f"spans written to {cfg['trace_path']}")
        missing = [s for s in layertrace.REQUIRED[args.workload]
                   if last["calls"].get(s, 0) == 0]
        if missing:
            raise BenchError(f"traced run recorded zero calls for {missing}")
    else:
        solve = statistics.median(times)
        tail_value, pct = tail(times)
        print(f"units: {len(times)} in {args.seconds} s; solve_tail_s is "
              f"p{pct:.1f} of {len(times)} samples")
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "solve_s": solve,
            "solve_tail_s": tail_value,
            "gflops": flops / solve / 1e9,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cpals_powerlaw", "suite_kronecker", "cpals_ooc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own self-test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import InputError

    try:
        result = run(args)
    except (BenchError, InputError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
