"""One workload process: cold setup, then a closed loop of checked units.

Run as ``python3 worker.py <config.json>``; ``run.py`` writes the config
and reads the JSON result back.  The clock for ``setup_s`` starts at the
first statement below, so it covers importing ``repro``, loading the
input, format conversion, autotuning, JIT compilation and plan builds —
everything up to the first result.  The result is checked after that
clock stops, against a reference ``run.py`` computed before this
process started.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, Optional, Tuple  # noqa: E402

#: Environment variables echoed into every result.
ENV_KEYS = ("REPRO_TUNE_CACHE", "REPRO_JIT_CACHE", "XDG_CACHE_HOME", "REPRO_NUM_THREADS",
            "REPRO_OOC_BUDGET", "REPRO_JIT", "REPRO_JIT_BUILD", "REPRO_SCHEDULE",
            "REPRO_TUNE_BUDGET_MS", "REPRO_TUNE_TOPK", "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _checked(workload, state, result, ref) -> bool:
    try:
        return bool(workload.check(state, result, ref))
    except Exception:  # a check that cannot run counts as a failed unit
        traceback.print_exc()
        return False


def _attempt(workload, state, ref) -> Tuple[Optional[float], bool]:
    """Run one unit, then check it: ``(seconds, passed)``; ``None`` if it raised."""
    try:
        start = time.perf_counter()
        result = workload.unit(state)
        elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        return None, False
    return elapsed, _checked(workload, state, result, ref)


def run_worker(cfg: Dict[str, Any], t0: float) -> Dict[str, Any]:
    """Set up, warm up, then time units for ``cfg["seconds"]``; returns the record.

    Warm-up units (``cfg["warmup_s"]`` seconds, default none) are checked
    and counted as attempted but not timed.
    """
    sys.path.insert(0, cfg["src"])
    import workloads

    workload = workloads.WORKLOADS[cfg["workload"]]
    tracer = None
    if cfg["trace"]:
        import layertrace as trace

        import repro  # noqa: F401  (the tracer patches loaded modules)

        tracer = trace.Tracer()
        tracer.prepare()
        tracer.install()
    attempted = failed = 0
    try:
        state = workload.setup(cfg["input"], cfg["seed"])
        first = workload.unit(state)
        setup_s = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return {"setup_s": None, "attempted": 1, "failed": 1, "times": []}
    with open(cfg["reference"], "rb") as handle:
        ref = pickle.load(handle)
    attempted += 1
    failed += not _checked(workload, state, first, ref)
    info = workload.describe(state)
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "configs": info["configs"],
        "env": {k: os.environ[k] for k in ENV_KEYS if k in os.environ},
    }
    from repro.perf.plan_cache import get_plan_cache

    stats_before = get_plan_cache().stats().by_kind
    warm_until = time.perf_counter() + cfg.get("warmup_s", 0.0)
    while time.perf_counter() < warm_until:
        attempted += 1
        failed += not _attempt(workload, state, ref)[1]
    times, traced_flags = [], []
    deadline = time.perf_counter() + cfg["seconds"]
    unit_id = 0
    while time.perf_counter() < deadline:
        unit_id += 1
        traced = tracer is not None and unit_id % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
            tracer.unit = unit_id
        attempted += 1
        elapsed, ok = _attempt(workload, state, ref)
        failed += not ok
        if elapsed is not None:
            times.append(elapsed)
            traced_flags.append(traced)
    if tracer is not None:
        tracer.uninstall()
    record.update(attempted=attempted, failed=failed, times=times, peak_rss_mb=peak_rss_mb())
    if tracer is None:
        return record

    from repro.perf import ooc
    from repro.perf.autotune import probe_count

    stats_after = get_plan_cache().stats().by_kind
    hits = {k: v[0] - stats_before.get(k, (0, 0))[0] for k, v in stats_after.items()}
    misses = {k: v[1] - stats_before.get(k, (0, 0))[1] for k, v in stats_after.items()}
    traced_times = [t for t, f in zip(times, traced_flags) if f]
    plain_times = [t for t, f in zip(times, traced_flags) if not f]
    info.update(
        probes=probe_count(),
        sweeps=workloads.SWEEPS,
        plan_hits=hits,
        plan_misses=misses,
        plan_lru_bytes=ooc.plan_lru_bytes(),
        traced_units=[i + 1 for i in range(0, unit_id, 2)],
        traced_solve_s=statistics.median(traced_times) if traced_times else 0.0,
        untraced_solve_s=statistics.median(plain_times) if plain_times else 0.0,
    )
    tracer.write(cfg["trace_path"])
    record["layers"] = trace.layer_metrics(tracer.spans, info)
    record["calls"] = trace.call_counts(tracer.spans)
    return record


def main(argv) -> int:
    with open(argv[1]) as handle:
        cfg = json.load(handle)
    record = run_worker(cfg, T0)
    with open(cfg["result"], "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
