"""Spans around calls into each layer, recorded from the benchmark's side.

:class:`Tracer` replaces each listed layer function with a wrapper that
records a span — name, start, end, parent span, unit id and a few
attributes — in memory.  A function is replaced at every place it is
looked up: every loaded ``repro`` module (and class) that binds the
original object gets the wrapper, so ``from ... import`` copies are
covered as well as the defining module.  :meth:`Tracer.install` and
:meth:`Tracer.uninstall` swap the originals back and forth, so traced
and untraced units can alternate in one process.

A span's self time is its duration minus the part of it that its child
spans cover; :func:`layer_metrics` turns the spans into the per-layer
table of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Modules whose attributes are scanned for bindings of a wrapped function.
_PREFIX = "repro"


def _kernel_name(prefix: str) -> Callable[..., str]:
    return lambda args, kwargs: prefix


def _ts_name(args, kwargs) -> str:
    from repro.formats.hicoo import HicooTensor

    return "core.ts_hicoo" if isinstance(args[0], HicooTensor) else "core.ts_coo"


def _mode_attr(index: int) -> Callable[..., Dict[str, Any]]:
    def attrs(args, kwargs, result) -> Dict[str, Any]:
        mode = kwargs.get("mode", args[index] if len(args) > index else 0)
        return {"mode": int(mode)}

    return attrs


def _planned_attr(args, kwargs, result) -> Dict[str, Any]:
    return {"chunks": 0 if result is None else int(result.num_chunks)}


def _bytes_attr(args, kwargs, result) -> Dict[str, Any]:
    arrays = result if isinstance(result, tuple) else (result,)
    return {"bytes": int(sum(a.nbytes for a in arrays))}


#: (module, attribute, span name or namer, attribute extractor).
FUNCTIONS: Sequence[Tuple[str, str, Any, Optional[Callable]]] = (
    ("repro.apps.cpd", "cp_als", "cpd.cp_als", None),
    ("repro.apps.cpd", "_tensor_norm", "cpd.norm", None),
    ("repro.perf.dispatch", "mttkrp", "dispatch.mttkrp", _mode_attr(2)),
    ("repro.perf.dispatch", "resolve_config", "dispatch.resolve", None),
    ("repro.perf.dispatch", "run_config", "dispatch.run_config", None),
    ("repro.perf.autotune", "tune", "autotune.tune", None),
    ("repro.perf.jit.build", "_compile", "jit.compile", None),
    ("repro.perf.jit.kernels", "mttkrp_coo", "jit.mttkrp", _mode_attr(2)),
    ("repro.perf.jit.kernels", "mttkrp_coo_mt", "jit.mttkrp", _mode_attr(2)),
    ("repro.perf.jit.kernels", "mttkrp_hicoo", "jit.mttkrp", _mode_attr(2)),
    ("repro.perf.jit.kernels", "mttkrp_hicoo_mt", "jit.mttkrp", _mode_attr(2)),
    ("repro.core.tew", "tew_coo", "core.tew_coo", None),
    ("repro.core.tew", "tew_hicoo", "core.tew_hicoo", None),
    ("repro.core.ts", "ts", _ts_name, None),
    ("repro.core.ttv", "ttv_coo", "core.ttv_coo", _mode_attr(2)),
    ("repro.core.ttv", "ttv_hicoo", "core.ttv_hicoo", _mode_attr(2)),
    ("repro.core.ttm", "ttm_coo", "core.ttm_coo", _mode_attr(2)),
    ("repro.core.ttm", "ttm_hicoo", "core.ttm_hicoo", _mode_attr(2)),
    ("repro.core.mttkrp", "mttkrp_coo", "core.mttkrp_coo", _mode_attr(2)),
    ("repro.core.mttkrp", "mttkrp_hicoo", "core.mttkrp_hicoo", _mode_attr(2)),
    ("repro.core.mttkrp", "_khatri_rao_cols_sorted", "core.khatri_rao", None),
    ("repro.perf.scatter", "scatter_rows", "scatter", None),
    ("repro.perf.scatter", "scatter_rows_bincount", "scatter", None),
    ("repro.perf.scatter", "scatter_rows_add_at", "scatter", None),
    ("repro.perf.scatter", "scatter_rows_segmented", "scatter", None),
    ("repro.perf.scatter", "scatter_cols_segmented", "scatter", None),
    ("repro.perf.parallel", "kernel_chunk_plan", "parallel.chunk_plan", _planned_attr),
    ("repro.perf.parallel", "run_chunks", "parallel.run_chunks", None),
    ("repro.perf.ooc", "mttkrp", "ooc.mttkrp", None),
    ("repro.perf.ooc", "tensor_norm", "ooc.norm", None),
    ("repro.perf.ooc", "_step_mode_sort", "ooc.step", None),
)

#: (module, class, method, span name, attribute extractor).
METHODS = (
    ("repro.formats.hicoo", "HicooTensor", "from_coo", "formats.hicoo_build", None),
    ("repro.io.binfile", "MmapCooTensor", "to_coo", "io.to_coo", None),
    ("repro.io.binfile", "MmapCooTensor", "read_range", "io.read", _bytes_attr),
    ("repro.io.binfile", "MmapCooTensor", "read_values", "io.read", _bytes_attr),
)

#: Spans each workload must record at least once, or the traced run fails.
REQUIRED = {
    "cpals_powerlaw": (
        "cpd.cp_als", "dispatch.mttkrp", "dispatch.run_config",
        "autotune.tune", "jit.compile", "jit.mttkrp", "jit.c",
        "plans.build", "formats.hicoo_build", "io.to_coo",
    ),
    "suite_kronecker": (
        "core.tew_coo", "core.tew_hicoo", "core.ts_coo", "core.ts_hicoo",
        "core.ttv_coo", "core.ttv_hicoo", "core.ttm_coo", "core.ttm_hicoo",
        "core.mttkrp_coo", "core.mttkrp_hicoo", "scatter", "parallel.chunk_plan",
        "formats.hicoo_build", "plans.build", "io.to_coo",
    ),
    "cpals_ooc": (
        "cpd.cp_als", "ooc.mttkrp", "ooc.norm", "ooc.step", "io.read",
        "core.khatri_rao", "plans.build",
    ),
}


class Tracer:
    """In-memory span recorder plus the patch sites it swaps in and out."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.unit: Any = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._c_wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        self._sites: List[Tuple[Any, str, Any, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, attrs: Optional[Callable] = None) -> Callable:
        namer = name if callable(name) else _kernel_name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": namer(args, kwargs), "parent": parent,
                    "unit": self.unit, "t0": start, "t1": end}
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            self.spans.append(span)
            return result

        return traced

    def _c_entry(self, fn: Optional[Callable]) -> Optional[Callable]:
        """Wrap a compiled function so its ctypes call is a ``jit.c`` span."""
        if fn is None:
            return None
        memo = self._c_wrappers.get(id(fn))
        if memo is None or memo[0] is not fn:
            memo = (fn, self.wrap(fn, "jit.c"))
            self._c_wrappers[id(fn)] = memo
        return memo[1]

    # -- patching -------------------------------------------------------

    def _bind_everywhere(self, original: Any, replacement: Any) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == _PREFIX or mod_name.startswith(_PREFIX + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._sites.append((module, attr, original, replacement))

    def prepare(self) -> None:
        """Resolve every patch site (after ``repro`` is imported)."""
        for mod_name, attr, name, attrs in FUNCTIONS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._bind_everywhere(original, self.wrap(original, name, attrs))
        build = importlib.import_module("repro.perf.jit.build")
        load = build.load_function

        @functools.wraps(load)
        def load_traced(*args, **kwargs):
            return self._c_entry(load(*args, **kwargs))

        self._bind_everywhere(load, load_traced)
        for mod_name, cls_name, method, name, attrs in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(raw.__func__, name, attrs))
            else:
                replacement = self.wrap(raw, name, attrs)
            self._sites.append((cls, method, raw, replacement))
        self._patch_plan_cache()

    def _patch_plan_cache(self) -> None:
        from repro.perf.plan_cache import PlanCache

        raw = PlanCache.__dict__["get"]
        tracer = self

        @functools.wraps(raw)
        def get(cache, tensor, kind, key, builder):
            return raw(cache, tensor, kind, key,
                       tracer.wrap(builder, "plans.build", lambda a, k, r: {"kind": kind}))

        self._sites.append((PlanCache, "get", raw, get))

    def install(self) -> None:
        for owner, attr, _, replacement in self._sites:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"]) - _union_length(children.get(s["id"], []))
            for s in spans}


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: List[Dict[str, Any]], info: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metric values from the spans and the worker's snapshot."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    by_unit: Dict[Any, List[Dict[str, Any]]] = {u: [] for u in info["traced_units"]}
    for s in spans:
        if s["unit"] in by_unit:
            by_unit[s["unit"]].append(s)
    steady = [s for pool in by_unit.values() for s in pool]

    def dur(s):
        return s["t1"] - s["t0"]

    def total(name, pool=spans):
        return sum(dur(s) for s in pool if s["name"] == name)

    def per_unit(fn) -> float:
        return _median([fn(pool) for pool in by_unit.values()])

    def top_level(name, pool):
        return [s for s in pool if s["name"] == name
                and (s["parent"] is None or by_id[s["parent"]]["name"] != name)]

    def mean_ms(pool) -> float:
        return 1e3 * sum(dur(s) for s in pool) / len(pool) if pool else 0.0

    def within(span, root_ids) -> bool:
        while span["parent"] is not None:
            if span["parent"] in root_ids:
                return True
            span = by_id[span["parent"]]
        return False

    m: Dict[str, float] = {}
    m["autotune.tune_s"] = total("autotune.tune")
    m["autotune.probes"] = float(info["probes"])
    for mode in range(3):
        cfg = info["configs"][mode] if mode < len(info["configs"]) else None
        m[f"autotune.threads_m{mode}"] = float(cfg["num_threads"]) if cfg else 0.0
    m["jit.compile_s"] = total("jit.compile")
    m["jit.compiles"] = float(sum(1 for s in spans if s["name"] == "jit.compile"))

    calls = top_level("jit.mttkrp", steady)
    call_ids = {call["id"] for call in calls}
    c_time = sum(dur(s) for s in steady if s["name"] == "jit.c" and within(s, call_ids))
    moved = sum(info["mttkrp_bytes"][call["mode"]] for call in calls)
    m["jit.call_ms"] = mean_ms(calls)
    m["jit.c_ms"] = 1e3 * c_time / len(calls) if calls else 0.0
    m["jit.marshal_ms"] = m["jit.call_ms"] - m["jit.c_ms"]
    m["jit.gbs_computed"] = moved / c_time / 1e9 if c_time else 0.0

    run_configs = [s for s in steady if s["name"] == "dispatch.run_config"]
    m["dispatch.self_ms"] = (1e3 * sum(selfs[s["id"]] for s in run_configs) / len(run_configs)
                             if run_configs else 0.0)
    sweeps = info["sweeps"]
    m["cpd.self_ms"] = 1e3 * per_unit(
        lambda p: sum(selfs[s["id"]] for s in p if s["name"] == "cpd.cp_als")) / sweeps

    for kernel in ("tew", "ts", "ttv", "ttm", "mttkrp"):
        for fmt in ("coo", "hicoo"):
            name = f"core.{kernel}_{fmt}"
            per_mode = {}
            for s in steady:
                if s["name"] == name:
                    per_mode.setdefault(s.get("mode", 0), []).append(dur(s))
            m[f"{name}_ms"] = 1e3 * _median([_median(v) for v in per_mode.values()])
    m["core.khatri_rao_ms"] = 1e3 * per_unit(lambda p: total("core.khatri_rao", p))
    m["scatter.ms"] = 1e3 * per_unit(lambda p: sum(dur(s) for s in top_level("scatter", p)))
    m["parallel.chunks"] = per_unit(
        lambda p: sum(s["chunks"] for s in p if s["name"] == "parallel.chunk_plan"))
    m["formats.hicoo_build_ms"] = mean_ms([s for s in spans if s["name"] == "formats.hicoo_build"])
    m["plans.build_s"] = sum(selfs[s["id"]] for s in spans if s["name"] == "plans.build")
    hits, misses = info["plan_hits"], info["plan_misses"]
    lookups = sum(hits.values()) + sum(misses.values())
    m["plans.hit_ratio"] = sum(hits.values()) / lookups if lookups else 0.0
    for kind in PLAN_KINDS:
        n = hits.get(kind, 0) + misses.get(kind, 0)
        m[f"plans.hit_ratio.{kind}"] = hits.get(kind, 0) / n if n else 0.0
    m["io.load_s"] = total("io.to_coo", [s for s in spans if s["unit"] == "setup"])
    m["io.read_mb"] = per_unit(
        lambda p: sum(s["bytes"] for s in p if s["name"] == "io.read")) / 2**20
    m["ooc.mttkrp_ms"] = mean_ms([s for s in steady if s["name"] == "ooc.mttkrp"])
    m["ooc.norm_ms"] = mean_ms([s for s in steady if s["name"] == "ooc.norm"])
    m["ooc.steps"] = per_unit(lambda p: float(sum(1 for s in p if s["name"] == "ooc.step")))
    m["ooc.plan_lru_mb"] = info["plan_lru_bytes"] / 2**20
    traced, untraced = info["traced_solve_s"], info["untraced_solve_s"]
    m["trace.solve_s"] = traced
    m["trace.untraced_solve_s"] = untraced
    m["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0) if untraced else 0.0
    return {name: float(value) for name, value in m.items()}


#: Plan-cache kinds whose steady-state hit ratio is reported by name.
PLAN_KINDS = ("autotune", "mode_sort", "fiber_partition", "hicoo_build",
              "hicoo_ownership", "ghicoo_build", "ghicoo_fiber_sort", "partition",
              "ooc_chunk")


def call_counts(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for s in spans:
        counts[s["name"]] = counts.get(s["name"], 0) + 1
    return counts
