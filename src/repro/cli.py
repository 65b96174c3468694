"""Command-line interface: ``python -m repro`` / ``pasta-bench``.

Subcommands mirror the PASTA suite's executables plus the paper's
artifacts:

* ``run`` — run one algorithm on one dataset and report GFLOPS;
* ``table1`` / ``table2`` / ``table3`` — regenerate the paper's tables;
* ``fig3`` ... ``fig7`` — regenerate the paper's figures (text series);
* ``observations`` — evaluate the paper's five observations;
* ``generate`` — emit a synthetic tensor as FROSTT ``.tns`` text;
* ``list`` — list algorithms, datasets, and platforms;
* ``lint`` — static contract checks over the source tree (dtype
  discipline, index widths, densification, parallel-write safety,
  cache hygiene) with a committed-baseline ratchet.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench.experiments import EXPERIMENTS, run_experiment
from .bench.formatting import format_table
from .bench.harness import BenchmarkHarness
from .core.registry import algorithm_descriptions, parse_algorithm_name
from .datasets.registry import DEFAULT_SCALE_DIVISOR, datasets, get_dataset
from .generators.kronecker import kronecker_tensor
from .generators.powerlaw import powerlaw_tensor
from .io.frostt import write_tns
from .platforms.specs import PLATFORMS


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale-divisor",
        type=int,
        default=DEFAULT_SCALE_DIVISOR,
        help="shrink paper dataset sizes by this factor (1 = paper scale)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pasta-bench",
        description="Sparse tensor benchmark suite (IISWC 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one dataset")
    run.add_argument("algorithm", help="e.g. COO-TTV-OMP or HiCOO-MTTKRP-GPU")
    run.add_argument("dataset", help="Table II key (r1-r15, s1-s15) or name")
    run.add_argument("--platform", default=None, help="platform to model")
    run.add_argument("--mode", type=int, default=0)
    run.add_argument("--rank", type=int, default=16)
    run.add_argument(
        "--wallclock", action="store_true", help="also time the numpy kernel"
    )
    run.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the numpy kernels "
        "(default: REPRO_NUM_THREADS or 1 = serial)",
    )
    run.add_argument(
        "--schedule",
        choices=["static", "dynamic", "guided"],
        default=None,
        help="OpenMP-style chunk schedule for parallel kernels "
        "(default: REPRO_SCHEDULE or dynamic)",
    )
    _add_scale_argument(run)

    for name, fn in EXPERIMENTS.items():
        exp = sub.add_parser(name, help=(fn.__doc__ or "").splitlines()[0])
        if name not in ("table1", "table3", "fig3"):
            _add_scale_argument(exp)
        if name.startswith("fig") and name != "fig3":
            exp.add_argument(
                "--output-json", default=None, metavar="PATH",
                help="also write the figure's results as JSON",
            )
            exp.add_argument(
                "--output-csv", default=None, metavar="PATH",
                help="also write the figure's results as CSV",
            )

    feats = sub.add_parser(
        "features",
        help="extract a tensor's structural features (optionally emit a stand-in)",
    )
    feats.add_argument(
        "source", help="Table II key/name, or a path to a .tns file"
    )
    feats.add_argument(
        "--stand-in", default=None, metavar="PATH",
        help="also synthesize a matching stand-in tensor to this .tns path",
    )
    feats.add_argument("--stand-in-scale", type=float, default=1.0)
    feats.add_argument("--seed", type=int, default=0)
    _add_scale_argument(feats)

    gen = sub.add_parser("generate", help="emit a synthetic tensor (.tns)")
    gen.add_argument("generator", choices=["kronecker", "powerlaw"])
    gen.add_argument("--dims", required=True, help="comma-separated sizes")
    gen.add_argument("--nnz", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--alpha", type=float, default=2.0)
    gen.add_argument("--dense-modes", default="", help="comma-separated modes")
    gen.add_argument("--output", "-o", default="-", help="path or - for stdout")

    conv = sub.add_parser(
        "convert",
        help="convert a FROSTT .tns[.gz] text tensor to the binary "
        "mmap layout (streaming; bounded memory)",
    )
    conv.add_argument("source", help="path to the .tns or .tns.gz input")
    conv.add_argument("output", help="path of the binary file to write")
    conv.add_argument(
        "--chunk-nnz", type=int, default=None, metavar="N",
        help="nonzeros per on-disk chunk (default 1,000,000)",
    )
    conv.add_argument(
        "--shape", default=None, metavar="D1,D2,...",
        help="comma-separated dimension sizes (default: inferred)",
    )
    conv.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    insp = sub.add_parser(
        "inspect",
        help="summarize a binary tensor file and verify its checksums",
    )
    insp.add_argument("path", help="path to a binary tensor file")
    insp.add_argument(
        "--no-verify", action="store_true",
        help="skip checksum verification (header and chunk table only)",
    )
    insp.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )

    sweep = sub.add_parser(
        "sweep", help="run an ablation sweep on one dataset"
    )
    sweep.add_argument(
        "study", choices=["block-size", "rank", "reorder", "gpus"]
    )
    sweep.add_argument("dataset", help="Table II key (r1-r15, s1-s15) or name")
    sweep.add_argument("--platform", default=None)
    _add_scale_argument(sweep)

    tune = sub.add_parser(
        "tune",
        help="autotune kernel variant / block size / schedule for a tensor",
    )
    tune.add_argument(
        "source", help="Table II key/name, or a path to a .tns file"
    )
    tune.add_argument(
        "--kernel", default="MTTKRP", choices=["MTTKRP", "TTV", "TTM"],
        help="kernel to tune (default MTTKRP)",
    )
    tune.add_argument("--mode", type=int, default=0)
    tune.add_argument("--rank", type=int, default=16)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--no-probe", action="store_true",
        help="model-only selection: skip the measured micro-probes",
    )
    tune.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="thread counts promoted to the probe stage, one candidate "
        "each (default: REPRO_TUNE_TOPK or 3)",
    )
    tune.add_argument(
        "--budget-ms", type=float, default=None, metavar="MS",
        help="probe time budget per candidate "
        "(default: REPRO_TUNE_BUDGET_MS or 25)",
    )
    tune.add_argument(
        "--no-cache", action="store_true",
        help="ignore the on-disk tuning cache for this run",
    )
    _add_scale_argument(tune)

    jit_cache = sub.add_parser(
        "jit-cache",
        help="inspect or clear the compiled-kernel object cache",
    )
    jit_cache.add_argument(
        "--clear", action="store_true",
        help="delete every cached shared object",
    )

    sub.add_parser("list", help="list algorithms, datasets, platforms")
    sub.add_parser(
        "verify",
        help="cross-check all algorithms' numerics against each other "
        "and the dense references",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing across formats, kernels, "
        "caches, and parallel schedules",
    )
    fuzz.add_argument(
        "--budget", type=int, default=100, metavar="N",
        help="maximum fuzz iterations (default 100)",
    )
    fuzz.add_argument(
        "--seconds", type=float, default=None, metavar="S",
        help="wall-clock cap; stops early when reached",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--corpus-dir", default="tests/corpus", metavar="DIR",
        help="where shrunk reproducers are written (default tests/corpus)",
    )
    fuzz.add_argument(
        "--no-corpus", action="store_true",
        help="report failures without writing reproducer files",
    )
    fuzz.add_argument("--block-size", type=int, default=8)
    fuzz.add_argument("--rank", type=int, default=4)
    fuzz.add_argument(
        "--threads", default="2,4", metavar="T1,T2",
        help="comma-separated worker counts for the threads twin checks "
        "(serial vs parallel, bit-exact; default 2,4)",
    )
    fuzz.add_argument("--max-failures", type=int, default=5)
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress per-iteration progress"
    )

    lint = sub.add_parser(
        "lint",
        help="static contract checks: dtype discipline, index widths, "
        "hidden densification, parallel-write safety, cache hygiene",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (e.g. src/repro)",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as a JSON document instead of text lines",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="tolerate findings recorded in this baseline file; "
        "fail only on new ones",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline from the current findings and exit 0",
    )
    lint.add_argument(
        "--severity", choices=["info", "warning", "error"], default="info",
        help="minimum severity to report (default info = everything)",
    )
    lint.add_argument(
        "--rules", default=None, metavar="R1,R2",
        help="comma-separated rule families to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )

    kcheck = sub.add_parser(
        "kernelcheck",
        help="static verification of generated C kernels: write-range "
        "disjointness, extent/width bounds, serial-vs-parallel store "
        "equivalence",
    )
    kcheck.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as a JSON document instead of text lines",
    )
    kcheck.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="tolerate findings recorded in this baseline file; "
        "fail only on new ones",
    )
    kcheck.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline from the current findings and exit 0",
    )
    kcheck.add_argument(
        "--orders", default=None, metavar="O1,O2",
        help="comma-separated tensor orders to check (default: 2,3,4)",
    )
    kcheck.add_argument(
        "--ranks", default=None, metavar="R1,R2",
        help="comma-separated factor ranks to check (default: 1,4,32)",
    )
    kcheck.add_argument(
        "--list-kernels", action="store_true",
        help="print the kernel matrix that would be checked and exit",
    )

    serve = sub.add_parser(
        "serve",
        help="run the asyncio tensor server: NDJSON kernel requests with "
        "batching, per-client quotas, and a JSON metrics endpoint",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7070,
        help="request port (default 7070; 0 = ephemeral)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=7071,
        help="metrics HTTP port (default 7071; -1 disables the endpoint)",
    )
    serve.add_argument(
        "--preload", default="r1", metavar="KEYS",
        help="comma-separated dataset registry keys to realize in RAM "
        "(default r1)",
    )
    serve.add_argument(
        "--bin", action="append", default=[], metavar="NAME=PATH",
        help="register an mmap REPROBIN file (repeatable)",
    )
    serve.add_argument(
        "--synthetic", action="append", default=[],
        metavar="NAME=IxJxK:NNZ[:SEED]",
        help="register a random in-RAM COO tensor (repeatable); e.g. "
        "hot=40x35x30:3000:1",
    )
    serve.add_argument(
        "--scale-divisor", type=int, default=DEFAULT_SCALE_DIVISOR,
        help="dataset down-scaling divisor for --preload entries",
    )
    serve.add_argument("--rate", type=float, default=200.0,
                       help="quota tokens per second per client")
    serve.add_argument("--burst", type=float, default=100.0,
                       help="quota bucket capacity per client")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="max requests fused into one kernel batch")
    serve.add_argument("--no-batch", action="store_true",
                       help="disable batching (unbatched baseline)")
    serve.add_argument("--batch-window", type=float, default=0.0,
                       help="seconds to linger for co-batchable requests")
    serve.add_argument("--threads", type=int, default=2,
                       help="executor threads running kernel batches")
    serve.add_argument("--kernel-threads", type=int, default=1,
                       help="intra-kernel threads per batch")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admitted-job queue cap (503 past it)")
    serve.add_argument(
        "--serve-seconds", type=float, default=None, metavar="S",
        help="shut down gracefully after S seconds (default: run until "
        "SIGINT/SIGTERM)",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.registry import make_schedule
    from .perf.parallel import last_parallel_report, parallel_config

    parsed = parse_algorithm_name(args.algorithm)
    platform = args.platform
    if platform is None:
        platform = "dgx1v" if parsed.target == "GPU" else "bluesky"
    harness = BenchmarkHarness(
        platform,
        scale_divisor=args.scale_divisor,
        rank=args.rank,
        measure_wallclock=args.wallclock,
    )
    if (parsed.target == "GPU") != harness.spec.is_gpu:
        print(
            f"error: algorithm targets {parsed.target} but platform "
            f"{harness.spec.name} is a {'GPU' if harness.spec.is_gpu else 'CPU'}",
            file=sys.stderr,
        )
        return 2
    with parallel_config(num_threads=args.threads, schedule=args.schedule):
        result = harness.run_cell(
            args.dataset, parsed.kernel, parsed.tensor_format
        )
        report = last_parallel_report()
    print(f"algorithm : {args.algorithm}")
    print(f"platform  : {harness.spec.name}")
    print(f"dataset   : {result.dataset} ({result.tensor_name})")
    print(f"modeled   : {result.gflops:.2f} GFLOPS "
          f"({result.modeled.seconds * 1e3:.3f} ms)")
    print(f"roofline  : {result.roofline_gflops:.2f} GFLOPS")
    print(f"efficiency: {result.efficiency * 100:.1f}%")
    if result.measured_seconds is not None:
        print(
            f"wallclock : {result.measured_seconds * 1e3:.3f} ms "
            f"({result.measured_gflops:.3f} GFLOPS on this host's numpy)"
        )
        if report is not None and report.workers > 1:
            # Measured imbalance from the executor next to the machine
            # model's prediction for the same worker count.
            spec = get_dataset(args.dataset)
            x = harness.tensor(spec)
            hicoo = (
                harness.hicoo_tensor(spec)
                if parsed.tensor_format.upper() == "HICOO"
                else None
            )
            modeled_imbalance = make_schedule(
                args.algorithm,
                x,
                mode=args.mode,
                rank=args.rank,
                block_size=harness.block_size,
                hicoo=hicoo,
            ).load_imbalance(report.workers)
            print(
                f"parallel  : {report.workers} workers, "
                f"{report.policy} schedule, {report.num_chunks} chunks"
            )
            print(
                f"imbalance : {report.measured_imbalance:.2f} measured "
                f"/ {modeled_imbalance:.2f} modeled"
            )
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    import os

    from .datasets.features import extract_features, synthesize_like
    from .io.frostt import read_tns

    if os.path.exists(args.source):
        tensor = read_tns(args.source)
    else:
        tensor = get_dataset(args.source).realize(args.scale_divisor)
    features = extract_features(tensor)
    print(features.summary())
    if args.stand_in:
        stand_in = synthesize_like(
            features, seed=args.seed, scale=args.stand_in_scale
        )
        write_tns(stand_in, args.stand_in)
        print(
            f"\nwrote stand-in with {stand_in.nnz} nonzeros to {args.stand_in}",
            file=sys.stderr,
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import os

    from .io.frostt import read_tns
    from .perf.autotune import tune, tuning_cache_path

    if os.path.exists(args.source):
        tensor = read_tns(args.source)
    else:
        tensor = get_dataset(args.source).realize(args.scale_divisor)
    report = tune(
        tensor,
        args.kernel,
        mode=args.mode,
        rank=args.rank,
        seed=args.seed,
        probe=not args.no_probe,
        top_k=args.top_k,
        budget_ms=args.budget_ms,
        use_disk_cache=not args.no_cache,
    )
    print(
        f"kernel    : {report.kernel} (mode {report.mode}, rank {report.rank})"
    )
    print(f"tensor    : {args.source} "
          f"(nnz {tensor.nnz}, fingerprint {report.fingerprint})")
    print(f"machine   : {report.machine}")
    if report.cache_hit:
        print(f"cache     : hit ({report.cache_hit}, {tuning_cache_path()}) "
              "— probes skipped")
    rows = []
    for cand in report.candidates:
        rows.append(
            {
                "config": cand.config.label(),
                "modeled (ms)": f"{cand.modeled_seconds * 1e3:.3f}",
                "measured (ms)": (
                    "-"
                    if cand.measured_seconds is None
                    else f"{cand.measured_seconds * 1e3:.3f}"
                ),
                "probe reps": cand.probe_reps or "-",
                "chosen": "*" if cand.config == report.chosen else "",
            }
        )
    print(format_table(rows))
    speedup = report.notes.get("thread_speedup")
    if speedup:
        print(f"threads   : serial / best team = {speedup['measured']:.2f}x "
              f"measured, {speedup['modeled']:.2f}x modeled")
    print(f"chosen    : {report.chosen.label()}")
    return 0


def _cmd_jit_cache(args: argparse.Namespace) -> int:
    from datetime import datetime

    from .perf import jit

    if args.clear:
        removed = jit.clear_cache()
        print(f"removed {removed} cached object(s) from {jit.object_cache_dir()}")
        return 0
    enabled = jit.jit_enabled()
    compiler = jit.compiler_path()
    print(f"cache dir : {jit.object_cache_dir()}")
    print(f"compiler  : {compiler or 'none found'}")
    print(
        "status    : "
        + (
            "available"
            if jit.jit_available()
            else ("disabled via REPRO_JIT" if not enabled else "unavailable")
        )
    )
    entries = jit.cache_entries()
    rows = [
        {
            "object": path.name,
            "profile": jit.entry_profile(path),
            "size (KiB)": f"{size / 1024:.1f}",
            "built": datetime.fromtimestamp(mtime).strftime("%Y-%m-%d %H:%M:%S"),
        }
        for path, size, mtime in entries
    ]
    if rows:
        print(format_table(rows))
    print(f"{len(entries)} cached object(s)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    if args.generator == "kronecker":
        tensor = kronecker_tensor(dims, args.nnz, seed=args.seed)
    else:
        dense = (
            tuple(int(m) for m in args.dense_modes.split(","))
            if args.dense_modes
            else ()
        )
        tensor = powerlaw_tensor(
            dims, args.nnz, alpha=args.alpha, dense_modes=dense, seed=args.seed
        )
    if args.output == "-":
        write_tns(tensor, sys.stdout)
    else:
        write_tns(tensor, args.output)
        print(f"wrote {tensor.nnz} nonzeros to {args.output}", file=sys.stderr)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from .errors import PastaError
    from .io.binfile import DEFAULT_CHUNK_NNZ, import_tns

    shape = None
    if args.shape:
        shape = tuple(int(s) for s in args.shape.split(","))
    chunk_nnz = args.chunk_nnz or DEFAULT_CHUNK_NNZ

    def progress(seen: int) -> None:
        print(f"\r{seen:,} nonzeros", end="", file=sys.stderr, flush=True)

    try:
        header = import_tns(
            args.source,
            args.output,
            shape=shape,
            chunk_nnz=chunk_nnz,
            progress=None if args.quiet else progress,
        )
    except (PastaError, OSError) as exc:
        if not args.quiet:
            print(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(file=sys.stderr)
    shape_text = "x".join(str(s) for s in header["shape"])
    print(
        f"wrote {args.output}: shape {shape_text}, "
        f"{header['nnz']:,} nonzeros in {len(header['chunks'])} chunk(s)"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json as json_module

    from .errors import PastaError
    from .io.binfile import inspect_bin

    try:
        report = inspect_bin(args.path, verify=not args.no_verify)
    except (PastaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json_module.dumps(report, indent=2))
    else:
        shape_text = "x".join(str(s) for s in report["shape"])
        print(f"path      : {report['path']}")
        print(f"format    : {report['format']} v{report['version']}")
        print(f"shape     : {shape_text} (order {report['order']})")
        print(f"nnz       : {report['nnz']:,}")
        print(f"chunks    : {report['num_chunks']}")
        print(f"payload   : {report['payload_bytes']:,} bytes "
              f"({report['file_bytes']:,} on disk)")
        if args.no_verify:
            print("checksums : not verified (--no-verify)")
        elif report["checksums_ok"]:
            print("checksums : ok")
        else:
            bad = ", ".join(str(c) for c in report["corrupt_chunks"])
            print(f"checksums : MISMATCH in chunk(s) {bad}")
    if not args.no_verify and not report["checksums_ok"]:
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .bench.sweeps import (
        block_size_sweep,
        gpu_count_sweep,
        rank_sweep,
        reorder_sweep,
        sweep_report,
    )

    tensor = get_dataset(args.dataset).realize(args.scale_divisor)
    study = args.study
    if study == "block-size":
        platform = args.platform or "bluesky"
        rows = block_size_sweep(tensor, platform)
    elif study == "rank":
        platform = args.platform or "dgx1v"
        rows = rank_sweep(tensor, platform)
    elif study == "reorder":
        platform = args.platform or "bluesky"
        rows = reorder_sweep(tensor, platform)
    else:
        platform = args.platform or "dgx1v"
        rows = gpu_count_sweep(tensor, platform)
    print(
        sweep_report(
            rows, title=f"{study} sweep on {args.dataset} ({platform})"
        )
    )
    return 0


def _cmd_list() -> int:
    print("Algorithms:")
    for name, description in algorithm_descriptions().items():
        print(f"  {name:<18} {description}")
    print("\nDatasets (Table II):")
    rows = [
        {
            "key": d.key,
            "name": d.name,
            "collection": d.collection,
            "order": d.order,
            "paper nnz": d.paper_nnz,
        }
        for d in datasets()
    ]
    print(format_table(rows))
    print("\nPlatforms (Table III): " + ", ".join(sorted(PLATFORMS)))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .conformance import fuzz

    threads = tuple(int(t) for t in args.threads.split(",") if t.strip())
    report = fuzz(
        budget=args.budget,
        seconds=args.seconds,
        seed=args.seed,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        max_failures=args.max_failures,
        block_size=args.block_size,
        rank=args.rank,
        threads=threads,
        progress=None if args.quiet else (lambda line: print(line, file=sys.stderr)),
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module

    from .analysis import (
        BaselineError,
        apply_baseline,
        lint_paths,
        load_baseline,
        rule_catalog,
        severity_rank,
        write_baseline,
    )
    from .analysis.engine import all_rules

    if args.list_rules:
        for rule, description in rule_catalog().items():
            print(f"{rule:<18} {description}")
        return 0
    if not args.paths:
        print("error: no paths given (try: repro lint src/repro)", file=sys.stderr)
        return 2
    selected = None
    if args.rules:
        wanted = {name.strip() for name in args.rules.split(",") if name.strip()}
        catalog = rule_catalog()
        unknown = wanted - set(catalog)
        if unknown:
            print(
                f"error: unknown rule(s) {sorted(unknown)}; "
                f"known: {sorted(catalog)}",
                file=sys.stderr,
            )
            return 2
        selected = [m for m in all_rules() if m.RULE in wanted]

    report = lint_paths(args.paths)
    if selected is not None:
        kept_rules = {m.RULE for m in selected}
        report.findings = [f for f in report.findings if f.rule in kept_rules]
    min_rank = severity_rank(args.severity)
    findings = [f for f in report.findings if severity_rank(f.severity) <= min_rank]

    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline needs --baseline FILE", file=sys.stderr)
            return 2
        count = write_baseline(args.baseline, findings)
        print(f"wrote baseline {args.baseline} with {count} finding(s)")
        return 0

    baselined = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, baselined = apply_baseline(findings, baseline)

    if args.as_json:
        payload = {
            "files": report.files,
            "findings": [f.to_dict() for f in findings],
            "suppressed": report.suppressed,
            "baselined": baselined,
            "parse_errors": report.parse_errors,
        }
        print(json_module.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.format_text())
        summary = (
            f"{len(findings)} finding(s) in {report.files} file(s)"
            f" ({report.suppressed} suppressed, {baselined} baselined)"
        )
        print(summary, file=sys.stderr)
        for error in report.parse_errors:
            print(f"parse error: {error}", file=sys.stderr)
    return 1 if findings or report.parse_errors else 0


def _cmd_kernelcheck(args: argparse.Namespace) -> int:
    import json as json_module

    from .analysis import (
        BaselineError,
        apply_baseline,
        check_kernels,
        load_baseline,
        write_baseline,
    )

    def _parse_ints(spec: Optional[str], what: str) -> Optional[tuple]:
        if spec is None:
            return None
        try:
            values = tuple(int(v) for v in spec.split(",") if v.strip())
        except ValueError:
            print(f"error: --{what} wants comma-separated ints, got {spec!r}",
                  file=sys.stderr)
            raise
        return values or None

    try:
        orders = _parse_ints(args.orders, "orders")
        ranks = _parse_ints(args.ranks, "ranks")
    except ValueError:
        return 2

    if args.list_kernels:
        from .perf.jit import codegen

        for artifact in codegen.registered_artifacts(
            orders=orders or codegen.REGISTERED_ORDERS,
            ranks=ranks or codegen.REGISTERED_RANKS,
        ):
            print(artifact.name)
        return 0

    report = check_kernels(orders=orders, ranks=ranks)
    findings = report.findings

    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline needs --baseline FILE", file=sys.stderr)
            return 2
        count = write_baseline(args.baseline, findings)
        print(f"wrote baseline {args.baseline} with {count} finding(s)")
        return 0

    baselined = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, baselined = apply_baseline(findings, baseline)

    if args.as_json:
        payload = {
            "kernels": report.kernels,
            "findings": [f.to_dict() for f in findings],
            "baselined": baselined,
        }
        print(json_module.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.format_text())
        print(
            f"{len(findings)} finding(s) in {report.kernels} kernel(s)"
            f" ({baselined} baselined)",
            file=sys.stderr,
        )
    return 1 if findings else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module
    import signal

    from .serving import ServerConfig, TensorRegistry, TensorServer

    registry = TensorRegistry()
    for key in [k.strip() for k in args.preload.split(",") if k.strip()]:
        spec = get_dataset(key)
        tensor = spec.realize(args.scale_divisor)
        registry.add_ram(key, tensor, source=f"dataset:{spec.name}")
        print(
            f"loaded {key} ({spec.name}): shape {tensor.shape}, "
            f"nnz {tensor.nnz}",
            file=sys.stderr,
        )
    for item in args.bin:
        name, _, path = item.partition("=")
        if not name or not path:
            print(f"error: --bin wants NAME=PATH, got {item!r}", file=sys.stderr)
            return 2
        entry = registry.add_mmap(name, path)
        print(
            f"mapped {name} ({path}): shape {entry.shape}, nnz {entry.nnz}",
            file=sys.stderr,
        )
    for item in args.synthetic:
        import numpy as np

        from .formats import CooTensor

        name, _, spec_str = item.partition("=")
        try:
            shape_str, nnz_str, *seed_part = spec_str.split(":")
            shape = tuple(int(d) for d in shape_str.split("x"))
            nnz = int(nnz_str)
            seed = int(seed_part[0]) if seed_part else 0
        except ValueError:
            print(
                f"error: --synthetic wants NAME=IxJxK:NNZ[:SEED], got {item!r}",
                file=sys.stderr,
            )
            return 2
        tensor = CooTensor.random(shape, nnz, rng=np.random.default_rng(seed))
        registry.add_ram(name, tensor, source=f"synthetic:{spec_str}")
        print(
            f"generated {name}: shape {tensor.shape}, nnz {tensor.nnz}",
            file=sys.stderr,
        )
    if len(registry) == 0:
        print("error: nothing to serve (--preload and --bin empty)", file=sys.stderr)
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        metrics_port=None if args.metrics_port < 0 else args.metrics_port,
        rate=args.rate,
        burst=args.burst,
        max_batch=args.max_batch,
        batch=not args.no_batch,
        batch_window=args.batch_window,
        executor_threads=args.threads,
        kernel_threads=args.kernel_threads,
        max_queue=args.max_queue,
    )

    async def serve() -> None:
        server = TensorServer(registry, config)
        await server.start()
        host, port = server.address
        print(f"serving on {host}:{port}", file=sys.stderr)
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"metrics on http://{mhost}:{mport}/metrics", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover — non-POSIX
                pass
        if args.serve_seconds is not None:
            loop.call_later(args.serve_seconds, stop.set)
        await stop.wait()
        print("draining...", file=sys.stderr)
        await server.stop()
        print(
            json_module.dumps(server.metrics.snapshot(), indent=1),
            file=sys.stderr,
        )

    try:
        asyncio.run(serve())
    finally:
        registry.close_all()
    print("shutdown complete", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "kernelcheck":
        return _cmd_kernelcheck(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "features":
        return _cmd_features(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "jit-cache":
        return _cmd_jit_cache(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "convert":
        return _cmd_convert(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "verify":
        from .bench.verify import verify_suite

        report = verify_suite()
        print(report.summary())
        return 0 if report.all_passed else 1
    kwargs = {}
    if hasattr(args, "scale_divisor"):
        kwargs["scale_divisor"] = args.scale_divisor
    result = run_experiment(args.command, **kwargs)
    print(result.report)
    if getattr(args, "output_json", None):
        from .bench.export import write_json

        write_json(
            result.results,
            args.output_json,
            metadata={"experiment": args.command, **kwargs},
        )
        print(f"wrote JSON to {args.output_json}", file=sys.stderr)
    if getattr(args, "output_csv", None):
        from .bench.export import write_csv

        write_csv(result.results, args.output_csv)
        print(f"wrote CSV to {args.output_csv}", file=sys.stderr)
    if args.command == "observations":
        failed = [r for r in result.rows if r["Holds"] != "yes"]
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
