"""The budgeted differential fuzz loop.

Each iteration draws a seeded :class:`~repro.conformance.generators.TensorSpec`,
realizes it, and runs the tensor through the full conformance matrix
(:func:`~repro.conformance.harness.enumerate_checks`): format-pair
roundtrips with invariant validation, every kernel variant against the
dense oracle and serial COO, and every variant against its twins
(serial vs each parallel schedule, ``variant="auto"`` vs its choice,
fused vs sequential serving, cold vs warm plan cache).  The first
failing check of an iteration is shrunk to a minimal reproducer and
written to the regression corpus; fuzzing then continues with the next
iteration until the iteration or wall-clock budget (or the failure cap)
is exhausted.

``repro fuzz`` is the CLI entry; :func:`fuzz` the programmatic one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..formats.coo import CooTensor
from .corpus import save_reproducer
from .generators import SpecGenerator, TensorSpec, realize
from .harness import describe_check, enumerate_checks, run_check
from .shrink import shrink_tensor

#: Parallel policies rotated across iterations so every budgeted run
#: exercises all three schedules.
SCHEDULES = ("dynamic", "static", "guided")


@dataclass
class FuzzFailure:
    """One minimized finding."""

    iteration: int
    spec: Dict[str, Any]
    config: Dict[str, Any]
    message: str
    original_nnz: int
    shrunk_nnz: int
    corpus_path: Optional[str] = None

    def summary(self) -> str:
        """One line: what failed, and where the reproducer lives."""
        line = (
            f"iteration {self.iteration}: {describe_check(self.config)} — "
            f"{self.message} (shrunk {self.original_nnz} -> {self.shrunk_nnz} nnz)"
        )
        if self.corpus_path:
            line += f" [{self.corpus_path}]"
        return line


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    iterations: int = 0
    checks_run: int = 0
    elapsed_seconds: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)
    stopped_by: str = "budget"

    @property
    def ok(self) -> bool:
        """Whether every check of every iteration passed."""
        return not self.failures

    def summary(self) -> str:
        """Text report of the run."""
        lines = [
            f"fuzz: {self.iterations} iterations, {self.checks_run} checks, "
            f"{self.elapsed_seconds:.1f}s (seed {self.seed}, "
            f"stopped by {self.stopped_by})"
        ]
        for failure in self.failures:
            lines.append(f"FAIL {failure.summary()}")
        lines.append(
            "all checks passed" if self.ok else f"{len(self.failures)} failure(s)"
        )
        return "\n".join(lines)


def fuzz(
    budget: int = 100,
    *,
    seconds: Optional[float] = None,
    seed: int = 0,
    corpus_dir: Optional[str] = None,
    max_failures: int = 5,
    block_size: int = 8,
    rank: int = 4,
    threads: Sequence[int] = (2, 4),
    generator: Optional[SpecGenerator] = None,
    progress=None,
) -> FuzzReport:
    """Run the differential fuzzer under an iteration/time budget.

    Parameters
    ----------
    budget:
        Maximum fuzz iterations (each runs the full conformance matrix
        on one generated tensor).
    seconds:
        Optional wall-clock cap; whichever budget is hit first stops the
        run (the current iteration always completes).
    seed:
        Master seed; the whole run is a pure function of it.
    corpus_dir:
        Where to write shrunk reproducers (``None`` disables saving).
    max_failures:
        Stop after this many distinct findings.
    threads:
        Worker counts the ``threads`` twin checks use.
    progress:
        Optional callable receiving one status line per iteration.
    """
    gen = generator if generator is not None else SpecGenerator(master_seed=seed)
    report = FuzzReport(seed=seed)
    start = time.monotonic()
    for iteration in range(int(budget)):
        if seconds is not None and time.monotonic() - start >= seconds:
            report.stopped_by = "time"
            break
        spec = gen.spec_for(iteration)
        tensor = realize(spec)
        failure = _run_iteration(
            tensor,
            spec,
            iteration,
            report,
            block_size=block_size,
            rank=rank,
            threads=threads,
            corpus_dir=corpus_dir,
        )
        report.iterations += 1
        if progress is not None:
            status = "FAIL" if failure else "ok"
            progress(
                f"[{iteration + 1}/{budget}] {spec.kind} shape={spec.shape} "
                f"nnz={tensor.nnz}: {status}"
            )
        if failure and len(report.failures) >= max_failures:
            report.stopped_by = "failures"
            break
    report.elapsed_seconds = time.monotonic() - start
    return report


def _run_iteration(
    tensor: CooTensor,
    spec: TensorSpec,
    iteration: int,
    report: FuzzReport,
    *,
    block_size: int,
    rank: int,
    threads: Sequence[int],
    corpus_dir: Optional[str],
) -> Optional[FuzzFailure]:
    """All checks for one tensor; shrink + record the first failure."""
    checks = enumerate_checks(
        tensor,
        block_size=block_size,
        rank=rank,
        seed=spec.seed,
        mode=iteration % max(1, tensor.order),
        threads=threads,
        schedule=SCHEDULES[iteration % len(SCHEDULES)],
    )
    for config in checks:
        report.checks_run += 1
        message = run_check(tensor, config)
        if message is None:
            continue
        shrunk = shrink_tensor(
            tensor, lambda t: run_check(t, config) is not None
        )
        final_message = run_check(shrunk.tensor, config) or message
        corpus_path = None
        if corpus_dir is not None:
            from ..perf.jit import build

            corpus_path = save_reproducer(
                corpus_dir,
                shrunk.tensor,
                config,
                final_message,
                spec=spec.to_dict(),
                jit_build=build.build_profile(),
            )
        failure = FuzzFailure(
            iteration=iteration,
            spec=spec.to_dict(),
            config=config,
            message=final_message,
            original_nnz=tensor.nnz,
            shrunk_nnz=shrunk.tensor.nnz,
            corpus_path=corpus_path,
        )
        report.failures.append(failure)
        return failure
    return None
