"""Suite self-verification: the conformance matrix over fixed probes.

A benchmark suite is only useful if its implementations agree with each
other and with the dense reference.  ``repro verify`` is the
deterministic, fixed-seed run of the conformance matrix
(:func:`~repro.conformance.harness.enumerate_checks`) over four small,
structurally diverse probe tensors: every format roundtrip, every
variant of every kernel against the float64 dense oracle and serial
COO, and every twin (threads, ``variant="auto"``, serving batch, plan
cache).  This module only chooses the probes and reports the results.

``python -m repro verify`` runs it from the command line; CI-style usage
is ``verify_suite().all_passed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..formats.coo import CooTensor
from ..generators.kronecker import kronecker_tensor
from ..generators.powerlaw import powerlaw_tensor

#: Probe tensors: small enough to densify, structurally diverse.
def _probe_tensors() -> List[CooTensor]:
    return [
        CooTensor.random((24, 18, 15), 400, seed=1),
        kronecker_tensor((32, 32, 32), 500, seed=2),
        powerlaw_tensor((40, 40, 8), 300, dense_modes=(2,), seed=3),
        CooTensor.random((12, 10, 8, 6), 250, seed=4),
    ]


@dataclass
class VerificationResult:
    """Outcome of one check."""

    check: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    """All checks of a verification run."""

    results: List[VerificationResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Whether every check succeeded."""
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> List[VerificationResult]:
        """The failed checks."""
        return [r for r in self.results if not r.passed]

    def summary(self) -> str:
        """Text report of every check."""
        lines = []
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            lines.append(f"[{mark}] {r.check}" + (f" — {r.detail}" if r.detail else ""))
        passed = sum(r.passed for r in self.results)
        lines.append(f"{passed}/{len(self.results)} checks passed")
        return "\n".join(lines)


def verify_suite(
    tensors: Optional[Sequence[CooTensor]] = None,
    *,
    rank: int = 8,
    block_size: int = 8,
) -> VerificationReport:
    """Run the conformance matrix on each probe; a :class:`VerificationReport`.

    Probe ``i`` uses seed ``i`` and target mode ``i % order``, so the
    run is a pure function of the probes.
    """
    # Imported here so that ``import repro`` (which re-exports this
    # module) does not load the conformance subsystem.
    from ..conformance.harness import describe_check, enumerate_checks, run_check

    report = VerificationReport()
    if tensors is None:
        tensors = _probe_tensors()
    for t_index, tensor in enumerate(tensors):
        checks = enumerate_checks(
            tensor,
            block_size=block_size,
            rank=rank,
            seed=t_index,
            mode=t_index % tensor.order,
        )
        for config in checks:
            message = run_check(tensor, config)
            report.results.append(
                VerificationResult(
                    check=f"t{t_index} {describe_check(config)}",
                    passed=message is None,
                    detail=message or "",
                )
            )
    return report
