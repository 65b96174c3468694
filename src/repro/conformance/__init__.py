"""Differential conformance & fuzzing subsystem.

The paper's premise is that one set of kernel semantics holds across
every format, schedule, and platform; this package checks that claim
mechanically.  It generates seeded random tensors (including the edge
cases format code historically mishandles), round-trips them through
every format pair with structural-invariant validation, runs every
registered kernel variant against the dense oracle and serial COO
(``oracle``) and against its own twin across threads, ``variant="auto"``,
serving batches and the plan cache (``twin``), and shrinks any failure to
a minimal reproducer stored in the ``tests/corpus/`` regression
directory.

Entry points: ``repro fuzz`` on the command line, :func:`fuzz` from
code, ``repro verify`` for the fixed-seed run of the matrix,
:func:`validate` for one-off invariant checks, and :func:`replay_corpus`
for regression replay.
"""

from .corpus import (
    DEFAULT_CORPUS_DIR,
    Reproducer,
    iter_corpus,
    load_reproducer,
    replay_corpus,
    save_reproducer,
    tensor_from_payload,
    tensor_to_payload,
)
from .fuzzer import SCHEDULES, FuzzFailure, FuzzReport, fuzz
from .generators import (
    ALL_KINDS,
    EDGE_KINDS,
    SpecGenerator,
    TensorSpec,
    edge_case_specs,
    realize,
)
from .harness import (
    describe_check,
    enumerate_checks,
    roundtrip_paths,
    run_check,
)
from .invariants import validate, validation_error
from .shrink import ShrinkResult, shrink_tensor

__all__ = [
    "ALL_KINDS",
    "EDGE_KINDS",
    "DEFAULT_CORPUS_DIR",
    "FuzzFailure",
    "FuzzReport",
    "Reproducer",
    "SCHEDULES",
    "ShrinkResult",
    "SpecGenerator",
    "TensorSpec",
    "describe_check",
    "edge_case_specs",
    "enumerate_checks",
    "fuzz",
    "iter_corpus",
    "load_reproducer",
    "realize",
    "replay_corpus",
    "roundtrip_paths",
    "run_check",
    "save_reproducer",
    "shrink_tensor",
    "tensor_from_payload",
    "tensor_to_payload",
    "validate",
    "validation_error",
]
