"""Runtime parallel-write sanitizer (``REPRO_SANITIZE=1``).

The static ``parallel-write`` lint rule catches ownership violations it
can resolve at the source level; this module catches the rest at
runtime.  When the environment variable ``REPRO_SANITIZE`` is truthy,
:func:`repro.perf.parallel.run_chunks` switches to *checked serial*
execution: chunks run one at a time on the calling thread, worker
share by worker share (each worker's static round-robin share in turn,
so the region's report still carries per-worker shares), with two
dynamic checks around each chunk:

1. **Interval claims.**  Every chunk claims its unit range
   ``[unit_lo, unit_hi)`` and element range ``[elem_lo, elem_hi)`` in a
   :class:`RegionTracker`; a chunk plan whose chunks overlap — two
   workers owning the same output rows — raises
   :class:`OverlappingWriteError` before any data is corrupted.

2. **Complement snapshots.**  Kernels register their output arrays with
   an ownership spec (``outputs=`` on ``run_chunks``).  Before each
   chunk the sanitizer snapshots every registered output; afterwards it
   verifies the *complement* of the chunk's owned region is unchanged.
   A task that writes rows it does not own — the data race the thread
   schedule may or may not expose — fails deterministically.

Because every chunk owns disjoint output and reduces its elements in
the same order with the same float64 accumulations, checked-serial
results are bit-identical to both the serial and the parallel paths, so
the conformance fuzzer's ``threads`` twin checks pass unchanged under
the sanitizer.

Ownership kinds
---------------
``"element"``
    The task writes ``out[elem_lo:elem_hi]`` (TEW/TS nonzero grain).
``"unit"``
    The task writes ``out[unit_lo:unit_hi]`` (TTV/TTM fiber grain).
``("rows", targets)``
    The task writes ``out[targets[unit_lo:unit_hi]]`` — an indirection
    through sorted target rows (MTTKRP's segmented scatter).
``("row_blocks", targets, block_size)``
    The task writes the ``block_size`` output rows starting at
    ``targets[u] * block_size`` for each owned unit ``u`` (clipped to
    the array) — the HiCOO ownership plan's window grain, where each
    unit is one output-mode block window.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

#: Environment variable that switches the sanitizer on.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Ownership spec: ``(array, kind)`` with kind as documented above.
OutputSpec = Tuple[np.ndarray, Any]


def sanitizer_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` currently asks for checked execution.

    Read dynamically (not cached at import) so tests and harnesses can
    toggle it per run.
    """
    value = os.environ.get(SANITIZE_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


class SanitizerError(RuntimeError):
    """Base class for parallel-write sanitizer violations."""


class OverlappingWriteError(SanitizerError):
    """Two chunks claimed (or wrote) overlapping output regions."""


class RegionTracker:
    """Claimed half-open intervals in one index space.

    Chunk counts are small (a few per worker), so an ordered list with
    linear overlap checks is plenty — the arrays the chunks describe are
    where the real work is.
    """

    def __init__(self, space: str) -> None:
        self.space = space
        self._claims: List[Tuple[int, int, int]] = []  # (lo, hi, chunk)

    def claim(self, chunk: int, lo: int, hi: int) -> None:
        """Claim ``[lo, hi)`` for ``chunk``; raise on any overlap."""
        if hi <= lo:
            return  # empty chunks own nothing
        for other_lo, other_hi, other_chunk in self._claims:
            if lo < other_hi and other_lo < hi:
                raise OverlappingWriteError(
                    f"chunk {chunk} claims {self.space} range [{lo}, {hi}) "
                    f"overlapping chunk {other_chunk}'s [{other_lo}, "
                    f"{other_hi}); chunk plans must partition the output"
                )
        self._claims.append((lo, hi, chunk))


def _owned_rows(
    spec: OutputSpec, unit_lo: int, unit_hi: int, elem_lo: int, elem_hi: int
) -> np.ndarray:
    """Boolean mask over axis 0 of the rows the chunk owns."""
    array, kind = spec
    mask = np.zeros(array.shape[0], dtype=bool)
    if kind == "element":
        mask[elem_lo:elem_hi] = True
    elif kind == "unit":
        mask[unit_lo:unit_hi] = True
    elif isinstance(kind, tuple) and len(kind) == 2 and kind[0] == "rows":
        targets = np.asarray(kind[1])
        mask[targets[unit_lo:unit_hi]] = True
    elif (
        isinstance(kind, tuple) and len(kind) == 3 and kind[0] == "row_blocks"
    ):
        targets = np.asarray(kind[1])
        block = int(kind[2])
        bases = targets[unit_lo:unit_hi].astype(np.int64) * block
        rows = (bases[:, None] + np.arange(block, dtype=np.int64)).reshape(-1)
        mask[rows[rows < array.shape[0]]] = True
    else:
        raise ValueError(
            f"unknown output ownership kind {kind!r}; use 'element', "
            f"'unit', ('rows', targets), or "
            f"('row_blocks', targets, block_size)"
        )
    return mask


def checked_task(
    task: Callable[[int, int, int, int, int], None],
    outputs: Sequence[OutputSpec],
) -> Callable[[int, int, int, int, int], None]:
    """Wrap a chunk task with claim tracking and complement snapshots.

    The wrapper assumes chunks execute one at a time (the checked-serial
    mode ``run_chunks`` switches to under the sanitizer); it is not
    itself thread-safe, by design.
    """
    unit_claims = RegionTracker("unit")
    elem_claims = RegionTracker("element")

    def wrapped(
        chunk: int, unit_lo: int, unit_hi: int, elem_lo: int, elem_hi: int
    ) -> None:
        unit_claims.claim(chunk, unit_lo, unit_hi)
        elem_claims.claim(chunk, elem_lo, elem_hi)
        snapshots = [np.copy(spec[0]) for spec in outputs]
        task(chunk, unit_lo, unit_hi, elem_lo, elem_hi)
        for spec, snapshot in zip(outputs, snapshots):
            array = spec[0]
            owned = _owned_rows(spec, unit_lo, unit_hi, elem_lo, elem_hi)
            before = snapshot[~owned]
            after = array[~owned]
            # Bitwise comparison (NaN-safe): a race detector must not
            # excuse a clobbered NaN payload.
            if before.size and not np.array_equal(
                before.view(np.uint8), after.view(np.uint8)
            ):
                changed = np.flatnonzero(~owned)[
                    np.any(
                        (before != after) | (np.isnan(before) != np.isnan(after))
                        if np.issubdtype(array.dtype, np.floating)
                        else (before != after),
                        axis=tuple(range(1, before.ndim)),
                    )
                ]
                raise OverlappingWriteError(
                    f"chunk {chunk} wrote row(s) {changed[:8].tolist()} of a "
                    f"registered output it does not own (owned "
                    f"units [{unit_lo}, {unit_hi}), elements "
                    f"[{elem_lo}, {elem_hi}))"
                )

    return wrapped
