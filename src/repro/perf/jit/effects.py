"""Machine-readable effect summaries for generated C kernels.

Every generator in :mod:`repro.perf.jit.codegen` emits, alongside the C
translation unit, an :class:`EffectSummary` describing what the kernel
*does* to memory: each parameter's declared extent and value range, the
loop nest, the local index definitions, and every load/store with its
affine offset expression.  The summary is built from the *same* snippet
strings that are interpolated into the C source (see the ``_loop`` /
``_store_offset`` helpers in codegen), so the summary cannot drift from
the code by construction — and a mutation to those helpers (the
planted-bug drills in ``tests/test_kernelcheck.py``) changes both the
emitted C and the claims the checker must falsify.

:mod:`repro.analysis.kernelcheck` consumes these summaries and proves
three properties per kernel: thread-disjoint writes under both
schedules, in-bounds and in-int64 index arithmetic, and serial/parallel
store-sequence equivalence.  It additionally re-parses the loop headers
and local defs out of the C source and cross-checks them against the
summary, so a summary that lies about the source is itself a finding.

Expression snippets use the C spelling the kernels use: ``i64``/``i32``
casts, ``*``, ``+``, ``-``, integer literals, parameter names, and
single-subscript loads like ``targets[s]``.  Extents and value bounds
are expressions over the symbolic sizes in :attr:`EffectSummary.symbols`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Numeric caps used for integer-width checking (see kernelcheck).
CAP_I32 = 2**31 - 1
#: nnz / unit / block counts are bounded well below 2^63 in practice;
#: 2^48 elements is ~256 TiB of indices, far beyond any input the suite
#: loads, and leaves headroom to prove i64 products never overflow.
CAP_COUNT = 2**48
#: HiCOO element indices are u8, so block_size is at most 256.
CAP_BLOCK = 256


@dataclass(frozen=True)
class Param:
    """One formal parameter of a kernel's serial entry point.

    ``extent`` is the number of addressable elements (an expression
    over the summary's symbols) for pointer params; ``None`` for
    scalars.  ``value_min``/``value_max`` bound the *values* stored in
    an integer array (used when the array is loaded as an index).
    ``props`` carries semantic flags the checker relies on:

    ``strictly_increasing``
        consecutive elements strictly increase (e.g. ``targets``), which
        is what makes ``("rows", targets)`` ownership disjoint.
    ``nondecreasing``
        a CSR-style offset array (``seg_offsets``, ``win_ptr``...).
    ``window_row``
        the block-index array whose per-chunk windows are row-disjoint
        under ``("row_blocks", ...)`` ownership.
    """

    name: str
    ctype: str
    extent: Optional[str] = None
    value_min: Optional[str] = None
    value_max: Optional[str] = None
    props: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Loop:
    """One ``for`` loop: ``for (<width> <var> = <lo>; <var> < <hi>; ++<var>)``.

    Bounds are expressions over symbols, params (single subscripts of
    enclosing loop vars), and enclosing loop variables.  The checker
    re-parses the same header out of the C source; the *source* wins on
    mismatch, with a ``kernel-summary`` finding recording the drift.
    """

    var: str
    lo: str
    hi: str
    width: str = "i64"


@dataclass(frozen=True)
class Def:
    """A local ``const <width> <name> = <expr>;`` index definition."""

    name: str
    expr: str
    width: str = "i64"


@dataclass(frozen=True)
class Access:
    """One load or store: ``array[offset .. offset + span)``.

    ``kind`` is ``"load"`` or ``"store"``.  ``span`` is the contiguous
    element count touched per visit (the rank for a row slab, 1 for a
    scalar element).
    """

    array: str
    offset: str
    span: int
    kind: str = "store"


@dataclass(frozen=True)
class EffectSummary:
    """Everything kernelcheck needs to know about one kernel.

    ``ownership`` mirrors the runtime declarations consumed by
    :mod:`repro.analysis.sanitizer`:

    - ``("rows", targets)``: chunk owns output rows named by a strictly
      increasing per-unit ``targets`` array.
    - ``("row_blocks", binds, "block_size")``: chunk owns the output
      rows covered by its window's blocks.
    - ``("unit",)``: chunk owns the slot indexed by the unit variable
      itself.
    - ``("serial",)``: kernel has no parallel entry; emitting one is a
      ``kernel-par`` violation.

    ``symbols`` maps each symbolic size (``nnz``, ``dim0``...) to its
    numeric cap for integer-width proofs.  ``pairs`` declares format
    invariants of the shape ``base*scale + fine <= bound`` that the
    bounds engine may assume (HiCOO's unpadded output needs
    ``binds[b]*block_size + einds[e] <= dim - 1``); each entry is
    ``(base_array, scale_symbol, fine_array, bound_expr)``.
    """

    kernel: str
    name: str
    order: int
    rank: int
    unit_var: str
    symbols: Dict[str, int]
    params: Tuple[Param, ...]
    loops: Tuple[Loop, ...]
    defs: Tuple[Def, ...] = ()
    accesses: Tuple[Access, ...] = ()
    ownership: Tuple[str, ...] = ("serial",)
    pairs: Tuple[Tuple[str, str, str, str], ...] = ()
    par_name: Optional[str] = None
    par_params: Tuple[str, ...] = ()

    def param(self, name: str) -> Optional[Param]:
        for param in self.params:
            if param.name == name:
                return param
        return None


@dataclass(frozen=True)
class KernelArtifact:
    """A generated kernel: its C source plus the effect summary."""

    name: str
    source: str
    effects: EffectSummary
