"""Kernel plan builders: the cached pre-processing artifacts.

Each plan captures one pre-processing product the paper's suite computes
*outside* the timed kernel region:

* :class:`ModeSortPlan` — nonzeros sorted by one mode's index, with
  segment boundaries, which turns MTTKRP's scattered row updates into a
  single segmented reduction (:mod:`repro.perf.scatter`);
* :class:`FiberPlan` — the fiber partition TTV/TTM pre-processing builds
  (Algorithm 1 line 1): a lexicographic sort permutation plus the fiber
  pointer array;
* :class:`GhicooFiberPlan` — the intra-block fiber grouping of the
  direct gHiCOO TTV/TTM kernels, plus the output's block structure;
* :class:`FiberSumPlan` — the element ids of the length-split fiber sum
  (:func:`repro.perf.scatter.fiber_sums`), built once per fiber plan;
* expanded HiCOO indices, Morton sort permutations, and whole cached
  HiCOO/gHiCOO conversions.

Plans are *structural*: they are derived from index arrays only, never
from values, so tensors that share coordinates (e.g. tensor-scalar
results) can share them via :meth:`PlanCache.adopt`.  The exceptions
— cached HiCOO/gHiCOO conversions and the values gathered into a mode
sort's order — embed values and are marked value-bearing in
:mod:`repro.perf.plan_cache`.

Every ``*_plan`` / ``*_for`` helper looks its plan up in the global
:mod:`repro.perf.plan_cache` or builds and stores it; the matching
``build_*`` function is the builder, also callable without the cache.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..formats.coo import INDEX_DTYPE, CooTensor
from ..formats.ghicoo import GHicooTensor
from ..formats.hicoo import HicooTensor
from .plan_cache import get_plan_cache

KIND_MODE_SORT = "mode_sort"
KIND_FIBER = "fiber_partition"
KIND_EXPANSION = "hicoo_expansion"
KIND_MORTON = "morton_perm"
KIND_GHICOO_FIBER = "ghicoo_fiber_sort"
KIND_GHICOO_BUILD = "ghicoo_build"
KIND_HICOO_BUILD = "hicoo_build"
KIND_EXPANDED_COO = "expanded_coo"
KIND_HICOO_OWNERSHIP = "hicoo_ownership"
KIND_SORTED_VALUES = "sorted_values"

_CooLike = Union[CooTensor, HicooTensor]


# ----------------------------------------------------------------------
# Mode sort plans (MTTKRP scatter pre-processing)
# ----------------------------------------------------------------------


class ModeSortPlan:
    """Nonzeros sorted by one mode's index, segmented by output row.

    Attributes
    ----------
    mode:
        The (normalized) mode whose index is the sort key.
    perm:
        Stable permutation sorting nonzeros by ``indices[mode]``; only
        ever a gather index, so int32 whenever the nonzero count fits.
    sorted_indices:
        The full ``(order, nnz)`` index matrix permuted by ``perm``.
    segment_starts:
        Offsets (into the sorted order) where a new output row begins —
        the ``reduceat`` boundaries.
    unique_targets:
        The output row of each segment (strictly increasing).
    """

    __slots__ = (
        "mode",
        "perm",
        "sorted_indices",
        "segment_starts",
        "unique_targets",
        "_segment_offsets",
    )

    def __init__(
        self,
        mode: int,
        perm: np.ndarray,
        sorted_indices: np.ndarray,
        segment_starts: np.ndarray,
        unique_targets: np.ndarray,
    ) -> None:
        self.mode = mode
        self.perm = perm
        self.sorted_indices = sorted_indices
        self.segment_starts = segment_starts
        self.unique_targets = unique_targets
        self._segment_offsets: Optional[np.ndarray] = None

    @property
    def nnz(self) -> int:
        """Number of nonzeros the plan covers."""
        return int(self.perm.shape[0])

    @property
    def num_segments(self) -> int:
        """Number of distinct output rows (nonempty segments)."""
        return int(self.segment_starts.shape[0])

    def sorted_values(self, values: np.ndarray) -> np.ndarray:
        """Gather a value array into the plan's sorted order."""
        return np.take(values, self.perm)

    def segment_offsets(self) -> np.ndarray:
        """Segment boundaries extended with the end offset.

        Length ``num_segments + 1``: segment ``s`` spans sorted elements
        ``offsets[s]:offsets[s + 1]`` — the unit structure the parallel
        executor partitions.  Built lazily and kept with the plan.
        """
        if self._segment_offsets is None:
            self._segment_offsets = np.concatenate(
                [self.segment_starts, [self.nnz]]
            ).astype(np.int64)
        return self._segment_offsets


def _build_mode_sort(indices: np.ndarray, mode: int) -> ModeSortPlan:
    # Sort on the narrowest unsigned keys that hold the mode's rows:
    # numpy radix-sorts 8- and 16-bit keys, and a stable sort's
    # permutation is unique, so the plan is the same as on the raw keys.
    keys = indices[mode]
    if keys.size:
        keys = keys.astype(np.min_scalar_type(int(keys.max())), copy=False)
    perm = np.argsort(keys, kind="stable")
    if perm.shape[0] <= np.iinfo(np.int32).max:
        perm = perm.astype(np.int32)
    sorted_indices = np.ascontiguousarray(indices[:, perm])
    targets = sorted_indices[mode]
    if targets.size:
        boundary = np.concatenate(([True], targets[1:] != targets[:-1]))
        starts = np.flatnonzero(boundary)
    else:
        starts = np.empty(0, dtype=np.int64)
    return ModeSortPlan(mode, perm, sorted_indices, starts, targets[starts])


def build_mode_sort_plan(tensor: _CooLike, mode: int) -> ModeSortPlan:
    """Build a mode sort plan without touching the cache."""
    if isinstance(tensor, HicooTensor):
        return _build_mode_sort(_expand_hicoo_indices(tensor), mode)
    return _build_mode_sort(tensor.indices, mode)


def mode_sort_plan(tensor: _CooLike, mode: int) -> ModeSortPlan:
    """Cached mode sort plan of a COO or HiCOO tensor.

    For HiCOO the sort runs over the (cached) expanded coordinates, in
    the tensor's own storage order, so ``plan.perm`` applies directly to
    ``tensor.values``.
    """

    def build() -> ModeSortPlan:
        if isinstance(tensor, HicooTensor):
            return _build_mode_sort(expanded_indices(tensor), mode)
        return _build_mode_sort(tensor.indices, mode)

    return get_plan_cache().get(tensor, KIND_MODE_SORT, int(mode), build)


def sorted_values_for(tensor: _CooLike, mode: int) -> np.ndarray:
    """The tensor's values as float32 in mode-sort order, memoized per mode.

    Value-bearing, under :func:`hicoo_for`'s contract: dropped (not
    transferred) when plans are adopted, and cleared by ``invalidate``,
    which code mutating ``tensor.values`` in place must call.
    """
    plan = mode_sort_plan(tensor, mode)
    return get_plan_cache().get(
        tensor,
        KIND_SORTED_VALUES,
        plan.mode,
        lambda: np.ascontiguousarray(
            plan.sorted_values(tensor.values), dtype=np.float32
        ),
    )


# ----------------------------------------------------------------------
# Fiber partition plans (TTV/TTM pre-processing)
# ----------------------------------------------------------------------


class FiberPlan:
    """Fiber grouping of one product mode (Algorithm 1 line 1).

    ``perm`` sorts nonzeros so each mode-``mode`` fiber is contiguous
    with the product mode varying fastest; ``fptr`` (length
    ``num_fibers + 1``) holds fiber start offsets.
    """

    __slots__ = (
        "mode",
        "other_modes",
        "perm",
        "sorted_indices",
        "fptr",
        "_fiber_indices",
        "_sum_plan",
    )

    def __init__(
        self,
        mode: int,
        other_modes: Tuple[int, ...],
        perm: np.ndarray,
        sorted_indices: np.ndarray,
        fptr: np.ndarray,
    ) -> None:
        self.mode = mode
        self.other_modes = other_modes
        self.perm = perm
        self.sorted_indices = sorted_indices
        self.fptr = fptr
        self._fiber_indices: Optional[np.ndarray] = None
        self._sum_plan: Optional["FiberSumPlan"] = None

    @property
    def num_fibers(self) -> int:
        """Number of nonempty mode-``mode`` fibers (``M_F`` in Table I)."""
        return int(self.fptr.shape[0]) - 1

    def fiber_lengths(self) -> np.ndarray:
        """Nonzeros per fiber — the TTV/TTM work-unit array."""
        return np.diff(self.fptr)

    def fiber_indices(self) -> np.ndarray:
        """The other modes' coordinates of every fiber, ``(order - 1, M_F)``.

        The TTV/TTM output coordinates.  Built lazily and kept with the
        plan; callers that hand it out must copy it.
        """
        if self._fiber_indices is None:
            self._fiber_indices = np.ascontiguousarray(
                self.sorted_indices[list(self.other_modes)][:, self.fptr[:-1]]
            )
        return self._fiber_indices

    def sum_plan(self) -> "FiberSumPlan":
        """The fiber sum plan over the tensor's own storage order."""
        if self._sum_plan is None:
            self._sum_plan = build_fiber_sum_plan(self.fptr, self.perm)
        return self._sum_plan

    def ordered_tensor(self, tensor: CooTensor) -> CooTensor:
        """The fiber-sorted tensor (values gathered from ``tensor``)."""
        return CooTensor(
            tensor.shape,
            self.sorted_indices,
            tensor.values[self.perm],
            validate=False,
        )


def build_fiber_plan(tensor: CooTensor, mode: int) -> FiberPlan:
    """Build a fiber partition plan without touching the cache."""
    mode = mode % tensor.order
    other_modes = tuple(m for m in range(tensor.order) if m != mode)
    perm = tensor.lexicographic_order(list(other_modes) + [mode])
    sorted_indices = np.ascontiguousarray(tensor.indices[:, perm])
    nnz = perm.shape[0]
    if nnz == 0:
        return FiberPlan(
            mode, other_modes, perm, sorted_indices, np.zeros(1, dtype=np.int64)
        )
    other = sorted_indices[list(other_modes)]
    boundary = np.any(other[:, 1:] != other[:, :-1], axis=0)
    starts = np.flatnonzero(np.concatenate(([True], boundary)))
    fptr = np.concatenate([starts, [nnz]]).astype(np.int64)
    return FiberPlan(mode, other_modes, perm, sorted_indices, fptr)


def fiber_plan(tensor: CooTensor, mode: int) -> FiberPlan:
    """Cached fiber partition plan of one product mode."""
    mode = mode % tensor.order
    return get_plan_cache().get(
        tensor, KIND_FIBER, mode, lambda: build_fiber_plan(tensor, mode)
    )


def fiber_fptr(tensor: CooTensor, mode: int) -> np.ndarray:
    """Fiber pointer array of one mode, from the cached fiber plan.

    The ``schedule_*`` functions use this to read fiber counts and
    lengths without gathering values or rebuilding a sorted tensor.
    """
    return fiber_plan(tensor, mode).fptr


# ----------------------------------------------------------------------
# HiCOO expansion
# ----------------------------------------------------------------------


def _expand_hicoo_indices(tensor: HicooTensor) -> np.ndarray:
    if tensor.num_blocks == 0:
        return np.empty((tensor.order, 0), dtype=INDEX_DTYPE)
    counts = tensor.nnz_per_block()
    expanded = np.repeat(tensor.binds, counts, axis=1).astype(np.int64)
    return (expanded * tensor.block_size + tensor.einds).astype(INDEX_DTYPE)


def expanded_indices(tensor: HicooTensor) -> np.ndarray:
    """Cached HiCOO element coordinates ``(order, nnz)``.

    The result is in the tensor's own (Morton) storage order, aligned
    with ``tensor.values``.
    """
    return get_plan_cache().get(
        tensor, KIND_EXPANSION, None, lambda: _expand_hicoo_indices(tensor)
    )


def expanded_coo(tensor: HicooTensor) -> CooTensor:
    """The HiCOO tensor expanded to COO, memoized per tensor.

    The *wrapper itself* is cached (kind :data:`KIND_EXPANDED_COO`), not
    just the index matrix: downstream per-tensor artifacts — mode-sort
    plans, fiber partitions, autotune decisions — are keyed on the COO
    object, so handing dispatch a fresh wrapper every call silently
    discarded all of them.  Value-bearing (the wrapper embeds the values
    array), so it is dropped rather than transferred on plan adoption.
    """

    def build() -> CooTensor:
        return CooTensor(
            tensor.shape, expanded_indices(tensor), tensor.values, validate=False
        )

    return get_plan_cache().get(tensor, KIND_EXPANDED_COO, None, build)


# ----------------------------------------------------------------------
# Morton permutations and format rebuild caching
# ----------------------------------------------------------------------


def morton_perm(
    tensor: CooTensor,
    block_size: int,
    modes: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Permutation sorting nonzeros by the Morton code of their block.

    ``modes=None`` blocks every mode (plain HiCOO); a subset gives the
    gHiCOO ordering over the compressed modes only.  Cached per
    ``(block_size, modes)``.
    """
    from ..formats.morton import morton_sort_order

    mode_key = None if modes is None else tuple(sorted(modes))

    def build() -> np.ndarray:
        idx = tensor.indices.astype(np.int64)
        if mode_key is not None:
            idx = idx[list(mode_key)]
        return morton_sort_order(idx // block_size)

    return get_plan_cache().get(
        tensor, KIND_MORTON, (int(block_size), mode_key), build
    )


def hicoo_for(tensor: CooTensor, block_size: int) -> HicooTensor:
    """A HiCOO conversion of ``tensor``, memoized per block size.

    Value-bearing: the cached object embeds the tensor's values, so it is
    dropped (not transferred) when plans are adopted by a new tensor.
    """
    return get_plan_cache().get(
        tensor,
        KIND_HICOO_BUILD,
        int(block_size),
        lambda: HicooTensor.from_coo(tensor, block_size),
    )


class HicooOwnershipPlan:
    """Output-ownership regrouping of HiCOO blocks for one mode.

    Groups a HiCOO tensor's blocks by their ``mode`` block coordinate
    ("output window") so every window's blocks write a disjoint
    ``block_size`` range of output rows — the atomic-free decomposition
    the multithreaded compiled MTTKRP runs on.  The grouping sort is
    *stable*: within a window, blocks keep their Morton order, so the
    per-row double accumulation order matches the serial kernel exactly
    and parallel results are bit-identical.

    ``block_perm[win_ptr[w]:win_ptr[w + 1]]`` are the block ids of
    window ``w``; ``element_offsets`` holds cumulative nonzero counts
    per window (the partitioner's load model); ``window_targets`` the
    output-mode block coordinate of each window (the sanitizer's
    ownership declaration).
    """

    __slots__ = (
        "mode",
        "block_perm",
        "win_ptr",
        "element_offsets",
        "window_targets",
    )

    def __init__(
        self,
        mode: int,
        block_perm: np.ndarray,
        win_ptr: np.ndarray,
        element_offsets: np.ndarray,
        window_targets: np.ndarray,
    ) -> None:
        self.mode = mode
        self.block_perm = block_perm
        self.win_ptr = win_ptr
        self.element_offsets = element_offsets
        self.window_targets = window_targets

    @property
    def num_windows(self) -> int:
        """Number of distinct output windows (parallel work units)."""
        return int(self.win_ptr.shape[0]) - 1


def build_hicoo_ownership_plan(
    tensor: HicooTensor, mode: int
) -> HicooOwnershipPlan:
    """Build the ownership plan for one output mode, uncached."""
    mode = mode % tensor.order
    keys = tensor.binds[mode].astype(np.int64)
    num_blocks = int(keys.shape[0])
    if num_blocks == 0:
        zero = np.zeros(1, dtype=np.int64)
        return HicooOwnershipPlan(
            mode,
            np.empty(0, dtype=np.int64),
            zero,
            zero.copy(),
            np.empty(0, dtype=np.int64),
        )
    perm = np.argsort(keys, kind="stable").astype(np.int64)
    sorted_keys = keys[perm]
    boundary = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(np.concatenate(([True], boundary)))
    win_ptr = np.concatenate([starts, [num_blocks]]).astype(np.int64)
    counts = tensor.nnz_per_block().astype(np.int64)
    csum = np.concatenate([[0], np.cumsum(counts[perm])]).astype(np.int64)
    element_offsets = csum[win_ptr]
    return HicooOwnershipPlan(
        mode, perm, win_ptr, element_offsets, sorted_keys[starts]
    )


def hicoo_ownership_plan(tensor: HicooTensor, mode: int) -> HicooOwnershipPlan:
    """Cached ownership plan of one output mode."""
    mode = mode % tensor.order
    return get_plan_cache().get(
        tensor,
        KIND_HICOO_OWNERSHIP,
        mode,
        lambda: build_hicoo_ownership_plan(tensor, mode),
    )


def ghicoo_for_mode(
    tensor: Union[CooTensor, HicooTensor, GHicooTensor],
    mode: int,
    block_size: int,
) -> GHicooTensor:
    """The gHiCOO rebuild TTV/TTM consume: product mode uncompressed.

    Keyed on the *original* tensor object (COO, HiCOO, or a differently
    compressed gHiCOO) so repeated kernel calls get the identical gHiCOO
    object back — which in turn keeps the downstream
    :func:`ghicoo_fiber_plan` warm.
    """
    mode = mode % len(tensor.shape)

    def build() -> GHicooTensor:
        if isinstance(tensor, CooTensor):
            coo = tensor
        elif isinstance(tensor, HicooTensor):
            coo = expanded_coo(tensor)
        else:
            coo = tensor.to_coo()
        compressed = [m for m in range(coo.order) if m != mode]
        return GHicooTensor.from_coo(coo, compressed, block_size)

    return get_plan_cache().get(
        tensor, KIND_GHICOO_BUILD, (mode, int(block_size)), build
    )


# ----------------------------------------------------------------------
# gHiCOO fiber sort plans (direct TTV/TTM kernels)
# ----------------------------------------------------------------------


class GhicooFiberPlan:
    """Intra-block fiber grouping of a gHiCOO tensor, plus the output
    block structure the direct TTV/TTM kernels emit.

    With the product mode uncompressed every fiber lies inside one block
    (paper Section III-D1), so a single sort by (block, compressed
    element indices) makes fibers contiguous while preserving block
    contiguity.  All fields are index-derived; per-call kernels combine
    them with the current values and the dense operand.
    """

    __slots__ = (
        "perm",
        "fiber_starts",
        "fiber_einds",
        "out_bptr",
        "out_binds",
        "_fiber_offsets",
        "_sum_plan",
    )

    def __init__(
        self,
        perm: np.ndarray,
        fiber_starts: np.ndarray,
        fiber_einds: np.ndarray,
        out_bptr: np.ndarray,
        out_binds: np.ndarray,
    ) -> None:
        self.perm = perm
        self.fiber_starts = fiber_starts
        self.fiber_einds = fiber_einds
        self.out_bptr = out_bptr
        self.out_binds = out_binds
        self._fiber_offsets: Optional[np.ndarray] = None
        self._sum_plan: Optional["FiberSumPlan"] = None

    @property
    def num_fibers(self) -> int:
        """Number of fibers (output nonzeros / output rows)."""
        return int(self.fiber_starts.shape[0])

    def fiber_offsets(self) -> np.ndarray:
        """Fiber boundaries extended with the end offset (the nnz).

        Length ``num_fibers + 1`` — the unit structure the parallel
        executor partitions.  Built lazily and kept with the plan.
        """
        if self._fiber_offsets is None:
            self._fiber_offsets = np.concatenate(
                [self.fiber_starts, [self.perm.shape[0]]]
            ).astype(np.int64)
        return self._fiber_offsets

    def sum_plan(self) -> "FiberSumPlan":
        """The fiber sum plan over the gHiCOO tensor's storage order."""
        if self._sum_plan is None:
            self._sum_plan = build_fiber_sum_plan(self.fiber_offsets(), self.perm)
        return self._sum_plan


def build_ghicoo_fiber_plan(ghicoo: GHicooTensor) -> GhicooFiberPlan:
    """Build the fiber sort plan of a single-uncompressed-mode gHiCOO."""
    block_of = np.repeat(
        np.arange(ghicoo.num_blocks, dtype=np.int64), ghicoo.nnz_per_block()
    )
    sort_keys = tuple(reversed((block_of,) + tuple(ghicoo.einds)))
    perm = np.lexsort(sort_keys)
    block_sorted = block_of[perm]
    einds_sorted = ghicoo.einds[:, perm]
    changed = block_sorted[1:] != block_sorted[:-1]
    changed |= np.any(einds_sorted[:, 1:] != einds_sorted[:, :-1], axis=0)
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    fiber_blocks = block_sorted[starts]
    fiber_einds = np.ascontiguousarray(einds_sorted[:, starts])
    block_changed = fiber_blocks[1:] != fiber_blocks[:-1]
    out_block_starts = np.flatnonzero(np.concatenate(([True], block_changed)))
    out_bptr = np.concatenate([out_block_starts, [len(starts)]]).astype(np.int64)
    out_binds = np.ascontiguousarray(
        ghicoo.binds[:, fiber_blocks[out_block_starts]]
    )
    return GhicooFiberPlan(perm, starts, fiber_einds, out_bptr, out_binds)


def ghicoo_fiber_plan(ghicoo: GHicooTensor) -> GhicooFiberPlan:
    """Cached gHiCOO fiber sort plan."""
    return get_plan_cache().get(
        ghicoo, KIND_GHICOO_FIBER, None, lambda: build_ghicoo_fiber_plan(ghicoo)
    )


# ----------------------------------------------------------------------
# Fiber sum plans (the TTV/TTM reduction)
# ----------------------------------------------------------------------

#: Longest fiber ``np.add.reduceat`` sums strictly left to right.  It
#: copies a segment's first term and adds numpy's pairwise sum of the
#: rest, which runs in order below 8 terms; longer fibers keep reduceat.
SEQUENTIAL_FIBER_MAX = 8


class FiberSumPlan:
    """Element ids of the length-split fiber sum, grouped by fiber length.

    Fibers are numbered in fiber-plan order; element ids index the
    tensor's own storage order (the fiber sort permutation is folded in).
    Ids are int32 whenever the nonzero count fits.

    first:
        The first element of every fiber.
    short_fibers:
        The fibers of 2 to :data:`SEQUENTIAL_FIBER_MAX` elements, increasing.
    step_ids, step_rows, step_ptr:
        Step ``k`` (entries ``step_ptr[k]:step_ptr[k + 1]``) lists every
        short fiber with more than ``k + 1`` elements: its element at
        position ``k + 1`` and its rank in ``short_fibers`` (increasing).
    long_fibers, long_ids, long_starts:
        The longer fibers, all their elements back to back, and each
        fiber's start in ``long_ids`` (plus the end).
    """

    __slots__ = (
        "first",
        "short_fibers",
        "step_ids",
        "step_rows",
        "step_ptr",
        "long_fibers",
        "long_ids",
        "long_starts",
    )

    def __init__(self, **arrays: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])


def build_fiber_sum_plan(fptr: np.ndarray, perm: np.ndarray) -> FiberSumPlan:
    """The fiber sum plan of fibers ``fptr`` in the sorted order ``perm``."""
    dtype = np.int32 if perm.shape[0] <= np.iinfo(np.int32).max else np.int64
    ids = perm.astype(dtype, copy=False)
    starts = fptr[:-1]
    lengths = np.diff(fptr)
    is_long = lengths > SEQUENTIAL_FIBER_MAX
    short = np.flatnonzero((lengths > 1) & ~is_long)
    steps, rows = [], []
    for k in range(1, SEQUENTIAL_FIBER_MAX):
        rank = np.flatnonzero(lengths[short] > k)
        steps.append(ids[starts[short[rank]] + k])
        rows.append(rank)
    long_fibers = np.flatnonzero(is_long)
    return FiberSumPlan(
        first=ids[starts],
        short_fibers=short.astype(dtype),
        step_ids=np.concatenate(steps),
        step_rows=np.concatenate(rows).astype(dtype),
        step_ptr=np.cumsum([0] + [len(step) for step in steps]),
        long_fibers=long_fibers.astype(dtype),
        long_ids=ids[np.repeat(is_long, lengths)],
        long_starts=np.concatenate(
            [[0], np.cumsum(lengths[long_fibers])]
        ).astype(np.int64),
    )


# ----------------------------------------------------------------------
# Plan adoption (tensor-scalar outputs share the input's structure)
# ----------------------------------------------------------------------


def adopt_plans(child: object, parent: object) -> int:
    """Share the parent's structural plans with a same-structure child.

    Used by the tensor-scalar kernels, whose outputs keep the input's
    coordinates (in the same storage order) and change values only.
    Returns the number of plans shared.
    """
    return get_plan_cache().adopt(child, parent)
