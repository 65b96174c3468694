"""Kernels over the CSF format (the paper's named future extension).

CSF-MTTKRP is SPLATT's bottom-up algorithm: leaf contributions are
reduced fiber-by-fiber up the tree, multiplying each level's factor rows
once *per node* instead of once per nonzero.  With long fibers this does
roughly ``2RM`` flops versus COO's ``3RM``, and — because the output row
is owned by the root node — needs **no atomics** when parallelized over
root subtrees.  CSF-TTV contracts the leaf mode by one segmented
reduction.

Both kernels want the target mode in a specific tree position (MTTKRP:
root; TTV: leaf).  Passing a COO tensor builds the right tree on the
fly; passing a :class:`CsfTensor` requires it to be rooted correctly,
mirroring CSF's mode-specific nature.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from ..errors import IncompatibleOperandsError, ModeError
from ..formats.coo import VALUE_DTYPE, CooTensor
from ..formats.csf import CsfTensor, csf_for_mode, csf_storage_bytes
from .mttkrp import check_factors
from .schedule import GRAIN_FIBER, KernelSchedule
from .ttv import _check_vector


def _csf_rooted_at(
    x: Union[CooTensor, CsfTensor], mode: int, *, root: bool
) -> CsfTensor:
    """Get a CSF tree with ``mode`` at the root (or at the leaf level)."""
    if isinstance(x, CsfTensor):
        expected = x.mode_order[0] if root else x.mode_order[-1]
        if expected != mode % x.order:
            position = "root" if root else "leaf"
            raise ModeError(
                f"CSF tree has mode order {x.mode_order}; mode {mode} must "
                f"be at the {position} for this kernel — rebuild with "
                f"CsfTensor.from_coo(..., mode_order=...)"
            )
        return x
    if root:
        return csf_for_mode(x, mode)
    mode = x.check_mode(mode)
    rest = [m for m in range(x.order) if m != mode]
    return CsfTensor.from_coo(x, rest + [mode])


def mttkrp_csf(
    x: Union[CooTensor, CsfTensor],
    factors: Sequence[np.ndarray],
    mode: int,
) -> np.ndarray:
    """CSF-MTTKRP (SPLATT): bottom-up fiber reduction, atomic-free.

    Returns the updated dense matrix ``out ∈ R^{I_mode × R}``.
    """
    tree = _csf_rooted_at(x, mode, root=True)
    factors = check_factors(tree.shape, factors)
    rank = factors[0].shape[1]
    # Factors reordered to tree levels; level 0 (root) is the output.
    level_factors = [factors[m] for m in tree.mode_order]
    buffer = (
        tree.values[:, None].astype(np.float64)
        * level_factors[-1][tree.fids[-1]]
    )
    for level in range(tree.order - 2, 0, -1):
        buffer = np.add.reduceat(buffer, tree.fptr[level][:-1], axis=0)
        buffer = buffer * level_factors[level][tree.fids[level]]
    if tree.order >= 2:
        buffer = np.add.reduceat(buffer, tree.fptr[0][:-1], axis=0)
    out = np.zeros((tree.shape[tree.root_mode], rank), dtype=np.float64)
    # Root ids are distinct by construction: plain scatter, no atomics.
    out[tree.fids[0]] = buffer
    return out.astype(VALUE_DTYPE)


def ttv_csf(
    x: Union[CooTensor, CsfTensor],
    vector: np.ndarray,
    mode: int,
) -> CooTensor:
    """CSF-TTV: contract the (leaf-positioned) product mode.

    One multiply per nonzero and one segmented reduction over the leaf
    pointers; the output's nonzeros are the level-``order-2`` nodes.
    """
    tree = _csf_rooted_at(x, mode, root=False)
    mode = mode % tree.order
    vector = _check_vector(tree.shape[mode], vector)
    if tree.order < 2:
        raise IncompatibleOperandsError("TTV needs an order >= 2 tensor")
    scaled = tree.values.astype(np.float64) * vector[tree.fids[-1]]
    sums = np.add.reduceat(scaled, tree.fptr[-1][:-1]) if tree.nnz else scaled
    retained_levels = tree.order - 1
    out_modes = tree.mode_order[:retained_levels]
    out_shape_full = [tree.shape[m] for m in range(tree.order) if m != mode]
    # Build output indices: each retained level expanded to the
    # level-(order-2) granularity.
    num_out = tree.fids[retained_levels - 1].shape[0]
    out_indices = np.empty((retained_levels, num_out), dtype=tree.fids[0].dtype)
    for level in range(retained_levels):
        expanded = tree.fids[level]
        for l in range(level, retained_levels - 1):
            expanded = np.repeat(expanded, np.diff(tree.fptr[l]))
        out_indices[level] = expanded
    # Reorder rows from tree-level order to ascending original modes.
    original = [m for m in range(tree.order) if m != mode]
    row_of_mode = {m: i for i, m in enumerate(out_modes)}
    reordered = np.vstack([out_indices[row_of_mode[m]] for m in original])
    return CooTensor(
        out_shape_full, reordered, sums.astype(VALUE_DTYPE), validate=False
    )


def _distinct_columns(indices: np.ndarray, dims: Sequence[int]) -> int:
    """Number of distinct columns of an ``(depth, nnz)`` index matrix.

    Folds one row at a time into a mixed-radix key and renumbers the keys
    after each row, so a key never exceeds ``nnz * max(dims)``.
    """
    keys = np.zeros(indices.shape[1], dtype=np.int64)
    for row, size in zip(indices, dims):
        keys = np.unique(keys * size + row, return_inverse=True)[1]
    return int(keys.max()) + 1 if keys.size else 0


def _csf_counts(x: CooTensor, mode: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Node counts per level and nonzeros per root of ``csf_for_mode(x, mode)``.

    Derived without building the tree.  The leaf mode's fiber plan (cached
    once the tensor's features are extracted) sorts the nonzeros by every
    mode, so a distinct coordinate starts wherever a fiber starts or the
    leaf index changes; that mask counts the leaves (duplicates collapse,
    as :meth:`CsfTensor.from_coo` sums them) and, through one ``bincount``
    of the root mode, the leaves under each root.  The level above the
    leaves holds one node per leaf-mode fiber; each level above that
    (order 4 and up) is one distinct-prefix count.
    """
    from ..perf.plans import fiber_plan

    mode = x.check_mode(mode)
    levels = [mode] + [m for m in range(x.order) if m != mode]
    leaf = levels[-1]
    plan = fiber_plan(x, leaf)
    leaf_index = plan.sorted_indices[leaf]
    distinct = np.zeros(x.nnz, dtype=bool)
    distinct[plan.fptr[:-1]] = True
    distinct[1:] |= leaf_index[1:] != leaf_index[:-1]
    per_root = np.bincount(
        plan.sorted_indices[mode][distinct], minlength=x.shape[mode]
    )
    work_units = per_root[per_root > 0]
    leaves = int(np.count_nonzero(distinct))
    if x.order == 1:
        return (leaves,), work_units
    prefixes = [
        _distinct_columns(
            x.indices[levels[:depth]], [x.shape[m] for m in levels[:depth]]
        )
        for depth in range(2, x.order - 1)
    ]
    fibers = [plan.num_fibers] if x.order >= 3 else []
    return (work_units.size, *prefixes, *fibers, leaves), work_units


def schedule_mttkrp_csf(
    x: Union[CooTensor, CsfTensor], mode: int, rank: int
) -> KernelSchedule:
    """Machine schedule of CSF-MTTKRP.

    Flops: ``R`` multiplies per leaf plus ``2R`` per internal node
    (multiply + parent add); factor rows are fetched once per *node*
    rather than per nonzero; no atomic updates (root subtrees own their
    output rows); fiber-grain work units are the root subtree sizes.
    A :class:`CsfTensor` supplies its counts directly; for a COO tensor
    they are derived from counts (:func:`_csf_counts`), so scheduling
    never builds the tree the kernel would.
    """
    if isinstance(x, CsfTensor):
        tree = _csf_rooted_at(x, mode, root=True)
        nodes = tree.nodes_per_level()
        work_units = tree.leaf_counts_per_root()
        streamed = tree.storage_bytes()
    else:
        nodes, work_units = _csf_counts(x, mode)
        streamed = csf_storage_bytes(x.order, nodes[-1], nodes)
    internal_nodes = sum(nodes[1:-1])
    flops = rank * (2 * nodes[-1] + 3 * internal_nodes + nodes[0])
    irregular = 4 * rank * (sum(nodes[1:]) + nodes[0])
    factor_bytes = 4 * rank * sum(x.shape)
    return KernelSchedule(
        kernel="MTTKRP",
        tensor_format="CSF",
        flops=flops,
        streamed_bytes=streamed,
        irregular_bytes=irregular,
        work_units=work_units,
        parallel_grain=GRAIN_FIBER,
        atomic_updates=0,
        working_set_bytes=streamed + factor_bytes,
        irregular_chunk_bytes=4 * rank,
        random_operand_bytes=factor_bytes,
        notes={
            "rank": float(rank),
            "internal_nodes": float(internal_nodes),
            "root_nodes": float(nodes[0]),
        },
    )
