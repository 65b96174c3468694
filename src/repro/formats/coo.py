"""Coordinate (COO) format for arbitrary-order sparse tensors.

COO is the suite's baseline mode-generic format (paper Section III-A): one
index array per mode plus one value array, with no ordering requirement.
We store indices as an ``int32`` matrix of shape ``(order, nnz)`` and values
as ``float32``, matching the paper's storage accounting of
``4 * (N + 1) * M`` bytes for an ``N``-order tensor with ``M`` nonzeros.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModeError, TensorShapeError
from .modes import ModeValidationMixin
from .morton import morton_sort_order

INDEX_DTYPE = np.int32
VALUE_DTYPE = np.float32


def _as_index_matrix(indices: np.ndarray) -> np.ndarray:
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise TensorShapeError(
            f"indices must have shape (order, nnz), got ndim={indices.ndim}"
        )
    if (
        indices.size
        and np.issubdtype(indices.dtype, np.integer)
        and indices.dtype.itemsize > np.dtype(INDEX_DTYPE).itemsize
    ):
        # A wider input cast to int32 wraps silently, and wrapped
        # coordinates can still pass the per-mode bounds check — fail
        # loudly instead of storing a valid-looking wrong tensor.
        limit = np.iinfo(INDEX_DTYPE)
        lo = indices.min(axis=1).min()
        hi = indices.max(axis=1).max()
        if lo < limit.min or hi > limit.max:
            raise TensorShapeError(
                f"coordinate {int(hi if hi > limit.max else lo)} does not "
                f"fit the {np.dtype(INDEX_DTYPE).name} index storage "
                f"(range [{limit.min}, {limit.max}])"
            )
    return np.ascontiguousarray(indices, dtype=INDEX_DTYPE)


class CooTensor(ModeValidationMixin):
    """An arbitrary-order sparse tensor in coordinate format.

    Parameters
    ----------
    shape:
        Dimension sizes, one per mode.
    indices:
        Integer array of shape ``(order, nnz)``; ``indices[m, x]`` is the
        mode-``m`` coordinate of nonzero ``x``.
    values:
        Array of ``nnz`` nonzero values (stored as ``float32``).
    validate:
        When true (the default), check index bounds and array consistency.
    """

    __slots__ = ("shape", "indices", "values", "__weakref__")

    def __init__(
        self,
        shape: Sequence[int],
        indices: np.ndarray,
        values: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.indices = _as_index_matrix(indices)
        self.values = np.ascontiguousarray(values, dtype=VALUE_DTYPE)
        if validate:
            self._validate()

    def _validate(self) -> None:
        if len(self.shape) == 0:
            raise TensorShapeError("tensor must have at least one mode")
        if any(s <= 0 for s in self.shape):
            raise TensorShapeError(f"all dimensions must be positive, got {self.shape}")
        order, nnz = self.indices.shape
        if order != len(self.shape):
            raise TensorShapeError(
                f"indices have {order} modes but shape has {len(self.shape)}"
            )
        if self.values.ndim != 1 or self.values.shape[0] != nnz:
            raise TensorShapeError(
                f"values must be a vector of length {nnz}, got shape {self.values.shape}"
            )
        for mode, size in enumerate(self.shape):
            column = self.indices[mode]
            if column.size and (column.min() < 0 or column.max() >= size):
                raise TensorShapeError(
                    f"mode-{mode} indices out of range [0, {size})"
                )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of modes (dimensions)."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored nonzero entries."""
        return int(self.indices.shape[1])

    @property
    def density(self) -> float:
        """Fraction of possible positions that hold a stored nonzero."""
        total = 1.0
        for s in self.shape:
            total *= float(s)
        return self.nnz / total if total else 0.0

    def storage_bytes(self) -> int:
        """Bytes for COO storage: ``4 * (order + 1) * nnz`` (paper III-A)."""
        return self.indices.nbytes + self.values.nbytes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CooTensor":
        """Build a COO tensor from a dense numpy array (zeros dropped)."""
        array = np.asarray(array)
        coords = np.nonzero(array)
        indices = np.vstack([c.astype(INDEX_DTYPE) for c in coords])
        return cls(array.shape, indices, array[coords])

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "CooTensor":
        """An all-zero tensor of the given shape."""
        order = len(shape)
        return cls(
            shape,
            np.empty((order, 0), dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
        )

    @classmethod
    def random(
        cls,
        shape: Sequence[int],
        nnz: int,
        *,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "CooTensor":
        """A random sparse tensor with ``nnz`` distinct uniform positions.

        Values are drawn uniformly from ``[0.5, 1.5)`` so element-wise
        division never sees a zero operand.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        shape = tuple(int(s) for s in shape)
        capacity = 1
        for s in shape:
            capacity *= s
        if nnz > capacity:
            raise TensorShapeError(
                f"cannot place {nnz} distinct nonzeros in a tensor of {capacity} cells"
            )
        indices = _sample_distinct_positions(shape, nnz, rng)
        values = rng.uniform(0.5, 1.5, size=nnz).astype(VALUE_DTYPE)
        return cls(shape, indices, values).sorted_lexicographic()

    # ------------------------------------------------------------------
    # Conversions and rearrangement
    # ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (duplicates are summed)."""
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, tuple(self.indices), self.values.astype(np.float64))
        return out.astype(VALUE_DTYPE)

    def copy(self) -> "CooTensor":
        """A deep copy of the tensor."""
        return CooTensor(
            self.shape, self.indices.copy(), self.values.copy(), validate=False
        )

    def permute_modes(self, mode_order: Sequence[int]) -> "CooTensor":
        """Reorder the tensor's modes (a generalized transpose)."""
        perm = [self.check_mode(m) for m in mode_order]
        if sorted(perm) != list(range(self.order)):
            raise ModeError(f"{mode_order} is not a permutation of the modes")
        shape = tuple(self.shape[m] for m in perm)
        return CooTensor(shape, self.indices[perm], self.values, validate=False)

    def lexicographic_order(
        self, mode_order: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Permutation sorting nonzeros lexicographically by mode order.

        The first mode in ``mode_order`` is the most significant sort key.
        """
        if mode_order is None:
            mode_order = range(self.order)
        keys = [self.indices[self.check_mode(m)] for m in mode_order]
        # numpy.lexsort treats the *last* key as primary, so reverse.
        return np.lexsort(tuple(reversed(keys)))

    def sorted_lexicographic(
        self, mode_order: Optional[Sequence[int]] = None
    ) -> "CooTensor":
        """A copy with nonzeros sorted lexicographically by mode order."""
        perm = self.lexicographic_order(mode_order)
        return CooTensor(
            self.shape, self.indices[:, perm], self.values[perm], validate=False
        )

    def sorted_morton(self, block_size: int = 1) -> "CooTensor":
        """A copy sorted along the Z-curve of ``index // block_size``.

        With ``block_size == 1`` this is plain Morton order of the element
        coordinates; larger block sizes order whole blocks along the curve
        while keeping each block's elements contiguous, which is the
        nonzero order HiCOO stores.
        """
        if block_size < 1:
            raise TensorShapeError(f"block_size must be >= 1, got {block_size}")
        block_coords = self.indices.astype(np.int64) // block_size
        perm = morton_sort_order(block_coords)
        return CooTensor(
            self.shape, self.indices[:, perm], self.values[perm], validate=False
        )

    def sum_duplicates(self) -> "CooTensor":
        """Combine duplicate coordinates by summing their values."""
        if self.nnz == 0:
            return self.copy()
        ordered = self.sorted_lexicographic()
        same_as_prev = np.all(
            ordered.indices[:, 1:] == ordered.indices[:, :-1], axis=0
        )
        group_starts = np.flatnonzero(~np.concatenate(([False], same_as_prev)))
        summed = np.add.reduceat(ordered.values.astype(np.float64), group_starts)
        return CooTensor(
            self.shape,
            ordered.indices[:, group_starts],
            summed.astype(VALUE_DTYPE),
            validate=False,
        )

    # ------------------------------------------------------------------
    # Fibers
    # ------------------------------------------------------------------

    def fiber_partition(self, mode: int) -> Tuple["CooTensor", np.ndarray]:
        """Group nonzeros into mode-``mode`` fibers.

        A mode-``n`` fiber is the set of nonzeros sharing every index
        except the mode-``n`` one.  Returns ``(sorted_tensor, fptr)`` where
        ``sorted_tensor`` has each fiber contiguous (product mode varying
        fastest) and ``fptr`` of length ``num_fibers + 1`` gives fiber
        start offsets.  This is the pre-processing step of the paper's
        TTV/TTM algorithms (Algorithm 1, line 1).
        """
        from ..perf.plans import fiber_plan

        plan = fiber_plan(self, self.check_mode(mode))
        return plan.ordered_tensor(self), plan.fptr

    def num_fibers(self, mode: int) -> int:
        """Number of nonempty mode-``mode`` fibers (``M_F`` in Table I)."""
        from ..perf.plans import fiber_fptr

        return len(fiber_fptr(self, self.check_mode(mode))) - 1

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------

    def pattern_equals(self, other: "CooTensor") -> bool:
        """Whether two tensors have identical shape and coordinate lists.

        Order of the stored nonzeros is ignored; duplicates are not
        combined first.
        """
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        mine = self.sorted_lexicographic().indices
        theirs = other.sorted_lexicographic().indices
        return bool(np.array_equal(mine, theirs))

    def allclose(self, other: "CooTensor", *, rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        """Numeric equality modulo nonzero ordering and explicit zeros."""
        if self.shape != other.shape:
            return False
        a = self.sum_duplicates().sorted_lexicographic()
        b = other.sum_duplicates().sorted_lexicographic()
        if not np.array_equal(a.indices, b.indices):
            # Fall back to dense comparison so explicit zeros don't matter.
            return bool(
                np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol)
            )
        return bool(np.allclose(a.values, b.values, rtol=rtol, atol=atol))

    def __repr__(self) -> str:
        return (
            f"CooTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )


def _sample_distinct_positions(
    shape: Tuple[int, ...], nnz: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``nnz`` distinct coordinates uniformly from the index space."""
    order = len(shape)
    if nnz == 0:
        return np.empty((order, 0), dtype=INDEX_DTYPE)
    capacity = 1
    for s in shape:
        capacity *= s
    if capacity <= 2**62:
        # Sample linear offsets without replacement, then unravel.
        dense_enough = nnz > capacity // 2
        if dense_enough:
            flat = rng.permutation(capacity)[:nnz]
        else:
            flat = _sample_distinct_integers(capacity, nnz, rng)
        coords = np.unravel_index(flat, shape)
        return np.vstack([c.astype(INDEX_DTYPE) for c in coords])
    # Astronomically large index space: collisions are impossible in practice.
    columns = [rng.integers(0, s, size=nnz, dtype=np.int64) for s in shape]
    return np.vstack(columns).astype(INDEX_DTYPE)


def _sample_distinct_integers(
    capacity: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Rejection-sample ``count`` distinct integers in ``[0, capacity)``."""
    chosen: np.ndarray = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        need = count - chosen.size
        batch = rng.integers(0, capacity, size=2 * need + 16, dtype=np.int64)
        chosen = np.unique(np.concatenate([chosen, batch]))
    return rng.permutation(chosen)[:count]


def concatenate_tensors(tensors: Iterable[CooTensor]) -> CooTensor:
    """Stack the nonzeros of same-shape tensors into one COO tensor."""
    tensors = list(tensors)
    if not tensors:
        raise TensorShapeError("need at least one tensor to concatenate")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise TensorShapeError("all tensors must share a shape")
    indices = np.concatenate([t.indices for t in tensors], axis=1)
    values = np.concatenate([t.values for t in tensors])
    return CooTensor(shape, indices, values, validate=False)
