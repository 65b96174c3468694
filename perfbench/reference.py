"""Float64 numpy references and the comparisons that check every unit.

Nothing here calls ``repro`` kernels: the references recompute each
result from the input's coordinates and values in float64, so a wrong
kernel cannot agree with its own oracle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: CP-ALS: the fit of every sweep must match the float64 solve within
#: this absolute tolerance (the kernels multiply float32 factors).
FIT_ATOL = 1e-4

#: Suite outputs: identical coordinates, values within ``RTOL`` relative
#: plus ``ATOL_SCALE`` times the largest reference magnitude.
RTOL = 1e-4
ATOL_SCALE = 1e-6

_CHUNK = 1 << 17


def _linear(indices: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    return np.ravel_multi_index(
        tuple(np.asarray(row, dtype=np.int64) for row in indices), tuple(shape)
    )


def mttkrp64(indices, values, shape, factors, mode: int) -> np.ndarray:
    """Dense float64 MTTKRP, chunked so temporaries stay small."""
    rank = factors[0].shape[1]
    out = np.zeros((shape[mode], rank), dtype=np.float64)
    others = [m for m in range(len(shape)) if m != mode]
    for e0 in range(0, values.shape[0], _CHUNK):
        e1 = min(e0 + _CHUNK, values.shape[0])
        rows = values[e0:e1, None].astype(np.float64)
        for m in others:
            rows = rows * factors[m][indices[m, e0:e1]]
        target = indices[mode, e0:e1]
        for r in range(rank):
            out[:, r] += np.bincount(target, weights=rows[:, r], minlength=shape[mode])
    return out


def cp_als_fits(indices, values, shape, rank: int, sweeps: int, seed: int) -> List[float]:
    """Per-sweep fits of CP-ALS in float64 from ``cp_als``'s initial factors."""
    rng = np.random.default_rng(seed)
    factors = [rng.uniform(0.1, 1.0, size=(s, rank)) for s in shape]
    values = np.asarray(values, dtype=np.float64)
    norm_x = float(np.sqrt(np.dot(values, values)))
    last = len(shape) - 1
    fits = []
    for _ in range(sweeps):
        for mode in range(len(shape)):
            m_new = mttkrp64(indices, values, shape, factors, mode)
            gram = np.ones((rank, rank))
            for m, f in enumerate(factors):
                if m != mode:
                    gram *= f.T @ f
            factors[mode] = m_new @ np.linalg.pinv(gram)
        inner = float(np.sum(m_new * factors[last]))
        v = np.ones((rank, rank))
        for f in factors:
            v *= f.T @ f
        model_sq = float(np.ones(rank) @ v @ np.ones(rank))
        residual = max(norm_x**2 - 2 * inner + model_sq, 0.0)
        fits.append(1.0 - np.sqrt(residual) / norm_x)
    return fits


def check_fits(got: Sequence[float], ref: Sequence[float]) -> bool:
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= FIT_ATOL))


# ----------------------------------------------------------------------
# Paper suite
# ----------------------------------------------------------------------

Canonical = Tuple[str, np.ndarray, np.ndarray]


def _sorted(kind: str, keys: np.ndarray, values: np.ndarray) -> Canonical:
    if keys.size > 1 and not np.all(keys[1:] > keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
    return kind, keys, values


def canonical(out) -> Canonical:
    """``(kind, sorted keys, values)`` of any suite output."""
    from repro.formats import CooTensor, SemiSparseCooTensor, SHicooTensor, to_coo

    if isinstance(out, np.ndarray):
        return "dense", np.zeros(0, dtype=np.int64), out
    if isinstance(out, SHicooTensor):
        out = out.to_scoo()
    if isinstance(out, SemiSparseCooTensor):
        sparse_shape = [out.shape[m] for m in out.sparse_modes]
        values = out.values.reshape(out.values.shape[0], -1)
        return _sorted("semi", _linear(out.indices, sparse_shape), values)
    coo = out if isinstance(out, CooTensor) else to_coo(out)
    return _sorted("sparse", _linear(coo.indices, coo.shape), coo.values)


def _grouped(keys: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    uniq, inverse = np.unique(keys, return_inverse=True)
    if rows.ndim == 1:
        return uniq, np.bincount(inverse, weights=rows, minlength=uniq.size)
    out = np.zeros((uniq.size, rows.shape[1]))
    for r in range(rows.shape[1]):
        out[:, r] = np.bincount(inverse, weights=rows[:, r], minlength=uniq.size)
    return uniq, out


def suite_reference(indices, values, shape, operands) -> Dict[Tuple[str, int], Canonical]:
    """Float64 canonical outputs keyed ``(kernel, mode)``."""
    values = np.asarray(values, dtype=np.float64)
    order = len(shape)
    ref: Dict[Tuple[str, int], Canonical] = {}
    keys = _linear(indices, shape)
    sort = np.argsort(keys, kind="stable")
    other = operands["tew_values"].astype(np.float64)
    ref[("TEW", 0)] = ("sparse", keys[sort], (values + other)[sort])
    ref[("TS", 0)] = ("sparse", keys[sort], (values * operands["scalar"])[sort])
    for mode in range(order):
        rest = [m for m in range(order) if m != mode]
        rest_keys = _linear(indices[rest], [shape[m] for m in rest])
        vec = operands["vectors"][mode].astype(np.float64)
        ref[("TTV", mode)] = ("sparse",) + _grouped(rest_keys, values * vec[indices[mode]])
        mat = operands["matrices"][mode].astype(np.float64)
        ref[("TTM", mode)] = ("semi",) + _grouped(rest_keys, values[:, None] * mat[indices[mode]])
        facs = [f.astype(np.float64) for f in operands["factors"]]
        ref[("MTTKRP", mode)] = ("dense", np.zeros(0, np.int64),
                                 mttkrp64(indices, values, shape, facs, mode))
    return ref


def matches(got: Canonical, ref: Canonical) -> bool:
    kind, keys, vals = got
    rkind, rkeys, rvals = ref
    if kind != rkind or keys.shape != rkeys.shape or not np.array_equal(keys, rkeys):
        return False
    if np.shape(vals) != np.shape(rvals):
        return False
    scale = float(np.max(np.abs(rvals))) if rvals.size else 0.0
    return bool(np.allclose(vals, rvals, rtol=RTOL, atol=ATOL_SCALE * max(scale, 1.0)))
