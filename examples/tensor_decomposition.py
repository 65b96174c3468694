#!/usr/bin/env python3
"""Tensor decomposition workloads: CP-ALS (MTTKRP) and the power method (TTV).

The paper motivates MTTKRP as the dominant kernel of CANDECOMP/PARAFAC
decomposition and TTV as the core of the tensor power method
(Sections II-C and II-E).  This example runs both tensor methods on top
of the suite's sparse kernels:

* CP-ALS factorizes an exactly low-rank sparse tensor and reports the
  fit trace, once through COO-MTTKRP and once through HiCOO-MTTKRP;
* the tensor power method recovers the components of an orthogonally
  decomposable symmetric tensor via repeated sparse TTV.

Run:  python examples/tensor_decomposition.py
"""

import numpy as np

from repro.apps import (
    cp_als,
    hooi,
    hosvd,
    orthogonal_decomposition,
    random_low_rank_tensor,
    symmetric_tensor_from_components,
)
from repro.formats import CooTensor


def run_cpd() -> None:
    print("=== CP-ALS on an exactly rank-5 sparse tensor ===")
    x = random_low_rank_tensor((200, 150, 120), rank=5, support=8, seed=42)
    print(f"input: {x}")

    for variant, label in (("coo", "COO-MTTKRP"), ("hicoo", "HiCOO-MTTKRP")):
        result = cp_als(
            x, rank=5, max_sweeps=200, tolerance=1e-9, seed=0,
            variant=variant, block_size=128,
        )
        trace = " -> ".join(f"{f:.4f}" for f in result.fits[:5])
        print(
            f"{label:13s}: fit {result.final_fit:.6f} after "
            f"{len(result.fits)} sweeps (first sweeps: {trace} ...)"
        )
        print(f"{'':13s}  component weights: {np.sort(result.weights)[::-1].round(2)}")


def run_power_method() -> None:
    print("\n=== Tensor power method on an odeco symmetric tensor ===")
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(60, 4)))
    weights = np.array([9.0, 6.0, 3.5, 2.0])
    tensor = symmetric_tensor_from_components(weights, q[:, :4])
    print(f"input: {tensor} (4 orthogonal components, weights {weights})")

    components = orthogonal_decomposition(tensor, 4, seed=1)
    print(f"{'component':>9s} {'eigenvalue':>11s} {'overlap':>8s} {'iters':>6s}")
    for k, comp in enumerate(components):
        overlap = max(abs(comp.eigenvector @ q[:, j]) for j in range(4))
        print(
            f"{k:9d} {comp.eigenvalue:11.4f} {overlap:8.4f} "
            f"{comp.iterations:6d}"
        )
    recovered = sorted((abs(c.eigenvalue) for c in components), reverse=True)
    error = np.abs(np.array(recovered) - weights).max()
    print(f"max eigenvalue error vs ground truth: {error:.2e}")


def run_tucker() -> None:
    print("\n=== Tucker decomposition (TTM chains: HOSVD -> HOOI) ===")
    rng = np.random.default_rng(7)
    core = rng.normal(size=(4, 3, 3))
    dense = core
    for mode, size in enumerate((80, 60, 50)):
        u, _ = np.linalg.qr(rng.normal(size=(size, core.shape[mode])))
        dense = np.moveaxis(
            np.tensordot(dense, u, axes=([mode], [1])), -1, mode
        )
    tensor = CooTensor.from_dense(dense.astype(np.float32))
    print(f"input: {tensor} (exact multilinear rank (4, 3, 3))")

    init = hosvd(tensor, (4, 3, 3))
    print(f"HOSVD fit : {init.final_fit:.6f}")
    refined = hooi(tensor, (4, 3, 3), max_sweeps=10, initialization=init)
    print(f"HOOI fit  : {refined.final_fit:.6f} after {len(refined.fits)} sweeps")
    err = np.abs(refined.reconstruct_dense() - tensor.to_dense()).max()
    print(f"max reconstruction error: {err:.2e}")


if __name__ == "__main__":
    run_cpd()
    run_power_method()
    run_tucker()
