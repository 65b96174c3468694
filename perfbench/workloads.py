"""The three closed-loop workloads: input, unit of work, reference, check.

A *unit* is one timed call.  Each workload runs in a single process that
issues its next unit only after the previous one returned, so the loop
is closed with one client.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

import reference

RANK = 16
#: ``max_sweeps`` of every CP-ALS unit (``tolerance=0`` runs them all).
SWEEPS = 1
BLOCK = 128
#: Out-of-core budget: well below the powerlaw input's 11 MB on disk.
OOC_BUDGET = "4M"


class CpAls:
    """CP-ALS on the seeded power-law tensor; in RAM (auto) or out of core."""

    spec = "powerlaw"

    def __init__(self, name: str, out_of_core: bool, env: Dict[str, str], why: str):
        self.name = name
        self.out_of_core = out_of_core
        self.env = env
        self.why = why

    def reference(self, tensor, seed: int) -> Dict[str, Any]:
        return {"fits": reference.cp_als_fits(
            tensor.indices, tensor.values, tensor.shape, RANK, SWEEPS, seed)}

    def flops_per_unit(self, tensor) -> int:
        from repro.core.analysis import kernel_cost

        per_mttkrp = kernel_cost("MTTKRP", tensor.nnz, rank=RANK).flops
        return len(tensor.shape) * per_mttkrp * SWEEPS

    def setup(self, path: str, seed: int) -> Dict[str, Any]:
        from repro.io.binfile import open_bin

        if self.out_of_core:
            return {"x": open_bin(path), "seed": seed}
        with open_bin(path) as mapped:
            return {"x": mapped.to_coo(), "seed": seed}

    def unit(self, state: Dict[str, Any]):
        import repro

        kwargs = {} if self.out_of_core else {"variant": "auto"}
        return repro.cp_als(state["x"], RANK, tolerance=0.0, max_sweeps=SWEEPS,
                            seed=state["seed"], **kwargs)

    def check(self, state, result, ref) -> bool:
        return reference.check_fits(result.fits, ref["fits"])

    def describe(self, state) -> Dict[str, Any]:
        """Chosen ``TuneConfig`` and Table I MTTKRP bytes, per mode."""
        from repro.core.analysis import kernel_cost
        from repro.perf.dispatch import resolve_config
        from repro.perf.plans import hicoo_for

        x = state["x"]
        if self.out_of_core:
            cost = kernel_cost("MTTKRP", x.nnz, rank=RANK)
            return {"configs": [], "mttkrp_bytes": [cost.coo_bytes] * len(x.shape)}
        configs, moved = [], []
        for mode in range(len(x.shape)):
            cfg = resolve_config(x, "MTTKRP", variant="auto", mode=mode,
                                 rank=RANK, seed=state["seed"])
            configs.append(dict(cfg.to_dict(), label=cfg.label()))
            if cfg.variant.startswith("hicoo"):
                h = hicoo_for(x, cfg.block_size or BLOCK)
                moved.append(kernel_cost("MTTKRP", x.nnz, rank=RANK,
                                         num_blocks=h.num_blocks,
                                         block_size=h.block_size).hicoo_bytes)
            else:
                moved.append(kernel_cost("MTTKRP", x.nnz, rank=RANK).coo_bytes)
        return {"configs": configs, "mttkrp_bytes": moved}


#: The paper's ten CPU algorithms, in Table I order per format.
SUITE_KERNELS = ("TEW", "TS", "TTV", "TTM", "MTTKRP")
MODE_KERNELS = ("TTV", "TTM", "MTTKRP")


def suite_operands(shape, nnz: int, seed: int) -> Dict[str, Any]:
    """Dense operands of every suite call, drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    return {
        "tew_values": rng.uniform(0.5, 1.5, size=nnz).astype(np.float32),
        "scalar": float(rng.uniform(0.5, 1.5)),
        "vectors": [rng.uniform(0.5, 1.5, size=s).astype(np.float32) for s in shape],
        "matrices": [rng.uniform(0.5, 1.5, size=(s, RANK)).astype(np.float32) for s in shape],
        "factors": [rng.uniform(0.5, 1.5, size=(s, RANK)).astype(np.float32) for s in shape],
    }


class Suite:
    """One pass over {COO,HiCOO}-{TEW,TS,TTV,TTM,MTTKRP}-OMP, all modes."""

    spec = "kronecker"

    def __init__(self, name: str, env: Dict[str, str], why: str):
        self.name = name
        self.env = env
        self.why = why

    def calls(self, order: int) -> List[tuple]:
        return [(fmt, kernel, mode)
                for fmt in ("COO", "HiCOO")
                for kernel in SUITE_KERNELS
                for mode in (range(order) if kernel in MODE_KERNELS else (0,))]

    def reference(self, tensor, seed: int):
        ops = suite_operands(tensor.shape, tensor.nnz, seed)
        return reference.suite_reference(tensor.indices, tensor.values, tensor.shape, ops)

    def flops_per_unit(self, tensor) -> int:
        from repro.core.analysis import kernel_cost

        total = 0
        for _, kernel, mode in self.calls(len(tensor.shape)):
            rest = [m for m in range(len(tensor.shape)) if m != mode]
            fibers = np.unique(np.ravel_multi_index(
                tuple(tensor.indices[rest].astype(np.int64)),
                tuple(tensor.shape[m] for m in rest))).size
            total += kernel_cost(kernel, tensor.nnz, num_fibers=fibers, rank=RANK).flops
        return total

    def setup(self, path: str, seed: int) -> Dict[str, Any]:
        from repro.core.registry import KernelOperands
        from repro.formats import CooTensor, HicooTensor
        from repro.io.binfile import open_bin

        with open_bin(path) as mapped:
            x = mapped.to_coo()
        hicoo = HicooTensor.from_coo(x, BLOCK)
        ops = suite_operands(x.shape, x.nnz, seed)
        operands = {
            ("TEW", 0): KernelOperands(second_tensor=CooTensor(
                x.shape, x.indices, ops["tew_values"], validate=False)),
            ("TS", 0): KernelOperands(scalar=ops["scalar"]),
        }
        for mode in range(x.order):
            operands[("TTV", mode)] = KernelOperands(vector=ops["vectors"][mode])
            operands[("TTM", mode)] = KernelOperands(matrix=ops["matrices"][mode])
            operands[("MTTKRP", mode)] = KernelOperands(factors=tuple(ops["factors"]))
        return {"x": x, "hicoo": hicoo, "operands": operands, "calls": self.calls(x.order)}

    def unit(self, state: Dict[str, Any]):
        from repro.core.registry import run_algorithm

        x, hicoo, operands = state["x"], state["hicoo"], state["operands"]
        return [
            ((kernel, mode), run_algorithm(f"{fmt}-{kernel}-OMP", x, operands[(kernel, mode)],
                                           mode=mode, rank=RANK, block_size=BLOCK, hicoo=hicoo))
            for fmt, kernel, mode in state["calls"]
        ]

    def check(self, state, result, ref) -> bool:
        return all(reference.matches(reference.canonical(out), ref[key]) for key, out in result)

    def describe(self, state) -> Dict[str, Any]:
        return {"configs": [], "mttkrp_bytes": [0] * state["x"].order}


#: One kernel thread and one BLAS thread: numpy's BLAS would otherwise
#: spread the dense ALS math over every core.
_ONE_THREAD = {"REPRO_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    w.name: w
    for w in (
        CpAls("cpals_powerlaw", False, {},
              "the call users make: autotuned CP-ALS on a skewed in-RAM tensor; "
              "compiled MTTKRP and dense ALS math, tuning and compiles in setup"),
        Suite("suite_kronecker", dict(_ONE_THREAD),
              "the paper's own benchmark: ten COO/HiCOO CPU algorithms on a "
              "near-uniform Kronecker tensor through the numpy core kernels"),
        CpAls("cpals_ooc", True, dict(_ONE_THREAD, REPRO_OOC_BUDGET=OOC_BUDGET),
              "the same CP-ALS streamed from the REPROBIN file under a small "
              "budget: io.binfile, perf.ooc and the numpy COO MTTKRP"),
    )
}
