"""PASTA-style sparse tensor benchmark suite for CPUs and GPUs.

A reproduction of *"A Sparse Tensor Benchmark Suite for CPUs and GPUs"*
(IISWC 2020): five sparse tensor kernels (TEW, TS, TTV, TTM, MTTKRP) over
COO and HiCOO storage (plus sCOO/gHiCOO/sHiCOO variants), synthetic
tensor generators (stochastic Kronecker, biased power law), the Table II
dataset registry, execution models of the paper's four platforms, and
Roofline analysis — with a benchmark harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    import repro

    x = repro.kronecker_tensor((1024, 1024, 1024), 100_000, seed=7)
    v = repro.random_vector(x.shape[2], seed=1)
    y = repro.ttv_coo(x, v, mode=2)

    h = repro.HicooTensor.from_coo(x)
    est = repro.predict("dgx1v", repro.make_schedule("HiCOO-MTTKRP-GPU", x))
    print(est.gflops)
"""

from __future__ import annotations

import numpy as _np

from importlib import import_module as _import_module

from . import (
    apps,
    core,
    datasets,
    formats,
    generators,
    io,
    machine,
    perf,
    platforms,
    roofline,
)
from .apps import cp_als, orthogonal_decomposition, power_iteration
from .core import (
    DEFAULT_RANK,
    KERNELS,
    KernelSchedule,
    all_algorithm_names,
    dense_mttkrp,
    dense_ttm,
    dense_ttv,
    khatri_rao,
    kernel_cost,
    make_operands,
    make_schedule,
    mttkrp_coo,
    mttkrp_hicoo,
    run_algorithm,
    table1,
    tew_coo,
    tew_general_coo,
    tew_hicoo,
    ts,
    ttm_coo,
    ttm_hicoo,
    ttv_coo,
    ttv_hicoo,
)
from .datasets import DatasetSpec, get_dataset, realize, table2
from .errors import (
    DatasetError,
    FormatParameterError,
    IncompatibleOperandsError,
    ModeError,
    PastaError,
    PlatformError,
    TensorShapeError,
)
from .formats import (
    CooTensor,
    GHicooTensor,
    HicooTensor,
    SemiSparseCooTensor,
    SHicooTensor,
    convert,
    to_coo,
    to_hicoo,
)
from .generators import kronecker_tensor, lift_tensor, powerlaw_tensor
from .perf import TuneConfig, TuningReport, last_tuning_report, mttkrp, ttm, ttv, tune
from .io import loads_tns, read_tns, write_tns
from .machine import ExecutionEstimate, execution_model, predict
from .platforms import PlatformSpec, all_platforms, get_platform, run_ert, table3
from .roofline import RooflineModel

__version__ = "1.0.0"

#: Names loaded on first access (PEP 562): the benchmark harness and the
#: serving tier pull in the experiment registry, asyncio and http.client,
#: which the kernels and apps never need.  Maps a name to its subpackage
#: and the attribute of it (``None`` for the subpackage itself).
_LAZY = {
    "bench": ("bench", None),
    "serving": ("serving", None),
    "BenchmarkHarness": ("bench", "BenchmarkHarness"),
    "BenchResult": ("bench", "BenchResult"),
    "run_experiment": ("bench", "run_experiment"),
}


def __getattr__(name: str):
    try:
        package, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _import_module(f"{__name__}.{package}")
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def random_vector(size: int, seed: int = 0) -> _np.ndarray:
    """A reproducible dense float32 vector in ``[0.5, 1.5)``."""
    rng = _np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, size=size).astype(_np.float32)


def random_matrix(rows: int, cols: int = DEFAULT_RANK, seed: int = 0) -> _np.ndarray:
    """A reproducible dense float32 matrix in ``[0.5, 1.5)``."""
    rng = _np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, size=(rows, cols)).astype(_np.float32)


__all__ = [
    "__version__",
    # subpackages
    "formats", "core", "machine", "platforms", "roofline",
    "generators", "datasets", "io", "bench", "apps", "perf",
    # apps
    "cp_als", "power_iteration", "orthogonal_decomposition",
    # formats
    "CooTensor", "SemiSparseCooTensor", "HicooTensor", "GHicooTensor",
    "SHicooTensor", "convert", "to_coo", "to_hicoo",
    # kernels
    "KERNELS", "DEFAULT_RANK", "tew_coo", "tew_hicoo", "tew_general_coo",
    "ts", "ttv_coo", "ttv_hicoo", "ttm_coo", "ttm_hicoo", "mttkrp_coo",
    "mttkrp_hicoo", "dense_ttv", "dense_ttm", "dense_mttkrp", "khatri_rao",
    "kernel_cost", "table1", "KernelSchedule", "make_schedule",
    "make_operands", "run_algorithm", "all_algorithm_names",
    # machine/platforms/roofline
    "predict", "execution_model", "ExecutionEstimate", "PlatformSpec",
    "get_platform", "all_platforms", "run_ert", "table3", "RooflineModel",
    # generators/datasets/io
    "kronecker_tensor", "powerlaw_tensor", "lift_tensor", "DatasetSpec",
    "get_dataset", "realize", "table2", "read_tns", "write_tns", "loads_tns",
    # bench
    "BenchmarkHarness", "BenchResult", "run_experiment",
    # autotuned dispatch
    "mttkrp", "ttv", "ttm", "tune", "TuneConfig", "TuningReport",
    "last_tuning_report",
    # helpers
    "random_vector", "random_matrix",
    # errors
    "PastaError", "TensorShapeError", "IncompatibleOperandsError",
    "FormatParameterError", "ModeError", "DatasetError", "PlatformError",
]
