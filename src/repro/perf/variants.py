"""The kernel × variant table: which implementation runs each pair.

One :class:`Row` per (kernel, variant) pair the suite implements.  The
executor (:func:`repro.perf.dispatch.run_config`), the suite registry
(:func:`repro.core.registry.run_algorithm`), the autotuner's candidate
space, serving admission and fusion, and the conformance matrix all
read this table; none of them lists the pairs again.

Implementations are named as ``(module, attribute)`` and looked up when
they are called, never captured at import: a rebinding of the module
attribute (a tracer, a test's monkeypatch) is seen by every caller, and
the ``repro.core`` modules, which import ``repro.perf.parallel``, load
only when a kernel first runs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import PastaError
from ..formats.coo import CooTensor
from ..formats.hicoo import HicooTensor
from .plans import hicoo_for

#: Kernels that contract one mode, and so take a ``mode`` argument.
MODE_KERNELS = ("TTV", "TTM", "MTTKRP")

#: Downgrade target of each compiled variant when the JIT declines (no
#: compiler, ``REPRO_JIT=0``, unsupported specialization), so cached
#: tuning decisions stay runnable on a host without a compiler.
JIT_FALLBACK = {"coo_jit": "coo", "hicoo_jit": "hicoo"}

#: How each :class:`~repro.core.registry.KernelOperands` field is named
#: when it is missing.
_OPERAND_NAMES = {
    "second_tensor": "a second tensor",
    "scalar": "a scalar",
    "vector": "a vector operand",
    "matrix": "a matrix operand",
    "factors": "factor matrices",
}

#: Values of :attr:`Row.takes`: the tensor argument in COO; in HiCOO
#: (tensor operands converted too); or in COO plus ``block_size=``.
COO, HICOO, COO_BLOCKED = "coo", "hicoo", "coo+block"


@dataclass(frozen=True)
class Row:
    """One implemented (kernel, variant) pair."""

    kernel: str
    variant: str
    impl: Tuple[str, str]  # (module, function)
    operand: str  # the KernelOperands field the kernel reads
    takes: str = COO
    #: Consumes its dense operand column by column, so serving may fuse
    #: requests by concatenating their columns.
    separable: bool = False
    #: Out-of-core implementation over an mmap-backed tensor (coo rows).
    ooc: Optional[Tuple[str, str]] = None
    #: Has a shared-memory execution path (CSF tree walks do not).
    threaded: bool = True

    @property
    def blocked(self) -> bool:
        """Whether the variant is parameterized by a HiCOO block size."""
        return self.takes != COO

    @property
    def compiled(self) -> bool:
        return self.variant in JIT_FALLBACK

    def operand_of(self, operands: Any) -> Any:
        value = getattr(operands, self.operand)
        if value is None:
            raise PastaError(
                f"{self.kernel} needs {_OPERAND_NAMES[self.operand]}"
            )
        return value

    def run(
        self,
        x: Any,
        operands: Any,
        mode: int,
        block_size: int,
        hicoo: Optional[HicooTensor] = None,
    ) -> Any:
        """Call the implementation on COO ``x``.

        Rows that take HiCOO run on ``hicoo`` (``x`` already in HiCOO,
        when the caller has it) if its block size is ``block_size``; any
        other HiCOO form, tensor operands' included, is the memoized
        :func:`~repro.perf.plans.hicoo_for` conversion.  A compiled row
        returns ``None`` when the JIT declines.
        """
        operand = self.operand_of(operands)
        if self.takes == HICOO:
            if hicoo is None or hicoo.block_size != block_size:
                hicoo = hicoo_for(x, block_size)
            x = hicoo
            if isinstance(operand, CooTensor):
                operand = hicoo_for(operand, block_size)
        args = (x, operand, mode) if self.kernel in MODE_KERNELS else (x, operand)
        if self.takes == COO_BLOCKED:
            return _resolve(self.impl)(*args, block_size=block_size)
        return _resolve(self.impl)(*args)

    def run_ooc(self, x: Any, operands: Any, mode: int) -> Any:
        """Call the out-of-core implementation on an mmap-backed tensor."""
        return _resolve(self.ooc)(x, self.operand_of(operands), mode)


def _resolve(impl: Tuple[str, str]) -> Callable:
    module, name = impl
    return getattr(importlib.import_module(module), name)


def _rows(*rows: Row) -> Dict[Tuple[str, str], Row]:
    return {(row.kernel, row.variant): row for row in rows}


_CORE = "repro.core."
_JIT = "repro.perf.jit"
_OOC = "repro.perf.ooc"

#: Every implemented pair, keyed by (kernel, variant).  Per kernel, rows
#: are in the order the autotuner enumerates candidates (its tie-break).
#: The compiled rows take their thread count from the config (more than
#: one thread runs the body inside a C thread team); ``hicoo_jit`` is the
#: literal blocked Algorithm 3 loop nest, which exists for MTTKRP only.
TABLE: Dict[Tuple[str, str], Row] = _rows(
    Row("TEW", "coo", (_CORE + "tew", "tew_coo"), "second_tensor"),
    Row("TEW", "hicoo", (_CORE + "tew", "tew_hicoo"), "second_tensor", HICOO),
    Row("TS", "coo", (_CORE + "ts", "ts"), "scalar"),
    Row("TS", "hicoo", (_CORE + "ts", "ts"), "scalar", HICOO),
    Row("TTV", "coo", (_CORE + "ttv", "ttv_coo"), "vector", ooc=(_OOC, "ttv")),
    Row("TTV", "hicoo", (_CORE + "ttv", "ttv_hicoo"), "vector", COO_BLOCKED),
    Row("TTV", "csf", (_CORE + "csf_kernels", "ttv_csf"), "vector", threaded=False),
    Row("TTV", "coo_jit", (_JIT, "ttv_coo"), "vector"),
    Row("TTM", "coo", (_CORE + "ttm", "ttm_coo"), "matrix", separable=True,
        ooc=(_OOC, "ttm")),
    Row("TTM", "hicoo", (_CORE + "ttm", "ttm_hicoo"), "matrix", COO_BLOCKED,
        separable=True),
    Row("TTM", "coo_jit", (_JIT, "ttm_coo"), "matrix"),
    Row("MTTKRP", "coo", (_CORE + "mttkrp", "mttkrp_coo"), "factors",
        separable=True, ooc=(_OOC, "mttkrp")),
    Row("MTTKRP", "hicoo", (_CORE + "mttkrp", "mttkrp_hicoo"), "factors", HICOO,
        separable=True),
    Row("MTTKRP", "csf", (_CORE + "csf_kernels", "mttkrp_csf"), "factors",
        threaded=False),
    Row("MTTKRP", "coo_jit", (_JIT, "mttkrp_coo"), "factors"),
    Row("MTTKRP", "hicoo_jit", (_JIT, "mttkrp_hicoo"), "factors", HICOO),
)


def rows_of(kernel: str) -> List[Row]:
    """The rows of ``kernel``, in table order."""
    return [row for (k, _), row in TABLE.items() if k == kernel]


def lookup(kernel: str, variant: str) -> Row:
    """The row of (kernel, variant); :class:`PastaError` if none."""
    row = TABLE.get((kernel, variant))
    if row is not None:
        return row
    kernels = tuple(dict.fromkeys(k for k, _ in TABLE))
    if kernel not in kernels:
        raise PastaError(f"unknown kernel {kernel!r}; use one of {kernels}")
    raise PastaError(f"kernel {kernel!r} has no {variant} implementation")
