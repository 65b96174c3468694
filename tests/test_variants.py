"""The kernel × variant table and the entry points that read it."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.conformance.harness import _exact_mismatch
from repro.core.mttkrp import mttkrp_hicoo
from repro.core.registry import make_operands, run_algorithm
from repro.core.ttm import ttm_hicoo
from repro.core.ttv import ttv_hicoo
from repro.errors import PastaError
from repro.formats import CooTensor, HicooTensor
from repro.perf import dispatch, variants
from repro.serving.batching import KernelJob, _execute_one, _served
from repro.serving.registry import TensorRegistry

BLOCK = 8
RANK = 3
MODE = 1


@pytest.fixture(scope="module")
def tensor():
    return CooTensor.random((21, 17, 13), 400, seed=7)


def _suite_name(row):
    fmt = {"coo": "COO", "hicoo": "HiCOO"}.get(row.variant)
    return None if fmt is None else f"{fmt}-{row.kernel}-OMP"


@pytest.mark.parametrize("key", list(variants.TABLE), ids="-".join)
def test_every_entry_point_of_a_row_is_bit_identical(tensor, key):
    row = variants.TABLE[key]
    operands = make_operands(tensor, row.kernel, mode=MODE, rank=RANK, seed=3)
    config = dispatch.resolve_config(
        tensor, row.kernel, variant=row.variant, block_size=BLOCK
    )
    out = dispatch.run_config(tensor, row.kernel, config, operands, mode=MODE)
    others = {}
    name = _suite_name(row)
    if name is not None:
        others[name] = run_algorithm(
            name, tensor, operands, mode=MODE, block_size=BLOCK
        )
    if key in _served("ram"):
        entry = TensorRegistry().add_ram("t", tensor)
        job = KernelJob(
            entry=entry,
            kernel=row.kernel,
            mode=MODE,
            rank=RANK,
            seed=3,
            variant=row.variant,
            block_size=BLOCK if row.blocked else None,
        )
        others["serving"] = _execute_one(job)
    for label, other in others.items():
        assert _exact_mismatch(out, other, f"{key} via {label}") is None


def test_unknown_pairs_raise():
    with pytest.raises(PastaError, match="no csf implementation"):
        variants.lookup("TTM", "csf")
    with pytest.raises(PastaError, match="unknown kernel"):
        variants.lookup("FFT", "coo")


def test_implementations_resolve_at_call_time(tensor, monkeypatch):
    # A rebinding of the module attribute is what every caller sees.
    import importlib

    module = importlib.import_module("repro.core.ttv")
    calls = []
    original = module.ttv_coo

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "ttv_coo", spy)
    vector = np.ones(tensor.shape[0], dtype=np.float32)
    repro.ttv(tensor, vector, 0, variant="coo")
    run_algorithm("COO-TTV-OMP", tensor, mode=0)
    assert len(calls) == 2


class TestHicooInputKeepsItsBlockSize:
    """Explicit HiCOO dispatch returns what the direct call returns."""

    @pytest.fixture(scope="class")
    def hicoo(self, tensor):
        return HicooTensor.from_coo(tensor, 16)

    @pytest.mark.parametrize("variant", ["hicoo", "hicoo_jit"])
    def test_resolved_block_size(self, hicoo, variant):
        config = dispatch.resolve_config(hicoo, "MTTKRP", variant=variant)
        assert config.block_size == 16

    def test_mttkrp(self, tensor, hicoo):
        factors = make_operands(tensor, "MTTKRP", rank=RANK, seed=1).factors
        out = repro.mttkrp(hicoo, factors, 0, variant="hicoo")
        direct = mttkrp_hicoo(hicoo, factors, 0)
        assert _exact_mismatch(out, direct, "MTTKRP") is None

    def test_ttv(self, tensor, hicoo):
        vector = make_operands(tensor, "TTV", mode=0, seed=1).vector
        out = repro.ttv(hicoo, vector, 0, variant="hicoo")
        assert out.block_size == 16
        assert _exact_mismatch(out, ttv_hicoo(hicoo, vector, 0), "TTV") is None

    def test_ttm(self, tensor, hicoo):
        matrix = make_operands(tensor, "TTM", mode=0, rank=RANK, seed=1).matrix
        out = repro.ttm(hicoo, matrix, 0, variant="hicoo")
        assert out.block_size == 16
        assert _exact_mismatch(out, ttm_hicoo(hicoo, matrix, 0), "TTM") is None

    def test_explicit_block_size_still_wins(self, hicoo):
        config = dispatch.resolve_config(hicoo, "TTV", variant="hicoo", block_size=32)
        assert config.block_size == 32


class TestOneHicooConversionRule:
    """HiCOO rows run on a HiCOO input at their block size, else on the
    memoized conversion — for ``run_config`` and ``run_algorithm`` alike."""

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        original = HicooTensor.from_coo.__func__

        def counting(cls, *args, **kwargs):
            builds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(HicooTensor, "from_coo", classmethod(counting))
        return builds

    def test_run_algorithm_converts_the_second_operand_once(self, monkeypatch):
        x = CooTensor.random((21, 17, 13), 400, seed=11)
        hicoo = HicooTensor.from_coo(x, BLOCK)
        operands = make_operands(x, "TEW", seed=5)
        builds = self._count_builds(monkeypatch)
        outs = [
            run_algorithm(
                "HiCOO-TEW-OMP", x, operands, block_size=BLOCK, hicoo=hicoo
            )
            for _ in range(3)
        ]
        assert len(builds) == 1
        for out in outs[1:]:
            assert _exact_mismatch(outs[0], out, "TEW") is None

    @pytest.mark.parametrize("block_size,builds", [(None, 0), (32, 1)])
    def test_hicoo_input_is_rebuilt_only_at_another_block_size(
        self, monkeypatch, block_size, builds
    ):
        x = CooTensor.random((21, 17, 13), 400, seed=12)
        h = HicooTensor.from_coo(x, 16)
        factors = make_operands(x, "MTTKRP", rank=RANK, seed=1).factors
        at = h if block_size is None else HicooTensor.from_coo(x, block_size)
        direct = mttkrp_hicoo(at, factors, 0)
        counted = self._count_builds(monkeypatch)
        outs = [
            repro.mttkrp(h, factors, 0, variant="hicoo", block_size=block_size)
            for _ in range(3)
        ]
        assert len(counted) == builds
        for out in outs:
            assert _exact_mismatch(out, direct, "MTTKRP") is None
