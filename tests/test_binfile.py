"""Binary mmap tensor layout: roundtrip, integrity, recovery, CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.conformance.harness import run_check
from repro.errors import BinaryFormatError, TensorShapeError
from repro.formats import CooTensor
from repro.io import (
    BinWriter,
    import_tns,
    inspect_bin,
    open_bin,
    read_tns,
    write_coo,
    write_tns,
)
from repro.io.binfile import _TRAILER


def _random_coo(rng, shape=(40, 25, 18), nnz=600):
    return CooTensor.random(shape, nnz, rng=rng)


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestRoundtrip:
    def test_write_read_identity(self, tensor3, tmp_path):
        path = tmp_path / "t.bin"
        header = write_coo(tensor3, path, chunk_nnz=100)
        assert header["nnz"] == tensor3.nnz
        assert len(header["chunks"]) == -(-tensor3.nnz // 100)
        with open_bin(path) as mm:
            assert mm.shape == tensor3.shape
            assert mm.nnz == tensor3.nnz
            back = mm.to_coo()
        assert np.array_equal(back.indices, tensor3.indices)
        assert np.array_equal(back.values, tensor3.values)

    def test_import_tns_matches_read_tns(self, tensor3, tmp_path):
        tns = tmp_path / "t.tns"
        path = tmp_path / "t.bin"
        write_tns(tensor3, tns)
        import_tns(tns, path, chunk_nnz=97)
        reference = read_tns(tns)
        with open_bin(path, verify=True) as mm:
            back = mm.to_coo()
        assert back.shape == reference.shape
        assert np.array_equal(back.indices, reference.indices)
        assert np.array_equal(back.values, reference.values)

    def test_import_tns_rejects_zero_based(self, tmp_path):
        tns = tmp_path / "bad.tns"
        tns.write_text("0 1 1 2.0\n")
        with pytest.raises(TensorShapeError, match="1-based"):
            import_tns(tns, tmp_path / "bad.bin")
        assert not (tmp_path / "bad.bin").exists()

    def test_import_tns_progress(self, tensor3, tmp_path):
        tns = tmp_path / "t.tns"
        write_tns(tensor3, tns)
        seen = []
        import_tns(tns, tmp_path / "t.bin", progress=seen.append)
        assert seen and seen[-1] == tensor3.nnz

    def test_writer_appends_across_chunk_boundaries(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=500)
        path = tmp_path / "t.bin"
        with BinWriter(path, shape=tensor.shape, chunk_nnz=64) as writer:
            for lo in range(0, tensor.nnz, 37):
                hi = min(lo + 37, tensor.nnz)
                writer.append(
                    tensor.indices[:, lo:hi].astype(np.int64),
                    tensor.values[lo:hi],
                )
        with open_bin(path, verify=True) as mm:
            back = mm.to_coo()
        assert np.array_equal(back.indices, tensor.indices)
        assert np.array_equal(back.values, tensor.values)

    def test_empty_tensor_needs_explicit_shape(self, tmp_path):
        with pytest.raises(TensorShapeError):
            with BinWriter(tmp_path / "e.bin") as writer:
                pass
        write_coo(CooTensor.empty((4, 5)), tmp_path / "e2.bin")
        with open_bin(tmp_path / "e2.bin") as mm:
            assert mm.nnz == 0 and mm.shape == (4, 5)


class TestRangeReads:
    def test_read_range_spans_chunks(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=500)
        path = tmp_path / "t.bin"
        write_coo(tensor, path, chunk_nnz=64)
        with open_bin(path) as mm:
            idx, vals = mm.read_range(50, 450)
            assert np.array_equal(idx, tensor.indices[:, 50:450])
            assert np.array_equal(vals, tensor.values[50:450])
            assert np.array_equal(mm.read_values(50, 450), vals)

    def test_read_range_bounds_checked(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=50)
        path = tmp_path / "t.bin"
        write_coo(tensor, path)
        with open_bin(path) as mm:
            with pytest.raises(BinaryFormatError):
                mm.read_range(0, tensor.nnz + 1)
            with pytest.raises(BinaryFormatError):
                mm.read_range(-1, 10)

    def test_closed_tensor_raises(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=50)
        path = tmp_path / "t.bin"
        write_coo(tensor, path)
        mm = open_bin(path)
        mm.close()
        with pytest.raises(BinaryFormatError, match="closed"):
            mm.read_range(0, 1)

    def test_release_pages_noop_safe(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=50)
        path = tmp_path / "t.bin"
        write_coo(tensor, path)
        with open_bin(path) as mm:
            mm.release_pages()  # supported or not, must not raise
            assert np.array_equal(mm.to_coo().values, tensor.values)


class TestIntegrity:
    def test_truncated_file_detected(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=300)
        path = tmp_path / "t.bin"
        write_coo(tensor, path, chunk_nnz=64)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - _TRAILER.size - 3])
        with pytest.raises(BinaryFormatError, match="truncated"):
            open_bin(path)

    def test_corrupt_header_detected(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=100)
        path = tmp_path / "t.bin"
        header = write_coo(tensor, path, chunk_nnz=64)
        # Flip a byte inside the JSON header region.
        data = path.read_bytes()
        json_start = data.index(b'{"format"')
        _flip_byte(path, json_start + 3)
        with pytest.raises(BinaryFormatError):
            open_bin(path)
        assert header["nnz"] == tensor.nnz

    def test_corrupt_chunk_flagged_not_fatal(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=300)
        path = tmp_path / "t.bin"
        write_coo(tensor, path, chunk_nnz=64)
        with open_bin(path) as mm:
            third_chunk = int(mm._chunk_pos[2])
        _flip_byte(path, third_chunk + 5)
        # Lazy open still works; verification pinpoints the chunk.
        with open_bin(path) as mm:
            assert mm.verify_checksums() == [2]
        with pytest.raises(BinaryFormatError, match="chunk"):
            open_bin(path, verify=True)
        report = inspect_bin(path)
        assert report["checksums_ok"] is False
        assert report["corrupt_chunks"] == [2]
        # Chunks other than the corrupt one remain readable.
        with open_bin(path) as mm:
            good = mm.chunk_coo(0)
            assert np.array_equal(good.values, tensor.values[:64])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTATENSOR" * 10)
        with pytest.raises(BinaryFormatError):
            open_bin(path)


class TestConformanceOverMmap:
    def test_dense_oracle_accepts_mmap_tensor(self, rng, tmp_path):
        tensor = CooTensor.random((6, 5, 4), 50, rng=rng).sum_duplicates()
        path = tmp_path / "t.bin"
        write_coo(tensor, path, chunk_nnz=13)
        with open_bin(path) as mm:
            for config in (
                {
                    "check": "oracle",
                    "kernel": "MTTKRP",
                    "variant": "coo",
                    "mode": 1,
                    "rank": 3,
                },
                {"check": "oracle", "kernel": "TTV", "variant": "coo", "mode": 0},
                {"check": "roundtrip", "path": ["hicoo"], "format": "COO"},
            ):
                assert run_check(mm, config) is None


class TestCli:
    def test_convert_then_inspect(self, tensor3, tmp_path, capsys):
        tns = tmp_path / "t.tns"
        path = tmp_path / "t.bin"
        write_tns(tensor3, tns)
        assert main(["convert", str(tns), str(path), "--quiet"]) == 0
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "checksums : ok" in out

    def test_inspect_corrupt_exits_nonzero(self, rng, tmp_path, capsys):
        tensor = _random_coo(rng, nnz=200)
        path = tmp_path / "t.bin"
        write_coo(tensor, path, chunk_nnz=64)
        with open_bin(path) as mm:
            offset = int(mm._chunk_pos[1])
        _flip_byte(path, offset)
        assert main(["inspect", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out
        assert main(["inspect", str(path), "--no-verify"]) == 0

    def test_convert_missing_input_fails(self, tmp_path, capsys):
        missing = tmp_path / "nope.tns"
        assert main(["convert", str(missing), str(tmp_path / "o.bin"), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err


class TestPlanCacheToken:
    def test_token_tracks_file_state(self, rng, tmp_path):
        tensor = _random_coo(rng, nnz=100)
        path = tmp_path / "t.bin"
        write_coo(tensor, path, chunk_nnz=64)
        with open_bin(path) as a, open_bin(path) as b:
            assert a.plan_cache_token == b.plan_cache_token
        write_coo(_random_coo(rng, nnz=90), path, chunk_nnz=64)
        with open_bin(path) as c:
            assert c.plan_cache_token != a.plan_cache_token
