"""Fault injection against the serving tier.

Every abuse scenario — malformed and oversized payloads, unknown
tensors, kernel/format mismatches, client disconnects mid-request,
quota exhaustion, shutdown while draining — must leave the registry and
the plan cache consistent, asserted through the same fuzz-style
invariant validator (:func:`repro.serving.check_invariants`) after each
scenario, and the server must keep serving well-formed requests.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.formats import CooTensor
from repro.io import write_coo
from repro.perf.plan_cache import get_plan_cache
from repro.serving import (
    MAX_LINE_BYTES,
    ServerConfig,
    ServingClient,
    TensorRegistry,
    TensorServer,
    check_invariants,
)
from repro.serving.protocol import encode_message

pytestmark = pytest.mark.serving


def _registry(tmp_path=None, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    registry = TensorRegistry()
    registry.add_ram("ram", CooTensor.random((20, 18, 14), 500, rng=rng))
    if tmp_path is not None:
        path = tmp_path / "m.bin"
        write_coo(CooTensor.random((16, 12, 10), 300, rng=rng), path)
        registry.add_mmap("mmap", str(path))
    return registry


async def _raw_roundtrip(host, port, payload: bytes):
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES + 2
    )
    try:
        writer.write(payload)
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=10)
        return json.loads(line.decode()) if line else None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def test_malformed_and_invalid_payloads(tmp_path):
    registry = _registry(tmp_path)

    async def scenario():
        server = TensorServer(registry, ServerConfig(rate=1e4, burst=1e4))
        await server.start()
        host, port = server.address
        results = {}
        results["not_json"] = await _raw_roundtrip(host, port, b"{nope\n")
        results["not_object"] = await _raw_roundtrip(host, port, b"[1,2]\n")
        results["bad_op"] = await _raw_roundtrip(
            host, port, encode_message({"op": "launch"})
        )
        results["bad_kernel"] = await _raw_roundtrip(
            host, port,
            encode_message({"op": "kernel", "tensor": "ram", "kernel": "FFT"}),
        )
        results["bad_mode"] = await _raw_roundtrip(
            host, port,
            encode_message(
                {"op": "kernel", "tensor": "ram", "kernel": "TTV", "mode": 7}
            ),
        )
        results["mmap_tew"] = await _raw_roundtrip(
            host, port,
            encode_message({"op": "kernel", "tensor": "mmap", "kernel": "TEW"}),
        )
        results["mmap_hicoo"] = await _raw_roundtrip(
            host, port,
            encode_message(
                {
                    "op": "kernel",
                    "tensor": "mmap",
                    "kernel": "TTV",
                    "variant": "hicoo",
                }
            ),
        )
        results["oversized"] = await _raw_roundtrip(
            host, port,
            b'{"op": "kernel", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n',
        )
        # The server is still healthy for a valid request afterwards.
        async with ServingClient(host, port) as client:
            results["valid"] = await client.kernel("ram", "TTV", rank=2)
        await server.stop()
        return results

    results = asyncio.run(scenario())
    assert results["not_json"]["status"] == 400
    assert results["not_object"]["status"] == 400
    assert results["bad_op"]["status"] == 400
    assert results["bad_kernel"]["status"] == 400
    assert results["bad_mode"]["status"] == 400
    assert results["mmap_tew"]["status"] == 400
    assert results["mmap_hicoo"]["status"] == 400
    assert results["oversized"]["status"] == 413
    assert results["valid"]["status"] == 200
    assert check_invariants(registry) == []
    registry.close_all()


def test_client_disconnect_mid_request(tmp_path):
    """A vanished client must not poison the batch it was grouped into."""
    registry = _registry(tmp_path)

    async def scenario():
        server = TensorServer(
            registry,
            ServerConfig(rate=1e4, burst=1e4, executor_threads=1),
        )
        await server.start()
        host, port = server.address

        # Disconnect immediately after sending, before the response.
        _, writer = await asyncio.open_connection(host, port)
        writer.write(
            encode_message(
                {"op": "kernel", "tensor": "ram", "kernel": "MTTKRP", "rank": 8}
            )
        )
        await writer.drain()
        writer.close()

        # Concurrent well-behaved clients (same group key) still succeed.
        async def polite(i):
            async with ServingClient(host, port) as client:
                return await client.kernel("ram", "MTTKRP", rank=8, seed=i)

        responses = await asyncio.gather(*(polite(i) for i in range(4)))
        await asyncio.sleep(0.05)  # let the orphaned job finish too
        await server.stop()
        return responses

    responses = asyncio.run(scenario())
    assert all(r["status"] == 200 for r in responses)
    assert check_invariants(registry) == []
    registry.close_all()


def test_quota_exhaustion_leaves_state_consistent():
    registry = _registry()
    cache = get_plan_cache()

    async def scenario():
        server = TensorServer(registry, ServerConfig(rate=0.5, burst=1))
        await server.start()
        host, port = server.address
        async with ServingClient(host, port) as client:
            responses = [
                await client.kernel("ram", "TTV", rank=2, check=False)
                for _ in range(6)
            ]
        await server.stop()
        return responses

    responses = asyncio.run(scenario())
    statuses = [r["status"] for r in responses]
    assert statuses.count(200) == 1 and statuses.count(429) == 5
    assert check_invariants(registry, cache) == []
    registry.close_all()


def test_queue_cap_rejects_with_503():
    registry = _registry()

    async def scenario():
        server = TensorServer(
            registry,
            ServerConfig(
                rate=1e4, burst=1e4, executor_threads=1, max_queue=1
            ),
        )
        await server.start()
        host, port = server.address

        async def one(i):
            async with ServingClient(host, port) as client:
                return await client.kernel(
                    "ram", "MTTKRP", rank=16, seed=i, check=False
                )

        responses = await asyncio.gather(*(one(i) for i in range(16)))
        await server.stop()
        return responses

    responses = asyncio.run(scenario())
    statuses = {r["status"] for r in responses}
    assert statuses <= {200, 503}
    assert check_invariants(registry) == []
    registry.close_all()


def test_shutdown_while_draining_is_consistent(tmp_path):
    registry = _registry(tmp_path)

    async def scenario():
        server = TensorServer(
            registry, ServerConfig(rate=1e4, burst=1e4, executor_threads=1)
        )
        await server.start()
        host, port = server.address

        async def one(i):
            async with ServingClient(host, port) as client:
                tensor = "mmap" if i % 3 == 0 else "ram"
                return await client.kernel(
                    tensor, "MTTKRP", rank=8, seed=i, check=False
                )

        tasks = [asyncio.create_task(one(i)) for i in range(10)]
        await asyncio.sleep(0.005)
        stopper = asyncio.create_task(server.stop())
        responses = await asyncio.gather(*tasks)
        await stopper
        # A post-shutdown connection is refused outright.
        with pytest.raises((ConnectionError, OSError)):
            await asyncio.open_connection(host, port)
        return responses

    responses = asyncio.run(scenario())
    assert all(r is not None and r["status"] in (200, 503) for r in responses)
    assert check_invariants(registry) == []
    registry.close_all()


#: Every (kernel, variant) pair serving admits, by entry kind.
_SERVED = {
    "ram": {
        ("TEW", "coo"), ("TS", "coo"),
        ("TTV", "auto"), ("TTV", "coo"), ("TTV", "hicoo"), ("TTV", "csf"),
        ("TTV", "coo_jit"),
        ("TTM", "auto"), ("TTM", "coo"), ("TTM", "hicoo"), ("TTM", "coo_jit"),
        ("MTTKRP", "auto"), ("MTTKRP", "coo"), ("MTTKRP", "hicoo"),
        ("MTTKRP", "csf"), ("MTTKRP", "coo_jit"), ("MTTKRP", "hicoo_jit"),
    },
    "mmap": {("TTV", "coo"), ("TTM", "coo"), ("MTTKRP", "coo")},
}


def test_unimplemented_pairs_are_400_and_admitted_pairs_run(tmp_path):
    # An admitted pair must execute: a pair without an implementation
    # (TTM on CSF, TTV or TTM on compiled HiCOO) is a client error, never
    # a 500 from the executor.  In RAM, TEW and TS serve only COO.
    from repro.perf.dispatch import VARIANTS
    from repro.serving.batching import KernelJob, check_job, execute_group
    from repro.serving.protocol import ProtocolError

    registry = _registry(tmp_path)
    for entry in (registry.get("ram"), registry.get("mmap")):
        admitted = set()
        for kernel in ("TEW", "TS", "TTV", "TTM", "MTTKRP"):
            for variant in VARIANTS:
                try:
                    check_job(entry, {"kernel": kernel, "mode": 1, "variant": variant})
                except ProtocolError as exc:
                    assert exc.code == 400
                    continue
                admitted.add((kernel, variant))
                job = KernelJob(
                    entry=entry, kernel=kernel, mode=1, rank=2, seed=0,
                    variant=variant,
                    block_size=8 if variant.startswith("hicoo") else None,
                )
                (outcome,) = execute_group([job])
                assert outcome.error is None, (kernel, variant, outcome.error)
        assert admitted == _SERVED[entry.kind]
        assert check_invariants(registry) == []
