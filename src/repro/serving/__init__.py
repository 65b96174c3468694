"""Async tensor serving tier: registry, batching server, clients.

See docs/serving.md for the architecture.  The public surface:

* :class:`TensorRegistry` / :func:`check_invariants` — loaded tensors
  (in-RAM and mmap ``REPROBIN`` handles) plus the fuzz-style validator;
* :class:`TensorServer` / :class:`ServerConfig` — the asyncio server
  with request batching, per-client quotas, and graceful shutdown;
* :class:`ServingClient`, :func:`request_once`, :func:`fetch_metrics` —
  protocol clients;
* :func:`powerlaw_requests` / :func:`run_traffic` — synthetic
  multi-tenant traffic;
* :mod:`repro.serving.batching` — the group/fuse executor the
  conformance ``batch`` twin check drives directly.
"""

from .batching import (
    KernelJob,
    execute_group,
    group_jobs,
    group_key,
)
from .client import ServingClient, ServingError, fetch_metrics, request_once
from .metrics import ServerMetrics, percentile
from .protocol import (
    MAX_LINE_BYTES,
    MAX_RANK,
    ProtocolError,
    decode_request,
    encode_message,
    result_digest,
    validate_request,
)
from .quota import QuotaManager, TokenBucket
from .registry import TensorEntry, TensorRegistry, check_invariants
from .server import ServerConfig, TensorServer
from .traffic import powerlaw_requests, run_traffic

__all__ = [
    "KernelJob",
    "MAX_LINE_BYTES",
    "MAX_RANK",
    "ProtocolError",
    "QuotaManager",
    "ServerConfig",
    "ServerMetrics",
    "ServingClient",
    "ServingError",
    "TensorEntry",
    "TensorRegistry",
    "TensorServer",
    "TokenBucket",
    "check_invariants",
    "decode_request",
    "encode_message",
    "execute_group",
    "fetch_metrics",
    "group_jobs",
    "group_key",
    "percentile",
    "powerlaw_requests",
    "request_once",
    "result_digest",
    "run_traffic",
    "validate_request",
]
