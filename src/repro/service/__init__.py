"""Service layer: the long-running daemon and the columnar shard host.

Two pieces sit here, both built on the engine substrate below:

* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  ``repro serve`` daemon: a local-socket service that keeps the warm
  worker pool and a resident :class:`~repro.engine.cache.RunCache`
  alive across requests, so clients (``repro run --remote``) skip both
  interpreter cold-start and recomputation.
* :mod:`repro.service.kernel` — the shard threads behind
  ``ExecutionSpec(engine="columnar", shards=N)``: one array-program
  instance per contiguous node range, advanced on a per-run thread
  pool by ``ColumnarEngine._execute_sharded``.

This package imports :mod:`repro.engine`, :mod:`repro.obs` and
:mod:`repro.faults`; nothing below it imports back at module level
(the columnar engine imports the shard host on its first sharded run).
"""

from .client import ServiceClient, ServiceUnavailable
from .protocol import (
    ServiceBusy,
    ServiceError,
    default_socket_path,
    recv_message,
    send_message,
)
from .server import ReproServer, serve

__all__ = [
    "ReproServer",
    "ServiceBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "default_socket_path",
    "recv_message",
    "send_message",
    "serve",
]
