"""terpd — the multi-tenant PMO service layer.

The reproduction's core is a single-process library; this package
turns it into a daemon.  ``terpd`` serves the full Table I API
(`PMO_create`/`attach`/`detach`/`pmalloc`/`pfree`/`read`/`write`/
`psync`/`destroy`) over a length-prefixed JSON protocol on TCP or Unix
sockets, multiplexing many client *sessions* onto one
:class:`~repro.pmo.api.PmoLibrary`.  Each session is mapped to a TERP
entity, so the EW-conscious semantics, the permission matrix, and the
arch engine's window combining are enforced *across* clients — and a
background sweeper force-detaches any session whose exposure budget
elapses, including clients that crash or disconnect mid-attach.

Modules:

``protocol``   the wire format (framing, requests, responses, errors)
``sessions``   session registry, session -> entity mapping, and the
               ``hello`` front door shared with the cluster router
``metrics``    per-session and global series, registry-backed
``server``     the asyncio daemon (``TerpService``) and thread harness
``registry``   session lifecycle: open, resume, release, journal
``retry``      client backoff and circuit breaking
``client``     the blocking client (``SyncTerpClient``), pipelining
               and batching, with retry and resume

Observability lives in :mod:`repro.obs`: the daemon's counters and
latency histograms are instruments in a
:class:`~repro.obs.registry.MetricsRegistry` (JSON dump via
``--metrics-dump``, Prometheus text via the ``prometheus`` op), every
request and sweep is traced, and the exposure-window audit timeline
(``trace`` op) records who held which PMO for how long.

Run the daemon with ``python -m repro.service``.
"""

from repro.service.client import RemoteError, SyncTerpClient
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MAX_FRAME_BYTES, WireError, decode_frame, encode_frame)
from repro.service.server import ServiceThread, TerpService
from repro.service.sessions import Session, SessionRegistry

__all__ = [
    "MAX_FRAME_BYTES",
    "RemoteError",
    "ServiceMetrics",
    "ServiceThread",
    "Session",
    "SessionRegistry",
    "SyncTerpClient",
    "TerpService",
    "WireError",
    "decode_frame",
    "encode_frame",
]
