"""The cluster front-end: one wire endpoint over N terpd shards.

:class:`TerpRouter` terminates client sessions (hello, version
negotiation, resume tokens) itself, with the daemon's own front door
(:func:`~repro.service.sessions.parse_hello`,
:meth:`~repro.service.sessions.SessionRegistry.resume`), and forwards
everything else to the shard that owns the PMO being operated on:

* **name-addressed ops** (create/open/attach/psync/…) route by the
  consistent-hash ring over the PMO name;
* **oid-addressed ops** (read/write/pfree/…) route arithmetically —
  shard ``i`` of ``N`` only ever mints pmo_ids in the residue class
  ``i+1 (mod N)`` (see :meth:`PmoManager.set_id_namespace`), so the
  Oid's pool id alone names the owner, with zero routing state;
* **batch frames** are split per-item across shards (each item's
  slice of the binary sidecar travels with it), the sub-batches run
  concurrently, and the responses are re-merged in client item order;
* **observability ops** (ping/metrics/trace/prometheus) fan out to
  every shard and merge (see :mod:`repro.cluster.aggregate`).

The relay is byte-transparent on the fast path: a single op's request
body and sidecar are forwarded verbatim and the shard's response
frame is returned verbatim, so v1 and v2 clients work unmodified.

Failure model: a shard dying mid-request aborts the *client's*
transport, which lands the client on the typed
:class:`~repro.service.client.ConnectionLost` retry path it already
has — reconnect, resume the router session by token, re-send the same
request id.  The router re-dials the restarted shard and resumes its
upstream session with the stored token, so a durable shard's replay
cache still de-duplicates the retried op.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import TerpError
from repro.cluster.aggregate import (
    aggregate_metrics, label_prometheus)
from repro.cluster.ring import HashRing
from repro.pmo.object_id import OFFSET_BITS
from repro.service import protocol
from repro.service.protocol import (
    MALFORMED_ARGS, PROTOCOL_V1, PROTOCOL_VERSION, WireError,
    error_response, ok_response)
from repro.service.server import (
    DEFAULT_SESSION_EW_NS, DEFAULT_SESSION_LINGER_NS)
from repro.service.sessions import (
    Session, SessionRegistry, parse_hello)

#: Ops routed by the PMO *name* in their args.
NAME_OPS = frozenset({
    "create", "open", "close", "destroy", "attach", "detach",
    "pmalloc", "psync", "tx_begin", "tx_abort"})
#: Ops routed by the packed Oid in their args.
OID_OPS = frozenset({"pfree", "read", "write", "read_u64",
                     "write_u64"})
#: Observability ops the router answers by fanning out to every shard.
FANOUT_OPS = frozenset({"ping", "metrics", "trace", "prometheus"})


class UpstreamLost(Exception):
    """A shard connection died mid-request; the client must retry."""


class UpstreamError(TerpError):
    """A shard answered the router's own request with an error."""


class _Refused(Exception):
    """Every shard answered a fan-out op with an error (malformed
    arguments): the client gets that error, not an empty merge."""

    def __init__(self, response: Dict[str, Any],
                 events: List[dict]) -> None:
        super().__init__(response.get("error"))
        self.response = response
        self.events = events


class UpstreamConn:
    """One router->shard connection: frames in, frames out, in order.

    Serialized by an asyncio lock: a connection carries one request at
    a time (batch fan-out parallelism comes from using *different*
    connections per shard), so responses match requests by position
    with no id bookkeeping.
    """

    def __init__(self, shard: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.shard = shard
        self.reader = reader
        self.writer = writer
        self.alive = True
        self._lock = asyncio.Lock()
        #: the shard-side session this connection carries, once hello'd
        self.session_id: Optional[int] = None
        self.token: str = ""
        #: rids for the router's *own* requests on this connection.
        #: Negative and descending: client rids are positive, and the
        #: shard's per-session replay cache is keyed by rid — a
        #: router-originated metrics poll must never collide with a
        #: relayed client op (or with a previous router request) and
        #: get the wrong cached response replayed at it.
        self._next_rid = 0

    def next_rid(self) -> int:
        self._next_rid -= 1
        return self._next_rid

    @classmethod
    async def open(cls, shard: int, host: str,
                   port: int) -> "UpstreamConn":
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise UpstreamLost(
                f"shard {shard} unreachable: {exc}") from None
        return cls(shard, reader, writer)

    async def request_raw(self, body: bytes,
                          sidecar: bytes) -> Tuple[bytes, bytes]:
        """Send one pre-encoded request frame, await the response."""
        async with self._lock:
            try:
                self.writer.write(
                    protocol.frame_from_body(body, sidecar or None))
                await self.writer.drain()
                got = await protocol.read_frame_raw(self.reader)
            except (WireError, ConnectionError, OSError) as exc:
                self.alive = False
                raise UpstreamLost(
                    f"shard {self.shard} dropped: {exc}") from None
            if got is None:
                self.alive = False
                raise UpstreamLost(f"shard {self.shard} closed the "
                                   "connection")
            return got

    async def request(self, payload: Any,
                      sidecar: bytes = b"") -> Tuple[Any, bytes]:
        """Encoded-object convenience over :meth:`request_raw`."""
        body, side = await self.request_raw(
            protocol.encode_body(payload), sidecar)
        return protocol.decode_frame(body), side

    async def hello(self, args: Dict[str, Any]) -> Dict[str, Any]:
        response, _ = await self.request(
            {"id": self.next_rid(), "op": "hello", "args": args})
        if not response.get("ok"):
            error = response.get("error") or {}
            raise UpstreamError(error.get("message", "hello failed"))
        result = response["result"]
        self.session_id = int(result["session"])
        self.token = str(result.get("token", ""))
        return result

    def close(self) -> None:
        self.alive = False
        try:
            self.writer.close()
        except Exception:
            pass


class _SessionExt:
    """Router-side per-session state the wire Session doesn't carry."""

    __slots__ = ("upstreams", "identities")

    def __init__(self) -> None:
        #: live shard connections, keyed by shard index
        self.upstreams: Dict[int, UpstreamConn] = {}
        #: (shard session id, resume token) per shard — survives the
        #: connection so a restarted shard's session can be resumed.
        self.identities: Dict[int, Tuple[int, str]] = {}

    def close_all(self) -> None:
        for conn in self.upstreams.values():
            conn.close()
        self.upstreams.clear()


class _RouterConn:
    """Per client-connection state."""

    __slots__ = ("session", "generation", "version", "peer")

    def __init__(self, peer: str) -> None:
        self.session: Optional[Session] = None
        self.generation = 0
        self.version = PROTOCOL_V1
        self.peer = peer


def _bin_len(obj: Any) -> int:
    """Total sidecar bytes a request's args claim, in marker order."""
    if isinstance(obj, dict):
        if set(obj) == {"bin"} and isinstance(obj["bin"], int):
            return obj["bin"]
        return sum(_bin_len(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_bin_len(v) for v in obj)
    return 0


class TerpRouter:
    """The v2-speaking, session-pinning, batch-splitting front-end."""

    def __init__(self, *, shard_addrs: List[Tuple[str, int]],
                 host: str = "127.0.0.1", port: Optional[int] = 0,
                 reuse_port: bool = False,
                 session_ew_ns: int = DEFAULT_SESSION_EW_NS,
                 session_linger_ns: int = DEFAULT_SESSION_LINGER_NS,
                 seed: int = 2022,
                 protocol_version: int = PROTOCOL_VERSION) -> None:
        self.shard_addrs = list(shard_addrs)
        self.shard_count = len(self.shard_addrs)
        if not self.shard_count:
            raise TerpError("router needs at least one shard")
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self.session_linger_ns = session_linger_ns
        self.protocol_version = protocol_version
        self.ring = HashRing(range(self.shard_count), seed=seed)
        #: Router-local sessions: the client-facing identity.  The
        #: budget the router reports is what the shards enforce — the
        #: supervisor configures both from the same number, and the
        #: router passes each session's clamped budget in its
        #: upstream hellos.
        self.registry = SessionRegistry(
            default_ew_budget_ns=session_ew_ns, token_seed=seed)
        self._ext: Dict[int, _SessionExt] = {}
        #: sessionless connections for observability fan-out, one per
        #: shard, dialed lazily and re-dialed after a shard restart.
        self._admin: Dict[int, UpstreamConn] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._writers: set = set()
        self._purge_task: Optional[asyncio.Task] = None
        self._t0 = time.monotonic_ns()
        self.bound_port: Optional[int] = None

    def now_ns(self) -> int:
        return time.monotonic_ns() - self._t0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        kwargs: Dict[str, Any] = {}
        if self.reuse_port:
            # SO_REUSEPORT accept sharding: several router processes
            # bind the same front port and the kernel spreads accepts.
            kwargs["reuse_port"] = True
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, **kwargs)
        self._servers.append(server)
        self.bound_port = server.sockets[0].getsockname()[1]
        self._purge_task = asyncio.create_task(self._purge_loop())

    async def stop(self) -> None:
        if self._purge_task is not None:
            self._purge_task.cancel()
            try:
                await self._purge_task
            except asyncio.CancelledError:
                pass
        for server in self._servers:
            server.close()
            await server.wait_closed()
        for ext in self._ext.values():
            ext.close_all()
        for conn in self._admin.values():
            conn.close()
        for writer in list(self._writers):
            writer.close()

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    async def _purge_loop(self) -> None:
        """Expire lingering (dropped, never resumed) sessions."""
        while True:
            await asyncio.sleep(0.1)
            now = self.now_ns()
            for session in self.registry.lingering():
                if session.linger_expired(now, self.session_linger_ns):
                    self.registry.remove(session.session_id)
                    ext = self._ext.pop(session.session_id, None)
                    if ext is not None:
                        ext.close_all()

    # -- connection handling ----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername") or "?"
        conn = _RouterConn(str(peer))
        self._writers.add(writer)
        transport = writer.transport
        try:
            while True:
                got = await protocol.read_frame_raw(reader)
                if got is None:
                    break
                body, sidecar = got
                payload = protocol.decode_frame(body)
                if isinstance(payload, list):
                    frame = await self._handle_batch(conn, payload,
                                                     sidecar)
                else:
                    frame = await self._handle_single(conn, payload,
                                                      body, sidecar)
                writer.write(frame)
                if transport is None or \
                        transport.get_write_buffer_size() > 65536:
                    await writer.drain()
        except UpstreamLost:
            # Map shard death onto the client's typed retry path: an
            # aborted transport is a ConnectionLost, and the retried
            # request (same rid, resumed session) re-routes to the
            # restarted shard.
            if transport is not None:
                transport.abort()
        except (WireError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            session = conn.session
            if session is not None and not session.closed and \
                    session.generation == conn.generation:
                # Drop the upstream connections *now*: each shard
                # force-releases this session's windows on teardown
                # ("connection lost"), exactly as a direct client's
                # death would.  Identity lingers for a token resume.
                ext = self._ext.get(session.session_id)
                if ext is not None:
                    ext.close_all()
                session.unbind(self.now_ns())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- routing -----------------------------------------------------------

    def _home_shard(self, conn: _RouterConn) -> int:
        if conn.session is not None:
            return self.ring.owner(
                f"session:{conn.session.session_id}")
        return 0

    def _route(self, op: str, args: Any, conn: _RouterConn) -> int:
        if isinstance(args, dict):
            if op in NAME_OPS:
                name = args.get("name")
                if isinstance(name, str):
                    return self.ring.owner(name)
            elif op in OID_OPS:
                oid = args.get("oid")
                if isinstance(oid, int) or (isinstance(oid, float)
                                            and math.isfinite(oid)):
                    pool_id = int(oid) >> OFFSET_BITS
                    if pool_id >= 1:
                        return (pool_id - 1) % self.shard_count
        # Unroutable (malformed args, a null or non-finite oid): any
        # shard will produce the same typed error; keep it
        # session-sticky.
        return self._home_shard(conn)

    async def _upstream(self, conn: _RouterConn,
                        shard: int) -> UpstreamConn:
        session = conn.session
        assert session is not None
        ext = self._ext[session.session_id]
        up = ext.upstreams.get(shard)
        if up is not None and up.alive:
            return up
        host, port = self.shard_addrs[shard]
        up = await UpstreamConn.open(shard, host, port)
        hello_args: Dict[str, Any] = {
            "user": session.user,
            "version": conn.version,
            "ew_budget_us": session.ew_budget_ns / 1_000,
        }
        identity = ext.identities.get(shard)
        try:
            if identity is not None:
                try:
                    await up.hello(dict(hello_args,
                                        resume=identity[0],
                                        token=identity[1]))
                except UpstreamError:
                    # The shard restarted cold (or the linger lapsed):
                    # fall back to a fresh shard session.  Replay
                    # de-duplication is lost for that shard, exactly
                    # as for a direct client whose resume fails.
                    await up.hello(hello_args)
            else:
                await up.hello(hello_args)
        except UpstreamLost:
            up.close()
            raise
        ext.identities[shard] = (up.session_id or 0, up.token)
        ext.upstreams[shard] = up
        return up

    async def _admin_conn(self, shard: int) -> UpstreamConn:
        up = self._admin.get(shard)
        if up is not None and up.alive:
            return up
        host, port = self.shard_addrs[shard]
        up = await UpstreamConn.open(shard, host, port)
        self._admin[shard] = up
        return up

    # -- single-op path ----------------------------------------------------

    async def _handle_single(self, conn: _RouterConn, payload: Any,
                             raw_body: bytes,
                             sidecar: bytes) -> bytes:
        rid = payload.get("id") if isinstance(payload, dict) else None
        try:
            if not isinstance(payload, dict) or \
                    not isinstance(payload.get("op"), str):
                raise WireError("request must be an object with an "
                                "'op'")
            op = payload["op"]
            args = payload.get("args") or {}
            if not isinstance(args, dict):
                raise WireError("'args' must be an object")
            if op == "hello":
                result = self._op_hello(conn, args)
                return protocol.frame_from_body(protocol.encode_body(
                    ok_response(rid, result, None)))
            if conn.session is None and op not in FANOUT_OPS:
                raise TerpError(f"op {op!r} requires a session; "
                                "say hello first")
            if op == "goodbye":
                result = await self._op_goodbye(conn)
                return protocol.frame_from_body(protocol.encode_body(
                    ok_response(rid, result, None)))
            if op in FANOUT_OPS:
                return await self._fanout(conn, rid, op, args)
            shard = self._route(op, args, conn)
        except UpstreamLost:
            raise
        except (TerpError, WireError) as exc:
            return protocol.frame_from_body(protocol.encode_body(
                error_response(rid, type(exc).__name__, str(exc),
                               None)))
        except MALFORMED_ARGS as exc:
            return protocol.frame_from_body(protocol.encode_body(
                error_response(rid, "BadRequest",
                               f"malformed arguments: {exc!r}")))
        # The relay fast path: the owning shard sees the client's
        # exact bytes and its response travels back untouched.
        up = await self._upstream(conn, shard)
        rbody, rside = await up.request_raw(raw_body, sidecar)
        return protocol.frame_from_body(rbody, rside or None)

    def _op_hello(self, conn: _RouterConn,
                  args: Dict[str, Any]) -> Dict[str, Any]:
        hello = parse_hello(args, bound=conn.session is not None,
                            server_version=self.protocol_version)
        if hello.resume is not None:
            session = self.registry.resume(hello.resume, hello.token)
        else:
            session = self.registry.create(
                user=hello.user, ew_budget_ns=hello.ew_budget_ns)
            self._ext[session.session_id] = _SessionExt()
        conn.generation = session.bind()
        conn.session = session
        conn.version = hello.version
        return hello.reply(session)

    async def _op_goodbye(self, conn: _RouterConn) -> Dict[str, Any]:
        session = conn.session
        assert session is not None
        ext = self._ext.pop(session.session_id, None)
        released = 0
        if ext is not None:
            for up in list(ext.upstreams.values()):
                if not up.alive:
                    continue
                try:
                    response, _ = await up.request(
                        {"id": up.next_rid(), "op": "goodbye",
                         "args": {}})
                    if response.get("ok"):
                        released += int(
                            response["result"].get("released", 0))
                except UpstreamLost:
                    pass
            ext.close_all()
        self.registry.remove(session.session_id)
        conn.session = None
        return {"released": released}

    # -- fan-out path ------------------------------------------------------

    async def _fanout_targets(self, conn: _RouterConn
                              ) -> List[Tuple[int, UpstreamConn]]:
        """One connection per shard: the session's own where it has
        one (so per-session metrics and pending events ride along),
        a shared sessionless one otherwise.  Unreachable shards are
        skipped — a restarting shard must not fail a survivor's
        metrics poll."""
        targets: List[Tuple[int, UpstreamConn]] = []
        ext = None
        if conn.session is not None:
            ext = self._ext.get(conn.session.session_id)
        for shard in range(self.shard_count):
            up = None
            if ext is not None:
                up = ext.upstreams.get(shard)
                if up is not None and not up.alive:
                    up = None
            if up is None:
                try:
                    up = await self._admin_conn(shard)
                except UpstreamLost:
                    continue
            targets.append((shard, up))
        return targets

    async def _fanout(self, conn: _RouterConn, rid: Any, op: str,
                      args: Dict[str, Any]) -> bytes:
        try:
            if op == "ping":
                result, events = await self._fanout_ping(conn, args)
            elif op == "metrics":
                result, events = await self._fanout_metrics(conn, args)
            elif op == "trace":
                result, events = await self._fanout_trace(conn, args)
            else:
                result, events = await self._fanout_prometheus(conn,
                                                               args)
            response = ok_response(rid, result, events or None)
        except _Refused as refused:
            error = refused.response.get("error") or {}
            response = error_response(
                rid, str(error.get("kind", "TerpError")),
                str(error.get("message", "")), refused.events or None)
        return protocol.frame_from_body(protocol.encode_body(response))

    async def _collect(self, targets: List[Tuple[int, UpstreamConn]],
                       op: str, args: Dict[str, Any]
                       ) -> List[Tuple[int, Dict[str, Any]]]:
        """Send one op to every target; drop targets that die.  Raises
        :class:`_Refused` when every answer is an error."""
        async def one(shard: int, up: UpstreamConn):
            try:
                response, _ = await up.request(
                    {"id": up.next_rid(), "op": op, "args": args})
            except UpstreamLost:
                return None
            return shard, response
        answers = [a for a in await asyncio.gather(
            *(one(shard, up) for shard, up in targets)) if a is not None]
        if answers and not any(response.get("ok")
                               for _, response in answers):
            raise _Refused(answers[0][1], self._merge_events(answers))
        return answers

    @staticmethod
    def _merge_events(answers: List[Tuple[int, Dict[str, Any]]]
                      ) -> List[dict]:
        events: List[dict] = []
        for _, response in answers:
            events.extend(response.get("events") or [])
        return events

    async def _fanout_ping(self, conn: _RouterConn,
                           args: Dict[str, Any]):
        # Ping only needs the session's own shards: that is where its
        # pending events (forced detaches) queue, and where clock
        # movement matters to it.  A session-less ping answers locally.
        targets: List[Tuple[int, UpstreamConn]] = []
        if conn.session is not None:
            ext = self._ext.get(conn.session.session_id)
            if ext is not None:
                targets = [(s, up) for s, up in ext.upstreams.items()
                           if up.alive]
        answers = await self._collect(targets, "ping", args)
        now = max((a[1].get("result", {}).get("now_ns", 0)
                   for a in answers if a[1].get("ok")),
                  default=self.now_ns())
        return ({"now_ns": now, "sessions": len(self.registry)},
                self._merge_events(answers))

    async def _fanout_metrics(self, conn: _RouterConn,
                              args: Dict[str, Any]):
        targets = await self._fanout_targets(conn)
        answers = await self._collect(targets, "metrics",
                                      dict(args, raw=True))
        reports = []
        for shard, response in answers:
            if not response.get("ok"):
                continue
            report = response["result"]
            report.setdefault("shard", shard)
            reports.append(report)
        merged = aggregate_metrics(reports,
                                   sessions=len(self.registry))
        merged["cluster"]["unreachable"] = \
            self.shard_count - len(reports)
        return merged, self._merge_events(answers)

    async def _fanout_trace(self, conn: _RouterConn,
                            args: Dict[str, Any]):
        targets = await self._fanout_targets(conn)
        answers = await self._collect(targets, "trace", args)
        spans: List[dict] = []
        audit: List[dict] = []
        open_windows: List[dict] = []
        for shard, response in answers:
            if not response.get("ok"):
                continue
            result = response["result"]
            spans.extend(result.get("spans") or [])
            for event in result.get("audit") or []:
                event["shard"] = shard
                audit.append(event)
            for window in result.get("open_windows") or []:
                window["shard"] = shard
                open_windows.append(window)
        audit.sort(key=lambda e: e.get("at_ns", 0))
        return ({"spans": spans, "audit": audit,
                 "open_windows": open_windows},
                self._merge_events(answers))

    async def _fanout_prometheus(self, conn: _RouterConn,
                                 args: Dict[str, Any]):
        targets = await self._fanout_targets(conn)
        answers = await self._collect(targets, "prometheus", args)
        texts = [label_prometheus(
                     response["result"].get("text", ""), shard)
                 for shard, response in answers if response.get("ok")]
        return {"text": "".join(texts)}, self._merge_events(answers)

    # -- batch path --------------------------------------------------------

    async def _handle_batch(self, conn: _RouterConn, items: List[Any],
                            sidecar: bytes) -> bytes:
        """Split per owning shard, run concurrently, merge in order.

        Each item keeps its slice of the combined request sidecar (in
        item order, the v2 batch contract) and contributes its
        response chunks to the combined response sidecar, also in
        item order.  A shard error stays isolated to its items'
        slots; a shard *death* aborts the whole client connection
        (the retry re-splits identically).
        """
        bins = protocol.BinReader(sidecar)
        # parts[i] is either pre-encoded response bytes (local errors)
        # or None until the owning shard's sub-batch answers.
        parts: List[Any] = [None] * len(items)
        chunks: List[bytes] = [b""] * len(items)
        by_shard: Dict[int, List[Tuple[int, Any, bytes]]] = {}
        for index, item in enumerate(items):
            op = item.get("op") if isinstance(item, dict) else None
            rid = item.get("id") if isinstance(item, dict) else None
            args = item.get("args") if isinstance(item, dict) else None
            try:
                take = bins.take(_bin_len(args)) if args else b""
            except WireError as exc:
                # A sidecar underrun fails only its own slot, as it
                # does on a standalone daemon.
                parts[index] = protocol.encode_body(error_response(
                    rid, "WireError", str(exc)))
                continue
            if not isinstance(item, dict) or not isinstance(op, str):
                parts[index] = protocol.encode_body(error_response(
                    rid, "WireError",
                    "request must be an object with an 'op'"))
                continue
            if op in ("hello", "goodbye"):
                parts[index] = protocol.encode_body(error_response(
                    rid, "TerpError",
                    f"op {op!r} must be sent standalone, not in a "
                    "batch"))
                continue
            if conn.session is None:
                parts[index] = protocol.encode_body(error_response(
                    rid, "TerpError",
                    f"op {op!r} requires a session; say hello first"))
                continue
            # Fan-out ops inside a batch are pinned to the session's
            # home shard: a batched ping is a liveness probe, not a
            # cluster census.
            if op in FANOUT_OPS:
                shard = self._home_shard(conn)
            else:
                shard = self._route(op, args or {}, conn)
            by_shard.setdefault(shard, []).append((index, item, take))

        async def run_shard(shard: int,
                            grouped: List[Tuple[int, Any, bytes]]):
            up = await self._upstream(conn, shard)
            body = protocol.encode_body([item for _, item, _ in
                                         grouped])
            side = b"".join(chunk for _, _, chunk in grouped)
            rbody, rside = await up.request_raw(body, side)
            responses = protocol.decode_frame(rbody)
            if not isinstance(responses, list) or \
                    len(responses) != len(grouped):
                raise UpstreamLost(
                    f"shard {shard} answered a batch of "
                    f"{len(grouped)} with "
                    f"{len(responses) if isinstance(responses, list) else 1}")
            reply_bins = protocol.BinReader(rside)
            for (index, _, _), response in zip(grouped, responses):
                result = response.get("result") \
                    if isinstance(response, dict) else None
                n = result.get("bin") if isinstance(result, dict) \
                    else None
                if isinstance(n, int):
                    chunks[index] = reply_bins.take(n)
                parts[index] = protocol.encode_body(response)

        if by_shard:
            done = await asyncio.gather(
                *(run_shard(shard, grouped)
                  for shard, grouped in by_shard.items()),
                return_exceptions=True)
            for outcome in done:
                if isinstance(outcome, BaseException):
                    raise outcome
        body = protocol.encode_body(parts)
        merged_sidecar = b"".join(chunks)
        return protocol.frame_from_body(body, merged_sidecar or None)
