"""The terpd client: a blocking, pipelining-capable socket client.

:class:`SyncTerpClient` speaks the wire protocol over a plain TCP or
Unix socket, for threads, scripts and load generators.  ``call()`` is
one request and one response; ``pipeline()`` sends a burst of request
frames back-to-back before collecting the responses (the server
answers in order per connection, and every response is checked
against its request id); ``batch()`` packs the burst into a single
array frame instead.

The client surfaces the Table I API as methods (``create``/``open``/
``attach``/``detach``/``pmalloc``/``pfree``/``read``/``write``/
``psync``/``destroy``), translates error responses into
:class:`RemoteError`, and collects out-of-band ``forced-detach``
events into :attr:`~SyncTerpClient.events`.

Robustness (opt-in via the ``retry`` / ``breaker`` constructor
arguments; without them every failure surfaces at once):

* a lost connection surfaces as :class:`ConnectionLost` — typed, so
  callers can tell "the server said no" from "the server went away";
* with a :class:`~repro.service.retry.RetryPolicy`, a lost connection
  triggers reconnect + session resume + a resend of the *same request
  ids* after a jittered exponential backoff.  The server's per-session
  replay cache makes the resend idempotent: a request that executed
  but whose response was lost is answered from the cache, never run
  twice.  Retryable error kinds (``Busy``, ``InjectedFault``) are
  retried in place on the live connection.
* with a :class:`~repro.service.retry.CircuitBreaker`, consecutive
  connection failures open the circuit and the client degrades to
  read-only operations until a probe succeeds.

``call``, ``pipeline`` and ``batch`` share that one retry loop
(:meth:`SyncTerpClient._retrying`); they differ only in how one
attempt sends its requests and collects the responses.
"""

from __future__ import annotations

import os
import socket
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import TerpError
from repro.pmo.object_id import Oid
from repro.service import protocol
from repro.service.protocol import WireError
from repro.service.retry import (
    READ_ONLY_OPS, RETRYABLE_KINDS, CircuitBreaker, CircuitOpenError,
    RetryPolicy)

#: One numbered request: (request id, op, args).
Request = Tuple[int, str, Dict[str, Any]]


class RemoteError(TerpError):
    """An error response from terpd; ``kind`` is the server-side
    exception class name (``PmoError``, ``TerpError``, ...)."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_message = message


class ConnectionLost(RemoteError):
    """The server went away mid-conversation (EOF, reset, torn frame).

    Distinct from an error *response*: the server never answered, so
    the fate of any in-flight request is unknown — which is exactly
    what the retry machinery's idempotent replay resolves.
    """

    def __init__(self, message: str) -> None:
        super().__init__("ConnectionLost", message)


class SessionLost(RemoteError):
    """The session could not be resumed after a reconnect (it crashed
    server-side or its linger grace expired).  Raised only by clients
    constructed with ``strict_resume=True``; by default the client
    falls back to a fresh session and counts it in ``sessions_lost``."""

    def __init__(self, message: str) -> None:
        super().__init__("SessionLost", message)


class SyncTerpClient:
    """Blocking terpd client over TCP or a Unix socket."""

    def __init__(self, *, host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 unix_path: Optional[str] = None,
                 user: str = "root",
                 ew_budget_us: Optional[float] = None,
                 timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 strict_resume: bool = False) -> None:
        if (port is None) == (unix_path is None):
            raise TerpError("give exactly one of port / unix_path")
        self._sock: Optional[socket.socket] = None
        self._host, self._port, self._unix = host, port, unix_path
        self._user, self._budget = user, ew_budget_us
        self._timeout = timeout
        self._retry = retry
        self._breaker = breaker
        self._strict_resume = strict_resume
        #: the last request id issued; ids only ever grow.
        self._next_id = 0
        self.session_id: Optional[int] = None
        self.entity_id: Optional[int] = None
        self.ew_budget_us: Optional[float] = None
        self.resume_token: str = ""
        #: out-of-band events (forced detaches) seen on any response.
        #: Delivery is at-least-once: a replayed response repeats the
        #: events that rode on the original.
        self.events: List[dict] = []
        #: successful session resumptions after a connection drop.
        self.resumes = 0
        #: reconnects where resume failed and a fresh session was opened.
        self.sessions_lost = 0
        #: the revision offered in ``hello``; ``TERP_PROTOCOL_VERSION=1``
        #: in the environment forces the legacy JSON-only wire.
        env = os.environ.get("TERP_PROTOCOL_VERSION")
        self._want_version = int(env) if env else \
            protocol.PROTOCOL_VERSION
        #: the revision actually negotiated (v1 until hello says more).
        self.protocol_version = protocol.PROTOCOL_V1

    @property
    def forced_detaches(self) -> int:
        return sum(1 for e in self.events
                   if e.get("event") == "forced-detach")

    # -- connection lifecycle ----------------------------------------------

    def connect(self) -> "SyncTerpClient":
        self._open_socket()
        self._note_hello(self._hello(self._hello_args()))
        return self

    def close(self) -> None:
        self._drop_socket()

    def __enter__(self) -> "SyncTerpClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _hello_args(self) -> Dict[str, Any]:
        args: Dict[str, Any] = {"user": self._user}
        if self._budget is not None:
            args["ew_budget_us"] = self._budget
        return args

    def _hello(self, args: Dict[str, Any]) -> Any:
        """Say hello, negotiating the protocol version.

        A legacy (v1-only) server rejects the v2 offer outright with a
        "version unsupported" error; the client downgrades its offer
        and re-hellos, after which everything — including this whole
        session's reads and writes — stays on the v1 JSON wire.  A
        hello is one round trip outside the retry loop.
        """
        try:
            return self._send_each(self._number(
                [("hello", dict(args, version=self._want_version))]))[0]
        except RemoteError as exc:
            if isinstance(exc, ConnectionLost) or \
                    self._want_version <= protocol.PROTOCOL_V1 or \
                    "version" not in exc.remote_message:
                raise
            self._want_version = protocol.PROTOCOL_V1
            return self._hello(args)

    def _note_hello(self, result: Dict) -> None:
        self.session_id = result["session"]
        self.entity_id = result["entity"]
        self.ew_budget_us = result["ew_budget_us"]
        self.resume_token = str(result.get("token", ""))
        self.protocol_version = int(
            result.get("version", protocol.PROTOCOL_V1))

    def _open_socket(self) -> None:
        if self._unix is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(self._unix)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            finally:
                self._sock = None

    def _reconnect(self) -> None:
        """Reopen the transport and restore the session.

        Resume first (same session id, entity id, and replay cache);
        if the server no longer knows the session, fall back to a
        fresh one — unless ``strict_resume`` asked for a typed
        :class:`SessionLost` instead.
        """
        self._drop_socket()
        self._open_socket()
        args = self._hello_args()
        if self.session_id is not None and self.resume_token:
            try:
                self._note_hello(self._hello(
                    dict(args, resume=self.session_id,
                         token=self.resume_token)))
                self.resumes += 1
                return
            except ConnectionLost:
                raise
            except RemoteError as exc:
                self.sessions_lost += 1
                if self._strict_resume:
                    raise SessionLost(
                        f"session {self.session_id} not resumable: "
                        f"{exc.remote_message}") from exc
        self._note_hello(self._hello(args))

    def _try_reconnect(self) -> None:
        """Best-effort reconnect between retry attempts: a failure
        here just leaves the next attempt to fail (and count)."""
        try:
            self._reconnect()
        except SessionLost:
            raise
        except (OSError, TerpError):
            self._drop_socket()

    # -- request plumbing -------------------------------------------------

    def _send(self, payload: Any, sidecar: bytes) -> None:
        if self._sock is None:
            raise ConnectionLost("not connected")
        try:
            protocol.send_frame(self._sock, payload, sidecar or None)
        except OSError as exc:
            self._drop_socket()
            raise ConnectionLost(f"send failed: {exc}") from exc

    def _recv(self) -> Any:
        if self._sock is None:
            raise ConnectionLost("not connected")
        try:
            got = protocol.recv_frame_ex(self._sock)
        except OSError as exc:
            self._drop_socket()
            raise ConnectionLost(f"recv failed: {exc}") from exc
        except WireError as exc:
            # A torn frame (e.g. the server died mid-write) is a
            # connection failure, not a protocol dispute.
            self._drop_socket()
            raise ConnectionLost(str(exc)) from exc
        if got is None:
            return None
        payload, sidecar = got
        if sidecar:
            try:
                protocol.absorb_sidecar(payload, sidecar)
            except WireError as exc:
                self._drop_socket()
                raise ConnectionLost(str(exc)) from exc
        return payload

    def _prep_args(self, args: Dict[str, Any]
                   ) -> Tuple[Dict[str, Any], bytes]:
        """Encode a request's binary payload for the negotiated wire.

        ``bytes`` under ``"data"`` ride the v2 sidecar (returned
        alongside) or get base64'd for a v1 connection.  The caller's
        dict is never mutated, so a retry after reconnect re-preps the
        same request for whatever version the new connection speaks.
        """
        data = args.get("data")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            return args, b""
        data = bytes(data)
        if self.protocol_version >= 2:
            return dict(args, data={"bin": len(data)}), data
        return dict(args, data=protocol.encode_bytes(data)), b""

    def _take_all(self, responses: List[Any],
                  items: List[Request]) -> List[Any]:
        """Check every response against its request, in order.

        An error response raises only after *all* responses were
        read: leaving the rest of a burst unread would desynchronise
        the connection for the next request.  The first error wins.
        """
        results: List[Any] = []
        error: Optional[RemoteError] = None
        for response, (rid, _, _) in zip(responses, items):
            if response is None:
                raise ConnectionLost("server closed the connection")
            if not isinstance(response, dict):
                raise WireError(
                    f"response is not an object: {response!r}")
            if response.get("id") != rid:
                raise WireError(
                    f"response id {response.get('id')!r} does not "
                    f"match request id {rid} (pipelining desync)")
            self.events.extend(response.get("events") or [])
            if response.get("ok"):
                results.append(response.get("result"))
                continue
            results.append(None)
            if error is None:
                detail = response.get("error") or {}
                error = RemoteError(
                    str(detail.get("kind", "TerpError")),
                    str(detail.get("message", "unknown")))
        if error is not None:
            raise error
        return results

    def _send_each(self, items: List[Request]) -> List[Any]:
        """One attempt of ``call``/``pipeline``: one frame per request,
        all sent before the first response is read."""
        for rid, op, args in items:
            prepped, sidecar = self._prep_args(args)
            self._send(protocol.request(rid, op, prepped), sidecar)
        return self._take_all([self._recv() for _ in items], items)

    def _send_batch(self, items: List[Request]) -> List[Any]:
        """One attempt of ``batch``: every request in one array frame.

        On a v2 connection the items' binary payloads travel as one
        combined sidecar, concatenated in item order.  The frame is
        re-packed per attempt: a reconnect may have renegotiated the
        protocol version.
        """
        packed = []
        chunks = []
        for rid, op, args in items:
            prepped, sidecar = self._prep_args(args)
            packed.append(protocol.request(rid, op, prepped))
            chunks.append(sidecar)
        self._send(packed, b"".join(chunks))
        responses = self._recv()
        if responses is None:
            raise ConnectionLost("server closed before the batch response")
        if not isinstance(responses, list) or \
                len(responses) != len(items):
            raise WireError("batch response shape mismatch")
        return self._take_all(responses, items)

    def _retrying(self, items: List[Request],
                  attempt: Callable[[List[Request]], List[Any]]
                  ) -> List[Any]:
        """Run ``attempt(items)`` under the breaker and retry policy.

        An error response counts as a round trip to the breaker (Busy
        excepted: a half-open probe answered Busy must re-open the
        circuit — the server is shedding load, not serving).  A
        retryable error kind is retried on the live connection; a
        lost connection is retried after reconnect + resume.  Either
        way the resend carries the *same* request ids, so every item
        that already executed is answered from the session's replay
        cache instead of running twice.
        """
        tries = 0
        while True:
            if self._breaker is not None and not self._breaker.allow(
                    readonly=all(op in READ_ONLY_OPS
                                 for _, op, _ in items)):
                raise CircuitOpenError(
                    f"circuit open: refusing {items[0][1]!r}; only "
                    "read-only operations pass until the server "
                    "recovers")
            try:
                results = attempt(items)
            except RemoteError as exc:
                lost = isinstance(exc, ConnectionLost)
                if lost:
                    self._drop_socket()
                if self._breaker is not None:
                    if lost:
                        self._breaker.record_failure()
                    elif exc.kind == "Busy":
                        self._breaker.record_busy()
                    else:
                        self._breaker.record_success()
                if self._retry is None or \
                        tries >= self._retry.max_retries or \
                        not (lost or exc.kind in RETRYABLE_KINDS):
                    raise
                self._retry.backoff(tries)
                tries += 1
                if lost:
                    self._try_reconnect()
                continue
            if self._breaker is not None:
                self._breaker.record_success()
            return results

    def _number(self, requests: List[Tuple[str, Dict]]) -> List[Request]:
        first = self._next_id + 1
        self._next_id += len(requests)
        return [(first + i, op, args)
                for i, (op, args) in enumerate(requests)]

    def call(self, op: str, **args: Any) -> Any:
        """One request, one response — with retry if configured."""
        self._next_id += 1
        return self._retrying([(self._next_id, op, args)],
                              self._send_each)[0]

    def pipeline(self, requests: List[Tuple[str, Dict]]) -> List[Any]:
        """Send every request frame before reading any response.

        Returns results in request order.  Every response is read
        before the first failed request's error is raised, so the
        connection stays in step for the next request.
        """
        if not requests:
            return []
        return self._retrying(self._number(requests), self._send_each)

    def batch(self, requests: List[Tuple[str, Dict]]) -> List[Any]:
        """Pack many requests into one frame (one syscall each way);
        an item's error raises after the whole batch was answered."""
        if not requests:
            return []
        return self._retrying(self._number(requests), self._send_batch)

    # -- Table I convenience ----------------------------------------------

    def create(self, name: str, size: int, mode: int = 0o600) -> Dict:
        return self.call("create", name=name, size=size, mode=mode)

    def open(self, name: str, access: str = "rw") -> Dict:
        return self.call("open", name=name, access=access)

    def close_pmo(self, name: str) -> Dict:
        return self.call("close", name=name)

    def destroy(self, name: str) -> Dict:
        return self.call("destroy", name=name)

    def attach(self, name: str, access: str = "rw") -> Dict:
        return self.call("attach", name=name, access=access)

    def detach(self, name: str) -> Dict:
        return self.call("detach", name=name)

    def pmalloc(self, name: str, size: int) -> Oid:
        return Oid.unpack(self.call("pmalloc", name=name,
                                    size=size)["oid"])

    def pfree(self, oid: Oid) -> None:
        self.call("pfree", oid=oid.pack())

    def read(self, oid: Oid, n: int) -> bytes:
        data = self.call("read", oid=oid.pack(), n=n)["data"]
        return data if isinstance(data, bytes) else \
            protocol.decode_bytes(data)

    def write(self, oid: Oid, data: bytes) -> int:
        return self.call("write", oid=oid.pack(),
                         data=bytes(data))["n"]

    def read_u64(self, oid: Oid) -> int:
        return self.call("read_u64", oid=oid.pack())["value"]

    def write_u64(self, oid: Oid, value: int) -> None:
        self.call("write_u64", oid=oid.pack(), value=value)

    def psync(self, name: str) -> int:
        return self.call("psync", name=name)["flushed"]

    def tx_begin(self, name: str) -> int:
        return self.call("tx_begin", name=name)["tx"]

    def tx_abort(self, name: str) -> None:
        self.call("tx_abort", name=name)

    def metrics(self) -> Dict:
        return self.call("metrics")

    def trace(self, limit: int = 100, *,
              pmo: Optional[str] = None,
              kind: Optional[str] = None,
              name: Optional[str] = None) -> Dict:
        """Recent spans + exposure audit events, optionally filtered."""
        args: Dict[str, Any] = {"limit": limit}
        if pmo is not None:
            args["pmo"] = pmo
        if kind is not None:
            args["kind"] = kind
        if name is not None:
            args["name"] = name
        return self.call("trace", **args)

    def prometheus(self) -> str:
        """The daemon's registry in Prometheus text exposition."""
        return self.call("prometheus")["text"]

    def ping(self) -> Dict:
        return self.call("ping")

    def goodbye(self) -> Dict:
        return self.call("goodbye")
