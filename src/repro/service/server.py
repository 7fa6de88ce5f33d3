"""terpd — the asyncio PMO daemon.

:class:`TerpService` multiplexes many client sessions onto one shared
:class:`~repro.pmo.api.PmoLibrary` whose semantics engine is the
hardware :class:`~repro.arch.cond_engine.TerpArchEngine`: every remote
attach/detach flows through the CONDAT/CONDDT cases, so window
combining, the circular buffer, and the permission matrix operate
*across* clients exactly as they do across threads in the paper.

Temporal enforcement is two-layered:

* **engine sweep** — the arch engine's periodic sweep closes expired
  delayed-detach windows and re-randomizes held PMOs (Figure 7a),
  driven here by a background asyncio task instead of a hardware timer;
* **session-scoped enforcement** — each session carries a wall-clock
  exposure budget; the same background task force-detaches any PMO a
  session has held past its budget, delivering a ``forced-detach``
  event on the session's next response.  A client that crashes or
  disconnects mid-attach is cleaned up the same way on connection
  teardown, so no remote failure mode can leave a window open.

The daemon's clock is the host's monotonic clock (ns since service
construction); it drives the library clock through
:meth:`PmoLibrary.advance_to`, so exposure windows measured by the
runtime are real wall-clock durations.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.arch.cond_engine import TerpArchEngine
from repro.core.errors import (
    InjectedCrash, IntegrityError, PmoError, TerpError)
from repro.faults.plan import FaultPlan, Injection
from repro.mem.mpk import NUM_KEYS
from repro.core.permissions import Access
from repro.obs import Observability
from repro.pmo.api import PmoLibrary
from repro.pmo.object_id import Oid
from repro.pmo.pool import mode_allows
from repro.pmo.store import (
    DEFAULT_COMMIT_INTERVAL_US, SCRUB_PAGES_PER_PASS, CommitTicket,
    PmoStore)
from repro.service import protocol
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MALFORMED_ARGS, PROTOCOL_V1, PROTOCOL_VERSION, WireError,
    error_response, ok_response)
from repro.service.recovery import (
    RecoveryManager, RecoveryReport, SessionJournal)
from repro.service.registry import SessionManager
from repro.service.sessions import Session, parse_hello
from repro.service.sweeping import Sweeper

#: Default wall-clock exposure budget per session: 50ms.  Generous next
#: to the paper's 40us simulated target, but terpd enforces over real
#: client round-trips, not simulated cycles.
DEFAULT_SESSION_EW_NS = 50_000_000
#: Default sweep period: 10ms, a 5x oversampling of the budget.
DEFAULT_SWEEP_PERIOD_NS = 10_000_000
#: How long a dropped session's identity lingers for resume: 2s.
DEFAULT_SESSION_LINGER_NS = 2_000_000_000

#: glibc ``mallopt`` parameters and the fixed values daemons run with.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 64 << 20
_MMAP_THRESHOLD_BYTES = 1 << 20


def fix_malloc_thresholds() -> bool:
    """Pin glibc's heap-trim and mmap thresholds for a daemon process.

    Every asyncio socket read allocates a 256 KiB buffer and shrinks
    it.  With glibc's default *dynamic* thresholds, whether that
    buffer lands at the heap top and is trimmed back to the kernel on
    every free depends on the heap layout at start-up; when it is, the
    process takes ~18k minor page faults a second and each request
    ~25 us longer (measured on a 2-vCPU VM, router of a 1-shard
    cluster).  Fixed thresholds keep such buffers in a heap that is
    never trimmed, whatever the layout.  Called by the daemon entry
    points (before a cluster supervisor forks, so children inherit
    it); a no-op returning False where ``mallopt`` is unavailable.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
                and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES))


class _Conn:
    """Per-connection state: the bound session, once hello'd."""

    __slots__ = ("session", "peer", "generation", "version", "bins",
                 "bin_out")

    def __init__(self, peer: str) -> None:
        self.session: Optional[Session] = None
        self.peer = peer
        #: the session's bind generation this connection owns; teardown
        #: only unbinds if no newer connection has resumed the session.
        self.generation = 0
        #: negotiated protocol revision; v1 until hello says otherwise.
        self.version = PROTOCOL_V1
        #: the current request frame's sidecar cursor (v2 requests
        #: consume their binary chunks from it, in frame order).
        self.bins = protocol.BinReader(b"")
        #: binary chunks produced by the current frame's responses;
        #: joined into the response frame's sidecar.
        self.bin_out: List[bytes] = []


class _PendingFlush:
    """A psync whose fsyncs ride the group committer: the handler
    returns this marker under the library lock; the dispatcher awaits
    the ticket *off* the event loop (``run_in_executor``) after the
    lock is released, so other sessions keep being served while the
    flusher thread pays the fsyncs."""

    __slots__ = ("base", "ticket")

    def __init__(self, base: int, ticket: CommitTicket) -> None:
        self.base = base
        self.ticket = ticket


class TerpService:
    """The terpd daemon: Table I over sockets, with exposure sweeping."""

    def __init__(self, *, host: str = "127.0.0.1",
                 port: Optional[int] = 0,
                 unix_path: Optional[str] = None,
                 ew_target_us: float = 40.0,
                 session_ew_ns: int = DEFAULT_SESSION_EW_NS,
                 sweep_period_ns: int = DEFAULT_SWEEP_PERIOD_NS,
                 cb_capacity: int = 32,
                 seed: int = 2022,
                 obs: Optional[Observability] = None,
                 obs_enabled: bool = True,
                 faults: Optional[FaultPlan] = None,
                 max_sessions: Optional[int] = None,
                 session_linger_ns: int = DEFAULT_SESSION_LINGER_NS,
                 pool_dir: Optional[str] = None,
                 scrub_pages_per_sweep: int = SCRUB_PAGES_PER_PASS,
                 commit_interval_us: int = DEFAULT_COMMIT_INTERVAL_US,
                 protocol_version: int = PROTOCOL_VERSION,
                 shard_index: Optional[int] = None,
                 shard_count: int = 1,
                 replicate_to: Optional[str] = None) -> None:
        if port is None and unix_path is None:
            raise TerpError("need a TCP port and/or a unix socket path")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.sweep_period_ns = sweep_period_ns
        #: Cluster identity: shard ``i`` of ``N`` allocates pmo_ids in
        #: the residue class ``i+1 (mod N)``, so the router can map an
        #: Oid's pool id back to its owning shard with arithmetic
        #: alone.  ``None`` means a standalone daemon (the default).
        self.shard_index = shard_index
        self.shard_count = shard_count
        #: The observability switchboard: metrics registry + tracer +
        #: exposure audit timeline, shared with the library and the
        #: runtime.  ``obs_enabled=False`` runs the daemon in the
        #: measured no-op mode (every recorder short-circuits).
        self.obs = obs if obs is not None else Observability(
            enabled=obs_enabled)
        self._tracer = self.obs.tracer if self.obs.enabled else None
        # Bound mapped PMOs by the MPK key pool as well as the CB:
        # the 16th simultaneous mapping must evict, not exhaust keys.
        engine = TerpArchEngine(int(ew_target_us * 1_000),
                                capacity=cb_capacity,
                                domain_capacity=NUM_KEYS - 1,
                                sweep_period_ns=sweep_period_ns)
        engine.tracer = self._tracer
        self.engine = engine
        #: Optional deterministic fault-injection plan.  One plan is
        #: shared by every layer: the library's storage sites, the
        #: engine's capacity sites, and the server's connection sites
        #: all consume arrivals from the same seeded schedule, and each
        #: firing lands on the audit timeline as a ``fault`` event.
        self.faults = faults
        if faults is not None:
            engine.faults = faults
            faults.on_fire = self._note_injection
        self.max_sessions = max_sessions
        self.session_linger_ns = session_linger_ns
        #: Durable pool backend (``--pool-dir``): file-per-PMO storage
        #: with CRC trailers + double-write journal, a session journal
        #: for warm restart, and a scrub pass on every sweep.
        self.pool_dir = pool_dir
        self.store: Optional[PmoStore] = None
        self.session_journal: Optional[SessionJournal] = None
        self.recovery_report: Optional[RecoveryReport] = None
        self._epoch_wall_ns: Optional[int] = None
        #: highest wire protocol revision this server speaks; capped
        #: at 1 to emulate a legacy (pre-sidecar) daemon in tests.
        self.protocol_version = protocol_version
        if pool_dir is not None:
            self.store = PmoStore(pool_dir, faults=faults,
                                  commit_interval_us=commit_interval_us)
        self.lib = PmoLibrary(semantics=engine, seed=seed, strict=True,
                              obs=self.obs, faults=faults,
                              store=self.store)
        if shard_index is not None:
            self.lib.manager.set_id_namespace(start=shard_index + 1,
                                              step=shard_count)
        if self.store is not None:
            engine.scrubber = lambda: self.store.scrub(
                scrub_pages_per_sweep)
            engine.on_scrub = self._on_scrub
        self.metrics = ServiceMetrics(self.obs.registry)
        #: Session lifecycle: allocation, resume, release, journaling.
        self.sessions = SessionManager(
            lib=self.lib, metrics=self.metrics, obs=self.obs,
            default_ew_budget_ns=session_ew_ns, token_seed=seed,
            max_sessions=max_sessions)
        #: The raw registry, for embedders and recovery.
        self.registry = self.sessions.registry
        engine.on_forced_detach = self.sessions.on_engine_forced_detach
        self._t0 = time.monotonic_ns()
        #: Temporal enforcement: the session-budget + engine sweep.
        self.sweeper = Sweeper(
            lib=self.lib, sessions=self.sessions, metrics=self.metrics,
            obs=self.obs, sweep_period_ns=sweep_period_ns,
            session_linger_ns=session_linger_ns, now_ns=self.now_ns,
            faults=faults, tracer=self._tracer)
        self._servers: List[asyncio.AbstractServer] = []
        self._sweeper: Optional[asyncio.Task] = None
        self._writers: set = set()
        self._stopped = False
        self._crashed = False
        self.bound_port: Optional[int] = None
        self._handlers: Dict[str, Callable[[_Conn, Dict], Any]] = {
            "hello": self._op_hello,
            "goodbye": self._op_goodbye,
            "ping": self._op_ping,
            "metrics": self._op_metrics,
            "create": self._op_create,
            "open": self._op_open,
            "close": self._op_close,
            "destroy": self._op_destroy,
            "attach": self._op_attach,
            "detach": self._op_detach,
            "pmalloc": self._op_pmalloc,
            "pfree": self._op_pfree,
            "read": self._op_read,
            "write": self._op_write,
            "read_u64": self._op_read_u64,
            "write_u64": self._op_write_u64,
            "psync": self._op_psync,
            "tx_begin": self._op_tx_begin,
            "tx_abort": self._op_tx_abort,
            "trace": self._op_trace,
            "prometheus": self._op_prometheus,
            "repl_status": self._op_repl_status,
        }
        #: per-op span names, precomputed off the hot path
        self._span_names = {op: f"terpd.{op}" for op in self._handlers}
        #: ops allowed before hello binds a session (observability
        #: reads included: a scraper needs no entity identity)
        self._sessionless = {"hello", "ping", "metrics", "trace",
                             "prometheus", "repl_status"}
        if self.store is not None:
            # Warm restart happens *here*, before any socket binds:
            # the pool is rescanned and verified, surviving sessions
            # are restored (lingering, same resume token), and every
            # holding open at the crash is force-detached on the
            # unbroken exposure clock — all before the first request.
            self.session_journal = SessionJournal(pool_dir)
            self.sessions.journal = self.session_journal
            self.recovery_report = RecoveryManager(self).recover()
        #: Journal shipping (``--replicate-to host:port``): every
        #: post-fsync group-commit batch streams to a warm standby,
        #: semi-synchronously — a psync acked to the client is applied
        #: on the standby too (invariant I7).  Built after recovery so
        #: the first bootstrap ships the recovered (compacted) state.
        self.replicate_to = replicate_to
        self.shipper: Optional[Any] = None
        if replicate_to is not None:
            if self.store is None:
                raise TerpError("--replicate-to requires --pool-dir "
                                "(only durable state can be shipped)")
            from repro.replication.shipper import JournalShipper
            peer_host, _, peer_port = replicate_to.rpartition(":")
            self.shipper = JournalShipper(
                peer_host or "127.0.0.1", int(peer_port),
                store=self.store, journal=self.session_journal,
                metrics=self.metrics, faults=faults)
            self.store.shipper = self.shipper
            self.session_journal.mirror = self.shipper.ship_journal

    # -- clock ---------------------------------------------------------------

    def wall_clock_ns(self) -> int:
        return time.time_ns()

    def adopt_epoch(self, epoch_wall_ns: int) -> None:
        """Pin the service clock to a persisted wall-clock epoch.

        With a pool directory the exposure clock is
        ``wall_clock - epoch``: a restart on the same pool resumes the
        *same* time axis, so exposure accrued before the crash and
        time elapsed during the outage both count.
        """
        self._epoch_wall_ns = epoch_wall_ns

    def now_ns(self) -> int:
        """Nanoseconds on the service's exposure clock.

        Monotonic since construction for an in-memory daemon; with a
        durable pool, wall-clock since the pool's persisted epoch —
        continuous across daemon restarts.
        """
        if self._epoch_wall_ns is not None:
            return max(0, time.time_ns() - self._epoch_wall_ns)
        return time.monotonic_ns() - self._t0

    # -- scrub hook -----------------------------------------------------------

    def _on_scrub(self, result) -> None:
        """Engine callback after each sweep's bounded scrub pass."""
        if not isinstance(result, dict):
            return
        self.metrics.note_scrub(
            verified=result.get("verified", 0),
            repaired=result.get("repaired", 0),
            quarantined=result.get("quarantined", 0))
        if self.obs.enabled:
            self.obs.audit.record_scrub(
                self.lib.clock_ns,
                verified=result.get("verified", 0),
                repaired=result.get("repaired", 0),
                quarantined=result.get("quarantined", 0))

    # -- fault-injection hook -------------------------------------------------

    def _note_injection(self, injection: Injection) -> None:
        """Every fired rule lands on the audit timeline, so a chaos
        run's faults and its exposure events share one record."""
        if self.obs.enabled:
            self.obs.audit.record_fault(
                injection.site, injection.kind, self.lib.clock_ns,
                detail=f"rule {injection.rule_index} "
                       f"arrival {injection.arrival}")
        self.metrics.note_fault(injection.site)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the configured endpoints and launch the sweeper."""
        if self.port is not None:
            server = await asyncio.start_server(
                self._serve_connection, self.host, self.port)
            self._servers.append(server)
            self.bound_port = server.sockets[0].getsockname()[1]
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._serve_connection, path=self.unix_path)
            self._servers.append(server)
        if self.shipper is not None:
            # The first dial (and bootstrap) happens off the event
            # loop; an unreachable standby degrades to the background
            # dialer, never delays serving.
            await asyncio.get_running_loop().run_in_executor(
                None, self.shipper.start)
        self._sweeper = asyncio.create_task(self.sweeper.loop())

    async def stop(self) -> None:
        """Graceful shutdown: stop sweeping, detach every session."""
        if self._stopped:
            return
        self._stopped = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
        for server in self._servers:
            server.close()
            await server.wait_closed()
        with self.lib.lock:
            now = self.lib.advance_to(self.now_ns())
            for session in self.registry:
                self.sessions.release(session, now, reason="shutdown")
                self.sessions.journal_close(session, now)
                self.registry.remove(session.session_id)
            self.lib.runtime.finish(self.lib.clock_ns)
        if self.store is not None:
            # Drain the group committer: every submitted psync batch
            # reaches disk before the journal handle goes away.
            self.store.close()
        if self.shipper is not None:
            # After the drain: every committed batch already shipped.
            self.shipper.stop()
        if self.session_journal is not None:
            self.session_journal.close()
        for writer in list(self._writers):
            writer.close()

    async def crash(self) -> None:
        """Die like ``kill -9``: sockets drop, nothing is released.

        The abrupt counterpart of :meth:`stop` for in-process restart
        tests: no session is detached, no journal record is written,
        no flush happens — exactly the state a SIGKILL leaves.  The
        session journal and the durable pool files already on disk are
        what recovery gets.
        """
        self._stopped = True
        self._crashed = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
        for server in self._servers:
            server.close()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self.store is not None:
            # The flusher thread dies with the process: queued commit
            # batches are dropped (their psyncs never answered, so
            # nothing was promised) and the thread is joined so it
            # cannot race a restarted service's recovery scan.
            self.store.abort_commits()
        if self.shipper is not None:
            # The replication socket dies mid-stream, as SIGKILL would.
            self.shipper.abort()
        if self.session_journal is not None:
            # Only drops the file handle; appended records stay.
            self.session_journal.close()

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    # -- the sweeper ---------------------------------------------------------

    def run_sweep(self) -> int:
        """One sweeper pass; returns the number of forced detaches.

        Delegates to :class:`~repro.service.sweeping.Sweeper`; kept on
        the service for tests and embedders that drive sweeps by hand.
        """
        return self.sweeper.run_sweep()

    # -- connection handling ---------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername") or \
            writer.get_extra_info("sockname") or "unix"
        conn = _Conn(str(peer))
        self._writers.add(writer)
        faults = self.faults
        transport = writer.transport
        try:
            while True:
                got = await protocol.read_frame_ex(reader)
                if got is None:
                    break
                payload, sidecar = got
                if faults is not None and \
                        faults.fire("server.conn_drop") is not None:
                    # The connection dies before the request runs: the
                    # client's retry re-sends it and it executes once.
                    break
                if faults is not None and \
                        faults.fire("server.session_crash") is not None:
                    # The session's handler "process" dies before the
                    # request runs: windows force-closed, identity gone
                    # for good (no resume), connection severed.
                    self._crash_session(conn)
                    break
                conn.bins = protocol.BinReader(sidecar)
                conn.bin_out = []
                try:
                    if isinstance(payload, list):
                        self.metrics.note_batch()
                        # Each response is encoded exactly once, here;
                        # encode_body splices the pre-encoded parts.
                        parts: List[bytes] = []
                        for one in payload:
                            parts.append(await self._dispatch(conn, one))
                        body = protocol.encode_body(parts)
                    else:
                        body = await self._dispatch(conn, payload)
                except InjectedCrash:
                    # A crash-kind storage fault mid-request: no
                    # response ever leaves; the crash-torture harness
                    # snapshots the persistent bytes at this instant.
                    self._crash_session(conn)
                    break
                out = conn.bin_out
                frame = protocol.frame_from_body(
                    body, b"".join(out) if out else None)
                if faults is not None:
                    rule = faults.fire("server.delay_response")
                    if rule is not None and rule.delay_ns > 0:
                        await asyncio.sleep(rule.delay_ns / 1e9)
                    rule = faults.fire("server.partial_frame")
                    if rule is not None:
                        # The request executed; only a truncated frame
                        # escapes.  The retried request hits the
                        # replay cache, not a second execution.
                        writer.write(frame[:max(1, len(frame) // 2)])
                        await writer.drain()
                        break
                # Write-coalescing: queue the frame and only pay a
                # drain once the transport buffer backs up, so a
                # pipelined burst of responses leaves in a few
                # syscalls instead of one flush per response.
                writer.write(frame)
                if transport is None or \
                        transport.get_write_buffer_size() > 65536:
                    await writer.drain()
        except (WireError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            session = conn.session
            if session is not None and not session.closed and \
                    not self._crashed and \
                    session.generation == conn.generation:
                # Temporal protection does not wait for a resume: every
                # window closes *now*, forced and attributed.  Only the
                # session's identity (token, replay cache, events)
                # lingers for a possible rebind.
                with self.lib.lock:
                    now = self.lib.advance_to(self.now_ns())
                    self.sessions.release(session, now,
                                          reason="connection lost")
                    session.unbind(now)
                self.metrics.note_session_closed()
                self.sessions.update_gauge()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _crash_session(self, conn: _Conn) -> None:
        """An injected mid-request crash: the session dies for good."""
        session = conn.session
        conn.session = None
        if session is None or session.closed:
            return
        with self.lib.lock:
            now = self.lib.advance_to(self.now_ns())
            self.sessions.release(session, now,
                                  reason="session crashed (injected)")
            self.sessions.close_session(session, now)

    # -- dispatch --------------------------------------------------------------

    async def _dispatch(self, conn: _Conn, req: Any) -> bytes:
        """Run one request; returns the *encoded* response body bytes.

        Encoding here (rather than in the serve loop) lets the replay
        cache hold pre-encoded bytes and lets a batch splice its parts
        without a second ``json.dumps`` pass.  Binary results land on
        ``conn.bin_out``; an error rolls the chunk list back to this
        request's start so a failed op never leaks sidecar bytes.
        """
        t0 = time.perf_counter_ns()
        rid = req.get("id") if isinstance(req, dict) else None
        op = req.get("op") if isinstance(req, dict) else None
        session = conn.session
        bin_start = len(conn.bin_out)
        if session is not None and isinstance(rid, int):
            # Idempotent replay: a request the server already executed
            # (the drop ate the response) returns its original
            # response instead of running twice.
            cached = session.replay_get(rid)
            if cached is not None:
                self.metrics.note_replay_served()
                return self._replay_bytes(conn, cached)
        try:
            if not isinstance(req, dict) or not isinstance(op, str):
                raise WireError("request must be an object with an 'op'")
            handler = self._handlers.get(op)
            if handler is None:
                raise WireError(f"unknown op {op!r}")
            if session is None and op not in self._sessionless:
                raise TerpError(f"op {op!r} requires a session; "
                                "say hello first")
            args = req.get("args") or {}
            if not isinstance(args, dict):
                raise WireError("'args' must be an object")
            with self.lib.lock:
                self.lib.advance_to(self.now_ns())
                result = handler(conn, args)
            if isinstance(result, _PendingFlush):
                # Group commit's executor boundary: the library lock is
                # already released; the ticket wait (the fsyncs) runs
                # on a worker thread so the event loop keeps serving
                # other connections while the flusher batches.
                flushed = result.base
                if result.ticket.done:
                    flushed += result.ticket.wait(0)
                else:
                    loop = asyncio.get_running_loop()
                    flushed += await loop.run_in_executor(
                        None, result.ticket.wait)
                result = {"flushed": flushed}
            session = conn.session     # hello may have bound one
            events = session.drain_events() if session else None
            response = ok_response(rid, result, events)
            ok = True
            body = protocol.encode_body(response)
            if session is not None and isinstance(rid, int):
                # Only successes are cached: a retried failure must
                # re-execute, or a transient error would replay as a
                # permanent one.
                session.replay_put(rid, body,
                                   tuple(conn.bin_out[bin_start:]))
        except InjectedCrash:
            raise                      # the "process" dies mid-request
        except (TerpError, WireError) as exc:
            del conn.bin_out[bin_start:]
            events = session.drain_events() if session else None
            body = protocol.encode_body(error_response(
                rid, type(exc).__name__, str(exc), events))
            ok = False
        except MALFORMED_ARGS as exc:
            del conn.bin_out[bin_start:]
            body = protocol.encode_body(error_response(
                rid, "BadRequest", f"malformed arguments: {exc!r}"))
            ok = False
        latency = time.perf_counter_ns() - t0
        op_name = op if isinstance(op, str) else "?"
        self.metrics.note_request(op_name, latency, ok=ok)
        if self._tracer is not None:
            self._tracer.record_since(
                self._span_names.get(op_name, "terpd.?"), t0, ok=ok)
        if session is not None:
            session.metrics.requests += 1
            if not ok:
                session.metrics.errors += 1
        return body

    def _replay_bytes(self, conn: _Conn, cached: tuple) -> bytes:
        """Re-emit a cached response on this connection's protocol."""
        body, chunks = cached
        if not chunks:
            return body
        if conn.version >= 2:
            conn.bin_out.extend(chunks)
            return body
        # A v1 connection (e.g. a downgraded resume) replaying a
        # response first served over v2: fold the sidecar chunks back
        # into base64 text.
        response = json.loads(body)
        result = response.get("result")
        if isinstance(result, dict) and "bin" in result:
            result.pop("bin")
            result["data"] = protocol.encode_bytes(b"".join(chunks))
        return protocol.encode_body(response)

    # -- ops: session ----------------------------------------------------------

    def _op_hello(self, conn: _Conn, args: Dict) -> Dict:
        hello = parse_hello(args, bound=conn.session is not None,
                            server_version=self.protocol_version)
        if hello.resume is not None:
            session = self.sessions.resume_session(hello.resume,
                                                   hello.token)
        else:
            session = self.sessions.open_session(
                user=hello.user, ew_budget_ns=hello.ew_budget_ns,
                at_ns=self.lib.clock_ns)
        conn.generation = session.bind()
        conn.session = session
        conn.version = hello.version
        self.metrics.note_session_opened()
        self.sessions.update_gauge()
        return hello.reply(session)

    def _op_goodbye(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        assert session is not None
        released = self.sessions.release(session, self.lib.clock_ns,
                                         reason="goodbye")
        self.sessions.close_session(session, self.lib.clock_ns)
        return {"released": released}

    def _op_ping(self, conn: _Conn, args: Dict) -> Dict:
        return {"now_ns": self.lib.clock_ns,
                "sessions": len(self.registry)}

    def _op_metrics(self, conn: _Conn, args: Dict) -> Dict:
        counters = self.lib.runtime.counters
        out = {
            "global": self.metrics.to_dict(),
            "sessions": len(self.registry),
            "runtime": {
                "attach_calls": counters.attach_calls,
                "detach_calls": counters.detach_calls,
                "silent_percent": counters.silent_percent,
                "randomizations": counters.randomizations,
                "faults": counters.faults,
                "accesses": counters.accesses,
            },
            "arch_cases": {
                "case1_first_attach":
                    self.engine.cases.case1_first_attach,
                "case3_silent_attach":
                    self.engine.cases.case3_silent_attach,
                "case5_full_detach":
                    self.engine.cases.case5_full_detach,
                "case6_delayed_detach":
                    self.engine.cases.case6_delayed_detach,
                "sweep_detaches": self.engine.cases.sweep_detaches,
                "sweep_randomizes": self.engine.cases.sweep_randomizes,
            },
            "audit": self.obs.audit.summary(),
            "trace": self.obs.tracer.stats(),
        }
        if self.shard_index is not None:
            out["shard"] = self.shard_index
        if args.get("raw"):
            # The full instrument registry (counters, gauges, and
            # histograms *with buckets*): what the cluster router
            # fans out for, so it can sum counters and merge latency
            # buckets exactly instead of averaging percentiles.
            out["registry"] = self.obs.registry.to_dict()
        if self.recovery_report is not None:
            out["recovery"] = self.recovery_report.to_dict()
        if conn.session is not None:
            out["session"] = conn.session.metrics.to_dict()
        return out

    def _op_repl_status(self, conn: _Conn, args: Dict) -> Dict:
        """Replication health: target, connectivity, lag, drops."""
        if self.shipper is None:
            return {"enabled": False}
        return {"enabled": True, **self.shipper.status()}

    def _op_trace(self, conn: _Conn, args: Dict) -> Dict:
        """Observability read: recent spans + audit timeline events."""
        limit = int(args.get("limit", 100))
        pmo = args.get("pmo")
        kind = args.get("kind")
        name = args.get("name")
        return {
            "spans": self.obs.tracer.recent(
                limit=limit, name=str(name) if name is not None
                else None),
            "audit": self.obs.audit.events(
                pmo=pmo, kind=str(kind) if kind is not None else None,
                limit=limit),
            "open_windows": self.obs.audit.open_windows(
                self.lib.clock_ns),
        }

    def _op_prometheus(self, conn: _Conn, args: Dict) -> Dict:
        """The registry in Prometheus text exposition format."""
        return {"text": self.obs.registry.prometheus_text()}

    # -- observability dump ----------------------------------------------------

    def dump_observability(self) -> Dict:
        """The full registry/audit/trace state as one document —
        the payload of ``--metrics-dump`` and of embedders that want
        everything at once."""
        counters = self.lib.runtime.counters
        return self.obs.dump(extra={
            "service": self.metrics.to_dict(),
            "shard": self.shard_index,
            "sessions": len(self.registry),
            "runtime": {
                "attach_calls": counters.attach_calls,
                "detach_calls": counters.detach_calls,
                "silent_percent": counters.silent_percent,
                "randomizations": counters.randomizations,
                "faults": counters.faults,
                "accesses": counters.accesses,
            },
        })

    # -- ops: namespace --------------------------------------------------------

    def _op_create(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        pmo = self.lib.PMO_create(str(args["name"]), int(args["size"]),
                                  int(args.get("mode", 0o600)),
                                  owner=session.user)
        return {"pmo": pmo.pmo_id, "name": pmo.name,
                "size": pmo.size_bytes}

    def _op_open(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        access = Access.parse(str(args.get("access", "rw")))
        pmo = self.lib.PMO_open(str(args["name"]), access,
                                user=session.user)
        return {"pmo": pmo.pmo_id, "name": pmo.name,
                "size": pmo.size_bytes}

    def _op_close(self, conn: _Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        self.lib.PMO_close(pmo)
        return {"closed": pmo.pmo_id}

    def _op_destroy(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        name = str(args["name"])
        pmo = self.lib.manager.lookup(name)
        if session.user not in (pmo.owner, "root"):
            raise PmoError(f"user {session.user!r} may not destroy "
                           f"PMO {name!r} owned by {pmo.owner!r}")
        self.lib.PMO_destroy(name)
        return {"destroyed": name}

    # -- ops: attach / detach ----------------------------------------------------

    def _op_attach(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        access = Access.parse(str(args.get("access", "rw")))
        pmo = self.lib.manager.lookup(str(args["name"]))
        if not mode_allows(pmo.mode,
                           is_owner=(session.user == pmo.owner),
                           requested=access):
            raise PmoError(f"user {session.user!r} denied {access} on "
                           f"PMO {pmo.name!r}")
        if pmo.quarantined and access & Access.WRITE:
            # A quarantined PMO (unrepairable integrity failure) stays
            # readable for forensics but never writable.
            raise IntegrityError(
                f"PMO {pmo.name!r} is quarantined "
                f"({pmo.quarantine_reason}); write attach denied",
                pmo=pmo.name)
        now = self.lib.clock_ns
        result = self.lib.runtime.attach(session.entity_id, pmo, access,
                                         now)
        if not result.ok:
            raise PmoError(f"attach failed: {result.decision.reason}")
        session.note_attach(pmo.pmo_id, now)
        self.sessions.journal_attach(session, pmo.pmo_id, pmo.name, now)
        self.metrics.note_attach()
        return {"outcome": result.decision.outcome.value,
                "base_va": result.handle.base_va_at_attach,
                "reason": result.decision.reason}

    def _op_detach(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        pmo = self.lib.manager.lookup(str(args["name"]))
        if pmo.pmo_id in session.forced_pmos:
            # The sweeper already detached this on the session's
            # behalf and the session's own detach raced it — a defined
            # silent outcome, mirroring the engine's forced-pair rule.
            session.forced_pmos.discard(pmo.pmo_id)
            return {"outcome": "silent",
                    "reason": "already force-detached by sweeper"}
        decision = self.lib.runtime.detach(session.entity_id, pmo,
                                           self.lib.clock_ns)
        session.note_detach(pmo.pmo_id)
        self.sessions.journal_detach(session, pmo.pmo_id, pmo.name,
                                     self.lib.clock_ns)
        self.metrics.note_detach()
        return {"outcome": decision.outcome.value,
                "reason": decision.reason}

    # -- ops: heap + data --------------------------------------------------------

    def _op_pmalloc(self, conn: _Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        oid = self.lib.pmalloc(pmo, int(args["size"]))
        return {"oid": oid.pack()}

    def _op_pfree(self, conn: _Conn, args: Dict) -> Dict:
        self.lib.pfree(Oid.unpack(int(args["oid"])))
        return {"freed": True}

    def _op_read(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        n = int(args["n"])
        with self.lib.thread(session.entity_id):
            data = self.lib.read(Oid.unpack(int(args["oid"])), n)
        session.metrics.bytes_read += len(data)
        if conn.version >= 2:
            conn.bin_out.append(data)
            return {"bin": len(data)}
        return {"data": protocol.encode_bytes(data)}

    def _op_write(self, conn: _Conn, args: Dict) -> Dict:
        session = conn.session
        raw = args["data"]
        if isinstance(raw, dict):
            # v2 binary marker: the payload rode the frame's sidecar.
            data = conn.bins.take(int(raw["bin"]))
        else:
            data = protocol.decode_bytes(str(raw))
        with self.lib.thread(session.entity_id):
            self.lib.write(Oid.unpack(int(args["oid"])), data)
        session.metrics.bytes_written += len(data)
        return {"n": len(data)}

    def _op_read_u64(self, conn: _Conn, args: Dict) -> Dict:
        with self.lib.thread(conn.session.entity_id):
            value = self.lib.read_u64(Oid.unpack(int(args["oid"])))
        conn.session.metrics.bytes_read += 8
        return {"value": value}

    def _op_write_u64(self, conn: _Conn, args: Dict) -> Dict:
        with self.lib.thread(conn.session.entity_id):
            self.lib.write_u64(Oid.unpack(int(args["oid"])),
                               int(args["value"]))
        conn.session.metrics.bytes_written += 8
        return {"written": True}

    def _op_psync(self, conn: _Conn, args: Dict) -> Any:
        pmo = self.lib.manager.lookup(str(args["name"]))
        base, ticket = self.lib.psync_submit(pmo)
        if ticket is None:
            return {"flushed": base}
        return _PendingFlush(base, ticket)

    def _op_tx_begin(self, conn: _Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        return {"tx": pmo.begin_tx()}

    def _op_tx_abort(self, conn: _Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        pmo.abort_tx()
        return {"aborted": True}


class ServiceThread:
    """Run a :class:`TerpService` on its own event loop in a thread.

    The harness the example, the benchmark, and the tests share: the
    caller's thread stays synchronous (driving
    :class:`~repro.service.client.SyncTerpClient`s) while the daemon
    serves from a background loop.
    """

    def __init__(self, service: TerpService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> TerpService:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="terpd")
        self._thread.start()
        if not self._started.wait(timeout):
            raise TerpError("terpd thread failed to start in time")
        if self._error is not None:
            raise TerpError(f"terpd failed to start: {self._error}")
        return self.service

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:   # surface to start()/stop()
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._started.set()
        await self._stop.wait()
        if not self.service._crashed:
            await self.service.stop()

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TerpError("terpd thread did not stop in time")
        self._thread = None

    def kill(self, timeout: float = 10.0) -> None:
        """SIGKILL the daemon, in-process: abrupt death, no shutdown.

        Sessions are not released, the session journal gets no
        goodbye records, nothing is flushed — the pool directory is
        left exactly as the last ``psync`` put it.  Restart by
        constructing a fresh :class:`TerpService` on the same
        ``pool_dir``.
        """
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.crash(), self._loop)
            try:
                future.result(timeout)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TerpError("terpd thread did not die in time")
        self._thread = None

    def __enter__(self) -> TerpService:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
