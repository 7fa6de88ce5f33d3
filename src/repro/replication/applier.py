"""The standby's half of journal shipping: apply, ack, promote.

:class:`JournalApplier` continuously replays shipped frames into its
own pool directory using the durable store's *exact* file formats
(header page, CRC-trailed page slots, journal-before-home batches) and
its journal writer, in-place retire and slot writer — imported from
:mod:`repro.pmo.store`, never re-derived — so the standby's directory
is at all times a valid pool that
:meth:`~repro.pmo.store.PmoStore.load_all` can recover.  A batch is
acked only after both of its fsyncs, which is the standby's half of
invariant I7: an ack the primary's semi-sync commit waited for means
the acknowledged write exists in two pool directories.

Per PMO the applier enforces the shipped chain: batch ``(prev, seq]``
must extend the last applied seq exactly (``prev == -1`` resets the
chain — a bootstrap snapshot).  A broken chain raises, the link drops,
and the primary's reconnect bootstraps from scratch: gaps heal by
snapshot, never by guessing.

:class:`StandbyDaemon` wraps the applier in a listening socket plus a
``promote`` control path.  Promotion is deliberately thin: it
constructs a :class:`~repro.service.server.TerpService` over the
standby's pool directory on the primary's port — and
:class:`~repro.service.recovery.RecoveryManager` runs **verbatim** in
the service constructor, exactly as a warm restart would: pool rescan,
epoch adoption from the mirrored session journal (the exposure clock
continues, unbroken, through the failover), outage-attributed forced
detaches, session restore in the lingering state.  Clients reconnect
through the existing typed-``ConnectionLost`` retry path and resume
with the tokens they already hold.
"""

from __future__ import annotations

import os
import socket
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import TerpError
from repro.core.units import PAGE_SIZE
from repro.pmo.store import (
    HEADER_SPAN, _safe_filename, retire_journal, write_journal,
    write_slots)
from repro.replication.wire import (
    REPL_PROTOCOL_VERSION, ReplicationWireError, recv_msg, send_msg)
from repro.service.recovery import SessionJournal

__all__ = ["JournalApplier", "StandbyDaemon", "ReplicationChainError"]


class ReplicationChainError(TerpError):
    """A shipped batch does not extend the applied chain; the link
    must drop and re-bootstrap."""


class JournalApplier:
    """Replays shipped frames into a standby pool directory."""

    def __init__(self, pool_dir: os.PathLike, *,
                 fsync: bool = True) -> None:
        self.root = Path(pool_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._journal = SessionJournal(self.root)
        #: last applied flush_seq per PMO — the chain heads.
        self.applied: Dict[str, int] = {}
        self.batches_applied = 0
        self.pages_applied = 0
        self.journal_records = 0
        self.chain_errors = 0

    def path_for(self, name: str) -> Path:
        return self.root / f"{_safe_filename(name)}.pmo"

    def journal_path_for(self, name: str) -> Path:
        return self.root / f"{_safe_filename(name)}.journal"

    def close(self) -> None:
        self._journal.close()

    # -- frame application -------------------------------------------------

    def apply_header(self, name: str, header: bytes) -> None:
        """(Re)create a PMO's durable file as the bare header.

        Deliberately truncating: a header is shipped at registration
        (fresh PMO, nothing to keep) and at bootstrap (a full snapshot
        follows immediately), so any pages already in the file belong
        to a stale generation and must not survive into a promotion.
        The chain restarts at 0; the bootstrap snapshot's ``prev ==
        -1`` re-seats it at the snapshot seq.
        """
        if len(header) != HEADER_SPAN:
            raise ReplicationWireError(
                f"shipped header is {len(header)} bytes, "
                f"expected {HEADER_SPAN}")
        with self._lock:
            with open(self.path_for(name), "wb") as fh:
                fh.write(header)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            self.journal_path_for(name).unlink(missing_ok=True)
            self.applied[name] = 0

    def apply_batch(self, name: str, seq: int, prev: int,
                    meta: List[List[int]], payload: bytes) -> None:
        """Apply one committed batch journal-before-home and record
        its seq as the PMO's new chain head.  Raises (never acks) on a
        chain break, a CRC mismatch, or a malformed payload."""
        pages = self._check_batch(name, seq, prev, meta, payload)
        with self._lock:
            self._verify_chain(name, seq, prev)
            path = self.path_for(name)
            if not path.exists():
                self.chain_errors += 1
                raise ReplicationChainError(
                    f"batch for {name!r} before its header")
            # The same double-write discipline as the primary, through
            # the same persistent journal: a standby crash mid-apply
            # leaves either an unapplied journal or a committed one
            # recovery replays.
            journal = self.journal_path_for(name)
            write_journal(journal, seq, pages, fsync=self.fsync)
            write_slots(path, pages, fsync=self.fsync)
            retire_journal(journal)
            self.applied[name] = seq
            self.batches_applied += 1
            self.pages_applied += len(pages)

    def apply_journal(self, record: Dict[str, Any]) -> None:
        """Append one mirrored session-journal record."""
        with self._lock:
            self._journal._append(record)
            self.journal_records += 1

    def apply_destroy(self, name: str) -> None:
        with self._lock:
            self.applied.pop(name, None)
            self.journal_path_for(name).unlink(missing_ok=True)
            self.path_for(name).unlink(missing_ok=True)

    def apply_reset(self, names: List[str]) -> None:
        """Reconcile the mirror with the primary's registered set (the
        first frame of every bootstrap): prune mirrored files for PMOs
        the primary no longer has — a destroy that raced a disconnect,
        or a stale prior generation in this directory — and restart
        the mirrored session journal, which the primary re-ships in
        full immediately after.

        Pruned names leave ``applied`` before their files go, so an
        observer that sees a file gone also sees its name gone."""
        live = {str(name) for name in names}
        keep = {_safe_filename(name) for name in live}
        with self._lock:
            for name in list(self.applied):
                if name not in live:
                    del self.applied[name]
            for path in self.root.glob("*.journal"):
                if path != self._journal.path \
                        and path.stem not in keep:
                    path.unlink(missing_ok=True)
            for path in self.root.glob("*.pmo"):
                if path.stem not in keep:
                    path.unlink(missing_ok=True)
            self._journal.close()
            self._journal.path.unlink(missing_ok=True)

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pool_dir": str(self.root),
                "applied": dict(self.applied),
                "batches_applied": self.batches_applied,
                "pages_applied": self.pages_applied,
                "journal_records": self.journal_records,
                "chain_errors": self.chain_errors,
            }

    # -- internals ---------------------------------------------------------

    def _verify_chain(self, name: str, seq: int, prev: int) -> None:
        if prev == -1:
            return                   # bootstrap snapshot: chain reset
        last = self.applied.get(name)
        if last != prev:
            self.chain_errors += 1
            raise ReplicationChainError(
                f"gap in shipped stream for {name!r}: batch covers "
                f"({prev}, {seq}] but last applied seq is {last}")

    def _check_batch(self, name: str, seq: int, prev: int,
                     meta: List[List[int]], payload: bytes
                     ) -> List[Tuple[int, bytes]]:
        if prev != -1 and seq <= prev:
            raise ReplicationWireError(
                f"non-monotone batch for {name!r}: seq {seq} <= "
                f"prev {prev}")
        if len(payload) != len(meta) * PAGE_SIZE:
            raise ReplicationWireError(
                f"batch payload is {len(payload)} bytes for "
                f"{len(meta)} page(s)")
        pages: List[Tuple[int, bytes]] = []
        view = memoryview(payload)
        for slot, entry in enumerate(meta):
            index, crc = int(entry[0]), int(entry[1])
            page = bytes(view[slot * PAGE_SIZE:(slot + 1) * PAGE_SIZE])
            if zlib.crc32(page) & 0xFFFFFFFF != crc:
                raise ReplicationWireError(
                    f"shipped page {index} of {name!r} failed CRC")
            pages.append((index, page))
        return pages


class StandbyDaemon:
    """A warm standby: applies shipped frames until promoted.

    ``service_kwargs`` are the :class:`TerpService` constructor
    arguments the promoted daemon will use (minus ``port`` and
    ``pool_dir``, which promotion supplies); they should mirror the
    dead primary's configuration.
    """

    def __init__(self, pool_dir: os.PathLike, *,
                 host: str = "127.0.0.1", port: int = 0,
                 service_kwargs: Optional[Dict[str, Any]] = None,
                 quiet: bool = True) -> None:
        self.pool_dir = Path(pool_dir)
        self.host = host
        self.port = port
        self.service_kwargs = dict(service_kwargs or {})
        self.quiet = quiet
        self.applier = JournalApplier(self.pool_dir)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._stop = threading.Event()
        self._promote_lock = threading.Lock()
        self.promoted = False
        self.service_thread: Optional[Any] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(8)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="terp-standby-accept",
            daemon=True)
        self._accept_thread.start()
        return self.port

    @property
    def bound_port(self) -> int:
        return self.port

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            # shutdown() wakes a thread parked in accept(); close()
            # alone can leave it blocked until the join timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        for conn in self._conns:
            # shutdown() unblocks serve threads parked in recv().
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        for thread in self._conn_threads:
            thread.join(timeout=2.0)
        self._conn_threads.clear()
        self.applier.close()
        if self.service_thread is not None:
            self.service_thread.stop()
            self.service_thread = None

    # -- promotion ---------------------------------------------------------

    def promote(self, port: int,
                overrides: Optional[Dict[str, Any]] = None) -> int:
        """Bring this standby up as a live terpd on ``port``.

        Recovery runs verbatim inside the TerpService constructor:
        the mirrored pool + session journal give the promoted daemon
        the dead primary's epoch, sessions, and audit history.
        Idempotent — a second promote returns the serving port.
        """
        with self._promote_lock:
            if self.promoted:
                return self.service_thread.service.bound_port
            from repro.service.server import ServiceThread, TerpService
            kwargs = dict(self.service_kwargs)
            kwargs.update(overrides or {})
            kwargs["port"] = port
            kwargs["pool_dir"] = self.pool_dir
            # Applies stop before recovery scans the pool: the
            # promoted service is the directory's only writer.
            self.promoted = True
            thread = ServiceThread(TerpService(**kwargs))
            service = thread.start()
            self.service_thread = thread
            if not self.quiet:
                print(f"standby promoted, terpd serving on "
                      f"tcp://{kwargs.get('host', '127.0.0.1')}:"
                      f"{service.bound_port}", flush=True)
            return service.bound_port

    # -- the replication socket --------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._conns.append(conn)
            thread = threading.Thread(
                target=self._serve, args=(conn,),
                name="terp-standby-conn", daemon=True)
            thread.start()
            self._conn_threads.append(thread)

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set():
                got = recv_msg(conn)
                if got is None:
                    return
                header, payload = got
                if not self._dispatch(conn, header, payload):
                    return
        except (OSError, ReplicationWireError, ReplicationChainError):
            # Drop the link; the primary reconnects and bootstraps.
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, conn: socket.socket, header: Dict[str, Any],
                  payload: bytes) -> bool:
        """Handle one frame; False ends the connection."""
        kind = header.get("t")
        if kind == "hello":
            if int(header.get("version", 0)) != REPL_PROTOCOL_VERSION:
                send_msg(conn, {"t": "hello-ack", "ok": False,
                                "version": REPL_PROTOCOL_VERSION})
                return False
            send_msg(conn, {"t": "hello-ack", "ok": True,
                            "version": REPL_PROTOCOL_VERSION})
            return True
        if kind == "promote":
            port = self.promote(int(header.get("port", 0)),
                                header.get("service") or None)
            send_msg(conn, {"t": "promoted", "port": port})
            return True
        if kind == "status":
            send_msg(conn, {"t": "status-ack",
                            "promoted": self.promoted,
                            **self.applier.status()})
            return True
        if self.promoted:
            # The promoted service owns the pool directory now; any
            # straggling primary must not write under it.
            return False
        if kind == "reset":
            pmos = header.get("pmos")
            self.applier.apply_reset(
                [str(p) for p in pmos] if isinstance(pmos, list)
                else [])
            return True
        if kind == "header":
            self.applier.apply_header(str(header["pmo"]), payload)
            return True
        if kind == "batch":
            name = str(header["pmo"])
            seq = int(header["seq"])
            self.applier.apply_batch(
                name, seq, int(header.get("prev", -1)),
                header.get("pages", []), payload)
            send_msg(conn, {"t": "ack", "pmo": name, "seq": seq})
            return True
        if kind == "journal":
            record = header.get("line")
            if isinstance(record, dict):
                self.applier.apply_journal(record)
            return True
        if kind == "destroy":
            self.applier.apply_destroy(str(header["pmo"]))
            return True
        return True                  # unknown frames are ignored
