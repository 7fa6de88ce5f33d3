"""Session lifecycle management, split out of the daemon core.

:class:`SessionManager` owns everything about remote sessions except
the socket: allocation and resume-token verification (both via
:class:`~repro.service.sessions.SessionRegistry`), forced release of a
departing session's holdings, the arch engine's forced-detach
callback, and the session-journal hooks that make warm restart
possible.  The daemon (:class:`~repro.service.server.TerpService`)
and the sweeper (:class:`~repro.service.sweeping.Sweeper`) both
operate through this one object, and a cluster shard composes exactly
the same pieces — the session story is identical whether the daemon
runs alone or as one of N workers behind the router.

Locking: every method that touches runtime state assumes the caller
holds ``lib.lock`` (the daemon's dispatch and teardown paths already
do); journal appends are internally serialized by the journal itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Tuple

from repro.core.errors import Busy, PmoError, TerpError
from repro.pmo.api import PmoLibrary
from repro.service.metrics import ServiceMetrics
from repro.service.sessions import Session, SessionRegistry

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.service.recovery import SessionJournal


class SessionManager:
    """Sessions as TERP entities: create, resume, release, journal."""

    def __init__(self, *, lib: PmoLibrary, metrics: ServiceMetrics,
                 obs: "Observability", default_ew_budget_ns: int,
                 token_seed: Optional[int] = None,
                 max_sessions: Optional[int] = None) -> None:
        self.lib = lib
        self.metrics = metrics
        self.obs = obs
        self.registry = SessionRegistry(
            default_ew_budget_ns=default_ew_budget_ns,
            token_seed=token_seed)
        self.max_sessions = max_sessions
        #: set by the daemon once the pool directory (and with it the
        #: session journal) exists; ``None`` for an in-memory daemon.
        self.journal: Optional["SessionJournal"] = None
        self._gauge = obs.registry.gauge(
            "terpd_sessions", "currently bound sessions")

    # -- open / resume / close ---------------------------------------------

    def open_session(self, *, user: str,
                     ew_budget_ns: Optional[int],
                     at_ns: int) -> Session:
        """A fresh ``hello``: allocate, journal, count."""
        if self.max_sessions is not None and \
                len(self.registry) >= self.max_sessions:
            # Bounded backpressure: the table is full *right now*;
            # the kind is retryable, so well-behaved clients back
            # off instead of hammering.
            raise Busy(f"session table full "
                       f"({self.max_sessions}); retry later")
        session = self.registry.create(user=user,
                                       ew_budget_ns=ew_budget_ns)
        self.journal_session(session, at_ns)
        return session

    def resume_session(self, session_id: int, token: str) -> Session:
        """Rebind a lingering session after a connection drop (see
        :meth:`SessionRegistry.resume`), counting the resume."""
        session = self.registry.resume(session_id, token)
        self.metrics.note_session_resumed()
        return session

    def close_session(self, session: Session, now_ns: int) -> None:
        """Remove a session for good: journal the close, drop it."""
        self.journal_close(session, now_ns)
        self.registry.remove(session.session_id)
        self.metrics.note_session_closed()
        self.update_gauge()

    def update_gauge(self) -> None:
        self._gauge.set(len(self.registry))

    # -- releasing holdings -------------------------------------------------

    def release(self, session: Session, now_ns: int, *,
                reason: str) -> int:
        """Detach everything a departing session still holds.

        A graceful departure (``goodbye``, shutdown) closes windows as
        ordinary detaches; an involuntary one (connection lost, an
        injected mid-request crash) closes them *forced*, with the
        reason on the audit timeline — the invariant checker insists
        every forced close is attributed.
        """
        forced = reason not in ("goodbye", "shutdown")
        released = self.lib.runtime.release_entity(
            session.entity_id, now_ns, forced=forced, reason=reason)
        for pmo_id, _ in released:
            try:
                name = self.lib.manager.get(pmo_id).name
            except PmoError:
                name = str(pmo_id)
            if forced:
                # Mark the pair forced so a *resumed* session's stale
                # detach is the defined silent no-op, and queue the
                # forced-detach event for its next response.
                session.note_forced_detach(pmo_id, name, now_ns, reason)
            else:
                session.note_detach(pmo_id)
            self.journal_detach(session, pmo_id, name, now_ns,
                                forced=forced, reason=reason)
            if reason == "connection lost":
                self.metrics.note_disconnect_detach()
        session.attached_at.clear()
        return len(released)

    def force_detach(self, session: Session, pmo_id: int,
                     now_ns: int) -> None:
        """Detach one expired holding on the session's behalf."""
        pmo = self.lib.manager.get(pmo_id)
        try:
            self.lib.runtime.detach(session.entity_id, pmo, now_ns,
                                    forced=True,
                                    reason="session EW budget elapsed")
        except TerpError:
            # The pair may already be gone (engine eviction raced us);
            # enforcement is idempotent.
            pass
        session.note_forced_detach(pmo_id, pmo.name, now_ns,
                                   "session EW budget elapsed")
        self.journal_detach(session, pmo_id, pmo.name, now_ns,
                            forced=True,
                            reason="session EW budget elapsed")
        self.metrics.note_forced_detach()

    def on_engine_forced_detach(self, pmo_id: Hashable,
                                thread_ids: Tuple[int, ...]) -> None:
        """Arch-engine callback: eviction/sweep closed open pairs."""
        try:
            name = self.lib.manager.get(pmo_id).name
        except PmoError:
            name = str(pmo_id)
        now = self.lib.clock_ns
        for thread_id in thread_ids:
            if self.obs.enabled:
                self.obs.audit.record_detach(
                    thread_id, pmo_id, name, now, forced=True,
                    reason="arch engine forced detach")
            session = self.registry.by_entity(thread_id)
            if session is not None:
                session.note_forced_detach(pmo_id, name, now,
                                           "arch engine forced detach")
                self.journal_detach(session, pmo_id, name, now,
                                    forced=True,
                                    reason="arch engine forced detach")
                self.metrics.note_forced_detach()

    # -- session journal hooks ---------------------------------------------

    def journal_session(self, session: Session, now_ns: int) -> None:
        if self.journal is not None:
            self.journal.record_session(
                sid=session.session_id, user=session.user,
                token=session.resume_token,
                budget_ns=session.ew_budget_ns, at_ns=now_ns)

    def journal_attach(self, session: Session, pmo_id: int,
                       name: str, now_ns: int) -> None:
        if self.journal is not None:
            self.journal.record_attach(
                sid=session.session_id, pmo_id=pmo_id, pmo=name,
                at_ns=now_ns)

    def journal_detach(self, session: Session, pmo_id: int,
                       name: str, now_ns: int, *,
                       forced: bool = False,
                       reason: str = "") -> None:
        if self.journal is not None:
            self.journal.record_detach(
                sid=session.session_id, pmo_id=pmo_id, pmo=name,
                at_ns=now_ns, forced=forced, reason=reason)

    def journal_close(self, session: Session, now_ns: int) -> None:
        if self.journal is not None:
            self.journal.record_close(
                sid=session.session_id, at_ns=now_ns)
