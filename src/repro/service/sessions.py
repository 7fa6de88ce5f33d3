"""Session bookkeeping: remote clients as TERP entities.

Every connection that says ``hello`` gets a :class:`Session`.  The
session's ``entity_id`` is what the shared :class:`~repro.core.runtime
.TerpRuntime` sees as the "thread" making attach/detach calls — the
paper's permission groups span threads, processes, and users
(Definition 2), and a remote session is exactly such an entity: it
holds thread-level permission grants in the MPK domains, its
attach/detach pairs obey the EW-conscious no-overlap rule, and its
exposure is swept like any local thread's.

A session also carries its *exposure budget*: the wall-clock EW target
after which the daemon's sweeper force-detaches anything the session
still holds.  The budget is the server default unless the client
negotiated a tighter one in ``hello`` (never a looser one — a tenant
cannot opt out of temporal protection).

Robustness state (the chaos-tolerant parts):

* **resume token** — issued at ``hello``; a client whose connection
  dropped proves identity with it to rebind the same session.  A
  dropped session *lingers* (identity, replay cache, pending events)
  for ``linger`` long, but its exposure windows are force-closed at
  the instant of the drop — resumption restores identity, never
  access.
* **replay cache** — the last successful responses keyed by request
  id.  A client that retries a request the server already executed
  (the drop ate the response, not the request) gets the original
  response back instead of a second execution.
* **bounded event queue** — out-of-band notifications are capped;
  under backpressure the oldest are dropped and counted rather than
  growing without bound.

The session front door is shared by every process that terminates
client sessions — a standalone terpd and the cluster router alike:
:func:`parse_hello` parses a ``hello`` and negotiates its protocol
version, :meth:`SessionRegistry.resume` checks a resume token, and
:meth:`Hello.reply` builds the response, so the two cannot drift.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Set

from repro.core.errors import TerpError
from repro.service.metrics import SessionMetrics
from repro.service.protocol import PROTOCOL_V1

#: Successful responses remembered per session for idempotent replay.
REPLAY_CACHE_SIZE = 256
#: Pending out-of-band events kept per session (backpressure bound).
MAX_PENDING_EVENTS = 256


@dataclass
class Session:
    """One connected client: identity, holdings, pending events."""

    session_id: int
    entity_id: int
    user: str
    ew_budget_ns: int
    #: proves identity on resume; never logged, never in metrics.
    resume_token: str = ""
    #: pmo_id -> attach timestamp (service clock, ns); the sweeper's
    #: input for session-scoped exposure enforcement.
    attached_at: Dict[int, int] = field(default_factory=dict)
    #: out-of-band notifications delivered with the next response —
    #: bounded: the oldest are dropped (and counted) at the cap.
    events: Deque[dict] = field(
        default_factory=lambda: deque(maxlen=MAX_PENDING_EVENTS))
    events_dropped: int = 0
    #: PMOs the sweeper detached on this session's behalf; the
    #: session's own (racing) detach of these is a silent no-op.
    forced_pmos: Set[int] = field(default_factory=set)
    metrics: SessionMetrics = field(default_factory=SessionMetrics)
    closed: bool = False
    #: None while a connection is bound; the drop timestamp (service
    #: clock) while lingering for resume.
    disconnected_at_ns: Optional[int] = None
    #: bumped on every (re)bind; a connection only tears the session
    #: down if it still owns the latest bind.
    generation: int = 0
    #: request id -> (encoded response body, binary sidecar chunks),
    #: for idempotent replay.  Caching the pre-encoded bytes means a
    #: replay hit costs zero ``json.dumps`` work, and the chunks let a
    #: v2 read response replay with its sidecar intact.
    replay: "OrderedDict[int, tuple]" = field(
        default_factory=OrderedDict)
    replays_served: int = 0

    # -- exposure bookkeeping ---------------------------------------------

    def note_attach(self, pmo_id: int, now_ns: int) -> None:
        self.attached_at[pmo_id] = now_ns
        self.forced_pmos.discard(pmo_id)
        self.metrics.attaches += 1

    def note_detach(self, pmo_id: int) -> None:
        self.attached_at.pop(pmo_id, None)
        self.metrics.detaches += 1

    def note_forced_detach(self, pmo_id: int, pmo_name: str,
                           now_ns: int, reason: str) -> None:
        self.attached_at.pop(pmo_id, None)
        self.forced_pmos.add(pmo_id)
        self.metrics.forced_detaches += 1
        self.push_event({
            "event": "forced-detach",
            "pmo": pmo_name,
            "pmo_id": pmo_id,
            "at_ns": now_ns,
            "reason": reason,
        })

    def expired(self, now_ns: int) -> List[int]:
        """PMO ids whose session exposure window has outlived the
        budget — the sweeper force-detaches exactly these."""
        return [pmo_id for pmo_id, since in self.attached_at.items()
                if now_ns - since >= self.ew_budget_ns]

    # -- events (bounded) --------------------------------------------------

    def push_event(self, event: dict) -> None:
        if len(self.events) == self.events.maxlen:
            self.events_dropped += 1
        self.events.append(event)

    def drain_events(self) -> List[dict]:
        events = list(self.events)
        self.events.clear()
        return events

    # -- connection binding / resume ---------------------------------------

    @property
    def bound(self) -> bool:
        return not self.closed and self.disconnected_at_ns is None

    def bind(self) -> int:
        """(Re)bind a connection; returns the new bind generation."""
        self.disconnected_at_ns = None
        self.generation += 1
        return self.generation

    def unbind(self, now_ns: int) -> None:
        self.disconnected_at_ns = now_ns

    def linger_expired(self, now_ns: int, linger_ns: int) -> bool:
        return self.disconnected_at_ns is not None and \
            now_ns - self.disconnected_at_ns >= linger_ns

    # -- idempotent replay -------------------------------------------------

    def replay_put(self, rid: int, body: bytes,
                   chunks: tuple = ()) -> None:
        self.replay[rid] = (body, chunks)
        while len(self.replay) > REPLAY_CACHE_SIZE:
            self.replay.popitem(last=False)

    def replay_get(self, rid: int) -> Optional[tuple]:
        cached = self.replay.get(rid)
        if cached is not None:
            self.replays_served += 1
        return cached


@dataclass(frozen=True)
class Hello:
    """A parsed ``hello``: the negotiated version plus either a resume
    request (``resume``/``token``) or a fresh session's identity."""

    version: int
    resume: Optional[int] = None
    token: str = ""
    user: str = "root"
    ew_budget_ns: Optional[int] = None

    def reply(self, session: Session) -> Dict:
        return {"session": session.session_id,
                "entity": session.entity_id,
                "version": self.version,
                "ew_budget_us": session.ew_budget_ns / 1_000,
                "token": session.resume_token,
                "resumed": self.resume is not None}


def parse_hello(args: Dict, *, bound: bool, server_version: int) -> Hello:
    """Parse a ``hello`` on a connection (``bound``: it already has a
    session) served by a ``server_version`` speaker.

    Version negotiation: a client that omits ``version`` is v1;
    otherwise the connection speaks ``min(client, server)``.  A
    v1-capped server keeps the legacy strict rejection, which is what
    a v2 client's fallback path keys on.  Malformed numbers raise
    ``ValueError``/``TypeError``/``OverflowError`` for the caller's
    ``BadRequest`` mapping.
    """
    if bound:
        raise TerpError("connection already has a session")
    version = int(args.get("version", PROTOCOL_V1))
    if version < PROTOCOL_V1 or (server_version <= PROTOCOL_V1
                                 and version != PROTOCOL_V1):
        raise TerpError(
            f"protocol version {version} unsupported; server speaks "
            f"{server_version}")
    negotiated = min(version, server_version)
    resume = args.get("resume")
    if resume is not None:
        return Hello(negotiated, resume=int(resume),
                     token=str(args.get("token", "")))
    budget_us = args.get("ew_budget_us")
    return Hello(negotiated, user=str(args.get("user", "root")),
                 ew_budget_ns=None if budget_us is None
                 else int(float(budget_us) * 1_000))


class SessionRegistry:
    """Allocates sessions and their entity ids; supports iteration.

    Entity ids start above any plausible in-process thread id so a
    hybrid embedding (local threads + remote sessions on one library)
    cannot collide.  ``len()`` counts *bound* sessions (what ``ping``
    and the sessions gauge report); iteration covers lingering ones
    too, so the sweeper can purge them.
    """

    FIRST_ENTITY_ID = 1 << 20

    def __init__(self, *, default_ew_budget_ns: int,
                 token_seed: Optional[int] = None) -> None:
        if default_ew_budget_ns <= 0:
            raise TerpError("default_ew_budget_ns must be positive")
        self.default_ew_budget_ns = default_ew_budget_ns
        self._sessions: Dict[int, Session] = {}
        self._next = itertools.count(1)
        self._token_rng = random.Random(token_seed)

    def create(self, *, user: str = "root",
               ew_budget_ns: Optional[int] = None) -> Session:
        sid = next(self._next)
        budget = self.default_ew_budget_ns
        if ew_budget_ns is not None:
            if ew_budget_ns <= 0:
                raise TerpError("session EW budget must be positive")
            # Tenants may tighten their exposure budget, never widen it.
            budget = min(budget, ew_budget_ns)
        session = Session(session_id=sid,
                          entity_id=self.FIRST_ENTITY_ID + sid,
                          user=user, ew_budget_ns=budget,
                          resume_token=f"{self._token_rng.getrandbits(128):032x}")
        self._sessions[sid] = session
        return session

    def restore(self, *, session_id: int, user: str,
                ew_budget_ns: int, resume_token: str,
                disconnected_at_ns: int) -> Session:
        """Re-materialize a journaled session at warm restart.

        The session keeps its original id, entity id, EW budget, and —
        critically — its resume token, so a client that outlived the
        daemon crash can rebind with the token it already holds.  The
        restored session starts *lingering* (no connection is bound);
        the normal linger purge applies from ``disconnected_at_ns``,
        which recovery sets to the restart instant.
        """
        if session_id in self._sessions:
            raise TerpError(f"session {session_id} already exists")
        session = Session(session_id=session_id,
                          entity_id=self.FIRST_ENTITY_ID + session_id,
                          user=user, ew_budget_ns=ew_budget_ns,
                          resume_token=resume_token,
                          disconnected_at_ns=disconnected_at_ns)
        self._sessions[session_id] = session
        # Keep id allocation ahead of every restored session.
        self._next = itertools.count(
            max(session_id + 1,
                max(self._sessions) + 1 if self._sessions else 1))
        return session

    def get(self, session_id: int) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise TerpError(f"no session {session_id}")
        return session

    def find(self, session_id: int) -> Optional[Session]:
        return self._sessions.get(session_id)

    def resume(self, session_id: int, token: str) -> Session:
        """The lingering session ``token`` proves identity for.

        Resume restores *identity* (entity id, replay cache, pending
        events), never access: the drop already force-closed every
        window, so a resumed session starts with nothing attached.
        """
        session = self._sessions.get(session_id)
        if session is None or session.closed:
            raise TerpError(f"no session {session_id} to resume")
        if not token or token != session.resume_token:
            raise TerpError(f"bad resume token for session "
                            f"{session_id}")
        if session.bound:
            raise TerpError(f"session {session_id} is still bound "
                            "to a live connection")
        return session

    def remove(self, session_id: int) -> Optional[Session]:
        session = self._sessions.pop(session_id, None)
        if session is not None:
            session.closed = True
        return session

    def by_entity(self, entity_id: int) -> Optional[Session]:
        for session in self._sessions.values():
            if session.entity_id == entity_id:
                return session
        return None

    def lingering(self) -> List[Session]:
        return [s for s in self._sessions.values() if not s.bound]

    def __iter__(self) -> Iterator[Session]:
        return iter(list(self._sessions.values()))

    def __len__(self) -> int:
        return sum(1 for s in self._sessions.values() if s.bound)
