"""Backoff determinism, breaker transitions, idempotent replay."""

import pytest

from repro.core.errors import TerpError
from repro.faults.plan import FaultPlan, FaultRule
from repro.pmo.object_id import Oid
from repro.service.client import (
    ConnectionLost, RemoteError, SyncTerpClient)
from repro.service.retry import (
    CircuitBreaker, CircuitOpenError, RetryPolicy)
from repro.service.server import ServiceThread, TerpService


class TestRetryPolicy:
    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(base_delay_s=0.001, multiplier=2.0,
                             max_delay_s=0.005, jitter=0.0)
        assert policy.sequence(5) == \
            [0.001, 0.002, 0.004, 0.005, 0.005]

    def test_seeded_sequence_is_deterministic(self):
        a = RetryPolicy(seed=5).sequence(8)
        b = RetryPolicy(seed=5).sequence(8)
        assert a == b
        assert RetryPolicy(seed=6).sequence(8) != a

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_s=0.001, multiplier=2.0,
                             max_delay_s=1.0, jitter=0.5, seed=1)
        for attempt, delay in enumerate(policy.sequence(10)):
            ceiling = 0.001 * 2.0 ** attempt
            assert 0.5 * ceiling <= delay <= ceiling

    def test_backoff_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(seed=1, sleep=slept.append)
        returned = policy.backoff(0)
        assert slept == [returned]

    def test_sequence_defaults_to_max_retries(self):
        assert len(RetryPolicy(max_retries=3, seed=1).sequence()) == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TerpError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(TerpError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def make(self, threshold=2, timeout=1.0):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 reset_timeout_s=timeout,
                                 clock=lambda: now[0])
        return breaker, now

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_degrades_to_read_only(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow(readonly=False)
        assert breaker.allow(readonly=True)

    def test_half_open_admits_one_probe(self):
        breaker, now = self.make(timeout=1.0)
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()            # the probe
        assert not breaker.allow()        # no second probe
        assert breaker.allow(readonly=True)

    def test_probe_success_closes(self):
        breaker, now = self.make()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker, now = self.make()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()
        now[0] = 2.0
        assert breaker.allow()            # next probe after timeout

    def test_circuit_open_error_is_typed(self):
        assert issubclass(CircuitOpenError, TerpError)

    def test_half_open_probe_busy_reopens(self):
        """Regression: a half-open probe answered ``Busy`` must
        re-open the circuit — the server is reachable but still
        shedding load, so the probe did not prove recovery."""
        breaker, now = self.make(timeout=1.0)
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()            # the probe
        breaker.record_busy()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()
        now[0] = 2.0
        assert breaker.allow()            # next probe after timeout

    def test_half_open_busy_does_not_double_count_failures(self):
        """The ``Busy`` that re-opened the circuit must not also
        count toward the closed-state failure threshold: after the
        re-open resolves, it takes a full run of *fresh* consecutive
        failures to open the circuit again."""
        breaker, now = self.make(threshold=2, timeout=1.0)
        breaker.record_failure()
        breaker.record_failure()          # open #1
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_busy()             # open #2, no failure bump
        now[0] = 2.0
        assert breaker.allow()
        breaker.record_success()          # probe succeeds: closed
        assert breaker.state == CircuitBreaker.CLOSED
        # One failure is below the threshold — if the earlier Busy
        # had leaked into the count, this would open the circuit.
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.opens == 2

    def test_closed_state_busy_clears_failure_streak(self):
        """A ``Busy`` round trip proves the connection is alive: it
        resets the consecutive-failure count instead of opening."""
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_busy()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


def service_with(plan, **kwargs):
    kwargs.setdefault("session_ew_ns", 1_000_000_000)
    return TerpService(port=0, seed=7, faults=plan, **kwargs)


class TestTypedDisconnect:
    def test_pipeline_surfaces_connection_lost(self):
        # Satellite fix: a server disconnect mid-pipeline is a typed
        # ConnectionLost (a RemoteError), not a bare wire error.
        assert issubclass(ConnectionLost, RemoteError)
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.conn_drop", "before", count=1)])
        plan.disarm()
        with ServiceThread(service_with(plan)) as svc:
            client = SyncTerpClient(port=svc.bound_port, user="alice")
            client.connect()
            plan.arm()
            with pytest.raises(ConnectionLost):
                client.pipeline([("ping", {}), ("ping", {})])
            plan.disarm()
            client.close()

    def test_retry_reconnects_and_resumes_after_drop(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.conn_drop", "before", count=1)])
        plan.disarm()
        with ServiceThread(service_with(plan)) as svc:
            client = SyncTerpClient(
                port=svc.bound_port, user="alice",
                retry=RetryPolicy(base_delay_s=0.0001, seed=3))
            client.connect()
            session_id = client.session_id
            plan.arm()
            assert client.ping()["sessions"] == 1
            plan.disarm()
            assert client.resumes == 1
            assert client.session_id == session_id
            client.goodbye()
            client.close()


class TestReplayIdempotency:
    def test_lost_response_is_replayed_not_reexecuted(self):
        # The attach executes server-side, the response frame is cut
        # short, the client retries the same rid after resuming: the
        # replay cache answers and the attach does NOT run twice.
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.partial_frame", "after", count=1)])
        plan.disarm()
        service = service_with(plan)
        with ServiceThread(service) as svc:
            port = svc.bound_port
            with SyncTerpClient(port=port, user="admin") as admin:
                admin.create("idem", 1 << 20, mode=0o666)
            client = SyncTerpClient(
                port=port, user="alice",
                retry=RetryPolicy(base_delay_s=0.0001, seed=3))
            client.connect()
            plan.arm()
            client.attach("idem")
            plan.disarm()
            assert plan.fired("server.partial_frame")
            assert client.resumes == 1
            assert service.metrics.replays_served == 1
            # The disconnect force-released the window; the client's
            # own detach is the defined silent no-op.
            client.detach("idem")
            client.goodbye()
            client.close()
        summary = service.obs.audit.summary()
        stats = summary["per_pmo"]["idem"]
        assert stats["attaches"] == 1
        assert stats["forced_detaches"] == 1
        events = service.obs.audit.events()
        assert any(e["kind"] == "forced-detach"
                   and "connection lost" in e["reason"]
                   for e in events)


class TestBurstResend:
    """``pipeline`` and ``batch`` share ``call``'s retry loop: after a
    drop the whole burst is resent under the same request ids, and the
    replay cache answers exactly the items that had already run."""

    def _client(self, port):
        client = SyncTerpClient(
            port=port, user="alice",
            retry=RetryPolicy(base_delay_s=0.0001, seed=3))
        client.connect()
        client.create("burst", 1 << 20)
        return client

    def test_pipeline_resends_after_conn_drop(self):
        # Frames 1 and 2 execute; the drop hits frame 3.
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.conn_drop", "before", count=1, after=2)])
        plan.disarm()
        service = service_with(plan)
        with ServiceThread(service) as svc:
            client = self._client(svc.bound_port)
            plan.arm()
            results = client.pipeline(
                [("pmalloc", {"name": "burst", "size": 8})] * 4)
            plan.disarm()
            assert plan.fired("server.conn_drop")
            assert client.resumes == 1
            offsets = [Oid.unpack(r["oid"]).offset for r in results]
            assert offsets == sorted(set(offsets))   # in order, distinct
            assert service.metrics.replays_served == 2
            assert service.metrics.ops["pmalloc"] == 4   # each ran once
            client.goodbye()
            client.close()

    @pytest.mark.parametrize("site,kind,replayed", [
        # dropped before the batch frame ran: nothing to replay
        ("server.conn_drop", "before", 0),
        # the whole batch ran, its response frame was cut short
        ("server.partial_frame", "after", 4),
    ])
    def test_batch_resends_after_drop(self, site, kind, replayed):
        plan = FaultPlan(seed=1, rules=[FaultRule(site, kind, count=1)])
        plan.disarm()
        service = service_with(plan)
        with ServiceThread(service) as svc:
            client = self._client(svc.bound_port)
            plan.arm()
            results = client.batch(
                [("pmalloc", {"name": "burst", "size": 8})] * 3
                + [("ping", {})])
            plan.disarm()
            assert plan.fired(site)
            assert client.resumes == 1
            offsets = [Oid.unpack(r["oid"]).offset for r in results[:3]]
            assert offsets == sorted(set(offsets))
            assert "now_ns" in results[3]
            assert service.metrics.replays_served == replayed
            assert service.metrics.ops["pmalloc"] == 3
            client.goodbye()
            client.close()
