"""End-to-end cluster: unmodified clients against N shards + router.

The module-scoped cluster serves the read-mostly tests; lifecycle
tests that assert exact counters or kill shards build their own.
"""

import tempfile
import time

import pytest

from repro.cluster import ClusterSupervisor
from repro.service import protocol
from repro.service.client import (
    RemoteError, SyncTerpClient)
from repro.service.retry import RetryPolicy

MIB = 1 << 20


@pytest.fixture(scope="module")
def cluster():
    supervisor = ClusterSupervisor(
        shards=2, session_ew_ns=2_000_000_000,
        sweep_period_ns=50_000_000)
    supervisor.start()
    yield supervisor
    supervisor.stop()


@pytest.fixture
def client(cluster):
    with SyncTerpClient(port=cluster.front_port) as cli:
        yield cli


def _detached_ok(exc: RemoteError) -> bool:
    return ("not attached" in str(exc)
            or "Access.NONE" in str(exc))


class TestShardedOps:
    def test_ops_span_both_shards(self, client):
        pools = set()
        for i in range(8):
            name = f"span-{i}"
            client.create(name, MIB)
            client.attach(name)
            oid = client.pmalloc(name, 64)
            pools.add(oid.pool_id)
            n = client.write(oid, b"payload-%d" % i)
            assert client.read(oid, n) == b"payload-%d" % i
            client.psync(name)
            client.detach(name)
        # pmo_id residue classes prove both shards served writes:
        # shard i of 2 only mints ids with (id - 1) % 2 == i.
        assert {(p - 1) % 2 for p in pools} == {0, 1}

    def test_name_ops_stay_on_one_shard(self, client):
        client.create("sticky", MIB)
        client.attach("sticky")
        first = client.pmalloc("sticky", 16)
        second = client.pmalloc("sticky", 16)
        assert first.pool_id == second.pool_id
        client.detach("sticky")

    def test_errors_relay_typed(self, client):
        with pytest.raises(RemoteError) as err:
            client.attach("never-created")
        assert "never-created" in str(err.value)

    def test_oid_routes_back_to_owner_without_name(self, client):
        client.create("roam", MIB)
        client.attach("roam")
        oid = client.pmalloc("roam", 8)
        client.write_u64(oid, 7171)
        # oid-addressed ops carry no name; the Oid's pool id alone
        # must find the owning shard.
        assert client.read_u64(oid) == 7171
        client.detach("roam")


class TestBatchSplitMerge:
    def test_batch_spanning_all_shards_keeps_item_order(self, client):
        oids = []
        for i in range(6):
            name = f"batch-{i}"
            client.create(name, MIB)
            client.attach(name)
            oid = client.pmalloc(name, 16)
            client.write(oid, bytes([i]) * 16)
            oids.append(oid)
        assert {(o.pool_id - 1) % 2 for o in oids} == {0, 1}
        # One batch, items interleaved across shards, binary
        # responses re-merged with their sidecar slices in order.
        results = client.batch([("read", {"oid": o.pack(), "n": 16})
                                for o in oids])
        for i, result in enumerate(results):
            data = result["data"]
            if not isinstance(data, bytes):   # v1 fallback: base64
                data = protocol.decode_bytes(data)
            assert data == bytes([i]) * 16, (i, data)
        for i in range(6):
            client.detach(f"batch-{i}")

    def test_one_item_failing_mid_batch_stays_in_its_slot(
            self, client):
        client.create("bat-ok", MIB)
        client.attach("bat-ok")
        oid = client.pmalloc("bat-ok", 8)
        client.write_u64(oid, 41)
        # The middle item attaches a PMO that does not exist: its
        # shard answers a typed error in that slot.  The client's
        # batch() raises at the bad slot, but the items around it
        # still executed — verified through their side effects.
        with pytest.raises(RemoteError) as err:
            client.batch([
                ("write_u64", {"oid": oid.pack(), "value": 42}),
                ("attach", {"name": "no-such-pmo"}),
                ("write_u64", {"oid": oid.pack(), "value": 43}),
            ])
        assert "no-such-pmo" in str(err.value)
        assert client.read_u64(oid) == 43
        client.detach("bat-ok")

    @pytest.mark.parametrize("bad_oid", [float("nan"), float("inf")])
    def test_non_finite_oid_fails_only_its_slot(self, client, bad_oid):
        # A non-finite oid names no shard: the router must still
        # answer a typed BadRequest in that slot — not tear down the
        # client's connection — while the items around it run.
        name = f"bat-nf-{bad_oid}"
        client.create(name, MIB)
        client.attach(name)
        oid = client.pmalloc(name, 8)
        with pytest.raises(RemoteError) as err:
            client.batch([
                ("write_u64", {"oid": oid.pack(), "value": 7}),
                ("read", {"oid": bad_oid, "n": 8}),
                ("write_u64", {"oid": oid.pack(), "value": 8}),
            ])
        assert err.value.kind == "BadRequest"
        assert client.read_u64(oid) == 8
        client.detach(name)

    def test_hello_inside_batch_is_rejected_in_place(self, client):
        with pytest.raises(RemoteError) as err:
            client.batch([
                ("ping", {}),
                ("hello", {"user": "smuggled"}),
            ])
        assert "standalone" in str(err.value)


class TestObservabilityFanout:
    def test_metrics_aggregate_exact_counts(self):
        # Fresh cluster: the counters must add up across shards
        # exactly, which a shared module cluster cannot promise.
        with ClusterSupervisor(shards=2,
                               session_ew_ns=2_000_000_000,
                               sweep_period_ns=50_000_000) as sup:
            with SyncTerpClient(port=sup.front_port) as cli:
                for i in range(10):
                    name = f"m-{i}"
                    cli.create(name, MIB)
                    cli.attach(name)
                    cli.detach(name)
                merged = cli.metrics()
                assert merged["global"]["attaches"] == 10
                assert merged["global"]["detaches"] == 10
                assert merged["sessions"] == 1
                cluster_part = merged["cluster"]
                assert cluster_part["shards"] == 2
                per_shard = cluster_part["per_shard_requests"]
                assert set(per_shard) == {"0", "1"}
                assert all(v > 0 for v in per_shard.values())
                assert merged["global"]["request_latency"][
                    "count"] > 0

    def test_prometheus_is_labelled_per_shard(self, client):
        text = client.prometheus()
        assert 'shard="0"' in text
        assert 'shard="1"' in text

    def test_ping_and_trace(self, client):
        pong = client.ping()
        assert pong["sessions"] >= 1
        traced = client.trace(limit=5)
        assert isinstance(traced["spans"], list)
        # audit events are tagged with their source shard.
        assert all("shard" in e for e in traced["audit"])

    def test_metrics_shard_field_on_direct_dump(self, cluster):
        # Talking to a shard directly (not through the router) shows
        # its cluster identity.
        port = cluster.shard_ports[1]
        with SyncTerpClient(port=port) as direct:
            report = direct.call("metrics")
            assert report["shard"] == 1


class TestProtocolVersions:
    def test_v1_client_works_unmodified(self, cluster, monkeypatch):
        monkeypatch.setenv("TERP_PROTOCOL_VERSION", "1")
        with SyncTerpClient(port=cluster.front_port) as cli:
            assert cli.protocol_version == 1
            cli.create("v1-pmo", MIB)
            cli.attach("v1-pmo")
            oid = cli.pmalloc("v1-pmo", 32)
            cli.write(oid, b"legacy-wire")
            assert cli.read(oid, 11) == b"legacy-wire"
            cli.detach("v1-pmo")

    def test_v2_negotiated_through_router(self, client):
        assert client.protocol_version == 2


class TestSessionLifecycle:
    def test_goodbye_releases_across_shards(self, cluster):
        cli = SyncTerpClient(port=cluster.front_port).connect()
        held = []
        for i in range(4):
            name = f"bye-{i}"
            cli.create(name, MIB)
            cli.attach(name)
            held.append(cli.pmalloc(name, 8).pool_id)
        assert {(p - 1) % 2 for p in held} == {0, 1}
        result = cli.goodbye()
        assert result["released"] == 4
        cli.close()

    def test_second_hello_rejected(self, cluster):
        with SyncTerpClient(port=cluster.front_port) as cli:
            with pytest.raises(RemoteError) as err:
                cli.call("hello", user="again")
            assert "already has a session" in str(err.value)


class TestShardDeathAndRecovery:
    def test_kill_one_shard_retry_recovers(self):
        tmp = tempfile.mkdtemp(prefix="terpd-cluster-test-")
        retry = RetryPolicy(max_retries=10, base_delay_s=0.01,
                            max_delay_s=0.25, seed=3)
        with ClusterSupervisor(shards=2, pool_dir=tmp,
                               session_ew_ns=2_000_000_000,
                               sweep_period_ns=50_000_000) as sup:
            cli = SyncTerpClient(port=sup.front_port,
                                 retry=retry).connect()
            bystander = SyncTerpClient(port=sup.front_port,
                                       retry=retry).connect()
            oids = {}
            for i in range(6):
                name = f"kill-{i}"
                cli.create(name, MIB)
                cli.attach(name)
                oid = cli.pmalloc(name, 32)
                cli.write(oid, b"durable-%d" % i)
                cli.psync(name)
                oids[name] = oid
            victim = 0
            survivor = next(
                n for n, o in oids.items()
                if (o.pool_id - 1) % 2 != victim)
            bystander.open(survivor, access="r")
            bystander.attach(survivor, access="r")
            sup.kill_shard(victim)
            # The client rides the typed ConnectionLost retry path;
            # its windows were all force-closed (temporal protection
            # does not wait for a resume), so it re-attaches.
            reattached = 0
            for name, oid in oids.items():
                try:
                    cli.read(oid, 8)
                except RemoteError as exc:
                    assert _detached_ok(exc), exc
                    cli.attach(name)
                    reattached += 1
            assert reattached > 0
            assert cli.resumes >= 1
            # A client that never touched the victim keeps its
            # window: the survivor shard saw no restart.
            assert bystander.read(oids[survivor], 8) == b"durable-"
            assert sup.wait_for_shard(victim)
            time.sleep(0.1)
            # Durable warm restart: committed bytes survive SIGKILL.
            for i in range(6):
                assert cli.read(oids[f"kill-{i}"], 9) == \
                    b"durable-%d" % i
            merged = cli.metrics()
            assert merged["global"]["restarts_recovered"] >= 1
            assert sup.state()["shards"][victim]["restarts"] == 1
            cli.goodbye()
            bystander.goodbye()
            cli.close()
            bystander.close()
