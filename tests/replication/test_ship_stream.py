"""The shipped stream at the source: GroupCommitter batch boundaries.

A recording fake shipper stands in for the network: the contract
under test is the post-fsync ship hook — every committed group-commit
batch is handed over exactly once, per-PMO seqs are strictly monotone
(gapless as a chain of ``(prev, seq]`` ranges, with merged commits
legitimately skipping integers), the hook runs before the commit
ticket retires, and the abort/drain shutdown paths never corrupt the
stream.
"""

import threading
import time

import pytest

from repro.core.errors import PmoError
from repro.core.units import MIB
from repro.faults.plan import FaultPlan, FaultRule
from repro.pmo.api import PmoLibrary
from repro.pmo.store import PmoStore


class RecordingShipper:
    """Records every hook call the store makes, thread-safely."""

    def __init__(self):
        self.lock = threading.Lock()
        self.commits = []          # (name, pmo_id, seq, [indexes])
        self.headers = []          # names
        self.destroys = []         # names

    def ship_commit(self, name, pmo_id, seq, pages):
        with self.lock:
            self.commits.append(
                (name, pmo_id, seq, [i for i, _ in pages]))

    def ship_header(self, name, header):
        with self.lock:
            self.headers.append(name)

    def ship_destroy(self, name):
        with self.lock:
            self.destroys.append(name)

    def per_pmo(self, name):
        with self.lock:
            return [(seq, idxs) for n, _, seq, idxs in self.commits
                    if n == name]


def make(tmp_path, *, interval_us=0, rules=()):
    plan = FaultPlan(seed=1, rules=list(rules)) if rules else None
    store = PmoStore(tmp_path, faults=plan,
                     commit_interval_us=interval_us)
    shipper = RecordingShipper()
    store.shipper = shipper
    lib = PmoLibrary(store=store)
    return store, lib, shipper


def assert_monotone(stream):
    seqs = [seq for seq, _ in stream]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs)), f"duplicate seq in {seqs}"


class TestShipHook:
    def test_register_ships_header_before_first_batch(self, tmp_path):
        store, lib, shipper = make(tmp_path)
        pmo = lib.PMO_create("h", MIB)
        assert shipper.headers == ["h"]
        assert shipper.commits == []
        store.close()

    def test_commit_ships_once_before_psync_returns(self, tmp_path):
        store, lib, shipper = make(tmp_path)
        pmo = lib.PMO_create("one", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64)
            lib.write(oid, b"payload")
            lib.psync(pmo)
            # The hook ran post-fsync but pre-ticket-retire: by the
            # time psync returned, the batch must be recorded.
            stream = shipper.per_pmo("one")
            assert len(stream) == 1
            _, _, flush_seq = store.committed_state("one")[0], \
                None, store.committed_state("one")[1]
            assert stream[0][0] == flush_seq
            lib.detach(pmo)
        store.close()

    def test_destroy_ships_destroy(self, tmp_path):
        store, lib, shipper = make(tmp_path)
        lib.PMO_create("gone", MIB)
        store.destroy("gone")
        assert shipper.destroys == ["gone"]
        store.close()


class TestConcurrentPsyncStream:
    def test_stream_monotone_and_complete_under_concurrency(
            self, tmp_path):
        """N writer threads psync two PMOs through a nonzero commit
        window: per-PMO shipped seqs stay strictly monotone, every
        final durable seq is shipped, and each batch's page set is
        sorted and non-empty."""
        store, lib, shipper = make(tmp_path, interval_us=500)
        pmos = {name: lib.PMO_create(name, MIB)
                for name in ("s-a", "s-b")}
        oids = {}
        with lib.thread(99):
            for name, pmo in pmos.items():
                lib.attach(pmo)
                oids[name] = [lib.pmalloc(pmo, 4096)
                              for _ in range(4)]

        def writer(tid, name, slot):
            pmo = pmos[name]
            with lib.thread(tid):
                lib.attach(pmo)
                for r in range(12):
                    lib.write(oids[name][slot],
                              bytes([tid]) * 64 + bytes([r]))
                    lib.psync(pmo)
                lib.detach(pmo)

        threads = [
            threading.Thread(target=writer,
                             args=(tid, name, slot))
            for tid, (name, slot) in enumerate(
                [("s-a", 0), ("s-a", 1), ("s-b", 0), ("s-b", 1)],
                start=1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        for name in pmos:
            stream = shipper.per_pmo(name)
            assert stream, f"nothing shipped for {name}"
            assert_monotone(stream)
            for seq, idxs in stream:
                assert idxs == sorted(idxs) and idxs
            # The chain head equals the durable flush_seq: nothing
            # committed went unshipped.
            assert stream[-1][0] == store.committed_state(name)[1]
            # Merging (batch < submissions) is legal; losing commits
            # is not: every commit the committer performed for this
            # PMO shipped exactly once.
        assert store.committer.submitted >= len(shipper.commits)
        store.close()


class TestBatchSeqs:
    def test_batch_ships_its_own_seq_not_a_later_snapshots(
            self, tmp_path):
        """A snapshot claimed while the previous batch is mid-commit
        must not lend that batch its seq: the two batches ship as
        seqs 1 and 2, not 2 and 2 (the second would then be skipped
        by the shipper as already covered)."""
        store, lib, shipper = make(tmp_path)
        pmo = lib.PMO_create("race", MIB)
        entered, gate = threading.Event(), threading.Event()
        real_home = store._write_home

        def gated_home(entry, pages):
            entered.set()
            assert gate.wait(5.0)
            return real_home(entry, pages)

        store._write_home = gated_home
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64)
            lib.detach(pmo)
        first = store.flush_async(pmo)
        assert entered.wait(5.0)          # batch 1 holds the flusher
        pmo.storage.write(oid.offset, b"two")
        second = store.flush_async(pmo)   # claims seq 2 meanwhile
        gate.set()
        first.wait()
        second.wait()
        assert [seq for seq, _ in shipper.per_pmo("race")] == [1, 2]
        store.close()

    def test_committed_state_seq_excludes_queued_snapshots(
            self, tmp_path):
        """committed_state() labels on-media pages with the last
        committed batch's seq, never a snapshot still in the commit
        window."""
        store, lib, shipper = make(tmp_path, interval_us=300_000)
        pmo = lib.PMO_create("queued", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64)
            lib.detach(pmo)
        assert store.flush(pmo) >= 1      # seq 1, committed
        pmo.storage.write(oid.offset, b"queued")
        ticket = store.flush_async(pmo)   # seq 2, in the window
        assert store.committed_state("queued")[1] == 1
        ticket.wait()
        assert store.committed_state("queued")[1] == 2
        store.close()


class TestShutdownPaths:
    def test_drain_ships_everything_queued(self, tmp_path):
        """close() drains: every queued snapshot commits and ships
        before the flusher exits."""
        store, lib, shipper = make(tmp_path, interval_us=20_000)
        pmo = lib.PMO_create("drain", MIB)
        tickets = []
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 4096)
            for r in range(5):
                lib.write(oid, bytes([r]) * 128)
                _, ticket = lib.psync_submit(pmo)
                if ticket is not None:
                    tickets.append(ticket)
        store.close()
        assert tickets
        for ticket in tickets:
            assert ticket.done
            ticket.wait(timeout=0.0)      # completed, not failed
        stream = shipper.per_pmo("drain")
        assert_monotone(stream)
        assert stream[-1][0] == store.committed_state("drain")[1]

    def test_abort_drops_unflushed_but_keeps_stream_consistent(
            self, tmp_path):
        """abort_commits() on the crash path: queued snapshots fail
        (their psyncs never promised durability), nothing ships after
        the abort, and what did ship is still a monotone prefix."""
        stall = FaultRule("store.commit_stall", "stall",
                          probability=1.0, count=1,
                          delay_ns=150_000_000)
        store, lib, shipper = make(tmp_path, rules=[stall])
        pmo = lib.PMO_create("abort", MIB)
        tickets = []
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 4096)
            # First submission occupies the flusher inside the
            # injected stall; the rest queue up behind it.
            for r in range(4):
                lib.write(oid, bytes([r + 1]) * 128)
                _, ticket = lib.psync_submit(pmo)
                if ticket is not None:
                    tickets.append(ticket)
                time.sleep(0.01)
        store.abort_commits()
        shipped_at_abort = len(shipper.commits)
        failed = 0
        for ticket in tickets:
            try:
                ticket.wait(timeout=1.0)
            except PmoError:
                failed += 1
        # The stall guarantees at least one snapshot was still queued
        # when the abort landed: its psync must have typed-failed.
        assert failed >= 1
        stream = shipper.per_pmo("abort")
        assert_monotone(stream)
        time.sleep(0.05)
        assert len(shipper.commits) == shipped_at_abort
        # A post-abort submission is refused, not silently dropped.
        with lib.thread(2):
            lib.attach(pmo)
            lib.write(oid, b"late")
            with pytest.raises(PmoError):
                lib.psync(pmo)
