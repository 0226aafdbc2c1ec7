"""The Registry's durable medium: WAL, snapshots, replication.

Pure data-structure tests — no simulation clock.  Append / snapshot /
truncate must keep the sequence and epoch bookkeeping exact, and the
replication delta must be idempotent under duplicate delivery.
"""

from repro.core.registry.store import RegistryStore, WalRecord


def populated() -> RegistryStore:
    store = RegistryStore()
    store.record_epoch(1)
    store.append("register_manager", manager="dm-A")
    store.append("register_function", function="fn",
                 query=["Intel", "", "sobel"])
    store.append("admit", instance="fn-i1", function="fn",
                 node="n0000", device="dm-A", pending=None)
    return store


class TestWalAppend:
    def test_sequences_are_monotonic(self):
        store = populated()
        assert [r.seq for r in store.wal] == [1, 2, 3, 4]
        assert store.seq == 4
        assert store.appends == 4
        assert store.appended_bytes > 0

    def test_epoch_rides_the_wal(self):
        store = populated()
        assert store.epoch == 1
        store.record_epoch(5)
        assert store.epoch == 5
        store.record_epoch(2)  # lower epochs never regress the counter
        assert store.epoch == 5

    def test_record_meta_round_trip(self):
        record = WalRecord(seq=7, op="admit", args={"instance": "x"})
        assert WalRecord(**record.to_meta()) == record
        assert record.nbytes == len(
            '{"args":{"instance":"x"},"op":"admit","seq":7}')


class TestSnapshot:
    def test_snapshot_truncates_wal(self):
        store = populated()
        store.take_snapshot({"epoch": 1, "devices": {}})
        assert len(store.wal) == 0
        assert store.snapshot_seq == 4
        assert store.seq == 4  # sequence survives the truncation
        assert store.truncated_records == 4
        store.append("admit", instance="fn-i2", function="fn",
                     node="n0001", device="dm-B", pending=None)
        assert store.wal[0].seq == 5

    def test_replay_returns_snapshot_and_suffix(self):
        store = populated()
        store.take_snapshot({"marker": True})
        store.append("device_dead", manager="dm-A")
        snapshot, records = store.replay()
        assert snapshot == {"marker": True}
        assert [r.op for r in records] == ["device_dead"]


class TestTruncate:
    def test_lost_tail(self):
        store = populated()
        lost = store.truncate(2)
        assert lost == 2
        assert store.seq == 2
        assert [r.op for r in store.wal] == ["epoch", "register_manager"]

    def test_epoch_recomputed_from_kept_records(self):
        store = populated()
        store.record_epoch(9)
        assert store.epoch == 9
        store.truncate(4)  # drops the epoch-9 record
        assert store.epoch == 1

    def test_truncate_to_snapshot(self):
        store = populated()
        store.take_snapshot({"epoch": 1})
        store.append("device_dead", manager="dm-A")
        store.truncate(store.snapshot_seq)
        assert store.seq == store.snapshot_seq
        assert store.epoch == 1  # recovered from the snapshot


class TestReplicationDelta:
    def test_records_only_delta(self):
        leader = populated()
        snapshot, records, nbytes = leader.delta_since(2)
        assert snapshot is None
        assert [r.seq for r in records] == [3, 4]
        assert nbytes == sum(r.nbytes for r in records)

    def test_snapshot_shipped_when_replica_predates_it(self):
        leader = populated()
        leader.take_snapshot({"epoch": 1})
        leader.append("device_dead", manager="dm-A")
        snapshot, records, nbytes = leader.delta_since(1)
        assert snapshot == {"epoch": 1}
        assert [r.op for r in records] == ["device_dead"]
        assert nbytes > 0

    def test_ingest_is_idempotent(self):
        leader = populated()
        replica = RegistryStore()
        snapshot, records, _ = leader.delta_since(replica.seq)
        assert replica.ingest_delta(snapshot, records,
                                    snapshot_seq=leader.snapshot_seq,
                                    epoch=leader.epoch) == 4
        # Duplicate delivery of the same delta applies nothing new.
        assert replica.ingest_delta(snapshot, records,
                                    snapshot_seq=leader.snapshot_seq,
                                    epoch=leader.epoch) == 0
        assert replica.seq == leader.seq
        assert replica.epoch == leader.epoch

    def test_replica_converges_via_snapshot(self):
        leader = populated()
        leader.take_snapshot({"epoch": 1, "x": 1})
        leader.append("device_dead", manager="dm-A")
        replica = RegistryStore()
        snapshot, records, _ = leader.delta_since(replica.seq)
        replica.ingest_delta(snapshot, records,
                             snapshot_seq=leader.snapshot_seq,
                             epoch=leader.epoch)
        for field in ("seq", "epoch", "snapshot_seq", "snapshot_state",
                      "wal"):
            assert getattr(replica, field) == getattr(leader, field)
