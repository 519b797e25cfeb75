"""Checkpointing: snapshot + WAL truncate, and snapshot-based recovery."""

import threading

import numpy as np

from repro.tsdb.model import SeriesId
from repro.tsdb.sharded import ShardedTimeSeriesStore
from repro.tsdb.wal import MAGIC, WriteAheadLog


def fill(store, n_series=6, n=64, offset=0):
    for i in range(n_series):
        ts = np.arange(offset, offset + n, dtype=np.int64)
        store.insert_array(SeriesId.make(f"metric_{i}", {"host": f"h{i}"}),
                           ts, np.sin(ts / 7.0) + i)
    return store


def contents(store):
    """Bitwise-comparable dump: series -> (timestamp bytes, value bytes)."""
    return {str(series): (ts.tobytes(), vals.tobytes())
            for series, ts, vals in store.snapshot().iter_arrays()}


def test_checkpoint_writes_snapshot_and_truncates_wal(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(ShardedTimeSeriesStore.open(wal_path, n_shards=4))
    assert wal_path.stat().st_size > len(MAGIC)
    n_bytes = store.checkpoint(snap_path)
    assert n_bytes > 0
    assert snap_path.stat().st_size == n_bytes
    assert wal_path.stat().st_size == len(MAGIC)
    assert not snap_path.with_name(snap_path.name + ".tmp").exists()
    store.close()


def test_recovery_from_snapshot_plus_wal_is_identical(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(ShardedTimeSeriesStore.open(wal_path, n_shards=4))
    store.checkpoint(snap_path)
    # Post-checkpoint appends land only in the (now short) WAL.
    fill(store, n_series=2, offset=64)
    expected = contents(store)
    store.close()

    recovered = ShardedTimeSeriesStore.open(wal_path, n_shards=4,
                                            snapshot=snap_path)
    assert contents(recovered) == expected
    recovered.close()


def test_recovery_without_snapshot_file_is_wal_only(tmp_path):
    wal_path = tmp_path / "store.wal"
    store = fill(ShardedTimeSeriesStore.open(wal_path, n_shards=2))
    expected = contents(store)
    store.close()
    recovered = ShardedTimeSeriesStore.open(
        wal_path, n_shards=2, snapshot=tmp_path / "never_written.chunk")
    assert contents(recovered) == expected
    recovered.close()


def test_checkpoint_without_wal_still_writes_snapshot(tmp_path):
    snap_path = tmp_path / "plain.chunk"
    store = fill(ShardedTimeSeriesStore(n_shards=2))
    assert store.checkpoint(snap_path) > 0
    recovered = ShardedTimeSeriesStore.open(tmp_path / "empty.wal",
                                            n_shards=2, snapshot=snap_path)
    assert contents(recovered) == contents(store)
    recovered.close()


def test_repeated_checkpoints_keep_snapshot_plus_wal_complete(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = ShardedTimeSeriesStore.open(wal_path, n_shards=4)
    for round_no in range(3):
        fill(store, n_series=3, offset=round_no * 64)
        store.checkpoint(snap_path)
    fill(store, n_series=1, offset=3 * 64)
    expected = contents(store)
    store.close()
    recovered = ShardedTimeSeriesStore.open(wal_path, n_shards=4,
                                            snapshot=snap_path)
    assert contents(recovered) == expected
    recovered.close()


def test_checkpoint_under_concurrent_writers(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(ShardedTimeSeriesStore.open(wal_path, n_shards=4))
    stop = threading.Event()
    errors = []

    def writer(wid):
        series = SeriesId.make("live_ingest", {"host": f"w{wid}"})
        i = 0
        try:
            while not stop.is_set():
                ts = np.arange(i * 8, (i + 1) * 8, dtype=np.int64)
                store.insert_array(series, ts, np.full(8, float(i)))
                i += 1
        except Exception as exc:         # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(3):
            store.checkpoint(snap_path)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    expected = contents(store)
    store.close()
    recovered = ShardedTimeSeriesStore.open(wal_path, n_shards=4,
                                            snapshot=snap_path)
    assert contents(recovered) == expected
    recovered.close()


def test_wal_truncate_resets_and_accepts_new_records(tmp_path):
    path = tmp_path / "log.wal"
    log = WriteAheadLog(path, fsync_every=1)
    ts = np.arange(4, dtype=np.int64)
    log.append_array(SeriesId.make("a"), ts, np.ones(4))
    log.truncate()
    assert path.stat().st_size == len(MAGIC)
    assert list(log.records()) == []
    log.append_array(SeriesId.make("b"), ts, np.zeros(4))
    records = list(log.records())
    assert len(records) == 1
    assert records[0][0] == SeriesId.make("b")
    log.close()


def test_checkpoint_fsyncs_directory_before_truncating_wal(tmp_path,
                                                           monkeypatch):
    """The rename must be durable before the log it replaces is dropped.

    Records every ``os.fsync`` during a checkpoint and classifies the
    descriptor: the snapshot directory's fsync (which makes the rename
    of the temp file durable) has to come before the fsync that
    ``WriteAheadLog.truncate`` issues on the log.
    """
    import os
    import stat

    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(ShardedTimeSeriesStore.open(wal_path, n_shards=2))
    store.flush()
    real_fsync = os.fsync
    calls = []

    def recording_fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            kind = ("snapshot_dir" if os.path.samestat(
                info, os.stat(snap_path.parent)) else "other_dir")
        elif os.path.samestat(info, os.stat(wal_path)):
            kind = "wal"
        else:
            kind = "file"
        calls.append(kind)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    store.checkpoint(snap_path)
    monkeypatch.setattr(os, "fsync", real_fsync)
    store.close()
    assert "snapshot_dir" in calls
    truncate_fsync = max(i for i, kind in enumerate(calls) if kind == "wal")
    assert calls.index("snapshot_dir") < truncate_fsync
    # The temp file itself is fsynced before the rename.
    assert calls.index("file") < calls.index("snapshot_dir")
