"""Source SPI: the pluggable change-stream seam (`GetGeoMesaKafkaRecord`
consumer surface as a plug point). The sqlite log-table source must drive
the SAME tail loop — atomic publish, crash/resume, equivalence with the
filesystem binlog — with no engine edits."""

import glob
import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.sources.spi import (
    FilesystemEpochSource,
    SqliteBinlogSource,
    Source,
)
from geomesa_nifi_ray.synth import BinlogSpec, write_binlog

SPEC = BinlogSpec(num_events=1200, num_urls=240, num_epochs=3, seed=44)


def _epoch_table(meta, i) -> pa.Table:
    e = meta["epochs"][i]
    files = e["files"] if "files" in e else sorted(
        glob.glob(os.path.join(e["path"], "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files])


@pytest.fixture()
def binlog(tmp_path):
    return write_binlog(str(tmp_path / "binlog"), SPEC)


def _sqlite_source(tmp_path, binlog, upto=None) -> SqliteBinlogSource:
    t0 = _epoch_table(binlog, 0)
    src = SqliteBinlogSource(str(tmp_path / "bus.db"), schema=t0.schema)
    for i in range(len(binlog["epochs"]) if upto is None else upto):
        src.append_epoch(_epoch_table(binlog, i), epoch=i)
    return src


def test_protocol_conformance(tmp_path, binlog):
    fs = FilesystemEpochSource(os.path.dirname(binlog["epochs"][0]["path"]))
    assert isinstance(fs, Source)
    src = _sqlite_source(tmp_path, binlog, upto=1)
    assert isinstance(src, Source)


def test_sqlite_source_roundtrip_schema(ray_session, tmp_path, binlog):
    """read() returns the event rows with the exact pinned arrow schema
    (timestamps/binaries round-trip through sqlite storage types)."""
    src = _sqlite_source(tmp_path, binlog, upto=1)
    want = _epoch_table(binlog, 0)
    got = src.read({"epoch": 0}).take_all()
    got_t = pa.Table.from_pylist(got, schema=want.schema)
    assert got_t.schema.equals(want.schema)
    a = got_t.sort_by("offset")
    b = want.sort_by("offset")
    assert a.equals(b)


def test_tail_sqlite_equals_filesystem_replay(ray_session, tmp_path, binlog):
    """The bus-fed lake is bit-equal to a parquet-binlog replay."""
    src = _sqlite_source(tmp_path, binlog)
    eng = CDCEngine(str(tmp_path / "lake_bus"), num_buckets=8)
    results = eng.tail(src, poll_interval=0.1, max_idle_polls=2)
    assert eng.table.committed_epoch() == 2
    assert [r.epoch for r in results] == [0, 1, 2]

    ref = CDCEngine(str(tmp_path / "lake_ref"), num_buckets=8)
    ref.replay_binlog(binlog)
    assert ref.table.snapshot_table().equals(eng.table.snapshot_table())


def test_tail_sqlite_picks_up_arriving_epochs(ray_session, tmp_path, binlog):
    """Atomic publish: epochs appended while the tailer polls appear whole
    (the epochs-row-last transaction is the rename analog)."""
    src = _sqlite_source(tmp_path, binlog, upto=1)
    eng = CDCEngine(str(tmp_path / "lake_live"), num_buckets=8)

    def producer():
        time.sleep(0.6)
        src.append_epoch(_epoch_table(binlog, 1), epoch=1)
        time.sleep(0.6)
        src.append_epoch(_epoch_table(binlog, 2), epoch=2)

    t = threading.Thread(target=producer)
    t.start()
    results = eng.tail(src, poll_interval=0.3, max_idle_polls=5)
    t.join()
    assert eng.table.committed_epoch() == 2
    assert [r.epoch for r in results] == [0, 1, 2]
    ref = CDCEngine(str(tmp_path / "lake_live_ref"), num_buckets=8)
    ref.replay_binlog(binlog)
    assert ref.table.snapshot_table().equals(eng.table.snapshot_table())


def test_tail_sqlite_crash_resume(ray_session, tmp_path, binlog):
    """Kill the last commit, re-tail from the same source: exactly-once
    resume from the lake's cursor (the source holds no consumer state)."""
    src = _sqlite_source(tmp_path, binlog)
    lake = str(tmp_path / "lake_crash")
    eng = CDCEngine(lake, num_buckets=8)
    eng.tail(src, poll_interval=0.1, max_idle_polls=2)
    want = eng.table.snapshot_table()

    logs = sorted(glob.glob(os.path.join(lake, "pages", "_log", "epoch-*.json")))
    os.remove(logs[-1])  # simulate crash before the last commit landed
    eng2 = CDCEngine(lake, num_buckets=8)
    assert eng2.table.committed_epoch() == 1
    results = eng2.tail(src, poll_interval=0.1, max_idle_polls=2)
    assert [r.epoch for r in results] == [2]
    assert eng2.table.snapshot_table().equals(want)


def test_epoch_mode_carried_by_descriptor(ray_session, tmp_path, binlog):
    """A source descriptor's mode overrides the call-level default (the
    per-epoch resolution of the reference's dynamic-writer switch)."""
    t0 = _epoch_table(binlog, 0)
    src = SqliteBinlogSource(str(tmp_path / "bus2.db"), schema=t0.schema)
    src.append_epoch(t0, epoch=0)
    src.append_epoch(_epoch_table(binlog, 1), epoch=1, mode="update")
    polled = src.poll_epochs()
    assert "mode" not in polled[0] and polled[1]["mode"] == "update"

    eng = CDCEngine(str(tmp_path / "lake_mode"), num_buckets=8)
    eng.tail(src, poll_interval=0.1, max_idle_polls=2)
    # update-mode epoch 1 only modifies keys that epoch 0 inserted
    ref = CDCEngine(str(tmp_path / "lake_mode_ref"), num_buckets=8)
    ref.replay_binlog({"epochs": binlog["epochs"][:1]})
    e1 = dict(binlog["epochs"][1])
    ref.replay_binlog({"epochs": [e1]}, mode="update")
    assert ref.table.snapshot_table().equals(eng.table.snapshot_table())


def test_append_epoch_immutable(tmp_path, binlog):
    t0 = _epoch_table(binlog, 0)
    src = SqliteBinlogSource(str(tmp_path / "bus3.db"), schema=t0.schema)
    src.append_epoch(t0, epoch=0)
    with pytest.raises(Exception):
        src.append_epoch(t0, epoch=0)


def test_sqlite_tail_after_delete_keys_applies_every_epoch(ray_session,
                                                           tmp_path):
    """``delete_keys`` commits lake epoch 2 between producer epochs 1 and
    2. The sqlite source must still deliver its epoch 2 (offsets 200-299):
    the cursor is the committed offset, and ``read`` selects the
    descriptor's ``source_epoch``, not the lake epoch it is assigned. The
    log is 400 events in 4 epochs."""
    binlog = write_binlog(str(tmp_path / "bl4"), BinlogSpec(
        num_events=400, num_urls=150, num_epochs=4, seed=7))
    src = _sqlite_source(tmp_path, binlog, upto=2)
    lake = str(tmp_path / "lake_del")
    eng = CDCEngine(lake, num_buckets=4)
    assert [r.epoch for r in eng.tail(src, poll_interval=0,
                                      max_idle_polls=1)] == [0, 1]
    victim = eng.table.snapshot_table()["url"][0].as_py()
    eng.delete_keys([victim])                                # lake epoch 2
    assert eng.committed_offset() == 199
    for i in (2, 3):
        src.append_epoch(_epoch_table(binlog, i), epoch=i)
    # a fresh tailer (crash after the maintenance epoch) resumes from the lake
    eng = CDCEngine(lake)
    res = eng.tail(src, poll_interval=0, max_idle_polls=1)
    assert [r.epoch for r in res] == [3, 4]
    ranges = [(eng.table.manifest_head(e)["offset_min"],
               eng.table.manifest_head(e)["offset_max"])
              for e in eng.table.manifest_epochs()]
    assert ranges == [(0, 99), (100, 199), (-1, -1), (200, 299), (300, 399)]

    ref = CDCEngine(str(tmp_path / "lake_del_ref"), num_buckets=4)
    for e, d in enumerate(binlog["epochs"]):
        if e == 2:
            ref.delete_keys([victim])
        nxt = 0 if e == 0 else ref.table.committed_epoch() + 1
        ref.apply_epoch(d["files"], epoch=nxt,
                        offset_range=(d["offset_min"], d["offset_max"]))
    assert ref.table.snapshot_table().equals(eng.table.snapshot_table())
