"""The tailer's offset cursor over a ``FilesystemEpochSource``.

1. ``delete_keys`` commits a maintenance epoch that takes the next lake
   epoch number; the producer's directory with that number must still be
   applied — offsets, not directory numbers, say what is pending — also
   when the tailer crashes and resumes around it.
2. A poll with the cursor reads O(new epochs) footers, not O(history).
3. A long-running tailer does not grow the Ray function table.
"""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.sources.spi import FilesystemEpochSource
from geomesa_nifi_ray.synth import BinlogSpec, write_binlog


def _publish(meta, pub, e, name=None):
    """Atomic publish: copy into a hidden tmp dir, then one rename."""
    os.makedirs(pub, exist_ok=True)
    tmp = os.path.join(pub, ".tmp")
    shutil.copytree(meta["epochs"][e]["path"], tmp)
    os.rename(tmp, os.path.join(pub, name or f"epoch-{e:05d}"))


def _tail(eng, pub):
    return eng.tail(pub, poll_interval=0, max_idle_polls=1)


def _offset_ranges(table):
    return [(table.manifest_head(e)["offset_min"],
             table.manifest_head(e)["offset_max"])
            for e in table.manifest_epochs()]


def test_tail_after_delete_keys_applies_every_epoch(ray_session, tmp_path):
    meta = write_binlog(str(tmp_path / "binlog"), BinlogSpec(
        num_events=1000, num_urls=400, num_epochs=5, seed=42))
    pub = str(tmp_path / "pub")
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_buckets=4)
    for e in (0, 1):
        _publish(meta, pub, e)
        assert len(_tail(eng, pub)) == 1
    victim = eng.table.snapshot_table()["url"][0].as_py()
    eng.delete_keys([victim])                               # lake epoch 2
    assert eng.table.committed_epoch() == 2

    # crash after the maintenance epoch: a fresh tailer resumes from the lake
    eng = CDCEngine(lake)
    _publish(meta, pub, 2)
    res = _tail(eng, pub)
    assert [r.epoch for r in res] == [3]
    ep2 = meta["epochs"][2]
    assert eng.committed_offset() == ep2["offset_max"]
    assert _offset_ranges(eng.table)[3] == (ep2["offset_min"], ep2["offset_max"])
    committed_3 = eng.table.manifest(3)

    # crash while committing the producer epoch: its bucket files are
    # written, its manifest is not; the resumed tailer re-applies it
    os.remove(os.path.join(lake, "pages", "_log", "epoch-00003.json"))
    eng = CDCEngine(lake)
    assert eng.table.committed_epoch() == 2
    assert eng.committed_offset() == meta["epochs"][1]["offset_max"]
    assert [r.epoch for r in _tail(eng, pub)] == [3]
    assert eng.table.manifest(3) == committed_3

    for e in (3, 4):
        _publish(meta, pub, e)
        assert len(_tail(eng, pub)) == 1
        assert eng.committed_offset() == meta["epochs"][e]["offset_max"]
    # every published offset reached the lake, each range exactly once
    ranges = [r for r in _offset_ranges(eng.table) if r[1] >= 0]
    assert ranges == [(d["offset_min"], d["offset_max"]) for d in meta["epochs"]]

    # same state as a tailer that never crashed and deleted nothing but
    # the same key between the same two epochs, through apply_epoch
    ref = CDCEngine(str(tmp_path / "ref"), num_buckets=4)
    for e, d in enumerate(meta["epochs"]):
        if e == 2:
            ref.delete_keys([victim])
        nxt = 0 if e == 0 else ref.table.committed_epoch() + 1
        ref.apply_epoch(d["files"], epoch=nxt,
                        offset_range=(d["offset_min"], d["offset_max"]))
    assert ref.table.snapshot_table().equals(eng.table.snapshot_table())


def _write_epochs(root, n, rows=3):
    for e in range(n):
        d = os.path.join(root, f"epoch-{e:05d}")
        os.makedirs(d)
        off = list(range(e * rows, (e + 1) * rows))
        pq.write_table(pa.table({"offset": pa.array(off, pa.int64())}),
                       os.path.join(d, "part-00000.parquet"))


def _footer_reads(monkeypatch, fn):
    count = [0]
    real = pq.ParquetFile

    class Counting(real):
        def __init__(self, *a, **kw):
            count[0] += 1
            super().__init__(*a, **kw)

    monkeypatch.setattr(pq, "ParquetFile", Counting)
    out = fn()
    monkeypatch.setattr(pq, "ParquetFile", real)
    return out, count[0]


def test_cursor_poll_reads_flat_footers(tmp_path, monkeypatch):
    reads = {}
    for n in (10, 200):
        root = str(tmp_path / f"b{n}")
        _write_epochs(root, n)
        src = FilesystemEpochSource(root)
        # the lake committed all but the last directory, under a lake epoch
        # number shifted by two maintenance epochs
        cursor = {"epoch": n, "offset": (n - 1) * 3 - 1}
        got, reads[n] = _footer_reads(monkeypatch,
                                      lambda: src.poll_epochs(cursor=cursor))
        assert [(d["epoch"], d["offset_min"]) for d in got] == [
            (n + 1, (n - 1) * 3)]
        idle, idle_reads = _footer_reads(monkeypatch, lambda: src.poll_epochs(
            cursor={"epoch": n + 1, "offset": n * 3 - 1}))
        assert idle == [] and idle_reads == 1
        # without a cursor every directory is described, named by its dir
        full, full_reads = _footer_reads(monkeypatch, src.poll_epochs)
        assert full_reads == n and [d["epoch"] for d in full] == list(range(n))
    assert reads[10] == reads[200] == 2


def test_cursor_poll_empty_lake_and_statless_dirs(tmp_path):
    root = str(tmp_path / "b")
    _write_epochs(root, 3)
    src = FilesystemEpochSource(root)
    got = src.poll_epochs(cursor={"epoch": None, "offset": -1})
    assert [d["epoch"] for d in got] == [0, 1, 2]
    # a directory whose files carry no offset statistics falls back to its
    # name against the committed epoch
    d = os.path.join(root, "epoch-00003")
    os.makedirs(d)
    pq.write_table(pa.table({"offset": pa.nulls(2, pa.int64())}),
                   os.path.join(d, "part-00000.parquet"))
    got = src.poll_epochs(cursor={"epoch": 2, "offset": 8})
    assert [(x["epoch"], x["offset_min"]) for x in got] == [(3, -1)]
    assert src.poll_epochs(cursor={"epoch": 3, "offset": 8}) == []


def test_tail_keeps_function_table_flat(ray_session, tmp_path):
    """50 tail() calls, each committing one epoch, define no new Ray
    functions: every task the replay path runs is defined once."""
    from ray.experimental import internal_kv

    def functions():
        return len(internal_kv._internal_kv_list(b"", namespace="fun"))

    meta = write_binlog(str(tmp_path / "binlog"), BinlogSpec(
        num_events=510, num_urls=200, num_epochs=51, seed=5))
    pub = str(tmp_path / "pub")
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    _publish(meta, pub, 0)
    assert len(_tail(eng, pub)) == 1                # warm: defines the tasks
    before = functions()
    for e in range(1, 51):
        _publish(meta, pub, e)
        assert len(_tail(eng, pub)) == 1
    assert eng.table.committed_epoch() == 50
    assert functions() == before
