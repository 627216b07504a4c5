"""SqliteSink: the second concrete backend over the Sink SPI
(GeoMesaDataStoreService.scala:43-61 analog) — the full engine replay runs
through sqlite partition I/O with the same manifest commit protocol, and
the logical table state matches the parquet lake bit-for-bit."""

import os

import pyarrow as pa
import pytest

from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.lake import LakeTable
from geomesa_nifi_ray.sinks import ParquetLakeSink, Sink, SqliteSink
from geomesa_nifi_ray.synth import BinlogSpec, write_binlog

SPEC = BinlogSpec(num_events=1200, num_urls=200, num_epochs=3, seed=5)


def _sqlite_factory(root):
    def factory(table: LakeTable):
        return SqliteSink(os.path.join(root, "sqlite_data"), table)
    return factory


def _snapshot_via_sink(eng: CDCEngine) -> pa.Table:
    """Merge every bucket's chain through the sink's read path."""
    import pyarrow.compute as pc

    entries = eng.table.live_entries()
    chains, _, _ = eng.sink.read_chains(
        [LakeTable.chain_refs(e) for _, e in sorted(entries.items())])
    parts = [eng.table.merge_chain(c) for c in chains]
    out = pa.concat_tables(parts)
    return out.take(pc.sort_indices(out, sort_keys=[("url", "ascending")]))


def test_sink_protocol_conformance(tmp_path):
    t = LakeTable.create(str(tmp_path), "pages",
                         pa.schema([pa.field("url", pa.string())]), 2)
    assert isinstance(ParquetLakeSink(t), Sink)
    assert isinstance(SqliteSink(str(tmp_path / "s"), t), Sink)


def test_sqlite_partition_roundtrip(tmp_path):
    import pandas as pd

    sink = SqliteSink(str(tmp_path / "s"))
    t = pa.table(
        {
            "url": pa.array(["a", None]),
            "warc_ts": pa.array([pd.Timestamp("2026-01-01"), None], type=pa.timestamp("us")),
            "html": pa.array([b"\x00\xffbin", None], type=pa.large_binary()),
            "score": pa.array([1.5, None], type=pa.float64()),
            "ok": pa.array([True, None], type=pa.bool_()),
            "offset": pa.array([7, 8], type=pa.int64()),
        }
    )
    ref = sink.write_partition(t, 3, 0)
    back = sink.read_partition(ref)
    for c in t.column_names:
        want = t[c].to_pylist()
        got = back[c].to_pylist()
        if c == "html":
            got = [bytes(x) if x is not None else None for x in got]
        assert got == want, c
    # column pruning
    mini = sink.read_partition(ref, columns=["url", "offset"])
    assert mini.column_names == ["url", "offset"]
    # idempotent overwrite
    ref2 = sink.write_partition(t, 3, 0)
    assert ref2 == ref and sink.read_partition(ref).num_rows == 2


def test_engine_replay_through_sqlite_sink(ray_session, tmp_path):
    binlog = write_binlog(str(tmp_path / "bl"), SPEC)

    eng_pq = CDCEngine(str(tmp_path / "lk_pq"), num_buckets=4)
    eng_pq.replay_binlog(binlog)

    eng_sq = CDCEngine(str(tmp_path / "lk_sq"), num_buckets=4,
                       sink_factory=_sqlite_factory(str(tmp_path / "lk_sq")))
    results = eng_sq.replay_binlog(binlog)
    assert eng_sq.table.committed_epoch() == 2
    assert sum(r.rows_in for r in results) == SPEC.num_events
    # no parquet data files were written for the sqlite lake
    assert not any(
        f.endswith(".parquet")
        for _, _, fs in os.walk(os.path.join(str(tmp_path / "lk_sq"), "pages", "data"))
        for f in fs
    )
    snap_sq = _snapshot_via_sink(eng_sq).select(
        ["url", "warc_ts", "text", "lang", "content_hash", "offset"])
    snap_pq = eng_pq.table.snapshot_table().select(
        ["url", "warc_ts", "text", "lang", "content_hash", "offset"])
    assert snap_sq.equals(snap_pq)  # backend-independent logical state

    # crash/resume through the alternate sink
    os.remove(os.path.join(str(tmp_path / "lk_sq"), "pages", "_log", "epoch-00002.json"))
    eng_sq2 = CDCEngine(str(tmp_path / "lk_sq"), num_buckets=4,
                        sink_factory=_sqlite_factory(str(tmp_path / "lk_sq")))
    assert eng_sq2.table.committed_epoch() == 1
    eng_sq2.replay_binlog(binlog)
    assert _snapshot_via_sink(eng_sq2).select(snap_pq.column_names).equals(snap_pq)


def test_sqlite_sink_rejects_nested(tmp_path):
    sink = SqliteSink(str(tmp_path / "s"))
    t = pa.table({"l": pa.array([[1]], type=pa.list_(pa.int64()))})
    with pytest.raises(ValueError, match="scalar"):
        sink.write_partition(t, 0, 0)
