"""Delta-file bucket merge + compaction (the FeatureWriters incremental-
flush efficiency class): steady-state upsert epochs write O(changes) delta
files instead of rewriting touched buckets wholesale; chains compact at
max_deltas; logical table state is identical to full-rewrite mode."""

import os

import pyarrow.parquet as pq
import pytest

from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.synth import BinlogSpec, write_binlog
from geomesa_nifi_ray.testing import resolved_buckets

SPEC = BinlogSpec(num_events=3000, num_urls=400, num_epochs=6, seed=11)


@pytest.fixture(scope="module")
def binlog(tmp_path_factory):
    return write_binlog(str(tmp_path_factory.mktemp("bl_delta")), SPEC)


def test_delta_chain_grows_then_compacts(ray_session, tmp_path, binlog):
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=8, max_deltas=4)
    eng.replay_binlog(binlog)
    # epoch 1..4 append deltas; epoch 5 hits max_deltas on every touched
    # bucket and compacts (chain reset)
    m1 = eng.table.manifest(1)
    assert any(e["deltas"] for e in m1["buckets"].values())
    for e in m1["buckets"].values():
        if e["epoch_file"]:
            assert "delta-" in e["epoch_file"]
    m5 = eng.table.manifest(5)
    for e in m5["buckets"].values():
        if e["epoch_file"]:          # touched this epoch -> compacted
            assert e["deltas"] == [] and "delta-" not in e["file"]


def test_delta_mode_matches_full_rewrite(ray_session, tmp_path, binlog):
    delta_eng = CDCEngine(str(tmp_path / "lk_d"), num_buckets=8, max_deltas=4)
    delta_eng.replay_binlog(binlog)
    full_eng = CDCEngine(str(tmp_path / "lk_f"), num_buckets=8, max_deltas=0)
    full_eng.replay_binlog(binlog)
    assert delta_eng.table.snapshot_table().equals(full_eng.table.snapshot_table())
    # snapshot_dataset (chain-merging read path) agrees with snapshot_table
    ds_rows = delta_eng.table.snapshot_dataset().count()
    assert ds_rows == delta_eng.table.snapshot_table().num_rows


def test_delta_write_volume_is_small(ray_session, tmp_path, binlog):
    """The point of deltas: a steady-state epoch writes ~O(changes) bytes,
    not a full copy of every touched bucket."""
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=8, max_deltas=10)
    eng.replay_binlog(binlog)
    m1 = eng.table.manifest(1)
    delta_rows = base_rows = 0
    segments = set()
    for e in m1["buckets"].values():
        base_rows += int(e["rows"])
        if e["epoch_file"]:
            # a bucket's delta is a row range of its merge task's segment
            lo, hi = e["epoch_file_range"]
            delta_rows += hi - lo
            segments.add(e["epoch_file"])
    assert 0 < delta_rows < base_rows  # wrote the changes, not the table
    assert delta_rows == sum(
        pq.ParquetFile(eng.table.abs_path(f)).metadata.num_rows
        for f in segments)


def test_delta_crash_resume_identical(ray_session, tmp_path, binlog):
    a = CDCEngine(str(tmp_path / "lk_a"), num_buckets=8)
    a.replay_binlog(binlog)
    b = CDCEngine(str(tmp_path / "lk_b"), num_buckets=8)
    for e in binlog["epochs"]:
        b.apply_epoch(e["path"], e["epoch"], (e["offset_min"], e["offset_max"]))
    # crash: drop the manifest of delta epoch 3 AND of compaction epoch 5
    os.remove(os.path.join(str(tmp_path / "lk_b"), "pages", "_log", "epoch-00005.json"))
    b2 = CDCEngine(str(tmp_path / "lk_b"), num_buckets=8)
    assert b2.table.committed_epoch() == 4
    b2.replay_binlog(binlog)
    assert a.table.snapshot_table().equals(b2.table.snapshot_table())
    assert a.table.manifest(5) == b2.table.manifest(5)


def test_late_event_loses_to_stored_winner(ray_session, tmp_path):
    """A change row with an older warc_ts than the stored winner must NOT
    enter the delta (LWW on (warc_ts, offset), not arrival order)."""
    import pandas as pd
    import pyarrow as pa

    from geomesa_nifi_ray.engine import PAGE_SCHEMA

    def mk_epoch(path, rows, off0):
        t = pa.table(
            {
                "url": pa.array([r[0] for r in rows]),
                "warc_ts": pa.array([pd.Timestamp(r[1]) for r in rows],
                                    type=pa.timestamp("us")),
                "html": pa.array([f"<p>{r[2]}</p>".encode() for r in rows],
                                 type=pa.large_binary()),
                "text": pa.array([None] * len(rows), type=pa.large_string()),
                "lang": pa.array(["en"] * len(rows)),
                "offset": pa.array(range(off0, off0 + len(rows)), type=pa.int64()),
            }
        )
        os.makedirs(path, exist_ok=True)
        pq.write_table(t, os.path.join(path, "part-0.parquet"))
        return {"epoch": None, "path": path}

    root = str(tmp_path / "bl")
    mk_epoch(f"{root}/epoch-00000", [("u1", "2026-01-02", "new"), ("u2", "2026-01-01", "x")], 0)
    mk_epoch(f"{root}/epoch-00001", [("u1", "2026-01-01", "stale"), ("u2", "2026-01-03", "y")], 10)

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    eng.apply_epoch(f"{root}/epoch-00000", 0, (0, 1))
    eng.apply_epoch(f"{root}/epoch-00001", 1, (10, 11))
    snap = eng.table.snapshot_table()
    by_url = {u: t for u, t in zip(snap["url"].to_pylist(), snap["text"].to_pylist())}
    assert by_url["u1"] == "new"    # late event (older ts) lost
    assert by_url["u2"] == "y"      # newer ts won


def _replayed(tmp_path, binlog, name, **kw):
    eng = CDCEngine(str(tmp_path / name), num_buckets=8)
    eng.replay_binlog(binlog, **kw)
    return eng


def _assert_same_lake(a, b, counters=True):
    """Same snapshot, and the same manifests bucket for bucket, delta refs
    compared by the rows they name (each merge task writes its own
    segment, so the two exchanges' task groupings name segments
    differently). With ``counters=False`` each bucket's ``rows_changed``
    is left out: the late exchange hands the merge one winner per key,
    while split hands it the per-batch winners, so the two count the
    merge input differently once an epoch spans several convert
    batches."""
    assert a.table.snapshot_table().equals(b.table.snapshot_table())
    drop = () if counters else ("rows_changed",)
    for e in range(6):
        ma, mb = a.table.manifest(e), b.table.manifest(e)
        assert (resolved_buckets(a.table, e, drop)
                == resolved_buckets(b.table, e, drop)), e
        assert (ma["rows_failed"], ma["rows_in"]) == (mb["rows_failed"], mb["rows_in"])
        assert (ma["rows_failed"], ma["rows_in"]) == (mb["rows_failed"], mb["rows_in"])


def test_late_exchange_matches_split_exchange(ray_session, tmp_path, binlog):
    """The late-materialized keyed exchange (keys shuffle + winner payload
    fetch) must produce the same lake as the split exchange — snapshots
    AND manifests, delta segments compared by content — at the default
    batch size and in the large band, where split runs one merge task per
    bucket."""
    late = _replayed(tmp_path, binlog, "lk_late", exchange="late")
    split = _replayed(tmp_path, binlog, "lk_split")
    assert (late.last_exchange_strategy, split.last_exchange_strategy) == (
        "late", "split")
    _assert_same_lake(late, split)
    # 500-row epochs > 8 x batch(4) x P(8) rows: the large band
    late = _replayed(tmp_path, binlog, "lk_late4", exchange="late", batch_size=4)
    split = _replayed(tmp_path, binlog, "lk_split4", batch_size=4)
    _assert_same_lake(late, split, counters=False)


def test_late_exchange_catchup_and_resume(ray_session, tmp_path, binlog):
    eng = CDCEngine(str(tmp_path / "lk_lc"), num_buckets=8)
    eng.replay_binlog(binlog, catchup=True, exchange="late")
    ref = CDCEngine(str(tmp_path / "lk_ref"), num_buckets=8)
    ref.replay_binlog(binlog)
    assert eng.table.snapshot_table().equals(ref.table.snapshot_table())
    # crash/resume on the late path
    os.remove(os.path.join(str(tmp_path / "lk_lc"), "pages", "_log", "epoch-00005.json"))
    eng2 = CDCEngine(str(tmp_path / "lk_lc"), num_buckets=8)
    eng2.replay_binlog(binlog, catchup=True, exchange="late")
    assert eng2.table.snapshot_table().equals(ref.table.snapshot_table())


def test_delta_snapshot_dataset_column_pruned(ray_session, tmp_path, binlog):
    """Column-pruned snapshot reads work over delta chains (the merge pulls
    in key+order internally, output carries only the asked columns)."""
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=8, max_deltas=10)
    eng.replay_binlog(binlog)
    assert any(e.get("deltas") for e in eng.table.live_entries().values())
    df = eng.table.snapshot_dataset(columns=["url", "lang"]).to_pandas()
    full = eng.table.snapshot_table()
    assert sorted(df.columns) == ["lang", "url"]
    assert len(df) == full.num_rows
    assert sorted(df["url"]) == sorted(full["url"].to_pylist())


def test_split_exchange_groups_match_single_group(ray_session, tmp_path,
                                                  binlog, monkeypatch):
    """Split with one merge task per bucket (G = P, the large band, reached
    with a small batch) and with one merge task for the whole epoch
    (G = 1) must produce the same lake, manifests included (delta
    segments compared by content: G tasks write G segments per epoch)."""
    from geomesa_nifi_ray import engine as eng_mod

    orig, seen = eng_mod._split_groups, []
    monkeypatch.setattr(eng_mod, "_split_groups",
                        lambda *a: seen.append(orig(*a)) or seen[-1])
    wide = _replayed(tmp_path, binlog, "lk_wide", batch_size=4)
    assert seen == [8] * 6
    monkeypatch.setattr(eng_mod, "_split_groups", lambda *a: 1)
    narrow = _replayed(tmp_path, binlog, "lk_narrow", batch_size=4)
    _assert_same_lake(wide, narrow)
