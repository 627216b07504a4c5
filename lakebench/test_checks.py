"""Negative tests for the benchmark's checks: each check must fail on a
deliberately corrupted output. Run with ``python3 -m pytest lakebench``;
no Ray instance is started."""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lakebench import inputs, oracle  # noqa: E402
from lakebench.oracle import CheckError  # noqa: E402

US = pa.timestamp("us")


def _events(rows) -> pa.Table:
    """rows: (offset, url, warc_ts_us, html or None, lang)."""
    return pa.table({
        "offset": pa.array([r[0] for r in rows], pa.int64()),
        "url": pa.array([r[1] for r in rows], pa.string()),
        "warc_ts": pa.array([r[2] for r in rows], pa.int64()).cast(US),
        "html": pa.array([None if r[3] is None else r[3].encode() for r in rows],
                         pa.large_binary()),
        "text": pa.array([r[3] for r in rows], pa.large_string()),
        "lang": pa.array([r[4] for r in rows], pa.string()),
    })


ROWS = [
    (0, "a", 10, "a-v0", "en"),
    (1, "a", 20, "a-v1", "en"),
    (2, "a", 30, None, "en"),        # newest, but null html: dead-lettered
    (3, "b", 50, "b-v0", "de"),
    (4, "b", 50, "b-v1", "de"),      # tied warc_ts: the greater offset wins
    (5, "c", 90, "c-v0", "fr"),
    (6, "c", 70, "c-v1", "fr"),      # arrives later, older warc_ts: loses
]


@pytest.fixture()
def files(tmp_path):
    path = str(tmp_path / "events.parquet")
    pq.write_table(_events(ROWS), path)
    return [path]


@pytest.fixture()
def expected(files):
    return oracle.expected_state(files)


def test_expected_state_takes_latest_non_null_winner(expected):
    d = expected.to_pydict()
    assert d["url"] == ["a", "b", "c"]
    assert d["offset"] == [1, 4, 5]
    assert d["text"] == ["a-v1", "b-v1", "c-v0"]
    assert d["content_hash"][0] == oracle.content_hash("a", 20, "a-v1", "en")


def test_content_hash_matches_documented_formula():
    from geomesa_nifi_ray.hashing import content_hash_rows

    assert content_hash_rows(["u"], [123], ["t x"], [None]) == [
        oracle.content_hash("u", 123, "t x", None)]


def test_dead_letters(files):
    assert oracle.dead_letters(files) == 1


def test_check_state_accepts_same_rows_in_any_order(expected):
    shuffled = expected.take(pa.array([2, 0, 1]))
    oracle.check_state(shuffled, expected, "same")


def test_check_state_catches_dropped_row(expected):
    with pytest.raises(CheckError, match="rows"):
        oracle.check_state(expected.slice(1), expected, "dropped")


def test_check_state_catches_stale_winner(expected):
    # url 'a' served at its older version, with a hash consistent with it
    stale = _events([ROWS[0]])
    stale = stale.append_column("content_hash", pa.array(
        [oracle.content_hash("a", 10, "a-v0", "en")]))
    rest = expected.filter(pc.not_equal(expected["url"], "a"))
    corrupted = pa.concat_tables([oracle.canon(stale, expected.column_names), rest])
    with pytest.raises(CheckError, match="differs at url 'a'"):
        oracle.check_state(corrupted, expected, "stale")


def test_check_state_catches_tampered_hash(expected):
    i = expected.column_names.index("content_hash")
    bad = expected.set_column(i, "content_hash", pa.array(
        ["0" * 32] + expected["content_hash"].to_pylist()[1:]))
    with pytest.raises(CheckError, match="content_hash"):
        oracle.check_state(bad, expected, "tampered")


def test_check_state_catches_tampered_text(expected):
    i = expected.column_names.index("text")
    bad = expected.set_column(i, "text", pa.array(
        expected["text"].to_pylist()[:-1] + ["c-v0 "]))
    with pytest.raises(CheckError, match="'text'"):
        oracle.check_state(bad, expected, "text")


def test_check_state_catches_missing_column(expected, tmp_path):
    extra = _events([(7, "d", 5, "d-v0", "en")]).append_column(
        "content_type", pa.array(["text/html"]))
    path = str(tmp_path / "extra.parquet")
    pq.write_table(extra, path)
    want = oracle.expected_state([path])
    with pytest.raises(CheckError, match="content_type"):
        oracle.check_state(want.drop_columns(["content_type"]), want, "evolved")


def test_check_equal():
    oracle.check_equal(3, 3, "same")
    with pytest.raises(CheckError):
        oracle.check_equal(2999, 3999, "committed offset")


def _lookup_rows(model, keys):
    rows = [(k, *model.live[k]) for k in keys if k in model.live]
    return pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.int64()).cast(US),
        "offset": pa.array([r[2] for r in rows], pa.int64()),
        "content_hash": pa.array([r[3] for r in rows], pa.string()),
    })


def test_model_lookup_catches_absent_key_and_stale_row(expected):
    model = oracle.KeyModel(expected)
    keys = ["a", "b", "zz-absent"]
    good = _lookup_rows(model, keys)
    model.check_lookup(keys, good, "lookup")
    ghost = pa.concat_tables([good, _lookup_rows(model, ["c"]).set_column(
        0, "url", pa.array(["zz-absent"]))])
    with pytest.raises(CheckError, match="absent key"):
        model.check_lookup(keys, ghost, "lookup")
    with pytest.raises(CheckError, match="key 'b'"):
        model.check_lookup(keys, good.slice(0, 1), "lookup")


def test_model_upsert_delete_and_scan(expected):
    model = oracle.KeyModel(expected)
    model.upsert(_events([(8, "b", 40, "b-old", "de"),      # older: ignored
                          (9, "c", 95, "c-v2", "fr"),
                          (10, "c", 99, None, "fr")]))       # null html: ignored
    assert model.live["b"][1] == 4
    assert model.live["c"][:2] == (95, 9)
    model.delete(["a", "never-there"])
    assert "a" not in model.live
    # an event older than the deleted winner does not bring the key back
    model.upsert(_events([(11, "a", 15, "a-late", "en")]))
    assert "a" not in model.live
    model.upsert(_events([(12, "a", 25, "a-new", "en")]))
    assert model.live["a"][:2] == (25, 12)
    snap = _lookup_rows(model, list(model.live))
    model.check_scan(snap, "scan")
    with pytest.raises(CheckError, match="missing"):
        model.check_scan(snap.slice(1), "scan")
    i = snap.column_names.index("content_hash")
    with pytest.raises(CheckError, match="differing"):
        model.check_scan(snap.set_column(i, "content_hash", pa.array(
            ["f" * 32] * snap.num_rows)), "scan")


def test_producer_copies_order_after_everything_published(tmp_path):
    meta, _ = inputs.load_binlog(str(tmp_path / "cache"), 3, inputs.Sizes(
        num_events=600, num_epochs=3, num_urls=200, evolve_epochs=1,
        backlog_groups=1, num_buckets=4))
    prod = inputs.Producer(meta, str(tmp_path / "pub"), first_epoch=2,
                           plan=[(2, 0)], first_copy=1)
    recs = [prod.publish() for _ in range(4)]
    assert [r["epoch"] for r in recs] == [2, 3, 4, 5]
    assert sorted(os.listdir(tmp_path / "pub")) == [
        "epoch-00002", "epoch-00003", "epoch-00004", "epoch-00005"]
    for a, b in zip(recs, recs[1:]):
        assert b["offset_min"] > a["offset_max"]
        ts_a = pc.max(a["events"]["warc_ts"]).value
        ts_b = pc.min(b["events"]["warc_ts"]).value
        assert ts_b > ts_a
    # a copy keeps its source epoch's urls and null html rows
    src = pq.read_table(meta["epochs"][1]["files"][0])
    assert recs[1]["events"]["url"].equals(src["url"])
    assert recs[1]["events"]["html"].null_count == src["html"].null_count


def test_group_epochs():
    descs = [{"epoch": i, "files": [f"f{i}"], "offset_min": 10 * i,
              "offset_max": 10 * i + 9} for i in range(5)]
    groups = inputs.group_epochs(descs, 2)
    assert [g["epoch"] for g in groups] == [0, 1]
    assert groups[0]["files"] == ["f0", "f1", "f2"]
    assert (groups[1]["offset_min"], groups[1]["offset_max"]) == (30, 49)
