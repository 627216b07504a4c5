"""Delta segments: a merge task writes the delta rows of all its buckets
for an epoch as ONE file, ``data/delta-<epoch>-<digest>.parquet``, and
each bucket's manifest entry records its ``[lo, hi)`` row range in it.

1. A tail commit writes as many distinct data files as merge tasks, and
   the segment footer records the manifest's ranges.
2. ``vacuum`` keeps a segment while any retained manifest references it
   for any bucket, and deletes it once none does.
3. The hot view serves a pending (flushed, uncommitted) segment.
4. A crash after the segment write and before the manifest resumes to
   the same lake; segments the crashed attempt wrote under other names
   are orphans that ``vacuum`` removes.
5. Readers open each distinct file once per call.
6. A chain of whole-file deltas (no recorded ranges, the layout before
   segments) reads the same as its segment form.
"""

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from geomesa_nifi_ray.engine import CDCEngine, make_bucket_merger
from geomesa_nifi_ray.hashing import bucket_ids
from geomesa_nifi_ray.lake import LakeFS

P = 4


def _urls(n, bucket=None):
    """``n`` urls, all hashing to ``bucket`` when given."""
    out, i = [], 0
    while len(out) < n:
        u = f"https://s/{i}"
        if bucket is None or bucket_ids([u], P)[0] == bucket:
            out.append(u)
        i += 1
    return out


def _epoch(root, e, urls, off0, ts=None):
    n = len(urls)
    t = pa.table({
        "url": pa.array(urls),
        "warc_ts": pa.array([(ts or 1_000_000 * (e + 1)) + i for i in range(n)],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([b"<p>%d %d</p>" % (e, i) for i in range(n)],
                         pa.large_binary()),
        "lang": pa.array(["en"] * n),
        "offset": pa.array(range(off0, off0 + n), pa.int64()),
    })
    path = os.path.join(root, f"ev-{e:05d}.parquet")
    pq.write_table(t, path)
    return path, (off0, off0 + n - 1)


def _apply(eng, root, e, urls, off0, **kw):
    path, rng = _epoch(root, e, urls, off0)
    return eng.apply_epoch(path, e, rng, **kw)


def _segments(eng):
    data = os.path.join(eng.table.table_dir, "data")
    return sorted(f for f in os.listdir(data) if f.startswith("delta-"))


def test_delta_commit_writes_one_file_per_merge_task(ray_session, tmp_path,
                                                     monkeypatch):
    from geomesa_nifi_ray import engine as eng_mod

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=P)
    urls = _urls(200)
    _apply(eng, str(tmp_path), 0, urls, 0)
    groups = []
    orig = eng_mod._split_groups
    monkeypatch.setattr(eng_mod, "_split_groups",
                        lambda *a: groups.append(orig(*a)) or groups[-1])
    # a tail-sized epoch runs one merge task; 40 rows at batch 4 run P
    for e, batch in ((1, 8192), (2, 4)):
        before = set(eng.table.fs.walk_files(eng.table.table_dir + "/data"))
        res = _apply(eng, str(tmp_path), e, urls[::5], 1000 * e,
                     batch_size=batch)
        written = {b["epoch_file"] for b in res.manifest["buckets"].values()
                   if b["epoch_file"]}
        new = set(eng.table.fs.walk_files(eng.table.table_dir + "/data")) - before
        assert len(written) == len(new) == groups[-1]
        assert all(os.path.basename(f).startswith(f"delta-{e:05d}-")
                   for f in new)
        for seg in written:
            # the footer records exactly the manifest's ranges
            ranges = sorted([int(b), *m["epoch_file_range"]]
                            for b, m in res.manifest["buckets"].items()
                            if m["epoch_file"] == seg)
            assert sorted(eng.table.segment_ranges(seg)) == ranges
            assert ranges[-1][2] == pq.ParquetFile(
                eng.table.abs_path(seg)).metadata.num_rows
    assert groups == [1, P]


def test_vacuum_keeps_a_segment_while_any_retained_manifest_references_it(
        ray_session, tmp_path):
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=P, max_deltas=1)
    root = str(tmp_path)
    _apply(eng, root, 0, _urls(40), 0)
    _apply(eng, root, 1, _urls(40)[::3], 100)          # one segment, P ranges
    [seg1] = _segments(eng)
    # epoch 2 touches bucket 0 only: it compacts (chain at max_deltas),
    # the other buckets still reference the epoch-1 segment
    _apply(eng, root, 2, _urls(3, bucket=0), 200)
    m2 = eng.table.manifest(2)["buckets"]
    assert m2["0"]["deltas"] == [] and m2["1"]["deltas"] == [f"data/{seg1}"]
    deleted = eng.table.vacuum(retain_epochs=1)
    assert f"data/{seg1}" not in deleted and seg1 in _segments(eng)
    snap = eng.table.snapshot_table()
    # epoch 3 touches every bucket: buckets 1-3 compact, nothing
    # references seg1 any more (bucket 0 starts a new chain)
    _apply(eng, root, 3, _urls(40)[1::3], 300)
    deleted = eng.table.vacuum(retain_epochs=1)
    assert f"data/{seg1}" in deleted and seg1 not in _segments(eng)
    assert eng.table.snapshot_table(epoch=3).num_rows == snap.num_rows


def test_hot_view_serves_a_pending_segment(ray_session, tmp_path):
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=P)
    root = str(tmp_path)
    urls = _urls(40)
    _apply(eng, root, 0, urls, 0)
    cold = eng.table.snapshot_table()
    # flush epoch 1's segment (one merger call), commit nothing
    path, _ = _epoch(root, 1, urls[:10], 100)
    merger = make_bucket_merger(eng.table, 1, eng.table.live_entries(),
                                sink=eng.sink)
    merger(eng._make_convert(eng.table.schema)(pq.read_table(path)))
    assert len(_segments(eng)) == 1 and eng.table.committed_epoch() == 0
    pending = eng.table.live_entries_with_pending()
    assert all(e["delta_ranges"][-1] is not None for e in pending.values())
    hot = eng.table.snapshot_table(include_pending=True)
    assert eng.table.snapshot_table().equals(cold)
    got = dict(zip(hot["url"].to_pylist(), hot["offset"].to_pylist()))
    assert all(got[u] >= 100 for u in urls[:10])
    assert all(got[u] < 100 for u in urls[10:])


def test_crash_after_segment_write_resumes_and_vacuum_drops_orphans(
        ray_session, tmp_path):
    root = str(tmp_path)
    urls = _urls(60)
    clean = CDCEngine(str(tmp_path / "clean"), num_buckets=P)
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=P)
    for lake in (clean, eng):
        _apply(lake, root, 0, urls, 0)
    _apply(clean, root, 1, urls[::2], 100)
    # the crashed attempt: one merger call per bucket wrote P segments,
    # then the driver died before the manifest
    path, rng = _epoch(root, 1, urls[::2], 100)
    conv = eng._make_convert(eng.table.schema)(pq.read_table(path))
    merger = make_bucket_merger(eng.table, 1, eng.table.live_entries(),
                                sink=eng.sink)
    for b in range(P):
        merger(conv.filter(pc.equal(conv["bucket"], b)))
    orphans = _segments(eng)
    assert len(orphans) == P
    # resume: the replay groups all buckets into one task, one new segment
    eng = CDCEngine(str(tmp_path / "lake"))
    eng.apply_epoch(path, 1, rng)
    assert eng.table.snapshot_table().equals(clean.table.snapshot_table())
    [live] = {e["epoch_file"] for e in eng.table.manifest(1)["buckets"].values()}
    assert os.path.basename(live) not in orphans
    deleted = eng.table.vacuum(retain_epochs=2)
    assert sorted(deleted) == [f"data/{o}" for o in orphans]
    assert _segments(eng) == [os.path.basename(live)]
    assert eng.table.snapshot_table().equals(clean.table.snapshot_table())


def test_readers_open_each_distinct_file_once(ray_session, tmp_path,
                                              monkeypatch):
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=P)
    root = str(tmp_path)
    urls = _urls(80)
    _apply(eng, root, 0, urls, 0)
    for e in (1, 2):
        _apply(eng, root, e, urls[e::4], 100 * e)
    entries = eng.table.live_entries()
    files = {p for e in entries.values()
             for p, _ in eng.table.chain_refs(e)}
    assert len(files) == P + 2        # P bases and two shared segments
    opened = []
    real = LakeFS.read_parquet_pruned
    monkeypatch.setattr(LakeFS, "read_parquet_pruned",
                        lambda self, path, *a, **kw:
                        opened.append(path) or real(self, path, *a, **kw))
    hits = eng.table.lookup_keys(urls)
    assert len(opened) == len(set(opened)) == P + 2
    assert hits.num_rows == len(urls)
    opened.clear()
    eng.table.snapshot_table()
    assert len(opened) == len(set(opened)) == P + 2


def test_whole_file_deltas_read_like_their_segment_ranges(ray_session,
                                                          tmp_path):
    """Rewrite a segment lake's latest manifest in the layout from before
    segments — each delta range copied to its own per-bucket file, no
    ``delta_ranges`` recorded — and read it back through every reader."""
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=P)
    root = str(tmp_path)
    urls = _urls(60)
    _apply(eng, root, 0, urls, 0)
    for e in (1, 2):
        _apply(eng, root, e, urls[e::3], 100 * e)
    t = eng.table
    want = t.snapshot_table()
    want_look = t.lookup_keys(urls)
    m = t.manifest(2)
    for b, entry in m["buckets"].items():
        legacy = []
        for i, (p, rng) in enumerate(t.chain_refs(entry)[1:]):
            rel = t.bucket_file(int(b), i + 1, kind="delta")
            os.makedirs(os.path.dirname(t.abs_path(rel)), exist_ok=True)
            lo, hi = rng
            pq.write_table(pq.read_table(t.abs_path(p)).slice(lo, hi - lo),
                           t.abs_path(rel))
            legacy.append(rel)
        entry["deltas"] = legacy
        del entry["delta_ranges"], entry["epoch_file_range"]
        entry["epoch_file"] = legacy[-1] if entry["epoch_file"] else None
    with open(t._log_path(2), "w") as f:
        json.dump(m, f)
    assert t.snapshot_table().equals(want)
    look = t.lookup_keys(urls)
    key = [("url", "ascending")]
    assert look.take(pc.sort_indices(look, sort_keys=key)).equals(
        want_look.take(pc.sort_indices(want_look, sort_keys=key)))
    assert sorted(r["url"] for r in t.snapshot_dataset().take_all()) == \
        sorted(want["url"].to_pylist())
    changes = t.epoch_changes_dataset(2).take_all()
    assert sorted(r["offset"] for r in changes) == list(range(200, 220))
