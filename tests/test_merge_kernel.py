"""The batched bucket merger (``make_bucket_merger``), driven in-process.

Each epoch runs the real convert kernel and ONE merger call over every
bucket it touches, then commits through ``CDCEngine._commit_lineage`` —
the same steps ``apply_epoch`` runs inside its exchange tasks.

1. Property: random epochs over several buckets (tombstones, exact ties,
   null order values on either side, absent keys, deletes of deleted keys,
   dead rows) give the delta path (``max_deltas=4``: chains of 0-4 deltas)
   the same snapshots and row accounting as the full-merge path
   (``max_deltas=0``).
2. One multi-bucket call returns the same lineage as one call per bucket,
   whatever the row order of its input: the same row counts, digests and
   chain rows, written as ONE delta segment instead of one per call.
"""

import random
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from geomesa_nifi_ray.engine import CDCEngine, make_bucket_merger

NUM_BUCKETS = 4
ORDER = ("warc_ts", "lang")


def _events(rows, off0):
    """rows: (key, ts, lang, op, html_null) tuples -> an event table."""
    n = len(rows)
    return pa.table({
        "url": pa.array([f"https://k/{k}" for k, *_ in rows]),
        "warc_ts": pa.array([1_000_000 + ts for _, ts, *_ in rows],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([None if op == "delete" or dead else b"<p>%d</p>" % i
                          for i, (_, _, _, op, dead) in enumerate(rows)],
                         pa.large_binary()),
        "lang": pa.array([lang for _, _, lang, _, _ in rows], pa.string()),
        "offset": pa.array(range(off0, off0 + n), pa.int64()),
        "_op": pa.array([op for *_, op, _ in rows], pa.string()),
    })


def _apply(eng, epoch, events, offset_range):
    """One epoch: convert, one merger call, commit. Returns the result and
    the lineage rows."""
    live = eng.table.live_entries()
    merger = make_bucket_merger(eng.table, epoch, live, max_deltas=eng.max_deltas,
                                sink=eng.sink)
    lineage = merger(eng._make_convert(eng.table.schema)(events)).to_pylist()
    res = eng._commit_lineage(epoch, live, lineage, events.num_rows, "upsert",
                              offset_range, None)
    return res, lineage


def _sorted_snapshot(eng):
    snap = eng.table.snapshot_table()
    return snap.take(pc.sort_indices(snap, sort_keys=[("url", "ascending")]))


def _lift_after_deletes(epochs):
    """An upsert that arrives in a LATER epoch than a delete of its key,
    with an older order, resurrects the key on the full-merge path (the
    compacted base forgets the tombstone) but not against a stored
    tombstone. That is a documented difference of the two paths, not of
    the kernel, so such upserts are lifted to the delete's order — an
    exact tie, which both paths give to the upsert."""
    floor: dict[int, tuple] = {}
    out = []
    for rows in epochs:
        lifted = []
        for k, ts, lang, op, dead in rows:
            if op == "upsert" and k in floor and (ts, lang or "") < floor[k]:
                ts, lang = floor[k][0], floor[k][1] or None
            lifted.append((k, ts, lang, op, dead))
        for k, ts, lang, op, _ in lifted:
            if op == "delete":
                floor[k] = max(floor.get(k, (ts, lang or "")), (ts, lang or ""))
        out.append(lifted)
    return out


_event = st.tuples(
    st.integers(0, 11),                                  # key
    st.integers(0, 3),                                   # ts within epoch
    st.sampled_from([None, "aa", "bb"]),                 # nullable order col
    st.sampled_from(["upsert", "upsert", "delete"]),
    st.integers(0, 9).map(lambda x: x == 0),             # dead (null html)
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_event, min_size=1, max_size=20),
                min_size=1, max_size=7))
def test_delta_path_matches_full_merge(ray_session, epochs):
    # ts ranges of consecutive epochs overlap by two values: cross-epoch
    # ties and stale events both occur
    epochs = [[(k, 2 * e + ts, lang, op, dead)
               for k, ts, lang, op, dead in rows]
              for e, rows in enumerate(epochs)]
    epochs = _lift_after_deletes(epochs)
    with tempfile.TemporaryDirectory() as root:
        lakes = [CDCEngine(f"{root}/{md}", num_buckets=NUM_BUCKETS,
                           max_deltas=md, order=ORDER) for md in (4, 0)]
        off = 0
        prev_rows = [{}, {}]
        for e, rows in enumerate(epochs):
            ev = _events(rows, off)
            rng = (off, off + len(rows) - 1)
            off += len(rows)
            got = []
            for i, eng in enumerate(lakes):
                res, lineage = _apply(eng, e, ev, rng)
                per_bucket = {r["bucket"]: (r["rows"], r["rows_deleted"])
                              for r in lineage}
                inserts = {b: n - prev_rows[i].get(b, 0) + d
                           for b, (n, d) in per_bucket.items()}
                prev_rows[i].update({b: n for b, (n, _) in per_bucket.items()})
                got.append((res.rows_applied, res.rows_failed,
                            res.rows_deleted, res.table_rows, per_bucket,
                            inserts))
            assert got[0] == got[1], f"epoch {e}"
            assert _sorted_snapshot(lakes[0]).equals(_sorted_snapshot(lakes[1]))


def test_multi_bucket_call_matches_per_bucket_calls(ray_session, tmp_path):
    rnd = random.Random(11)
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=8, max_deltas=2,
                    order=ORDER)
    off = 0

    def epoch_rows(keys, e):
        return [(k, 2 * e + rnd.randrange(3), rnd.choice([None, "aa", "bb"]),
                 rnd.choice(["upsert", "upsert", "delete"]), rnd.random() < 0.1)
                for k in keys]

    # chains of different lengths: every bucket, then a subset twice
    for e, keys in enumerate([range(40), range(0, 40, 3), range(0, 40, 5)]):
        rows = epoch_rows(keys, e)
        _apply(eng, e, _events(rows, off), (off, off + len(rows) - 1))
        off += len(rows)

    rows = epoch_rows([rnd.randrange(48) for _ in range(60)], 3)
    conv = eng._make_convert(eng.table.schema)(_events(rows, off))
    conv = conv.take(pa.array(rnd.sample(range(conv.num_rows), conv.num_rows)))
    live = eng.table.live_entries()
    merger = make_bucket_merger(eng.table, 3, live, max_deltas=2, sink=eng.sink)
    whole = merger(conv).to_pylist()
    one_by_one = []
    for b in sorted(set(conv["bucket"].to_pylist())):
        one_by_one.extend(merger(conv.filter(pc.equal(conv["bucket"], b)))
                          .to_pylist())
    # the epoch's delta segment is named by the buckets it holds and the
    # row-group counters are per call: compare what the refs hold instead
    assert _resolved(eng, whole) == _resolved(eng, one_by_one)
    assert (sum(r["rg_total"] for r in whole)
            <= sum(r["rg_total"] for r in one_by_one))
    assert [r["bucket"] for r in whole] == sorted(r["bucket"] for r in whole)
    # both paths ran in the one call: deltas appended and chains compacted
    assert any(r["deltas"] != "[]" and r["epoch_file"] for r in whole)
    assert any(r["deltas"] == "[]" and r["epoch_file"] for r in whole)
    # the one call wrote ONE delta segment for all its delta-path buckets
    segs = {r["epoch_file"] for r in whole
            if r["epoch_file"] and "delta-" in r["epoch_file"]}
    assert len(segs) == 1


def _resolved(eng, lineage):
    """Lineage rows with each ``(path, range)`` ref of the chain and of
    the epoch replaced by the rows it names, and no row-group counters."""
    import json

    from geomesa_nifi_ray.testing import ref_rows

    out = []
    for r in lineage:
        r = {k: v for k, v in r.items() if k not in ("rg_total", "rg_skipped")}
        chain = zip(json.loads(r.pop("deltas")),
                    json.loads(r.pop("delta_ranges")))
        r["deltas"] = [ref_rows(eng.table, p, rng) for p, rng in chain]
        ep, ep_range = r.pop("epoch_file"), r.pop("epoch_file_range")
        r["epoch_rows"] = (ref_rows(eng.table, ep,
                                    ep_range and json.loads(ep_range))
                           if ep else None)
        out.append(r)
    return out


# -- 3. the segment lake end to end ------------------------------------------

_epoch_kind = st.sampled_from(["plain", "plain", "modes", "update",
                               "additive"])


def _write_epoch(root, e, rows, kind, off0):
    """One epoch's events as a parquet part file; ``kind`` adds per-row
    ``_mode`` directives or the additive ``content_type`` column."""
    import os

    import pyarrow.parquet as pq

    t = _events(rows, off0)
    if kind == "modes":
        t = t.append_column("_mode", pa.array(
            [(None, "update", "upsert")[i % 3] for i in range(len(rows))],
            pa.string()))
    if kind == "additive":
        t = t.append_column("content_type", pa.array(
            [f"text/{i % 2}" for i in range(len(rows))], pa.string()))
    path = os.path.join(root, f"epoch-{e:05d}.parquet")
    pq.write_table(t, path)
    return path


def _changes(eng, e):
    """Epoch ``e``'s upsert change rows, sorted. Deletes are compared
    apart: a compacted base keeps no tombstones, so only the delta lake's
    change stream shows stream deletes."""
    rows = eng.table.epoch_changes_dataset(e, include_ops=True).take_all()
    ups = sorted((r["url"], r["offset"]) for r in rows if r["_op"] == "upsert")
    dels = sorted(r["url"] for r in rows if r["_op"] == "delete")
    return ups, dels


@settings(max_examples=6, deadline=None)
@given(st.lists(st.tuples(st.lists(_event, min_size=1, max_size=24),
                          _epoch_kind),
                min_size=2, max_size=5))
def test_segment_lake_matches_full_merge_lake(ray_session, epochs):
    """Epochs of upserts, deletes, ties, null orders, ``_mode`` rows, an
    update epoch and the additive column, applied through ``apply_epoch``
    with ``max_deltas=4`` (delta segments, chains of 0-4) and with
    ``max_deltas=0`` (bases only). ``batch_size=4`` gives epochs of more
    than 8 rows P merge tasks, so a commit writes several segments. At
    every epoch the snapshot, point lookups and the upsert change stream
    agree; afterwards so does time travel to every epoch."""
    from geomesa_nifi_ray.schema import CompatibilityMode

    kinds = [k for _, k in epochs]
    lifted = _lift_after_deletes(
        [[(k, 2 * e + ts, lang, op, dead) for k, ts, lang, op, dead in rows]
         for e, (rows, _) in enumerate(epochs)])
    probe = [f"https://k/{k}" for k in range(13)]
    with tempfile.TemporaryDirectory() as root:
        lakes = [CDCEngine(f"{root}/{md}", num_buckets=NUM_BUCKETS,
                           max_deltas=md, order=ORDER,
                           compatibility=CompatibilityMode.UPDATE)
                 for md in (4, 0)]
        off = 0
        for e, (rows, kind) in enumerate(zip(lifted, kinds)):
            path = _write_epoch(root, e, rows, kind, off)
            rng = (off, off + len(rows) - 1)
            off += len(rows)
            for eng in lakes:
                eng.apply_epoch(path, e, rng, batch_size=4,
                                mode="update" if kind == "update" else "upsert")
            d, f = lakes
            assert _sorted_snapshot(d).equals(_sorted_snapshot(f)), e
            look = [eng.table.lookup_keys(probe) for eng in lakes]
            look = [t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))
                    for t in look]
            assert look[0].equals(look[1]), e
            (d_ups, d_dels), (f_ups, _) = _changes(d, e), _changes(f, e)
            assert d_ups == f_ups, e
            live = set(d.table.snapshot_table()["url"].to_pylist())
            assert not set(d_dels) & live, e
        for e in range(len(epochs)):
            snaps = [eng.table.snapshot_table(epoch=e) for eng in lakes]
            assert snaps[0].equals(snaps[1]), e
            look = [eng.table.lookup_keys(probe, epoch=e) for eng in lakes]
            look = [t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))
                    for t in look]
            assert look[0].equals(look[1]), e
