"""The batched bucket merger (``make_bucket_merger``), driven in-process.

Each epoch runs the real convert kernel and ONE merger call over every
bucket it touches, then commits through ``CDCEngine._commit_lineage`` —
the same steps ``apply_epoch`` runs inside its exchange tasks.

1. Property: random epochs over several buckets (tombstones, exact ties,
   null order values on either side, absent keys, deletes of deleted keys,
   dead rows) give the delta path (``max_deltas=4``: chains of 0-4 deltas)
   the same snapshots and row accounting as the full-merge path
   (``max_deltas=0``).
2. One multi-bucket call returns the same lineage (and files) as one call
   per bucket, whatever the row order of its input.
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
    assert whole == one_by_one
    assert [r["bucket"] for r in whole] == sorted(r["bucket"] for r in whole)
    # both paths ran in the one call: deltas appended and chains compacted
    assert any(r["deltas"] != "[]" and r["epoch_file"] for r in whole)
    assert any(r["deltas"] == "[]" and r["epoch_file"] for r in whole)
