"""Round-5d regression tests for the engine/upsert hardening batch.

1. Payload-less producers: a change table that omits contract columns
   entirely (no ``html`` on a delete-only stream; no order column on a
   malformed feed) normalizes to all-null inside the convert kernel —
   deletes still apply, malformed rows dead-letter — instead of
   KeyError-ing the Ray task.
2. (moved: the multi-bucket merger's grouping is covered by
   ``tests/test_merge_kernel.py``.)
3. Explicit ``exchange=`` requests are validated (unknown name,
   late+salted_reduce, late+update-mode, late+per-row ``_mode``) and an
   explicit ``split`` is honored even for tiny epochs.
4. ``rewrite_epoch`` retry semantics: a re-run at or below the committed
   cursor is a no-op (never applies ``fn`` twice), and a lake with a
   fully-deleted bucket rewrites cleanly (``pc.all`` over an empty
   comparison is null, not False).
5. String-typed order columns survive the delta-merge left join when the
   epoch introduces a NEW key (the ``_cur`` column holds float NaN in an
   object-dtype frame; ``str > float`` raised before the fill).
6. ``lww_indices`` is total on empty input — the key-pruned chain read
   legitimately returns 0 rows when every row group is skipped.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from geomesa_nifi_ray.engine import CDCEngine, make_generic_convert_fn
from geomesa_nifi_ray.upsert import lww_indices


def _pages_epoch(eng, epoch, urls, ts0, off0, ops=None):
    import ray.data

    n = len(urls)
    t = {
        "url": pa.array(urls),
        "warc_ts": pa.array([ts0 + i for i in range(n)],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([None if (ops and ops[i] == "delete")
                          else b"<p>x</p>" for i in range(n)],
                         pa.large_binary()),
        "offset": pa.array([off0 + i for i in range(n)], pa.int64()),
    }
    if ops:
        t["_op"] = pa.array(ops, pa.string())
    return eng.apply_epoch(ray.data.from_arrow(pa.table(t)), epoch=epoch,
                           offset_range=(off0, off0 + n - 1))


# -- 1: missing contract columns ------------------------------------------

def test_delete_only_epoch_may_omit_payload_columns(ray_session, tmp_path):
    """A delete-only producer ships (key, order, _op) and nothing else —
    no html column at all. The delete must still apply."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    _pages_epoch(eng, 0, [f"https://d/{i}" for i in range(4)], 1_000_000, 0)

    # neither html NOR the second order column (offset): rows still pass
    # the key/ts/delete validity check, so lww_dedupe reads 'offset' —
    # the normalization must cover every order column, not just warc_ts
    dels = pa.table({
        "url": pa.array(["https://d/1"]),
        "warc_ts": pa.array([9_000_000], pa.int64()).cast(pa.timestamp("us")),
        "_op": pa.array(["delete"]),
    })
    res = eng.apply_epoch(ray.data.from_arrow(dels), epoch=1,
                          offset_range=(10, 10))
    assert res.rows_deleted == 1
    assert res.rows_failed == 0
    snap = eng.table.snapshot_table()
    assert snap.num_rows == 3
    assert "https://d/1" not in snap["url"].to_pylist()


def test_generic_epoch_missing_order_column_dead_letters(ray_session,
                                                         tmp_path):
    """An input omitting an ORDER column entirely dead-letters its rows
    (null never validates) instead of KeyError-ing inside the Ray task."""
    import ray.data

    schema = pa.schema([
        pa.field("k", pa.string()), pa.field("v", pa.int64()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("content_hash", pa.string()),
        pa.field("offset", pa.int64()),
    ])
    eng = CDCEngine(str(tmp_path / "lake"), table_name="kv", schema=schema,
                    num_buckets=2, key="k",
                    convert_fn_factory=make_generic_convert_fn)
    base = pa.table({
        "k": ["a", "b"], "v": pa.array([1, 2], pa.int64()),
        "warc_ts": pa.array([1_000_000, 1_000_001],
                            pa.int64()).cast(pa.timestamp("us")),
        "offset": pa.array([0, 1], pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 1))

    # neither warc_ts nor offset: every row is malformed, none crash
    bad = pa.table({"k": ["a", "c"], "v": pa.array([9, 9], pa.int64())})
    res = eng.apply_epoch(ray.data.from_arrow(bad), epoch=1,
                          offset_range=(2, 3))
    assert res.rows_failed == 2
    assert res.rows_applied == 0
    snap = eng.table.snapshot_table()
    assert sorted(snap["k"].to_pylist()) == ["a", "b"]
    assert sorted(snap["v"].to_pylist()) == [1, 2]  # 9s never landed


# -- 3: exchange validation -------------------------------------------------

def test_exchange_requests_validated(ray_session, tmp_path):
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    t = pa.table({
        "url": pa.array(["https://x/0"]),
        "warc_ts": pa.array([1_000_000], pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([b"<p>x</p>"], pa.large_binary()),
        "offset": pa.array([0], pa.int64()),
    })
    ds = ray.data.from_arrow(t)
    with pytest.raises(ValueError, match="unknown exchange"):
        eng.apply_epoch(ds, epoch=0, exchange="bogus")
    with pytest.raises(ValueError, match="salted_reduce"):
        eng.apply_epoch(ds, epoch=0, exchange="late", salted_reduce=True)
    with pytest.raises(ValueError, match="salted_reduce"):
        eng.apply_epoch(ds, epoch=0, exchange="split", salted_reduce=True)
    with pytest.raises(ValueError, match="upsert"):
        eng.apply_epoch(ds, epoch=0, exchange="late", mode="update")

    # a rejected epoch must leave NO side effects — not even schema
    # evolution: carry a brand-new column alongside the offending _mode
    moded = t.append_column("_mode", pa.array(["update"], pa.string()))
    moded = moded.append_column("brand_new", pa.array([1], pa.int64()))
    with pytest.raises(ValueError, match="_mode"):
        eng.apply_epoch(ray.data.from_arrow(moded), epoch=0, exchange="late")
    assert "brand_new" not in eng.table.schema.names
    # nothing committed by any rejected request
    assert eng.table.committed_epoch() is None


def test_explicit_split_honored_for_tiny_epoch(ray_session, tmp_path):
    """exchange='split' must actually run (not silently downgrade to the
    tiny-epoch direct path) and produce the same lake as the default."""
    import ray.data

    urls = [f"https://s/{i}" for i in range(6)]
    snaps = {}
    for label, xch in [("split", "split"), ("default", None)]:
        eng = CDCEngine(str(tmp_path / f"lake_{label}"), num_buckets=4)
        n = len(urls)
        t = pa.table({
            "url": pa.array(urls + urls[:2]),   # two dup keys to exercise LWW
            "warc_ts": pa.array([1_000_000 + i for i in range(n + 2)],
                                pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array([b"<p>x</p>"] * (n + 2), pa.large_binary()),
            "offset": pa.array(list(range(n + 2)), pa.int64()),
        })
        eng.apply_epoch(ray.data.from_arrow(t), epoch=0,
                        offset_range=(0, n + 1), exchange=xch)
        snap = eng.table.snapshot_table()
        snap = snap.take(pc.sort_indices(snap, sort_keys=[("url", "ascending")]))
        snaps[label] = snap
    assert snaps["split"].equals(snaps["default"])


# -- 4: rewrite_epoch retry + empty-bucket ----------------------------------

def test_rewrite_epoch_committed_retry_is_noop(ray_session, tmp_path):
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    _pages_epoch(eng, 0, [f"https://r/{i}" for i in range(4)], 1_000_000, 0)

    def bump(batch: pa.Table) -> pa.Table:
        off = pc.add(batch["offset"], 100)
        return batch.set_column(batch.column_names.index("offset"),
                                "offset", off)

    res = eng.rewrite_epoch(bump)
    assert res is not None and eng.table.committed_epoch() == 1
    snap1 = eng.table.snapshot_table()

    # crash-retry of the SAME rewrite epoch: must not re-apply fn
    assert eng.rewrite_epoch(bump, epoch=1) is None
    assert eng.table.committed_epoch() == 1
    snap2 = eng.table.snapshot_table()
    assert sorted(snap2["offset"].to_pylist()) == \
        sorted(snap1["offset"].to_pylist())
    assert max(snap2["offset"].to_pylist()) < 200  # no double bump


def test_rewrite_epoch_survives_fully_deleted_bucket(ray_session, tmp_path):
    from geomesa_nifi_ray.hashing import bucket_ids

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    urls = [f"https://e/{i}" for i in range(8)]
    _pages_epoch(eng, 0, urls, 1_000_000, 0)

    buckets = bucket_ids(urls, 2)
    doomed = [u for u, b in zip(urls, buckets) if b == buckets[0]]
    assert doomed and len(doomed) < len(urls)
    _pages_epoch(eng, 1, doomed, 9_000_000, 100,
                 ops=["delete"] * len(doomed))

    def ident(batch: pa.Table) -> pa.Table:
        return batch

    res = eng.rewrite_epoch(ident)   # raised SchemaError before the fix
    assert res is not None
    snap = eng.table.snapshot_table()
    assert sorted(snap["url"].to_pylist()) == \
        sorted(set(urls) - set(doomed))


# -- 5: string order columns across the delta-merge join --------------------

def test_string_order_new_key_in_delta_merge(ray_session, tmp_path):
    """order=('sver',) with a string column: epoch 1 brings one update and
    one NEW key; the left join's NaN in the object-dtype _cur column must
    not break lex_ge, and LWW must still rank real strings correctly."""
    import ray.data

    schema = pa.schema([
        pa.field("k", pa.string()), pa.field("v", pa.int64()),
        pa.field("sver", pa.string()),
        pa.field("content_hash", pa.string()),
    ])
    eng = CDCEngine(str(tmp_path / "lake"), table_name="kv", schema=schema,
                    num_buckets=1, key="k", order=("sver",),
                    convert_fn_factory=make_generic_convert_fn)
    e0 = pa.table({
        "k": ["a", "b"], "v": pa.array([1, 2], pa.int64()),
        "sver": pa.array(["2026-01-01", "2026-01-01"]),
    })
    eng.apply_epoch(ray.data.from_arrow(e0), epoch=0, offset_range=(0, 1))

    e1 = pa.table({
        "k": ["a", "c", "b"], "v": pa.array([10, 30, 99], pa.int64()),
        "sver": pa.array(["2026-02-01", "2026-02-01", "2025-12-31"]),
    })
    res = eng.apply_epoch(ray.data.from_arrow(e1), epoch=1,
                          offset_range=(2, 4))
    assert res is not None
    snap = eng.table.snapshot_table()
    got = dict(zip(snap["k"].to_pylist(), snap["v"].to_pylist()))
    # a updated (newer sver wins), b kept (stale change loses), c inserted
    assert got == {"a": 10, "b": 2, "c": 30}


# -- 6: lww_indices total on empty ------------------------------------------

def test_lww_indices_empty_input():
    t = pa.table({"k": pa.array([], pa.string()),
                  "o": pa.array([], pa.int64())})
    idx = lww_indices(t, "k", ["o"])
    assert idx.shape == (0,) and idx.dtype == np.int64


def test_delta_merge_when_every_row_group_pruned(ray_session, tmp_path):
    """Epoch keys entirely OUTSIDE every chain row-group range: the pruned
    chain read returns 0 rows and the merge must still insert the new keys
    (lww_indices on the empty current table crashed before the guard)."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=1, row_group_rows=4)
    _pages_epoch(eng, 0, [f"https://a/{i}" for i in range(8)], 1_000_000, 0)

    res = _pages_epoch(eng, 1, ["https://zz/1", "https://zz/2"],
                       2_000_000, 100)
    assert res.row_groups_total > 0
    assert res.row_groups_skipped == res.row_groups_total
    assert eng.table.snapshot_table().num_rows == 10
