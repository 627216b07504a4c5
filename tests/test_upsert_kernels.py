"""LWW / merge kernels vs a pandas oracle (FeatureWriters upsert semantics)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from geomesa_nifi_ray.upsert import lww_dedupe, merge_update, merge_upsert

ORDER = ["warc_ts", "offset"]


def _tbl(rows):
    df = pd.DataFrame(rows, columns=["url", "warc_ts", "offset", "val"])
    return pa.table(
        {
            "url": pa.array(df.url, type=pa.string()),
            "warc_ts": pa.array(df.warc_ts.astype("int64")).cast(pa.timestamp("us")),
            "offset": pa.array(df.offset.astype("int64")),
            "val": pa.array(df.val, type=pa.string()),
        }
    )


def _oracle_lww(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.sort_values(["warc_ts", "offset"], kind="stable")
        .groupby("url", as_index=False)
        .last()
        .sort_values("url")
        .reset_index(drop=True)
    )


def test_lww_picks_max_ts_then_offset():
    t = _tbl(
        [
            ("a", 10, 0, "v0"),
            ("a", 30, 1, "v1"),   # winner for a: max ts
            ("a", 20, 2, "v2"),
            ("b", 10, 3, "b0"),
            ("b", 10, 4, "b1"),   # tie on ts -> max offset wins
        ]
    )
    out = lww_dedupe(t, "url", ORDER).to_pandas().sort_values("url").reset_index(drop=True)
    assert out.loc[out.url == "a", "val"].item() == "v1"
    assert out.loc[out.url == "b", "val"].item() == "b1"


def test_lww_random_vs_pandas_oracle():
    rng = np.random.RandomState(7)
    n = 5000
    rows = [
        (f"u{rng.randint(0, 300)}", int(rng.randint(0, 50)), i, f"v{i}") for i in range(n)
    ]
    t = _tbl(rows)
    ours = lww_dedupe(t, "url", ORDER).to_pandas().sort_values("url").reset_index(drop=True)
    df = t.to_pandas()
    expected = _oracle_lww(df)
    pd.testing.assert_frame_equal(
        ours[["url", "val"]], expected[["url", "val"]], check_dtype=False
    )


def test_merge_upsert_insert_and_update():
    base = _tbl([("a", 10, 0, "old-a"), ("b", 10, 1, "old-b")])
    changes = _tbl([("b", 20, 5, "new-b"), ("c", 20, 6, "new-c")])
    out = merge_upsert(base, changes, "url", ORDER).to_pandas().sort_values("url")
    assert out.val.tolist() == ["old-a", "new-b", "new-c"]


def test_merge_upsert_stale_change_loses():
    base = _tbl([("a", 50, 9, "current")])
    changes = _tbl([("a", 10, 10, "stale")])  # older warc_ts replayed later
    out = merge_upsert(base, changes, "url", ORDER)
    assert out["val"].to_pylist() == ["current"]


def test_merge_update_partial_columns_and_nomatch():
    base = pa.table(
        {
            "url": ["a", "b"],
            "warc_ts": pa.array([10, 10], type=pa.int64()).cast(pa.timestamp("us")),
            "offset": pa.array([0, 1], type=pa.int64()),
            "val": ["old-a", "old-b"],
            "keep": ["ka", "kb"],
        }
    )
    changes = pa.table(
        {
            "url": ["b", "zz"],
            "warc_ts": pa.array([20, 20], type=pa.int64()).cast(pa.timestamp("us")),
            "offset": pa.array([5, 6], type=pa.int64()),
            "val": ["new-b", "new-zz"],
        }
    )
    merged, unmatched = merge_update(base, changes, "url", ORDER)
    out = merged.to_pandas().sort_values("url")
    assert unmatched == 1                      # 'zz' skipped, counted failed
    assert out.val.tolist() == ["old-a", "new-b"]
    assert out.keep.tolist() == ["ka", "kb"]   # non-intersecting column kept
    assert len(out) == 2                       # no insert fallback


def test_merge_update_with_no_changes_keeps_base():
    """An update-mode bucket whose rows were all deletes hands the merge an
    empty change table: the base stands and nothing is unmatched (the
    empty mask's null sum used to raise a TypeError)."""
    base = _tbl([("a", 10, 0, "x"), ("b", 10, 1, "y")])
    merged, unmatched = merge_update(base, base.slice(0, 0), "url", ORDER)
    assert unmatched == 0
    assert merged.equals(base)


def test_merge_upsert_empty_base():
    changes = _tbl([("a", 10, 0, "x"), ("a", 20, 1, "y")])
    out = merge_upsert(None, changes, "url", ORDER)
    assert out["val"].to_pylist() == ["y"]


def test_asof_join_semantics(ray_session):
    """asof_join: latest right row at-or-before each left row, inclusive
    ties, nulls for unmatched, keys isolated."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from geomesa_nifi_ray.joins import asof_join

    def ts(s):
        return pd.Timestamp(s)

    left = pa.table({
        "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "user_id": pa.array([7, 7, 7, 9], type=pa.int64()),
        "ts": pa.array([ts("2026-01-01"), ts("2026-01-03"), ts("2026-01-05"),
                        ts("2026-01-02")], type=pa.timestamp("us")),
    })
    right = pa.table({
        "user_id": pa.array([7, 7, 9], type=pa.int64()),
        "ts": pa.array([ts("2026-01-02"), ts("2026-01-05"), ts("2026-01-04")],
                       type=pa.timestamp("us")),
    })
    out = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    by="user_id", on="ts", value_cols=["ts"], suffix="_m").to_pandas()
    got = dict(zip(out["event_id"], out["ts_m"]))
    assert pd.isna(got[1])                      # before any right row
    assert got[2] == ts("2026-01-02")           # latest at-or-before
    assert got[3] == ts("2026-01-05")           # inclusive tie
    assert pd.isna(got[4])                      # other key's right rows invisible
