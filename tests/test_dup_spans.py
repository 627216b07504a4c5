"""duplicate_spans (substring-level exact dedup): planted cross-doc spans
are found at the right positions, within-doc repeats alone don't flag,
short docs contribute nothing, resharding doesn't change the result, and
the xx64 scale kernel + max_bucket cap behave as documented."""

import numpy as np
import pyarrow as pa
import pytest

from geomesa_nifi_ray.dedup import duplicate_spans

SHARED = "alpha beta gamma delta epsilon zeta eta theta"  # 8 tokens


def _corpus():
    return pa.table({
        "doc_id": pa.array(["a", "b", "c", "d", "e", "f"]),
        "text": pa.array([
            f"one two {SHARED} three four",          # shared span at pos 3
            f"{SHARED} unrelated tail words here",   # shared span at pos 1
            "iota kappa " * 12,                       # within-doc repeats only
            "tiny doc",                               # < k tokens
            None,                                     # null text
            "totally different content with no duplicated windows at all",
        ]),
    })


@pytest.mark.usefixtures("ray_session")
def test_planted_spans_found_at_positions():
    import ray.data

    out = duplicate_spans(ray.data.from_arrow(_corpus()), k=8).to_pandas()
    got = {(r.doc_id, r.pos) for r in out.itertuples()}
    # doc a: tokens one(1) two(2) alpha(3).. -> span starts at 3; doc b: 1
    assert ("a", 3) in got and ("b", 1) in got
    # the shared shingle hash agrees across docs
    ha = out[(out.doc_id == "a") & (out.pos == 3)]["shingle_hash"].iloc[0]
    hb = out[(out.doc_id == "b") & (out.pos == 1)]["shingle_hash"].iloc[0]
    assert ha == hb
    # within-doc-only repeats (doc c) never flag; d/e/f contribute nothing
    assert set(out.doc_id) <= {"a", "b"}
    # doc a also shares sub-windows? k=8 exact: only full 8-token matches.
    # Every reported span's hash occurs in >= 2 distinct docs by contract.
    for h, grp in out.groupby("shingle_hash"):
        assert grp["doc_id"].nunique() >= 2


@pytest.mark.usefixtures("ray_session")
def test_resharding_invariant_and_kernel_parity():
    import ray.data

    t = _corpus()
    base = duplicate_spans(ray.data.from_arrow(t), k=8).to_pandas()
    shard = duplicate_spans(ray.data.from_arrow(t).repartition(5),
                            k=8).to_pandas()
    key = ["doc_id", "pos", "shingle_hash"]
    assert sorted(map(tuple, base[key].values.tolist())) == \
        sorted(map(tuple, shard[key].values.tolist()))
    # xx64: same (doc, pos) set, different hash encoding
    x = duplicate_spans(ray.data.from_arrow(t), k=8, kernel="xx64").to_pandas()
    assert sorted(map(tuple, x[["doc_id", "pos"]].values.tolist())) == \
        sorted(map(tuple, base[["doc_id", "pos"]].values.tolist()))


@pytest.mark.usefixtures("ray_session")
def test_max_bucket_drops_degenerate_shingles():
    import ray.data

    # 30 docs all sharing one boilerplate span -> bucket of 30 instances
    boiler = "the quick brown fox jumps over lazy dogs"
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(30)]),
        "text": pa.array([f"{boiler} unique{i} filler{i}" for i in range(30)]),
    })
    full = duplicate_spans(ray.data.from_arrow(t), k=8).to_pandas()
    assert len(full) == 30
    capped = duplicate_spans(ray.data.from_arrow(t), k=8,
                             max_bucket=10).to_pandas()
    assert len(capped) == 0  # the one degenerate bucket dropped


def test_k_validation():
    import ray.data

    with pytest.raises(ValueError):
        duplicate_spans(ray.data.from_arrow(_corpus()), k=0)
    with pytest.raises(ValueError):
        duplicate_spans(ray.data.from_arrow(_corpus()), kernel="crc")


@pytest.mark.usefixtures("ray_session")
def test_span_stats_interval_union():
    import ray.data

    from geomesa_nifi_ray.dedup import duplicate_span_stats

    # two docs sharing overlapping spans: doc g has the shared 8-token
    # run at positions 1 and 2 (9 tokens of SHARED2), doc h at 1 only
    shared2 = SHARED + " iota"  # 9 tokens -> two overlapping 8-windows
    t = pa.table({
        "doc_id": pa.array(["g", "h"]),
        "text": pa.array([f"{shared2} tail words", f"{shared2} other end"]),
    })
    out = duplicate_span_stats(ray.data.from_arrow(t), k=8).to_pandas()
    got = dict(zip(out.doc_id, out.dup_tokens))
    # both docs: flagged windows start at 1 and 2 -> union covers 9 tokens
    assert got == {"g": 9, "h": 9}


@pytest.mark.usefixtures("ray_session")
def test_all_null_batch_schema_stable():
    import ray.data

    from geomesa_nifi_ray.dedup import duplicate_span_stats

    # one block entirely null text (empty spans table) unioned with real
    # blocks: the empty early-return must carry the full schema
    t1 = pa.table({"doc_id": pa.array(["n1", "n2"]),
                   "text": pa.array([None, None], pa.string())})
    t2 = pa.table({"doc_id": pa.array(["p", "q"]),
                   "text": pa.array([f"{SHARED} one", f"{SHARED} two"])})
    ds = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
    out = duplicate_spans(ds, k=8).to_pandas()
    assert set(out.doc_id) == {"p", "q"}
    stats = duplicate_span_stats(ds, k=8).to_pandas()
    assert dict(zip(stats.doc_id, stats.dup_tokens)) == {"p": 8, "q": 8}


@pytest.mark.usefixtures("ray_session")
def test_null_doc_ids_follow_sql_distinct_semantics():
    """Review regression: NULL ids never count toward the >=2-distinct-docs
    rule (SQL count(DISTINCT) ignores NULLs), but null-id rows of a
    surviving shingle are still emitted; stats exclude null-id rows."""
    import ray.data

    from geomesa_nifi_ray.dedup import duplicate_span_stats

    # span shared only by a real doc and a null-id doc -> 1 distinct -> drop
    t1 = pa.table({"doc_id": pa.array(["a", None]),
                   "text": pa.array([f"{SHARED} x", f"{SHARED} y"])})
    out1 = duplicate_spans(ray.data.from_arrow(t1), k=8).to_pandas()
    assert len(out1) == 0
    # two null-id docs sharing a span -> 0 distinct -> drop
    t2 = pa.table({"doc_id": pa.array([None, None], pa.string()),
                   "text": pa.array([f"{SHARED} x", f"{SHARED} y"])})
    assert len(duplicate_spans(ray.data.from_arrow(t2), k=8).to_pandas()) == 0
    # two real docs + one null-id doc sharing the span -> all three rows
    # emitted (the null-id row rides along, exactly like the SQL WHERE IN)
    t3 = pa.table({"doc_id": pa.array(["a", "b", None]),
                   "text": pa.array([f"{SHARED} x", f"{SHARED} y",
                                     f"{SHARED} z"])})
    out3 = duplicate_spans(ray.data.from_arrow(t3), k=8).to_pandas()
    assert len(out3) == 3 and out3["doc_id"].isna().sum() == 1
    stats = duplicate_span_stats(ray.data.from_arrow(t3), k=8).to_pandas()
    assert set(stats["doc_id"]) == {"a", "b"}  # null-id excluded from stats


@pytest.mark.usefixtures("ray_session")
def test_span_stats_sql_oracle_excludes_null_ids():
    """The registered oracle of duplicate_span_stats pins its null-id
    exclusion: on a corpus where a null-id doc shares a span with two
    real docs, the SQL gives no NULL-id group row, matching the
    implementation."""
    import duckdb
    import ray.data

    from geomesa_nifi_ray.dedup import duplicate_span_stats
    from geomesa_nifi_ray.pipelines.queries import _DUP_SPAN_STATS_SQL

    documents = pa.table({  # noqa: F841 (read by duckdb by name)
        "doc_id": pa.array(["a", "b", None]),
        "text": pa.array([f"{SHARED} x", f"one {SHARED} y", f"{SHARED} z"]),
    })
    con = duckdb.connect()
    con.register("documents", documents)
    sql = {r[0]: r[1] for r in con.execute(_DUP_SPAN_STATS_SQL).fetchall()}
    got = duplicate_span_stats(ray.data.from_arrow(documents), k=8).to_pandas()
    assert sql == dict(zip(got.doc_id, got.dup_tokens)) == {"a": 8, "b": 8}
