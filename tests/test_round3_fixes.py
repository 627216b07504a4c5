"""Round-3 regression tests for the four ADVICE.md findings:

1. (high) replay_binlog: a UNIFORM per-epoch 'mode' override must win over
   the call-level default on the pipelined and catch-up paths, not just the
   serial loop.
2. (medium) export shard names must hash FULL batch content — two distinct
   batches sharing row count + leading-64 values must not collide.
3. (low) avro codec timestamp fidelity: tz-aware round-trips with its zone;
   ns-precision raises before persist.
4. (low) asof_join: explicit deterministic tiebreak column on exact-ts ties.
"""

import numpy as np
import pyarrow as pa
import pytest

from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.synth import BinlogSpec, write_binlog


# ---------------------------------------------------------------- fix 1 --


def _update_only_binlog(tmp_path, n_epochs=3):
    meta = write_binlog(
        str(tmp_path / "bl"),
        BinlogSpec(num_events=600, num_urls=150, num_epochs=n_epochs),
    )
    for e in meta["epochs"]:
        e["mode"] = "update"
    return meta


def test_uniform_epoch_mode_wins_on_pipelined_path(ray_session, tmp_path):
    """Every epoch says 'update'; call-level default is 'upsert'. The
    windowed per-epoch replay (>1 epoch, not catch-up) must apply update
    semantics: against an empty lake every row is unmatched -> skipped and
    counted failed, zero rows applied."""
    meta = _update_only_binlog(tmp_path)
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    results = eng.replay_binlog(meta)
    assert len(results) == 3
    assert all(r.manifest["mode"] == "update" for r in results)
    assert all(r.rows_failed > 0 for r in results)
    assert eng.table.snapshot_dataset().count() == 0


def test_uniform_epoch_mode_wins_on_catchup_path(ray_session, tmp_path):
    """catchup=True with a uniform 'update' override must not take the
    upsert batching path; update semantics still apply."""
    meta = _update_only_binlog(tmp_path)
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    results = eng.replay_binlog(meta, catchup=True)
    assert all(r.manifest["mode"] == "update" for r in results)
    assert eng.table.snapshot_dataset().count() == 0


def test_uniform_epoch_mode_serial_unchanged(ray_session, tmp_path):
    """Mixed modes, even under catch-up: one commit per epoch, each with
    its own mode — the upsert epoch lands, the update epochs after it
    only touch keys it created."""
    meta = _update_only_binlog(tmp_path)
    meta["epochs"][0]["mode"] = "upsert"
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    results = eng.replay_binlog(meta, catchup=True)
    assert [r.manifest["mode"] for r in results] == ["upsert", "update", "update"]
    first = set(eng.table.manifest(0)["buckets"])
    assert eng.table.snapshot_dataset().count() == results[0].table_rows
    assert set(eng.table.manifest(2)["buckets"]) == first


# ---------------------------------------------------------------- fix 2 --


def test_export_shards_distinct_beyond_64_row_prefix(ray_session, tmp_path):
    """Two batches identical in schema, row count and the first 64 rows of
    every column but different after row 64 must write TWO shard files."""
    import ray.data

    from geomesa_nifi_ray.export import export_dataset

    base = {"k": list(range(100)), "v": ["x"] * 100}
    t1 = pa.table(base)
    v2 = ["x"] * 64 + ["y"] * 36          # differs only after row 64
    t2 = pa.table({"k": list(range(100)), "v": v2})
    ds = ray.data.from_arrow([t1, t2])
    out = str(tmp_path / "exp")
    lineage = export_dataset(ds, out, format="jsonl").take_all()
    paths = sorted({r["path"] for r in lineage})
    assert len(paths) == 2, f"shard collision: {paths}"
    assert sum(r["rows"] for r in lineage) == 200
    total = 0
    for p in paths:
        with open(p, "rb") as f:
            total += sum(1 for _ in f)
    assert total == 200  # no rows silently dropped


def test_export_avro_shards_distinct_beyond_prefix(ray_session, tmp_path):
    import ray.data

    from geomesa_nifi_ray.avro_io import read_avro
    from geomesa_nifi_ray.export import export_dataset

    t1 = pa.table({"k": list(range(80)), "v": ["x"] * 80})
    t2 = pa.table({"k": list(range(80)), "v": ["x"] * 70 + ["y"] * 10})
    ds = ray.data.from_arrow([t1, t2])
    out = str(tmp_path / "expa")
    lineage = export_dataset(ds, out, format="avro").take_all()
    paths = sorted({r["path"] for r in lineage})
    assert len(paths) == 2
    assert sum(read_avro(p).num_rows for p in paths) == 160


def test_export_resumable_same_names(ray_session, tmp_path):
    """Re-running the same export reproduces the same shard file names
    (idempotent resume) — the property full-content hashing must keep."""
    import ray.data

    from geomesa_nifi_ray.export import export_dataset

    t = pa.table({"k": list(range(50)), "v": [f"r{i}" for i in range(50)]})
    out = str(tmp_path / "expr")
    p1 = sorted(r["path"] for r in
                export_dataset(ray.data.from_arrow(t), out, format="csv").take_all())
    p2 = sorted(r["path"] for r in
                export_dataset(ray.data.from_arrow(t), out, format="csv").take_all())
    assert p1 == p2


# ---------------------------------------------------------------- fix 3 --


def test_avro_tz_aware_roundtrip(tmp_path):
    from geomesa_nifi_ray.avro_io import read_avro, write_avro

    ts = pa.array([1_000_000, 2_000_000, None], type=pa.int64()).cast(
        pa.timestamp("us", tz="UTC")
    )
    t = pa.table({"id": pa.array([1, 2, 3], pa.int64()), "ts": ts})
    path = str(tmp_path / "tz.avro")
    write_avro(t, path)
    back = read_avro(path)
    assert back.schema.field("ts").type == pa.timestamp("us", tz="UTC")
    assert back["ts"].to_pylist() == t["ts"].to_pylist()


def test_avro_non_utc_tz_roundtrip(tmp_path):
    from geomesa_nifi_ray.avro_io import read_avro, write_avro

    ts = pa.array([86_400_000], type=pa.int64()).cast(
        pa.timestamp("ms", tz="America/New_York")
    )
    t = pa.table({"ts": ts})
    path = str(tmp_path / "tz2.avro")
    write_avro(t, path)
    back = read_avro(path)
    assert back.schema.field("ts").type == pa.timestamp("ms", tz="America/New_York")
    # identical absolute instant
    assert back["ts"].cast(pa.int64()).to_pylist() == [86_400_000]


def test_avro_ns_timestamp_raises(tmp_path):
    from geomesa_nifi_ray.avro_io import write_avro

    t = pa.table({"ts": pa.array([1], pa.int64()).cast(pa.timestamp("ns"))})
    with pytest.raises(ValueError, match="ns-precision"):
        write_avro(t, str(tmp_path / "ns.avro"))


# ---------------------------------------------------------------- fix 4 --


def test_asof_join_tiebreak_deterministic(ray_session):
    """Exact-ts ties with differing values: the row with the largest
    tiebreak (offset) must win, regardless of block layout."""
    import ray.data

    from geomesa_nifi_ray.joins import asof_join

    left = pa.table({"k": ["a", "a"], "ts": pa.array([10, 20], pa.int64()),
                     "lid": pa.array([1, 2], pa.int64())})
    # two right rows at ts=10 with different values; offsets break the tie
    r1 = pa.table({"k": ["a"], "ts": pa.array([10], pa.int64()),
                   "val": ["low"], "offset": pa.array([5], pa.int64())})
    r2 = pa.table({"k": ["a"], "ts": pa.array([10], pa.int64()),
                   "val": ["high"], "offset": pa.array([9], pa.int64())})
    for right_tables in ([r1, r2], [r2, r1]):   # both block orders
        out = asof_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right_tables),
            by="k", on="ts", value_cols=["val"], tiebreak="offset",
        ).take_all()
        got = {r["lid"]: r["val_right"] for r in out}
        assert got == {1: "high", 2: "high"}


def test_asof_join_no_tiebreak_still_matches(ray_session):
    import ray.data

    from geomesa_nifi_ray.joins import asof_join

    left = pa.table({"k": ["a", "b"], "ts": pa.array([15, 5], pa.int64())})
    right = pa.table({"k": ["a"], "ts": pa.array([10], pa.int64()),
                      "val": pa.array([7], pa.int64())})
    out = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    by="k", on="ts", value_cols=["val"]).take_all()
    by_k = {r["k"]: r["val_right"] for r in out}
    assert by_k == {"a": 7, "b": None}


# ------------------------------------------------- pluggable content hash --


def test_hex16_matches_python_format():
    from geomesa_nifi_ray.hashing import _hex16

    vals = np.array([0, 1, 0xDEADBEEF, 2**64 - 1, 0x0123456789ABCDEF],
                    dtype=np.uint64)
    assert _hex16(vals).to_pylist() == [format(int(v), "016x") for v in vals]


def test_xx64_kernel_full_replay_matches_md5_semantics(ray_session, tmp_path):
    """Same binlog replayed into an md5-lake and an xx64-lake: identical
    table content (url/ts/text/lang), only the content_hash encoding
    differs; the xx64 hash is deterministic across two fresh replays and
    16 lowercase hex chars."""
    meta = write_binlog(
        str(tmp_path / "bl"), BinlogSpec(num_events=800, num_urls=200, num_epochs=2)
    )
    md5_eng = CDCEngine(str(tmp_path / "lake_md5"), num_buckets=4)
    md5_eng.replay_binlog(meta)
    xx_eng = CDCEngine(str(tmp_path / "lake_xx"), num_buckets=4,
                       content_hash_kernel="xx64")
    xx_eng.replay_binlog(meta)

    cols = ["url", "warc_ts", "text", "lang", "offset"]
    a = md5_eng.table.snapshot_table().select(cols).sort_by("url")
    b = xx_eng.table.snapshot_table().select(cols).sort_by("url")
    assert a.equals(b)

    hashes = xx_eng.table.snapshot_table()["content_hash"].to_pylist()
    assert all(len(h) == 16 and set(h) <= set("0123456789abcdef") for h in hashes)

    # deterministic: a second fresh lake reproduces the same hashes
    xx2 = CDCEngine(str(tmp_path / "lake_xx2"), num_buckets=4,
                    content_hash_kernel="xx64")
    xx2.replay_binlog(meta)
    h2 = xx2.table.snapshot_table()["content_hash"].to_pylist()
    assert sorted(hashes) == sorted(h2)

    # kernel is table-pinned: reloading the lake keeps xx64
    from geomesa_nifi_ray.lake import LakeTable
    assert LakeTable.load(str(tmp_path / "lake_xx"), "pages").content_hash_kernel == "xx64"


def test_xx64_kernel_idempotent_reapply(ray_session, tmp_path):
    meta = write_binlog(
        str(tmp_path / "bl"), BinlogSpec(num_events=400, num_urls=100, num_epochs=2)
    )
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4,
                    content_hash_kernel="xx64")
    eng.replay_binlog(meta)
    snap1 = eng.table.snapshot_table().sort_by("url")
    # replay again from scratch cursor view: committed epochs are skipped
    res = eng.replay_binlog(meta)
    assert res == []
    snap2 = eng.table.snapshot_table().sort_by("url")
    assert snap1.equals(snap2)


# -------------------------------------- dataset-native connected components --


def _cc_reference(edges):
    """Driver union-find for ground truth."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in list(parent)}


def test_cc_alternating_star_long_chains(ray_session):
    """Path graphs are the worst case for label propagation (diameter = n);
    the alternating-star algorithm must converge without a driver label
    table: 3 chains of 2000 nodes + 500 singleton pairs + one clique."""
    import pandas as pd
    import ray.data

    from geomesa_nifi_ray.dedup import duplicate_clusters_dataset

    edges = []
    for c in range(3):
        base = c * 10_000
        edges += [(base + i, base + i + 1) for i in range(1999)]
    edges += [(100_000 + 2 * i, 100_000 + 2 * i + 1) for i in range(500)]
    edges += [(200_000 + i, 200_000 + j) for i in range(8) for j in range(i + 1, 8)]
    df = pd.DataFrame(edges, columns=["doc_a", "doc_b"])
    out = duplicate_clusters_dataset(ray.data.from_pandas(df)).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster"]))
    want = _cc_reference(edges)
    assert got == want
    # spot-check semantics: each chain is ONE component rooted at its min
    assert got[10_000 + 1999] == 10_000
    assert len(set(got.values())) == 3 + 500 + 1


def test_cc_string_ids(ray_session):
    import pandas as pd
    import ray.data

    from geomesa_nifi_ray.dedup import duplicate_clusters_dataset

    edges = [("d", "b"), ("b", "a"), ("x", "y"), ("q", "q2"), ("q2", "a")]
    df = pd.DataFrame(edges, columns=["doc_a", "doc_b"])
    out = duplicate_clusters_dataset(ray.data.from_pandas(df)).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster"]))
    assert got == _cc_reference(edges)
    assert got["d"] == "a" and got["x"] == "x" and got["y"] == "x"


# ------------------------------------------------------- geojsonl export --


def test_geojsonl_export_golden_bytes(ray_session, tmp_path):
    """GeoJSON-lines export: rows -> Feature objects; lon/lat columns
    become a Point geometry, payload-analog rows get geometry null."""
    import json

    import ray.data

    from geomesa_nifi_ray.export import export_dataset

    t = pa.table({
        "id": ["a", "b"],
        "url": ["https://x/1", "https://x/2"],
        "lon": pa.array([10.5, None], pa.float64()),
        "lat": pa.array([-3.25, None], pa.float64()),
    })
    out = str(tmp_path / "geo")
    lineage = export_dataset(ray.data.from_arrow(t), out,
                             format="geojsonl").take_all()
    assert len(lineage) == 1 and lineage[0]["rows"] == 2
    lines = [json.loads(line) for line in open(lineage[0]["path"])]
    assert lines[0] == {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [10.5, -3.25]},
        "properties": {"id": "a", "url": "https://x/1"},
        "id": "a",
    }
    assert lines[1]["geometry"] is None
    assert lines[1]["properties"]["url"] == "https://x/2"


# ------------------------------------------------ hot-epoch (Lambda) view --


def test_hot_view_sees_pending_committed_unchanged(ray_session, tmp_path):
    """Lambda-analog: mid-epoch (bucket files flushed, manifest NOT
    committed) the committed view is unchanged while the hot view already
    serves the pending rows; completing the replay converges both."""
    from geomesa_nifi_ray.engine import make_bucket_merger, run_split_exchange

    meta = write_binlog(
        str(tmp_path / "bl"), BinlogSpec(num_events=400, num_urls=100, num_epochs=2)
    )
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    e0 = meta["epochs"][0]
    eng.apply_epoch(e0["files"], epoch=0,
                    offset_range=(e0["offset_min"], e0["offset_max"]))
    committed_before = eng.table.snapshot_table()

    # flush epoch 1's bucket files WITHOUT committing the manifest
    import ray.data

    e1 = meta["epochs"][1]
    convert = eng._make_convert(eng.table.schema)
    mat = ray.data.read_parquet(e1["files"]).map_batches(
        convert, batch_format="pyarrow").materialize()
    merger = make_bucket_merger(eng.table, 1, eng.table.live_entries(),
                                mode="upsert", max_deltas=4, sink=eng.sink)
    run_split_exchange(mat.to_arrow_refs(), merger, 4, num_groups=4)

    # committed view: byte-identical to before the in-flight epoch
    assert eng.table.snapshot_table().equals(committed_before)
    assert eng.table.committed_epoch() == 0
    # hot view: strictly more recent — epoch-1 offsets visible
    hot = eng.table.snapshot_table(include_pending=True)
    assert hot["offset"].to_pylist() != committed_before["offset"].to_pylist()
    assert max(hot["offset"].to_pylist()) > int(e0["offset_max"])

    # completing the epoch (deterministic overwrite + commit) converges the
    # committed view onto exactly what the hot view showed
    eng.apply_epoch(e1["files"], epoch=1,
                    offset_range=(e1["offset_min"], e1["offset_max"]))
    assert eng.table.snapshot_table().equals(hot)
    # and once committed, hot == cold
    assert eng.table.snapshot_table(include_pending=True).equals(
        eng.table.snapshot_table())


# ------------------------------------------------ choice/union ingestion --


def _dense_union(vals):
    """Build a dense union(int64, string) array from python values."""
    ints, strs, codes, offs = [], [], [], []
    for v in vals:
        if isinstance(v, int):
            codes.append(0); offs.append(len(ints)); ints.append(v)
        else:
            codes.append(1); offs.append(len(strs)); strs.append(v)
    return pa.UnionArray.from_dense(
        pa.array(codes, pa.int8()), pa.array(offs, pa.int32()),
        [pa.array(ints, pa.int64()), pa.array(strs, pa.string())],
    )


def test_union_resolve_tostring():
    from geomesa_nifi_ray.schema import resolve_union_array, resolve_union_type

    u = _dense_union([1, "x", 2, "y"])
    assert resolve_union_type(u.type) == pa.string()
    assert resolve_union_array(u).to_pylist() == ["1", "x", "2", "y"]


def test_union_resolve_numeric_widening():
    from geomesa_nifi_ray.schema import resolve_union_array

    ints = pa.array([1, 2], pa.int32())
    floats = pa.array([1.5], pa.float64())
    u = pa.UnionArray.from_dense(
        pa.array([0, 1, 0], pa.int8()), pa.array([0, 0, 1], pa.int32()),
        [ints, floats])
    out = resolve_union_array(u)
    assert out.type == pa.float64()
    assert out.to_pylist() == [1.0, 1.5, 2.0]


def test_union_merge_schema_and_projection():
    from geomesa_nifi_ray.schema import (CompatibilityMode, merge_schemas,
                                         project_to_schema)

    stored = pa.schema([pa.field("id", pa.int64()), pa.field("v", pa.string())])
    u = _dense_union([10, "a"])
    incoming = pa.schema([pa.field("id", pa.int64()), pa.field("v", u.type)])
    mr = merge_schemas(stored, incoming, CompatibilityMode.EXISTING)
    assert any("choice/union" in w for w in mr.warnings)
    t = pa.table({"id": pa.array([1, 2], pa.int64()), "v": u})
    out = project_to_schema(t, stored)
    assert out["v"].to_pylist() == ["10", "a"]


def test_union_column_end_to_end_ingest(ray_session, tmp_path):
    """A union-typed extra column ingested under UPDATE compatibility: the
    stored schema evolves with the RESOLVED type and values coerce."""
    import ray.data

    from geomesa_nifi_ray.schema import CompatibilityMode
    from geomesa_nifi_ray.synth import synth_change_events

    base = synth_change_events(BinlogSpec(num_events=40, num_urls=20, num_epochs=1))
    mixed = _dense_union(
        [i if i % 2 == 0 else f"v{i}" for i in range(base.num_rows)]
    )
    t = base.append_column("extra", mixed)
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2,
                    compatibility=CompatibilityMode.UPDATE)
    eng.apply_epoch(ray.data.from_arrow(t), epoch=0, offset_range=(0, 39))
    assert eng.table.schema.field("extra").type == pa.string()
    snap = eng.table.snapshot_table()
    vals = [v for v in snap["extra"].to_pylist() if v is not None]
    assert vals and all(isinstance(v, str) for v in vals)


# ----------------------------------- per-row dynamic write mode (_mode) --


def _page_rows(rows, with_mode=None):
    """rows: list of (url, ts_us, html, lang). with_mode: parallel list."""
    t = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.int64()).cast(
            pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.large_binary()),
        "lang": pa.array([r[3] for r in rows], pa.string()),
        "offset": pa.array(list(range(len(rows))), pa.int64()),
    })
    if with_mode is not None:
        t = t.append_column("_mode", pa.array(with_mode, pa.string()))
    return t


def test_per_row_dynamic_mode_mixed_epoch(ray_session, tmp_path):
    """DynamicWriters at row granularity: one epoch mixing upsert rows,
    update rows (no insert for unmatched), defaults, and a bad directive."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    base_rows = [(f"https://h/{i}", 1_000_000 + i, b"<p>v0</p>", "en")
                 for i in range(6)]
    eng.apply_epoch(ray.data.from_arrow(_page_rows(base_rows)), epoch=0,
                    offset_range=(0, 5))

    mixed = _page_rows(
        [
            ("https://h/0", 9_000_000, b"<p>upd</p>", "de"),   # update existing
            ("https://h/new1", 9_000_001, b"<p>x</p>", "fr"),  # update, unmatched
            ("https://h/new2", 9_000_002, b"<p>y</p>", "es"),  # explicit upsert
            ("https://h/new3", 9_000_003, b"<p>z</p>", "it"),  # default (null)
            ("https://h/new4", 9_000_004, b"<p>w</p>", "pt"),  # bogus directive
        ],
        with_mode=["update", "update", "upsert", None, "bogus"],
    )
    # offsets must continue past epoch 0
    mixed = mixed.set_column(
        mixed.schema.get_field_index("offset"), "offset",
        pa.array([10, 11, 12, 13, 14], pa.int64()))
    res = eng.apply_epoch(ray.data.from_arrow(mixed), epoch=1,
                          offset_range=(10, 14))
    # unmatched update (new1) + bogus directive (new4) -> failed
    assert res.rows_failed == 2

    snap = eng.table.snapshot_table()
    urls = set(snap["url"].to_pylist())
    assert "https://h/new1" not in urls        # update never inserts
    assert "https://h/new4" not in urls        # bad directive dead-lettered
    assert {"https://h/new2", "https://h/new3"} <= urls   # upsert + default
    by_url = {u: l for u, l in zip(snap["url"].to_pylist(),
                                   snap["lang"].to_pylist())}
    assert by_url["https://h/0"] == "de"       # update applied in place
    assert by_url["https://h/1"] == "en"       # untouched
    assert snap.num_rows == 8                  # 6 base + 2 inserts


def test_per_row_mode_under_update_epoch_default(ray_session, tmp_path):
    """Epoch default 'update' with an explicit per-row 'upsert' override:
    only the tagged row inserts."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    eng.apply_epoch(ray.data.from_arrow(_page_rows(
        [("https://h/a", 1_000_000, b"<p>a</p>", "en")])), epoch=0,
        offset_range=(0, 0))
    nxt = _page_rows(
        [("https://h/b", 2_000_000, b"<p>b</p>", "de"),   # default -> update -> skip
         ("https://h/c", 2_000_001, b"<p>c</p>", "fr")],  # explicit upsert -> insert
        with_mode=[None, "upsert"],
    )
    nxt = nxt.set_column(nxt.schema.get_field_index("offset"), "offset",
                         pa.array([10, 11], pa.int64()))
    res = eng.apply_epoch(ray.data.from_arrow(nxt), epoch=1,
                          offset_range=(10, 11), mode="update")
    assert res.rows_failed == 1
    urls = set(eng.table.snapshot_table()["url"].to_pylist())
    assert urls == {"https://h/a", "https://h/c"}


def test_mode_column_never_stored(ray_session, tmp_path):
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    t = _page_rows([("https://h/x", 1_000_000, b"<p>x</p>", "en")],
                   with_mode=["upsert"])
    eng.apply_epoch(ray.data.from_arrow(t), epoch=0, offset_range=(0, 0))
    assert "_mode" not in eng.table.schema.names
    assert "_mode" not in eng.table.snapshot_table().column_names


# -------------------------------------------- prometheus metrics endpoint --


def test_prometheus_text_and_endpoint(ray_session, tmp_path):
    from urllib.request import urlopen

    from geomesa_nifi_ray.metrics import prometheus_text, serve_metrics

    meta = write_binlog(
        str(tmp_path / "bl"), BinlogSpec(num_events=300, num_urls=80, num_epochs=2)
    )
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    results = eng.replay_binlog(meta)
    txt = prometheus_text(eng.table)
    assert 'geomesa_ingest_consumed{table="pages"} 300' in txt
    total_failed = sum(r.rows_failed for r in results)
    assert f'geomesa_ingest_failures{{table="pages"}} {total_failed}' in txt
    rows = eng.table.snapshot_table().num_rows
    assert f'geomesa_table_rows{{table="pages"}} {rows}' in txt
    assert 'geomesa_committed_epoch{table="pages"} 1' in txt
    assert "# TYPE geomesa_ingest_consumed counter" in txt

    server, port = serve_metrics(eng.table)
    try:
        with urlopen(f"http://127.0.0.1:{port}/metrics") as r:
            body = r.read().decode()
            assert r.status == 200
            assert "text/plain" in r.headers["Content-Type"]
        assert body == prometheus_text(eng.table)
        with urlopen(f"http://127.0.0.1:{port}/nope") as r2:
            pass
    except Exception as e:
        assert "404" in str(e)
    finally:
        server.shutdown()


# ------------------------------------------------------ stress behaviors --


def test_large_page_payloads(ray_session, tmp_path):
    """FIXTURES F1 allows html up to ~256 KB; the engine must ingest large
    payloads (large_binary offsets, batch memory) and keep the text
    invariant."""
    import ray.data

    from geomesa_nifi_ray.text import extract_text

    big_body = ("<p>" + "lorem ipsum dolor sit amet " * 2000 + "</p>") * 4
    htmls = [(f"<html><body>{big_body}<i>v{i}</i></body></html>").encode()
             for i in range(8)]
    assert len(htmls[0]) > 200_000
    t = pa.table({
        "url": pa.array([f"https://big/{i}" for i in range(8)]),
        "warc_ts": pa.array([1_000_000 + i for i in range(8)],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array(htmls, pa.large_binary()),
        "lang": pa.array(["en"] * 8),
        "offset": pa.array(list(range(8)), pa.int64()),
    })
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    res = eng.apply_epoch(ray.data.from_arrow(t), epoch=0, offset_range=(0, 7))
    assert res.rows_failed == 0
    snap = eng.table.snapshot_table()
    assert snap.num_rows == 8
    by_url = dict(zip(snap["url"].to_pylist(), snap["text"].to_pylist()))
    assert by_url["https://big/3"] == extract_text(htmls[3])


def test_hot_key_flood_collapses_before_shuffle(ray_session, tmp_path):
    """Skew lever: 50k duplicate events for TWO urls collapse to one row
    per url per batch in the combiner; the table ends at 2 rows and the
    manifest records the collapse."""
    import numpy as np
    import ray.data

    n = 50_000
    urls = np.where(np.arange(n) % 2 == 0, "https://hot/a", "https://hot/b")
    t = pa.table({
        "url": pa.array(urls.tolist()),
        "warc_ts": pa.array(np.arange(n, dtype=np.int64) + 1_000_000).cast(
            pa.timestamp("us")),
        "html": pa.array([b"<p>x</p>"] * n, pa.large_binary()),
        "lang": pa.array(["en"] * n),
        "offset": pa.array(np.arange(n, dtype=np.int64)),
    })
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    res = eng.apply_epoch(ray.data.from_arrow(t), epoch=0, offset_range=(0, n - 1))
    snap = eng.table.snapshot_table()
    assert snap.num_rows == 2
    # LWW picked the max-(warc_ts, offset) event per url
    assert sorted(snap["offset"].to_pylist()) == [n - 2, n - 1]
    assert res.rows_collapsed > 0.9 * n   # the combiner did the work


def test_cc_random_graphs_match_union_find(ray_session):
    """Five seeded random graphs (mixed densities, int ids): the
    alternating-star Dataset CC must equal driver union-find exactly."""
    import numpy as np
    import pandas as pd
    import ray.data

    from geomesa_nifi_ray.dedup import duplicate_clusters_dataset

    for seed in range(5):
        rng = np.random.RandomState(seed)
        n_nodes = int(rng.randint(20, 400))
        n_edges = int(rng.randint(10, 600))
        a = rng.randint(0, n_nodes, n_edges)
        b = rng.randint(0, n_nodes, n_edges)
        keep = a != b
        edges = list(zip(a[keep].tolist(), b[keep].tolist()))
        if not edges:
            continue
        df = pd.DataFrame(edges, columns=["doc_a", "doc_b"])
        out = duplicate_clusters_dataset(ray.data.from_pandas(df),
                                         num_shards=8).to_pandas()
        got = dict(zip(out["doc_id"], out["cluster"]))
        assert got == _cc_reference(edges), f"seed={seed}"


# ------------------------------------------------------ epoch time travel --


def test_snapshot_time_travel(ray_session, tmp_path):
    """Manifests are a full commit history: snapshot(epoch=N) reproduces
    the table state as of epoch N exactly (within the vacuum retention
    window), including pre-evolution states."""
    meta = write_binlog(
        str(tmp_path / "bl"), BinlogSpec(num_events=600, num_urls=150, num_epochs=3)
    )
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    e0 = meta["epochs"][0]
    eng.apply_epoch(e0["files"], epoch=0,
                    offset_range=(e0["offset_min"], e0["offset_max"]))
    state0 = eng.table.snapshot_table()
    for e in meta["epochs"][1:]:
        eng.apply_epoch(e["files"], epoch=int(e["epoch"]),
                        offset_range=(e["offset_min"], e["offset_max"]))
    # historical read is byte-identical to the live read taken at the time
    assert eng.table.snapshot_table(epoch=0).equals(state0)
    assert eng.table.committed_epoch() == 2
    assert not eng.table.snapshot_table().equals(state0)
    # max offset visible at epoch 0 stays within epoch 0's range
    assert max(eng.table.snapshot_table(epoch=0)["offset"].to_pylist()) \
        <= int(e0["offset_max"])
    # vacuum keeping 3 epochs preserves all three read points
    eng.table.vacuum(retain_epochs=3)
    assert eng.table.snapshot_table(epoch=0).equals(state0)


# -------------------------------------- incremental materialized view --


def _lang_counts_of(snap):
    import collections
    return dict(collections.Counter(snap["lang"].to_pylist()))


def test_group_count_view_incremental_equals_recompute(ray_session, tmp_path):
    """After every epoch, the incrementally-maintained view must equal a
    full recompute over the live winners."""
    from geomesa_nifi_ray.derived import GroupCountView

    meta = write_binlog(
        str(tmp_path / "bl"), BinlogSpec(num_events=900, num_urls=220, num_epochs=3)
    )
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    view = GroupCountView(eng.table, str(tmp_path / "views"), group_col="lang")
    for e in meta["epochs"]:
        eng.apply_epoch(e["files"], epoch=int(e["epoch"]),
                        offset_range=(e["offset_min"], e["offset_max"]))
        assert view.refresh() == 1
        assert view.counts() == _lang_counts_of(eng.table.snapshot_table()), \
            f"epoch {e['epoch']}"
    # idempotent: nothing new to apply, state unchanged
    before = view.counts()
    assert view.refresh() == 0
    assert view.counts() == before
    # rebuild from scratch agrees with the incremental state
    view2 = GroupCountView(eng.table, str(tmp_path / "views2"), group_col="lang")
    view2.rebuild()
    assert view2.counts() == before


def test_group_count_view_after_update_epoch(ray_session, tmp_path):
    """An update-mode epoch changes existing keys' group values in place;
    the view's +new/-old delta must track it."""
    import ray.data

    from geomesa_nifi_ray.derived import GroupCountView

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    base = pa.table({
        "url": pa.array([f"https://u/{i}" for i in range(6)]),
        "warc_ts": pa.array([1_000_000 + i for i in range(6)],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([b"<p>x</p>"] * 6, pa.large_binary()),
        "lang": pa.array(["en", "en", "en", "de", "de", "fr"]),
        "offset": pa.array(list(range(6)), pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 5))
    view = GroupCountView(eng.table, str(tmp_path / "views"), group_col="lang")
    view.refresh()
    assert view.counts() == {"en": 3, "de": 2, "fr": 1}

    upd = pa.table({
        "url": pa.array(["https://u/0", "https://u/3"]),
        "warc_ts": pa.array([9_000_000, 9_000_001], pa.int64()).cast(
            pa.timestamp("us")),
        "html": pa.array([b"<p>y</p>"] * 2, pa.large_binary()),
        "lang": pa.array(["zh", "zh"]),      # en->zh, de->zh
        "offset": pa.array([10, 11], pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(upd), epoch=1, offset_range=(10, 11),
                    mode="update")
    view.refresh()
    assert view.counts() == {"en": 2, "de": 1, "fr": 1, "zh": 2}
    assert view.counts() == _lang_counts_of(eng.table.snapshot_table())


# ------------------------------------------------- delete events (_op) --


def test_delete_events_lww_ranked(ray_session, tmp_path):
    """GeoMessage.Delete analog: payload-less delete events remove keys,
    ranked by the same (warc_ts, offset) order — a STALE delete (older ts
    than the surviving version) must NOT remove the key; absent-key deletes
    are no-ops."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    base = pa.table({
        "url": pa.array([f"https://d/{i}" for i in range(4)]),
        "warc_ts": pa.array([5_000_000 + i for i in range(4)],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([b"<p>x</p>"] * 4, pa.large_binary()),
        "lang": pa.array(["en"] * 4),
        "offset": pa.array(list(range(4)), pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 3))

    ops = pa.table({
        "url": pa.array(["https://d/0", "https://d/1", "https://d/9",
                         "https://d/new"]),
        "warc_ts": pa.array([9_000_000,      # newer -> deletes d/0
                             1_000_000,      # STALE -> d/1 survives
                             9_000_002,      # absent key -> no-op
                             9_000_003],     # plain upsert rides along
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([None, None, None, b"<p>n</p>"], pa.large_binary()),
        "lang": pa.array([None, None, None, "fr"]),
        "offset": pa.array([10, 11, 12, 13], pa.int64()),
        "_op": pa.array(["delete", "delete", "delete", None]),
    })
    res = eng.apply_epoch(ray.data.from_arrow(ops), epoch=1,
                          offset_range=(10, 13))
    assert res.rows_deleted == 1          # only d/0 actually removed
    assert res.rows_failed == 0           # payload-less deletes are valid
    urls = set(eng.table.snapshot_table()["url"].to_pylist())
    assert urls == {"https://d/1", "https://d/2", "https://d/3",
                    "https://d/new"}
    assert res.manifest["rows_deleted"] == 1


def test_delete_then_resurrect_same_epoch(ray_session, tmp_path):
    """Within one epoch, delete + later upsert of the same key: the later
    upsert wins (LWW over ops); delete after the upsert kills it."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    t = pa.table({
        "url": pa.array(["https://r/a"] * 2 + ["https://r/b"] * 2),
        "warc_ts": pa.array([1_000_000, 2_000_000, 1_000_000, 2_000_000],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([None, b"<p>res</p>", b"<p>b</p>", None],
                         pa.large_binary()),
        "lang": pa.array([None, "en", "en", None]),
        "offset": pa.array([0, 1, 2, 3], pa.int64()),
        "_op": pa.array(["delete", None, None, "delete"]),
    })
    eng.apply_epoch(ray.data.from_arrow(t), epoch=0, offset_range=(0, 3))
    snap = eng.table.snapshot_table()
    assert snap["url"].to_pylist() == ["https://r/a"]   # b deleted, a resurrected
    assert snap["text"].to_pylist() == ["res"]


def test_delete_crash_resume_identical(ray_session, tmp_path):
    import glob
    import os

    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    base = pa.table({
        "url": pa.array([f"https://c/{i}" for i in range(5)]),
        "warc_ts": pa.array([1_000_000 + i for i in range(5)],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([b"<p>x</p>"] * 5, pa.large_binary()),
        "lang": pa.array(["en"] * 5),
        "offset": pa.array(list(range(5)), pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 4))
    dels = pa.table({
        "url": pa.array(["https://c/1", "https://c/3"]),
        "warc_ts": pa.array([9_000_000, 9_000_001], pa.int64()).cast(
            pa.timestamp("us")),
        "html": pa.array([None, None], pa.large_binary()),
        "lang": pa.array([None, None]),
        "offset": pa.array([10, 11], pa.int64()),
        "_op": pa.array(["delete", "delete"]),
    })
    eng.apply_epoch(ray.data.from_arrow(dels), epoch=1, offset_range=(10, 11))
    snap1 = eng.table.snapshot_table()
    # crash: drop the epoch-1 manifest, replay the delete epoch
    log = sorted(glob.glob(str(tmp_path / "lake/pages/_log/epoch-*.json")))[-1]
    os.remove(log)
    eng2 = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    eng2.apply_epoch(ray.data.from_arrow(dels), epoch=1, offset_range=(10, 11))
    assert eng2.table.snapshot_table().equals(snap1)


def test_truncate_clear_epoch(ray_session, tmp_path):
    """GeoMessage.Clear analog: a clear epoch empties the table
    exactly-once; time travel to pre-clear epochs still works; ingest
    resumes cleanly afterwards."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2)
    base = pa.table({
        "url": pa.array([f"https://t/{i}" for i in range(5)]),
        "warc_ts": pa.array([1_000_000 + i for i in range(5)],
                            pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([b"<p>x</p>"] * 5, pa.large_binary()),
        "lang": pa.array(["en"] * 5),
        "offset": pa.array(list(range(5)), pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 4))
    pre = eng.table.snapshot_table()

    res = eng.truncate()
    assert res.epoch == 1 and res.rows_deleted == 5
    assert eng.table.snapshot_table().num_rows == 0
    assert eng.table.snapshot_table(epoch=0).equals(pre)   # time travel
    assert eng.truncate(epoch=1) is None                   # idempotent

    nxt = pa.table({
        "url": pa.array(["https://t/0"]),
        "warc_ts": pa.array([9_000_000], pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array([b"<p>again</p>"], pa.large_binary()),
        "lang": pa.array(["de"]),
        "offset": pa.array([10], pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(nxt), epoch=2, offset_range=(10, 10))
    snap = eng.table.snapshot_table()
    assert snap.num_rows == 1 and snap["lang"].to_pylist() == ["de"]


def test_generic_table_delete_events(ray_session, tmp_path):
    """Delete directives work through the generic (non-page) converter and
    an alternate Sink backend path too."""
    import ray.data

    from geomesa_nifi_ray.engine import make_generic_convert_fn

    schema = pa.schema([
        pa.field("k", pa.string()), pa.field("v", pa.int64()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("content_hash", pa.string()), pa.field("offset", pa.int64()),
    ])
    eng = CDCEngine(str(tmp_path / "lake"), table_name="kv", schema=schema,
                    num_buckets=2, key="k",
                    convert_fn_factory=make_generic_convert_fn)
    base = pa.table({
        "k": ["a", "b", "c"], "v": pa.array([1, 2, 3], pa.int64()),
        "warc_ts": pa.array([1_000_000 + i for i in range(3)],
                            pa.int64()).cast(pa.timestamp("us")),
        "offset": pa.array([0, 1, 2], pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 2))
    dels = pa.table({
        "k": ["b"], "v": pa.array([None], pa.int64()),
        "warc_ts": pa.array([9_000_000], pa.int64()).cast(pa.timestamp("us")),
        "offset": pa.array([10], pa.int64()),
        "_op": pa.array(["delete"]),
    })
    res = eng.apply_epoch(ray.data.from_arrow(dels), epoch=1,
                          offset_range=(10, 10))
    assert res.rows_deleted == 1
    assert set(eng.table.snapshot_table()["k"].to_pylist()) == {"a", "c"}


def _pages(rows):
    """rows: (url, ts_us, html|None, lang|None, offset, op|None)"""
    return pa.table({
        "url": pa.array([r[0] for r in rows]),
        "warc_ts": pa.array([r[1] for r in rows], pa.int64()).cast(
            pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.large_binary()),
        "lang": pa.array([r[3] for r in rows], pa.string()),
        "offset": pa.array([r[4] for r in rows], pa.int64()),
        "_op": pa.array([r[5] for r in rows], pa.string()),
    })


def test_tombstone_delta_equals_compaction(ray_session, tmp_path):
    """Deletes through the DELTA path (tombstone rows, O(changes) IO) must
    leave the same visible table as the compaction path (max_deltas=0),
    across multiple epochs including a resurrect."""
    import ray.data

    base = [(f"https://q/{i}", 1_000_000 + i, b"<p>x</p>", "en", i, None)
            for i in range(8)]
    e1 = [
        ("https://q/0", 9_000_000, None, None, 10, "delete"),   # delete live
        ("https://q/1", 500_000, None, None, 11, "delete"),     # stale delete
        ("https://q/zz", 9_000_002, None, None, 12, "delete"),  # absent no-op
        ("https://q/2", 9_000_003, b"<p>u2</p>", "fr", 13, None),  # upsert
    ]
    e2 = [
        ("https://q/0", 9_900_000, b"<p>back</p>", "de", 20, None),  # resurrect
        ("https://q/3", 9_900_001, None, None, 21, "delete"),        # delete live
    ]
    snaps = {}
    for label, max_deltas in [("delta", 4), ("compact", 0)]:
        eng = CDCEngine(str(tmp_path / f"lake_{label}"), num_buckets=2,
                        max_deltas=max_deltas)
        for i, rows in enumerate([base, e1, e2]):
            t = _pages(rows)
            offs = t["offset"].to_pylist()
            eng.apply_epoch(ray.data.from_arrow(t), epoch=i,
                            offset_range=(min(offs), max(offs)))
        snaps[label] = eng.table.snapshot_table()
        # dataset reader agrees with driver reader (chain merge parity)
        ds_rows = eng.table.snapshot_dataset().count()
        assert ds_rows == snaps[label].num_rows, label
    assert snaps["delta"].equals(snaps["compact"])
    urls = set(snaps["delta"]["url"].to_pylist())
    assert "https://q/3" not in urls          # deleted via tombstone
    assert "https://q/0" in urls              # resurrected
    by = dict(zip(snaps["delta"]["url"].to_pylist(),
                  snaps["delta"]["lang"].to_pylist()))
    assert by["https://q/0"] == "de"
    assert len(urls) == 7                     # 8 - q/0(deleted,back) - q/3 + 0


def test_tombstone_delta_crash_resume(ray_session, tmp_path):
    """Tombstone deltas keep exactly-once: dropping the manifest and
    replaying the delete epoch reproduces byte-identical state."""
    import glob
    import os

    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2, max_deltas=4)
    base = _pages([(f"https://w/{i}", 1_000_000 + i, b"<p>x</p>", "en", i, None)
                   for i in range(6)])
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 5))
    dels = _pages([("https://w/1", 9_000_000, None, None, 10, "delete"),
                   ("https://w/4", 9_000_001, None, None, 11, "delete")])
    eng.apply_epoch(ray.data.from_arrow(dels), epoch=1, offset_range=(10, 11))
    snap1 = eng.table.snapshot_table()
    assert snap1.num_rows == 4
    log = sorted(glob.glob(str(tmp_path / "lake/pages/_log/epoch-*.json")))[-1]
    os.remove(log)
    eng2 = CDCEngine(str(tmp_path / "lake"), num_buckets=2, max_deltas=4)
    eng2.apply_epoch(ray.data.from_arrow(dels), epoch=1, offset_range=(10, 11))
    assert eng2.table.snapshot_table().equals(snap1)
    # compaction (identity rewrite) folds tombstones into a clean base
    r = eng2.rewrite_epoch(lambda t: t)
    assert eng2.table.snapshot_table().equals(snap1)
    assert r.table_rows == 4


def test_tombstone_delta_sqlite_backend(ray_session, tmp_path):
    """Tombstone deltas round-trip through the alternate Sink backend (the
    SPI's schema-fidelity side table carries the _tomb marker)."""
    import ray.data

    from geomesa_nifi_ray.engine import make_generic_convert_fn
    from geomesa_nifi_ray.sinks import SqliteSink

    schema = pa.schema([
        pa.field("k", pa.string()), pa.field("v", pa.int64()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("content_hash", pa.string()), pa.field("offset", pa.int64()),
    ])
    eng = CDCEngine(
        str(tmp_path / "lake"), table_name="kv", schema=schema, num_buckets=2,
        key="k", convert_fn_factory=make_generic_convert_fn,
        sink_factory=lambda t: SqliteSink(str(tmp_path / "dbs"), t),
        max_deltas=4,
    )
    base = pa.table({
        "k": ["a", "b", "c"], "v": pa.array([1, 2, 3], pa.int64()),
        "warc_ts": pa.array([1_000_000 + i for i in range(3)],
                            pa.int64()).cast(pa.timestamp("us")),
        "offset": pa.array([0, 1, 2], pa.int64()),
    })
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 2))
    dels = pa.table({
        "k": ["b"], "v": pa.array([None], pa.int64()),
        "warc_ts": pa.array([9_000_000], pa.int64()).cast(pa.timestamp("us")),
        "offset": pa.array([10], pa.int64()),
        "_op": pa.array(["delete"]),
    })
    res = eng.apply_epoch(ray.data.from_arrow(dels), epoch=1,
                          offset_range=(10, 10))
    assert res.rows_deleted == 1
    # the delete rode a DELTA (chain grew), not a compaction
    entry = eng.table.live_entries()[
        [b for b, e in eng.table.live_entries().items() if e.get("deltas")][0]]
    assert len(entry["deltas"]) == 1
    # visible state through the sink-aware reader
    from geomesa_nifi_ray.upsert import lww_dedupe  # noqa: F401
    [parts], _, _ = eng.sink.read_chains([type(eng.table).chain_refs(entry)])
    from geomesa_nifi_ray.lake import merge_chain_tables
    merged = merge_chain_tables(parts, eng.table.schema, "k",
                                eng.table.order)
    ks = set(merged["k"].to_pylist())
    assert "b" not in ks


def test_group_count_view_after_delete_epoch(ray_session, tmp_path):
    """The incremental view must subtract a deleted key's old group and add
    nothing for the tombstone itself (delta path)."""
    import ray.data

    from geomesa_nifi_ray.derived import GroupCountView

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2, max_deltas=4)
    base = _pages([(f"https://v/{i}", 1_000_000 + i, b"<p>x</p>",
                    ["en", "en", "de", "fr"][i], i, None) for i in range(4)])
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 3))
    view = GroupCountView(eng.table, str(tmp_path / "views"), group_col="lang")
    view.refresh()
    assert view.counts() == {"en": 2, "de": 1, "fr": 1}
    dels = _pages([("https://v/0", 9_000_000, None, None, 10, "delete"),
                   ("https://v/2", 9_000_001, None, None, 11, "delete")])
    eng.apply_epoch(ray.data.from_arrow(dels), epoch=1, offset_range=(10, 11))
    view.refresh()
    assert view.counts() == {"en": 1, "fr": 1}
    assert view.counts() == _lang_counts_of(eng.table.snapshot_table())


def test_egress_includes_delete_ops(ray_session, tmp_path):
    """Change-stream egress surfaces delete events explicitly with
    include_ops=True (Change + Delete, beyond the reference's Change-only
    collect)."""
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=2, max_deltas=4)
    base = _pages([(f"https://e/{i}", 1_000_000 + i, b"<p>x</p>", "en", i, None)
                   for i in range(4)])
    eng.apply_epoch(ray.data.from_arrow(base), epoch=0, offset_range=(0, 3))
    mixed = _pages([
        ("https://e/1", 9_000_000, None, None, 10, "delete"),
        ("https://e/new", 9_000_001, b"<p>n</p>", "fr", 11, None),
    ])
    eng.apply_epoch(ray.data.from_arrow(mixed), epoch=1, offset_range=(10, 11))
    rows = eng.table.epoch_changes_dataset(1, include_ops=True).take_all()
    ops = {r["url"]: r["_op"] for r in rows}
    assert ops == {"https://e/1": "delete", "https://e/new": "upsert"}
    # default egress shape unchanged (no _op column)
    plain = eng.table.epoch_changes_dataset(1).take_all()
    assert "_op" not in plain[0]
