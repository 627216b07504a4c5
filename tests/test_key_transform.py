"""Canonical-key ingest (``key_transform="normalize_url"``): messy URL
spellings collapse to one LWW row, probe paths accept raw URLs, and the
table stamp guards against mixed-transform writers — the converter
id-field expression analog (SimpleFeatureRecordConverter.scala:79-116)
exercised on inputs the sf binlog (already-canonical URLs) cannot."""

import json
import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.lake import LakeTable
from geomesa_nifi_ray.text import extract_text_batch, normalize_urls

SNAP_COLS = ["url", "warc_ts", "text", "lang", "content_hash", "offset"]


def _events(rows):
    """rows: list of (url, ts_us, html_bytes, lang, offset)."""
    html = pa.array([r[2] for r in rows], pa.large_binary())
    return pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "html": html,
        "text": extract_text_batch(html).cast(pa.large_string()),
        "lang": pa.array([r[3] for r in rows], pa.string()),
        "offset": pa.array([r[4] for r in rows], pa.int64()),
    })


MESSY = [
    # one page, four spellings: fragment, bare ?, host case, userinfo case
    ("https://Host.A/page", 1_000_000, b"<html><body>v1</body></html>", "en", 0),
    ("https://host.a/page#frag", 2_000_000, b"<html><body>v2</body></html>", "en", 1),
    ("HTTPS://HOST.A/page?", 3_000_000, b"<html><body>v3</body></html>", "en", 2),
    # a second page, case differs only in the PATH -> stays distinct
    ("https://host.b/P", 1_000_000, b"<html><body>bP</body></html>", "de", 3),
    ("https://host.b/p", 1_000_000, b"<html><body>bp</body></html>", "de", 4),
]
MESSY2 = [
    # late epoch: an older-ts update under yet another spelling (loses LWW)
    ("https://HOST.a/page", 1_500_000, b"<html><body>old</body></html>", "en", 5),
    ("https://host.b/p#x", 9_000_000, b"<html><body>bp2</body></html>", "de", 6),
]


def _replay(tmp_path, name="pages"):
    import ray.data

    eng = CDCEngine(str(tmp_path / "lake"), table_name=name, num_buckets=4,
                    key_transform="normalize_url")
    eng.apply_epoch(ray.data.from_arrow(_events(MESSY)), 0, (0, 4))
    eng.apply_epoch(ray.data.from_arrow(_events(MESSY2)), 1, (5, 6))
    return eng


def test_messy_urls_collapse_and_lww(tmp_path, ray_session):
    eng = _replay(tmp_path)
    snap = eng.table.snapshot_table().select(SNAP_COLS)
    urls = sorted(snap["url"].to_pylist())
    # 3 canonical keys: host.a/page (4 spellings), host.b/P, host.b/p
    assert urls == ["https://host.a/page", "https://host.b/P",
                    "https://host.b/p"]
    d = {u: (t, o) for u, t, o in zip(snap["url"].to_pylist(),
                                      snap["text"].to_pylist(),
                                      snap["offset"].to_pylist())}
    # LWW across spellings: ts=3s (offset 2) wins; the later-epoch
    # older-ts spelling (offset 5) loses
    assert d["https://host.a/page"] == ("v3", 2)
    assert d["https://host.b/p"] == ("bp2", 6)  # fragment-stripped update wins
    assert d["https://host.b/P"] == ("bP", 3)   # path case preserved

    # SQL parity on the SAME messy stream: the production oracle template
    # (normalization chain + LWW window) over the raw events
    from geomesa_nifi_ray.pipelines.queries import _CDC_NORM_KEYS_SQL_T

    raw = tmp_path / "raw.parquet"
    pq.write_table(pa.concat_tables([_events(MESSY), _events(MESSY2)]), raw)
    want = duckdb.execute(
        _CDC_NORM_KEYS_SQL_T.format(glob=str(raw)) + " ORDER BY url"
    ).arrow()
    got = snap.sort_by("url")
    assert got.to_pydict() == {c: want[c].to_pylist() for c in SNAP_COLS}


def test_probe_paths_accept_raw_urls(tmp_path, ray_session):
    eng = _replay(tmp_path)
    # point lookup with a spelling never stored verbatim
    hit = eng.table.lookup_keys(["HTTPS://Host.A/page#other-frag"],
                                columns=["url", "text"])
    assert hit.num_rows == 1 and hit["text"][0].as_py() == "v3"
    # delete by raw spelling removes the canonical row
    eng.delete_keys(["https://HOST.A/page?"])
    snap = eng.table.snapshot_table()
    assert "https://host.a/page" not in snap["url"].to_pylist()
    assert snap.num_rows == 2


def test_exactly_once_resume_bit_identity(tmp_path, ray_session):
    import ray.data

    eng = _replay(tmp_path)
    digest = eng.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    # re-open + re-apply both epochs: exactly-once skips, state identical
    eng2 = CDCEngine(str(tmp_path / "lake"), num_buckets=4,
                     key_transform="normalize_url")
    eng2.apply_epoch(ray.data.from_arrow(_events(MESSY)), 0, (0, 4))
    eng2.apply_epoch(ray.data.from_arrow(_events(MESSY2)), 1, (5, 6))
    again = eng2.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    assert digest.to_pydict() == again.to_pydict()


@pytest.mark.parametrize("exchange", ["late", "split"])
def test_transform_composes_with_every_exchange(tmp_path, ray_session,
                                                exchange):
    """The canonical-key collapse happens in convert, BEFORE the keyed
    exchange — so every exchange strategy must produce the identical
    lake from the messy stream (the transform must never depend on
    which shuffle carried the winners)."""
    import ray.data

    ref = _replay(tmp_path)  # auto-selected strategy (one merge task)
    eng = CDCEngine(str(tmp_path / f"lake_{exchange}"), num_buckets=4,
                    key_transform="normalize_url")
    eng.apply_epoch(ray.data.from_arrow(_events(MESSY)), 0, (0, 4),
                    exchange=exchange)
    eng.apply_epoch(ray.data.from_arrow(_events(MESSY2)), 1, (5, 6),
                    exchange=exchange)
    a = ref.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    b = eng.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    assert a.to_pydict() == b.to_pydict()


def test_mixed_transform_guards(tmp_path, ray_session):
    eng = _replay(tmp_path)
    del eng
    # different transform on an existing lake -> refused
    with pytest.raises(ValueError, match="key_transform"):
        CDCEngine(str(tmp_path / "lake"), num_buckets=4,
                  key_transform="other")
    # omitting the arg is fine (the stamp wins)...
    eng2 = CDCEngine(str(tmp_path / "lake"), num_buckets=4)
    assert eng2.table.key_transform == "normalize_url"
    # ...and the converter it builds still canonicalizes (stamp-driven)
    conv = eng2._make_convert(eng2.table.schema)
    out = conv(_events([("https://X.Y/z#f", 1, b"<html><body>q</body></html>",
                         "en", 9)]))
    assert out.filter(pc.equal(out["_dead"], 0))["url"].to_pylist() == [
        "https://x.y/z"]
    # a 4-arg custom factory cannot honor the stamp -> loud error
    def four_arg_factory(schema, p, key, order):  # pragma: no cover - sig only
        raise AssertionError("should not be called")

    eng3 = CDCEngine(str(tmp_path / "lake"), num_buckets=4,
                     convert_fn_factory=four_arg_factory)
    with pytest.raises(ValueError, match="key_transform parameter"):
        eng3._make_convert(eng3.table.schema)
    # a **kwargs factory could swallow-and-ignore the argument -> also loud
    def kwargs_factory(schema, p, key, order, **kw):  # pragma: no cover
        raise AssertionError("should not be called")

    eng4 = CDCEngine(str(tmp_path / "lake"), num_buckets=4,
                     convert_fn_factory=kwargs_factory)
    with pytest.raises(ValueError, match="NAMED parameter"):
        eng4._make_convert(eng4.table.schema)


def test_fingerprint_and_unknown_name_guards(tmp_path, ray_session):
    from geomesa_nifi_ray.text import resolve_key_transform

    with pytest.raises(KeyError, match="unknown key_transform"):
        resolve_key_transform("nope")
    # unknown name at create -> refused before any layout is written
    with pytest.raises(KeyError, match="unknown key_transform"):
        CDCEngine(str(tmp_path / "lake_bad"), num_buckets=4,
                  key_transform="nope")
    assert not (tmp_path / "lake_bad" / "pages").exists()  # no residue
    eng = _replay(tmp_path)
    meta_path = os.path.join(eng.table.table_dir, "_table.json")
    meta = json.load(open(meta_path))
    assert meta["key_transform"] == "normalize_url"
    meta["key_transform_fingerprint"] = "0" * 32  # simulate a kernel change
    json.dump(meta, open(meta_path, "w"))
    with pytest.raises(RuntimeError, match="no longer reproduces"):
        LakeTable.load(str(tmp_path / "lake"), "pages")


def test_non_idempotent_transform_cannot_create_a_lake(tmp_path, monkeypatch):
    import pyarrow.compute as _pc

    from geomesa_nifi_ray import text as _text

    # append-a-char is the canonical non-fixed-point counterexample
    monkeypatch.setitem(_text.KEY_TRANSFORMS, "bad",
                        lambda arr: _pc.binary_join_element_wise(
                            arr, pa.scalar("x"), ""))
    with pytest.raises(ValueError, match="not idempotent"):
        CDCEngine(str(tmp_path / "lake_bad"), num_buckets=2,
                  key_transform="bad")
    assert not (tmp_path / "lake_bad" / "pages").exists()
    # ...but load-time fingerprinting must NOT run the idempotency check:
    # an existing lake whose kernel drifted surfaces the fingerprint
    # diagnostic (with rewrite/pin guidance), not an idempotency error
    assert isinstance(_text.key_transform_fingerprint("bad"), str)


def test_transform_idempotent_on_canonical_keys():
    # the contract replay/probe paths rely on: f(f(x)) == f(x) — including
    # trailing '?' RUNS ('https://h/p??' once stripped one '?' per pass)
    raw = pa.array(["https://A.B/c#d?", "HTTP://X@Y.Z:8080/Q?q=1#f",
                    "plain/path#f", "", "https://h/p??", "https://h/p???#f"])
    once = normalize_urls(raw)
    assert normalize_urls(once).to_pylist() == once.to_pylist()
    assert once.to_pylist()[4] == "https://h/p"
    # every REGISTERED transform must be idempotent on the probe vector
    from geomesa_nifi_ray.text import _KEY_TRANSFORM_PROBE, KEY_TRANSFORMS

    for name, fn in KEY_TRANSFORMS.items():
        one = fn(pa.array(_KEY_TRANSFORM_PROBE, pa.string()))
        assert fn(one).to_pylist() == one.to_pylist(), name


def test_mirror_inherits_source_key_transform(tmp_path, ray_session):
    """A mirror of a canonical-key lake inherits the source's transform
    stamp (mirror keys are source-derived, hence already canonical), so
    the replica's probe paths canonicalize raw spellings exactly like the
    source — and future replication stays a no-op re-transform."""
    src = _replay(tmp_path)
    mirror = CDCEngine(str(tmp_path / "mirror"), num_buckets=3)
    applied = mirror.mirror_from(src.table)
    assert len(applied) == 2
    assert mirror.table.key_transform == "normalize_url"
    assert (mirror.table.meta.get("key_transform_fingerprint")
            == src.table.meta.get("key_transform_fingerprint"))
    # replica snapshot == source snapshot (canonical keys, LWW winners)
    a = src.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    b = mirror.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    assert a.to_pydict() == b.to_pydict()
    # probe path on the REPLICA accepts a raw spelling
    hit = mirror.table.lookup_keys(["HTTPS://Host.A/page#other-frag"],
                                   columns=["url", "text"])
    assert hit.num_rows == 1 and hit["text"][0].as_py() == "v3"
    # resume stays idempotent with the inherited stamp in place
    assert mirror.mirror_from(src.table) == []


def test_mirror_unstamped_resume_inherits_transform(tmp_path, ray_session):
    """A mirror created BEFORE transform inheritance existed (stamp
    absent, but every key already canonical because it came from the
    source) gains the stamp on its next resume."""
    src = _replay(tmp_path)
    mirror = CDCEngine(str(tmp_path / "mirror"), num_buckets=3)
    mirror.mirror_from(src.table)
    # simulate the legacy mirror: drop the inherited stamps
    meta = dict(mirror.table.meta)
    del meta["key_transform"], meta["key_transform_fingerprint"]
    mirror.table.fs.publish_json(
        os.path.join(mirror.table.table_dir, "_table.json"), meta)
    mirror.table._meta = meta
    # source advances one epoch; resume replicates it AND restores the stamp
    import ray.data

    src.apply_epoch(ray.data.from_arrow(_events(
        [("https://Host.C/new#f", 4_000_000,
          b"<html><body>c1</body></html>", "en", 7)])), 2, (7, 7))
    mirror2 = CDCEngine(str(tmp_path / "mirror"), num_buckets=3)
    assert len(mirror2.mirror_from(src.table)) == 1
    assert mirror2.table.key_transform == "normalize_url"
    a = src.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    b = mirror2.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    assert a.to_pydict() == b.to_pydict()


def test_mirror_conflicting_transform_raises(tmp_path, ray_session):
    """A mirror whose own transform differs from the source's would
    re-transform replicated keys at convert time and silently diverge —
    both directions must fail loudly before any epoch is applied."""
    import ray.data

    # target stamped, source not: plain (no-transform) source
    plain = CDCEngine(str(tmp_path / "plain"), num_buckets=2)
    plain.apply_epoch(ray.data.from_arrow(_events(MESSY)), 0, (0, 4))
    stamped = CDCEngine(str(tmp_path / "m1"), num_buckets=2,
                        key_transform="normalize_url")
    with pytest.raises(ValueError, match="key_transform"):
        stamped.mirror_from(plain.table)
    assert stamped.table.committed_epoch() is None  # nothing applied
    # ...and the refused call left NO mirror_source stamp behind
    assert stamped.table.meta.get("mirror_source") is None
    # target whose transform differs from the (transform-stamped) source
    import pyarrow.compute as _pc

    from geomesa_nifi_ray import text as _text

    monkeypatch = pytest.MonkeyPatch()
    try:
        monkeypatch.setitem(_text.KEY_TRANSFORMS, "lower",
                            lambda arr: _pc.utf8_lower(arr))
        src = _replay(tmp_path)
        other = CDCEngine(str(tmp_path / "m2"), num_buckets=2,
                          key_transform="lower")
        with pytest.raises(ValueError, match="key_transform"):
            other.mirror_from(src.table)
    finally:
        monkeypatch.undo()


def test_mirror_custom_factory_skips_inheritance(tmp_path, ray_session):
    """A mirror engine with a custom convert factory that does NOT declare
    key_transform keeps working against a canonical-key source: replicated
    keys are already canonical, so inheritance is skipped (no stamp) rather
    than wedging every later apply on the canonicalization gate."""
    from geomesa_nifi_ray.engine import make_convert_fn

    def plain_factory(schema, num_buckets, key, order):
        return make_convert_fn(schema, num_buckets, key, order)

    src = _replay(tmp_path)
    mirror = CDCEngine(str(tmp_path / "mirror_cf"), num_buckets=3,
                       convert_fn_factory=plain_factory)
    assert len(mirror.mirror_from(src.table)) == 2
    assert mirror.table.key_transform is None  # not stamped
    a = src.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    b = mirror.table.snapshot_table().select(SNAP_COLS).sort_by("url")
    assert a.to_pydict() == b.to_pydict()
    # resume still idempotent, still un-stamped
    assert mirror.mirror_from(src.table) == []
    assert mirror.table.key_transform is None


def test_mirror_inherit_from_unfingerprinted_source(tmp_path, ray_session):
    """A legacy source that stamped key_transform WITHOUT a fingerprint
    still yields a fully guarded mirror: the fingerprint is computed from
    the local kernel at inherit time, so future kernel drift on the mirror
    is caught at load like any other table."""
    from geomesa_nifi_ray.text import key_transform_fingerprint

    src = _replay(tmp_path)
    # simulate the legacy source: drop its fingerprint stamp
    meta = dict(src.table.meta)
    del meta["key_transform_fingerprint"]
    src.table.fs.publish_json(
        os.path.join(src.table.table_dir, "_table.json"), meta)
    src.table._meta = meta
    mirror = CDCEngine(str(tmp_path / "mirror_nofp"), num_buckets=3)
    assert len(mirror.mirror_from(src.table)) == 2
    assert mirror.table.key_transform == "normalize_url"
    assert (mirror.table.meta.get("key_transform_fingerprint")
            == key_transform_fingerprint("normalize_url"))
    # the stamped mirror loads cleanly (drift guard satisfied)
    LakeTable.load(str(tmp_path / "mirror_nofp"), "pages")


def test_mirror_refuses_drifted_source_fingerprint(tmp_path, ray_session):
    """A source whose stamped fingerprint disagrees with the LOCAL kernel
    means the transform implementation drifted — inheriting it would
    canonicalize probe keys differently than the source's data; the
    mirror call must refuse before stamping or applying anything."""
    src = _replay(tmp_path)
    meta = dict(src.table.meta)
    meta["key_transform_fingerprint"] = "bogus-drifted-fingerprint"
    src.table.fs.publish_json(
        os.path.join(src.table.table_dir, "_table.json"), meta)
    src.table._meta = meta
    mirror = CDCEngine(str(tmp_path / "mirror_drift"), num_buckets=3)
    with pytest.raises(ValueError, match="drifted"):
        mirror.mirror_from(src.table)
    assert mirror.table.meta.get("mirror_source") is None  # no trace
    assert mirror.table.key_transform is None


def test_mirror_wrong_source_diagnostic_wins(tmp_path, ray_session):
    """Resuming a transform-stamped mirror against the WRONG source must
    say 'tracks <other source>' — not surface the transform-conflict
    error, whose 'recreate the target' advice would destroy a healthy
    mirror."""
    import ray.data

    src = _replay(tmp_path)
    mirror = CDCEngine(str(tmp_path / "mirror_id"), num_buckets=3)
    mirror.mirror_from(src.table)  # inherits normalize_url
    # a plain (no-transform) lake the operator points the mirror at by
    # mistake: BOTH the identity and the transform checks would fire
    plain = CDCEngine(str(tmp_path / "plain_b"), num_buckets=2)
    plain.apply_epoch(ray.data.from_arrow(_events(MESSY)), 0, (0, 4))
    mirror2 = CDCEngine(str(tmp_path / "mirror_id"), num_buckets=3)
    with pytest.raises(ValueError, match="tracks"):
        mirror2.mirror_from(plain.table)
