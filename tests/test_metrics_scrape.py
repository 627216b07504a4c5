"""The scrape is O(1) in the log's length: every manifest head carries
running totals (rows in / applied / failed / deleted, the maximum
offset), computed at commit from the previous head, and
``prometheus_text`` reads the tip only. Heads written before totals
existed fall back to the walk over every head."""

import pyarrow as pa

from geomesa_nifi_ray import metrics
from geomesa_nifi_ray.lake import LakeFS, LakeTable

SCHEMA = pa.schema([pa.field("url", pa.string()),
                    pa.field("warc_ts", pa.timestamp("us")),
                    pa.field("offset", pa.int64())])


def _manifest(e: int) -> dict:
    return {"epoch": e, "epochs_covered": [e, e],
            "offset_min": 10 * e if e % 3 else -1,
            "offset_max": 10 * e + 9 if e % 3 else -1,
            "rows_in": 10, "rows_applied": 7, "rows_failed": 1,
            "rows_deleted": e % 2,
            "buckets": {"0": {"file": "data/bucket=00000/epoch-00000.parquet",
                              "rows": e, "digest": ""}}}


def _scrape(table, monkeypatch) -> tuple[dict, int]:
    reads = [0]
    real = LakeFS.read_json

    def counting(self, path):
        reads[0] += 1
        return real(self, path)

    monkeypatch.setattr(LakeFS, "read_json", counting)
    text = metrics.prometheus_text(table)
    monkeypatch.setattr(LakeFS, "read_json", real)
    vals = {}
    for line in text.splitlines():
        if line.startswith("geomesa_") and "bucket=" not in line:
            vals[line.split("{")[0]] = int(line.rsplit(" ", 1)[1])
    return vals, reads[0]


def _expected(n: int) -> dict:
    ms = [_manifest(e) for e in range(n)]
    return {
        "geomesa_ingest_consumed": sum(m["rows_in"] for m in ms),
        "geomesa_ingest_successes": sum(m["rows_applied"] for m in ms),
        "geomesa_ingest_failures": sum(m["rows_failed"] for m in ms),
        "geomesa_ingest_deletes": sum(m["rows_deleted"] for m in ms),
        "geomesa_table_rows": n - 1,
        "geomesa_committed_epoch": n - 1,
        "geomesa_committed_offset": max(m["offset_max"] for m in ms),
    }


def test_scrape_reads_the_same_manifests_at_10_and_200_epochs(tmp_path,
                                                              monkeypatch):
    reads = {}
    for n in (10, 200):
        t = LakeTable.create(str(tmp_path), f"t{n}", SCHEMA, num_buckets=1)
        for e in range(n):
            t.commit_epoch(_manifest(e))
        vals, reads[n] = _scrape(t, monkeypatch)
        assert vals == _expected(n)
    assert reads[10] == reads[200] == 1


def test_heads_without_totals_fall_back_to_the_walk(tmp_path, monkeypatch):
    t = LakeTable.create(str(tmp_path), "old", SCHEMA, num_buckets=1)
    # a log written before totals existed: plain heads, no running totals
    for e in range(6):
        t.fs.publish_json(t._log_path(e), _manifest(e))
    vals, reads = _scrape(t, monkeypatch)
    assert vals == _expected(6) and reads == 6
    # the next commit sums the old heads once and carries totals from then on
    t.commit_epoch(_manifest(6))
    assert t.manifest_head(6)["totals"]["rows_in"] == 70
    vals, reads = _scrape(t, monkeypatch)
    assert vals == _expected(7) and reads == 1
