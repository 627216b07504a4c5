"""Lineage and metrics: per-(epoch, partition) accounting as queryable data.

The reference exposes Micrometer counters through a Prometheus registry
service (``service/PrometheusRegistryService.scala:21-63``, consumed
counter ``GetGeoMesaKafkaRecord.scala:177-178,300``) and per-flow-file
attributes (``geomesa.ingest.successes/failures``). Here the primary
lineage channel is the manifest commit log itself — every epoch records
offset range, per-bucket row counts, change counts and content-hash
digests — plus optional ``ray.util.metrics`` counters for live dashboards
(gated: the metrics agent may be absent in sealed/local runs).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from geomesa_nifi_ray.lake import ZERO_TOTALS, LakeTable


def lineage_table(table: LakeTable) -> pa.Table:
    """Flatten the manifest log into one row per (epoch, bucket):
    epoch, bucket, file, rows, rows_changed, digest, offset range, rows_in,
    rows_failed, schema/kernel versions. This is the north-star
    "per-partition lineage (epoch, offset range, row counts, content
    hashes)" as a queryable Arrow table.

    Only manifests that exist are read: catch-up batched commits write one
    manifest covering an epoch *range*, so the log can have numbering gaps;
    ``epoch_first``/``epoch_last`` expose each manifest's covered range."""
    rows = []
    for e in table.manifest_epochs():
        m = table.manifest(e)
        covered = m.get("epochs_covered", [e, e])
        for b, entry in m["buckets"].items():
            rows.append(
                {
                    "epoch": e,
                    "epoch_first": int(covered[0]),
                    "epoch_last": int(covered[1]),
                    "bucket": int(b),
                    "file": entry["file"],
                    "rows": int(entry["rows"]),
                    "rows_changed": int(entry["rows_changed"]),
                    "digest": entry["digest"],
                    "offset_min": int(m["offset_min"]),
                    "offset_max": int(m["offset_max"]),
                    "rows_in": int(m["rows_in"]),
                    "rows_failed": int(m["rows_failed"]),
                    "rows_deleted": int(m.get("rows_deleted", 0)),
                    "schema_version": int(m["schema_version"]),
                    "kernel_version": m["kernel_version"],
                }
            )
    if not rows:
        return pa.table(
            {
                "epoch": pa.array([], type=pa.int64()),
                "epoch_first": pa.array([], type=pa.int64()),
                "epoch_last": pa.array([], type=pa.int64()),
                "bucket": pa.array([], type=pa.int64()),
                "file": pa.array([], type=pa.string()),
                "rows": pa.array([], type=pa.int64()),
                "rows_changed": pa.array([], type=pa.int64()),
                "digest": pa.array([], type=pa.string()),
                "offset_min": pa.array([], type=pa.int64()),
                "offset_max": pa.array([], type=pa.int64()),
                "rows_in": pa.array([], type=pa.int64()),
                "rows_failed": pa.array([], type=pa.int64()),
                "rows_deleted": pa.array([], type=pa.int64()),
                "schema_version": pa.array([], type=pa.int64()),
                "kernel_version": pa.array([], type=pa.string()),
            }
        )
    return pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)


def skew_report(table: LakeTable, epoch: int | None = None) -> pd.DataFrame:
    """Per-bucket row-count distribution at an epoch — the monitoring hook
    for hot-prefix skew (SURVEY.md §4 'monitor per-partition row counts')."""
    entries = table.live_entries(epoch)
    df = pd.DataFrame(
        {"bucket": list(entries), "rows": [int(e["rows"]) for e in entries.values()]}
    )
    if len(df):
        df["share"] = df["rows"] / max(1, df["rows"].sum())
    return df.sort_values("rows", ascending=False).reset_index(drop=True)


def prometheus_text(table: LakeTable) -> str:
    """Render the table's ingest counters in the Prometheus text exposition
    format — the scrape-payload analog of the reference's registry service
    (``service/PrometheusRegistryService.scala:21-63``; counter naming
    follows its ``geomesa.ingest.*`` convention). Derived entirely from the
    manifest commit log, so the endpoint is stateless and exactly matches
    committed state.

    O(1) in the log's length: the counters are the running ``totals`` the
    tip manifest carries (:meth:`LakeTable.commit_epoch`), so a scrape
    reads one manifest. A tip written before totals existed falls back to
    summing every head."""
    name = table.name
    epochs = table.manifest_epochs()
    totals = dict(ZERO_TOTALS)
    last_epoch = epochs[-1] if epochs else -1
    entries: dict = {}
    if epochs:
        tip = table.manifest_head(last_epoch)
        totals = table.totals_through(tip)
        # a one-JSON manifest's head IS the manifest; a sharded one
        # reassembles its bucket map
        buckets = (tip["buckets"] if "buckets" in tip
                   else table.manifest(last_epoch)["buckets"])
        entries = {int(b): e for b, e in buckets.items()}
    rows_in, applied = totals["rows_in"], totals["rows_applied"]
    failed, deleted = totals["rows_failed"], totals["rows_deleted"]
    last_offset = totals["offset_max"]
    table_rows = sum(int(x["rows"]) for x in entries.values())
    lab = f'{{table="{name}"}}'
    lines = [
        "# HELP geomesa_ingest_consumed change events consumed (rows_in)",
        "# TYPE geomesa_ingest_consumed counter",
        f"geomesa_ingest_consumed{lab} {rows_in}",
        "# HELP geomesa_ingest_successes change rows applied",
        "# TYPE geomesa_ingest_successes counter",
        f"geomesa_ingest_successes{lab} {applied}",
        "# HELP geomesa_ingest_failures change rows dead-lettered/unmatched",
        "# TYPE geomesa_ingest_failures counter",
        f"geomesa_ingest_failures{lab} {failed}",
        "# HELP geomesa_ingest_deletes keys removed by delete/clear events",
        "# TYPE geomesa_ingest_deletes counter",
        f"geomesa_ingest_deletes{lab} {deleted}",
        "# HELP geomesa_table_rows live table row count",
        "# TYPE geomesa_table_rows gauge",
        f"geomesa_table_rows{lab} {table_rows}",
        "# HELP geomesa_committed_epoch latest committed epoch",
        "# TYPE geomesa_committed_epoch gauge",
        f"geomesa_committed_epoch{lab} {last_epoch}",
        "# HELP geomesa_committed_offset latest committed binlog offset",
        "# TYPE geomesa_committed_offset gauge",
        f"geomesa_committed_offset{lab} {last_offset}",
    ]
    for b, e in sorted(entries.items()):
        lines.append(
            f'geomesa_bucket_rows{{table="{name}",bucket="{b}"}} {int(e["rows"])}'
        )
    return "\n".join(lines) + "\n"


def serve_metrics(table: LakeTable, port: int = 0, host: str = "127.0.0.1"):
    """Start a background scrape endpoint (GET /metrics) for one table —
    the controller-service analog of PrometheusRegistryService. Returns the
    bound ``(server, port)``; call ``server.shutdown()`` to stop. Each
    scrape lists the log and reads the tip manifest (its running totals),
    so results always reflect the latest committed manifest."""
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            if self.path.rstrip("/") not in ("", "/metrics".rstrip("/")):
                self.send_response(404)
                self.end_headers()
                return
            body = prometheus_text(table).encode()
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):  # quiet
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    return server, server.server_address[1]


class EpochCounters:
    """Optional live counters via ``ray.util.metrics`` (no-op if the metrics
    subsystem is unavailable, e.g. dashboardless local mode)."""

    def __init__(self, table_name: str):
        self._ok = False
        try:  # pragma: no cover - metrics agent not present in tests
            from ray.util import metrics

            self.events = metrics.Counter(
                "cdc_events_applied",
                description="change events applied",
                tag_keys=("table",),
            )
            self.failures = metrics.Counter(
                "cdc_events_failed",
                description="change events dead-lettered",
                tag_keys=("table",),
            )
            self._tags = {"table": table_name}
            self._ok = True
        except Exception:
            pass

    def record(self, applied: int, failed: int) -> None:
        if self._ok:  # pragma: no cover
            if applied > 0:  # ray Counter.inc rejects non-positive values
                self.events.inc(applied, self._tags)
            if failed > 0:
                self.failures.inc(failed, self._tags)
