"""CDC epoch driver: binlog tail -> convert -> schema-merge -> LWW dedup ->
bucketed upsert -> exactly-once manifest commit.

The driver loop is the analog of the reference's Kafka tailer
(``GetGeoMesaKafkaRecord.scala:263-304``): instead of consumer threads and
a SynchronousQueue handoff, the driver converts the next uncommitted offset
range of the change log with raw Ray tasks, exchanges and merges it, and
atomically commits ``(epoch, offsets, bucket manifests)``.
Crash before commit => the epoch replays idempotently (deterministic bucket
files at deterministic paths), which upgrades the reference's
at-least-once + content-hash-idempotence into exactly-once.

Pipeline per epoch:

    convert tasks, one per part file (or row-group range of a part over
      64 MB, or block of a ``Dataset`` source)    # html->text kernel,
             schema projection, content-hash, bucket, per-batch partial LWW
      -> bucket exchange (one of two, identical lakes)
      -> bucket merge: one merger call per merge task, all its buckets at
             once (delta write or compaction, through the Sink SPI)
      -> tiny lineage table -> manifest commit on the driver

Exchange strategies (equivalence tested manifest-for-manifest):

- **split** (default): raw tasks over bucket-range groups
  (:func:`run_split_exchange`). The group count G grows with the epoch:
  one task at ≤2×batch rows (the steady-state tail cadence), min(16, P)
  up to 8×batch×P rows, P beyond, so a merge task holds at most about one
  bucket's rows. On a single node each group task slices its range out of
  the shared plasma blocks; on a cluster a split wave first cuts every
  block into G parts;
- **late** (auto for large upsert epochs on a multi-node cluster, or
  ``exchange="late"``): keys-only shuffle -> per-bucket LWW winner
  selection -> node-local payload extraction -> merge; cluster network ∝
  deduped output (:func:`run_late_exchange`).

Steady-state writes are delta segments (winners only, one file per merge
task and epoch, each bucket a row range of it) with compaction at
``max_deltas``; replay converts up to ``lookahead`` groups ahead of the
one being merged and committed (:meth:`CDCEngine._replay_groups`).

Skew: the per-batch partial LWW inside convert collapses hot-url
duplicates before the shuffle (combiner pattern), so a url with 10^6
duplicate events contributes at most one row per input block to the
exchange. Bucket count P (fixed in ``_table.json``) spreads hot host
prefixes across buckets because bucketing hashes the full url.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from geomesa_nifi_ray.hashing import add_hash_and_bucket, digest_of_hashes
from geomesa_nifi_ray.lake import TOMB_COLUMN, LakeTable, delta_ranges
from geomesa_nifi_ray.schema import (
    CompatibilityMode,
    SchemaError,
    merge_schemas,
    project_to_schema,
)
from geomesa_nifi_ray.text import TEXT_KERNEL_VERSION, extract_text_batch
from geomesa_nifi_ray.upsert import lww_dedupe, merge_update, merge_upsert

logger = logging.getLogger(__name__)


def _expand_parquet_paths(paths: list[str]) -> list[str]:
    """Expand directories (epoch dirs of part files) into sorted file lists."""
    import glob as _glob
    import os as _os

    out: list[str] = []
    for p in paths:
        if _os.path.isdir(p):
            out.extend(sorted(_glob.glob(_os.path.join(p, "*.parquet"))))
        else:
            out.append(p)
    if not out:
        raise FileNotFoundError(f"no parquet files under {paths}")
    return out

# columns the engine computes; excluded from the input-vs-stored schema check
COMPUTED_COLUMNS = ("text", "content_hash")

# Per-row write-mode directive — the flow-file-attribute-driven
# append/modify switch of FeatureWriters.DynamicWriters:300-328 at ROW
# granularity: a change row tagged ``_mode='update'`` only updates an
# existing key (unmatched -> counted failed), ``'upsert'``/null follows the
# epoch default. A directive, not data: never stored, never part of the
# schema check.
MODE_COLUMN = "_mode"

# Per-row operation directive — delete events. The reference's upstream
# Kafka model carries GeoMessage.Delete alongside Change
# (GetGeoMesaKafkaRecord.scala:273 collects only Change); real CDC replay
# needs both, so a change row tagged ``_op='delete'`` removes its key,
# ranked against upserts by the same (warc_ts, offset) LWW order — a later
# upsert resurrects the key, a later delete wins over an earlier upsert.
# Delete events carry no payload (html may be null without dead-lettering).
# Steady-state deletes write TOMBSTONE rows into the normal delta segments
# (_tomb=1 marker; see lake.TOMB_COLUMN) — O(changes) IO like any upsert
# delta; chain readers suppress tombstoned keys and compaction folds the
# markers away. Equivalence with the full-merge path is tested
# delta-vs-compaction snapshot-for-snapshot.
OP_COLUMN = "_op"
DIRECTIVE_COLUMNS = (MODE_COLUMN, OP_COLUMN)


def synth_tombstone_events(stored: pa.Schema, key: str, order: list[str],
                           rows: pa.Table) -> pa.Table:
    """Synthesize payload-less ``_op='delete'`` events for winner rows.

    Each event carries the winner's EXACT ``(key, order…)`` values — the
    LWW rules make a delete at the winner's own order win the tie on both
    merge paths (delta: ties go to the change row; compaction: the
    delete's later input position wins) — with every other stored column
    null. The ONE synthesis used by ``delete_keys`` and ``delete_where``
    so stream-borne and maintenance tombstones hash identically."""
    n = rows.num_rows
    cols = {}
    for f in stored:
        if f.name == "content_hash":
            continue
        if f.name == key or f.name in order:
            cols[f.name] = rows[f.name].combine_chunks().cast(f.type)
        else:
            cols[f.name] = pa.nulls(n, f.type)
    t = pa.table(cols)
    return t.append_column(
        OP_COLUMN, pa.nulls(n, pa.string()).fill_null("delete"))

PAGE_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.large_binary()),
        pa.field("text", pa.large_string()),
        pa.field("lang", pa.string()),
        pa.field("content_hash", pa.string()),
        pa.field("offset", pa.int64()),
    ]
)

# Per-row visibility label + user-data JSON (SURVEY §1.1's mapping of
# SimpleFeatureRecordConverter.scala:79-116: the vis field and gson
# user-data map become ordinary columns that ride ingest -> lake -> egress
# unchanged). Tables wanting them are created with this schema; inputs
# missing the columns read back null-filled like any other projection.
VIS_COLUMN = "_vis"
USERDATA_COLUMN = "_userdata"
PAGE_SCHEMA_WITH_METADATA = pa.schema(
    list(PAGE_SCHEMA)
    + [pa.field(VIS_COLUMN, pa.string()), pa.field(USERDATA_COLUMN, pa.string())]
)


@dataclass
class EpochResult:
    epoch: int
    rows_in: int
    rows_applied: int          # change rows surviving dedup + merge input
    rows_failed: int           # dead-lettered (null key/ts/html) + no-match updates
    rows_deleted: int = 0      # keys removed by delete events this epoch
    rows_collapsed: int = 0    # duplicates collapsed by the LWW combiner
    buckets_touched: int = 0
    buckets_carried: int = 0
    table_rows: int = 0
    row_groups_total: int = 0    # chain row groups seen by delta merges
    row_groups_skipped: int = 0  # ... of those, skipped by key min/max stats
    manifest: dict = field(repr=False, default_factory=dict)


def make_convert_fn(stored_schema: pa.Schema, num_buckets: int, key: str,
                    order: list[str], hash_kernel: str = "md5",
                    key_transform: str | None = None):
    """Build the vectorized convert kernel for one epoch.

    Re-expresses the reference's converter chain + schema adapter
    (``ConvertInputProcessor.scala:81-129``, ``AvroToPutGeoMesa.scala:201-222``)
    as a single Arrow batch transform:
      0. canonicalize the key column with the table's stamped
         ``key_transform`` (the converter id-field expression analog,
         ``SimpleFeatureRecordConverter.scala:79-116``) — BEFORE
         validity/LWW/bucketing so every downstream step keys on the
         canonical value,
      1. dead-letter rows with null url/warc_ts/html (bad-record skip,
         ``PutGeoMesaRecord.scala:93-103``),
      2. recompute ``text`` from ``html`` with the versioned pure kernel,
      3. project to the stored schema (drop extras / null-fill / cast),
      4. append ``content_hash`` + ``bucket``,
      5. per-batch partial LWW (combiner before the shuffle).
    """
    pre_hash_schema = pa.schema([f for f in stored_schema if f.name != "content_hash"])
    out_cols = [f.name for f in stored_schema] + ["bucket", "_dead"]
    if key_transform is not None:
        from geomesa_nifi_ray.text import resolve_key_transform

        key_tfn = resolve_key_transform(key_transform)  # once, not per batch
    else:
        key_tfn = None

    def convert(batch: pa.Table) -> pa.Table:
        # payload-less producers (e.g. delete-only streams) may omit
        # contract columns entirely — deletes carry no payload by
        # contract, and merge_schemas already admits missing columns.
        # Normalize to all-null so validity/dead-letter accounting sees
        # the standard shape instead of a KeyError inside the Ray task.
        # ALL order columns must exist too: lww_dedupe reads each of them
        # even for rows that passed the key/ts/html validity check. The
        # validity check below also reads the contract's warc_ts even when
        # a custom order= leaves it out, so normalize it as well.
        for c in dict.fromkeys((key, *order, "warc_ts", "html")):
            if c not in batch.column_names and c in stored_schema.names:
                batch = batch.append_column(
                    c, pa.nulls(batch.num_rows, stored_schema.field(c).type))
        if key_tfn is not None:
            kcol = key_tfn(batch[key])
            batch = batch.set_column(batch.column_names.index(key),
                                     pa.field(key, kcol.type), kcol)
        has_mode = MODE_COLUMN in batch.column_names
        has_op = OP_COLUMN in batch.column_names
        cols = list(out_cols)
        if has_mode:
            cols.append(MODE_COLUMN)
        if has_op:
            cols.append(OP_COLUMN)
        html_ok = pc.is_valid(batch["html"])
        if has_op:
            # delete events are payload-less: key+ts suffice
            html_ok = pc.or_(
                html_ok,
                pc.equal(pc.fill_null(pc.cast(batch[OP_COLUMN], pa.string()), ""),
                         "delete"),
            )
        valid = pc.and_(
            pc.and_(pc.is_valid(batch[key]), pc.is_valid(batch["warc_ts"])),
            html_ok,
        )
        good = batch.filter(valid)
        dead = batch.filter(pc.invert(valid))

        parts = []
        if good.num_rows:
            # Per-batch partial LWW FIRST, on raw rows: winner selection
            # needs only (key, order) columns, and the combiner collapses
            # the bulk of a duplicate-heavy stream (measured ~86% at bench
            # scale) — so the expensive html->text kernel and content hash
            # run ONLY for batch winners. Pure per-row kernels commute with
            # row selection, so output is byte-identical to extract-first.
            good = lww_dedupe(good, key, order)
            text = extract_text_batch(good["html"])
            mode_col = pc.cast(good[MODE_COLUMN], pa.string()) if has_mode else None
            op_col = pc.cast(good[OP_COLUMN], pa.string()) if has_op else None
            if "text" in good.column_names:
                good = good.drop_columns(["text"])
            good = good.append_column("text", text)
            good = project_to_schema(good, pre_hash_schema)
            good = add_hash_and_bucket(good, num_buckets, url_col=key,
                                       kernel=hash_kernel)
            if has_mode:   # directive rides the row; the LWW winner's wins
                good = good.append_column(MODE_COLUMN, mode_col)
            if has_op:
                good = good.append_column(OP_COLUMN, op_col)
            good = good.append_column(
                "_dead", pa.nulls(good.num_rows, pa.int8()).fill_null(0)
            )
            parts.append(good.select(cols))
        if dead.num_rows:
            # dead-letter skeletons ride to their bucket's merge task only to
            # be counted there (exact single-pass failure accounting; the
            # bad-record skip counters of PutGeoMesaRecord.scala:93-103).
            # Payload columns are nulled so they add no shuffle weight.
            import numpy as np

            from geomesa_nifi_ray.hashing import bucket_ids

            urls = dead[key].to_pylist()
            buckets = bucket_ids([u if u is not None else "" for u in urls], num_buckets)
            # key-only skeleton; projection null-fills the payload columns
            # (bucket/_dead would be dropped by it, so append them after)
            skel = pa.table(
                {key: pa.array(urls, type=stored_schema.field(key).type)}
            )
            skel = project_to_schema(skel, stored_schema)
            skel = skel.append_column("bucket", pa.array(buckets, type=pa.int32()))
            skel = skel.append_column("_dead", pa.array(np.ones(len(urls), dtype=np.int8)))
            if has_mode:
                skel = skel.append_column(
                    MODE_COLUMN, pa.nulls(len(urls), type=pa.string())
                )
            if has_op:
                skel = skel.append_column(
                    OP_COLUMN, pa.nulls(len(urls), type=pa.string())
                )
            parts.append(skel.select(cols))
        if not parts:
            out = stored_schema.empty_table()
            out = out.append_column("bucket", pa.array([], type=pa.int32()))
            out = out.append_column("_dead", pa.array([], type=pa.int8()))
            if has_mode:
                out = out.append_column(MODE_COLUMN, pa.array([], type=pa.string()))
            if has_op:
                out = out.append_column(OP_COLUMN, pa.array([], type=pa.string()))
            return out
        return pa.concat_tables(parts)

    return convert


def make_generic_convert_fn(stored_schema: pa.Schema, num_buckets: int, key: str,
                            order: list[str], hash_cols: list[str] | None = None,
                            hash_kernel: str = "md5",
                            key_transform: str | None = None):
    """Payload-agnostic convert kernel for NON-page tables: dead-letter rows
    with null key/order columns, project to the stored schema, content
    hash over ``hash_cols`` (default: key + order; md5 or vectorized xx64
    per ``hash_kernel``), crc32 bucket, per-batch partial LWW, per-row
    ``_mode`` directive passthrough. Lets the same CDC engine (schema
    evolution, delta merges, exactly-once commit) run over any keyed
    table — the engine's converter stage is pluggable via
    ``CDCEngine(convert_fn_factory=...)`` exactly like the reference swaps
    converter configs per processor."""
    from geomesa_nifi_ray.hashing import bucket_ids, content_hash_generic

    hash_cols = list(hash_cols or [key] + order)
    pre_hash_schema = pa.schema([f for f in stored_schema if f.name != "content_hash"])
    out_cols = [f.name for f in stored_schema] + ["bucket", "_dead"]
    if key_transform is not None:
        from geomesa_nifi_ray.text import resolve_key_transform

        key_tfn = resolve_key_transform(key_transform)
    else:
        key_tfn = None

    def convert(batch: pa.Table) -> pa.Table:
        # same missing-column normalization as the page converter: an
        # input omitting key/order columns dead-letters its rows (null
        # never validates) instead of KeyError-ing the Ray task
        for c in (key, *order):
            if c not in batch.column_names:
                batch = batch.append_column(
                    c, pa.nulls(batch.num_rows, stored_schema.field(c).type))
        if key_tfn is not None:
            kcol = key_tfn(batch[key])
            batch = batch.set_column(batch.column_names.index(key),
                                     pa.field(key, kcol.type), kcol)
        has_mode = MODE_COLUMN in batch.column_names
        has_op = OP_COLUMN in batch.column_names
        cols = list(out_cols)
        if has_mode:
            cols.append(MODE_COLUMN)
        if has_op:
            cols.append(OP_COLUMN)
        valid = pc.is_valid(batch[key])
        for c in order:
            valid = pc.and_(valid, pc.is_valid(batch[c]))
        good = batch.filter(valid)
        dead = batch.filter(pc.invert(valid))
        parts = []
        if good.num_rows:
            good = lww_dedupe(good, key, order)   # combiner first: hash winners only
            mode_col = pc.cast(good[MODE_COLUMN], pa.string()) if has_mode else None
            op_col = pc.cast(good[OP_COLUMN], pa.string()) if has_op else None
            good = project_to_schema(good, pre_hash_schema)
            good = good.append_column(
                "content_hash", content_hash_generic(good, hash_cols, hash_kernel)
            )
            keys = [str(k) for k in good[key].to_pylist()]
            good = good.append_column(
                "bucket", pa.array(bucket_ids(keys, num_buckets), type=pa.int32())
            )
            if has_mode:
                good = good.append_column(MODE_COLUMN, mode_col)
            if has_op:
                good = good.append_column(OP_COLUMN, op_col)
            good = good.append_column(
                "_dead", pa.nulls(good.num_rows, pa.int8()).fill_null(0)
            )
            parts.append(good.select(cols))
        if dead.num_rows:
            import numpy as np

            keys = [str(k) if k is not None else "" for k in dead[key].to_pylist()]
            skel = project_to_schema(dead, stored_schema)
            skel = skel.append_column(
                "bucket", pa.array(bucket_ids(keys, num_buckets), type=pa.int32())
            )
            skel = skel.append_column(
                "_dead", pa.array(np.ones(len(keys), dtype=np.int8))
            )
            if has_mode:
                skel = skel.append_column(
                    MODE_COLUMN, pa.nulls(len(keys), type=pa.string())
                )
            if has_op:
                skel = skel.append_column(
                    OP_COLUMN, pa.nulls(len(keys), type=pa.string())
                )
            parts.append(skel.select(cols))
        if not parts:
            out = stored_schema.empty_table()
            out = out.append_column("bucket", pa.array([], type=pa.int32()))
            out = out.append_column("_dead", pa.array([], type=pa.int8()))
            if has_mode:
                out = out.append_column(MODE_COLUMN, pa.array([], type=pa.string()))
            if has_op:
                out = out.append_column(OP_COLUMN, pa.array([], type=pa.string()))
            return out
        return pa.concat_tables(parts)

    return convert


# One lineage row per touched bucket: the manifest entry the merge produced
# (``deltas``/``delta_ranges``/``epoch_file_range`` as JSON), its row
# accounting, and the delta path's chain-read row-group counters (one
# merger call's totals, on its first delta-path bucket).
LINEAGE_SCHEMA = pa.schema([
    pa.field("bucket", pa.int32()),
    pa.field("file", pa.string()),
    pa.field("deltas", pa.string()),
    pa.field("delta_ranges", pa.string()),
    pa.field("epoch_file", pa.string()),
    pa.field("epoch_file_range", pa.string()),
    pa.field("rows", pa.int64()),
    pa.field("rows_changed", pa.int64()),
    pa.field("rows_failed", pa.int64()),
    pa.field("rows_deleted", pa.int64()),
    pa.field("digest", pa.string()),
    pa.field("rg_total", pa.int64()),
    pa.field("rg_skipped", pa.int64()),
])


def _mask(arr) -> np.ndarray:
    """Boolean compute result as a numpy mask, null -> False."""
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False)


def make_bucket_merger(table: LakeTable, epoch: int, live: dict[int, dict],
                       mode: str = "upsert", max_deltas: int = 4, sink=None,
                       sections: dict | None = None):
    """Build one epoch's merge function, ``merger(t) -> lineage``.

    ``t`` holds converted change rows of any number of buckets (its
    ``bucket`` column says which); the result has one
    :data:`LINEAGE_SCHEMA` row per bucket of ``t``, ascending by bucket.
    The split and late exchanges hand each merge task's whole
    multi-bucket table to one call.

    Steady-state upsert buckets take the **delta path**, decided for all
    of them in one vectorized pass: the ``_dead``/``_op``/``_mode``
    filters, projection and LWW run once over the whole input (keys never
    span buckets); all their chains are read in ONE sink call as
    ``(key, order…, _tomb)`` only, each distinct file opened once and
    row-group pruned to the epoch's keys; one ``pc.index_in`` join plus
    one ``lex_ge`` decides which change rows beat their stored winners
    (:func:`~geomesa_nifi_ray.upsert.beats_stored`); the kept rows, sorted
    once by (bucket, key), are written by ONE sink call as one **delta
    segment** per merge task and epoch
    (:meth:`~geomesa_nifi_ray.lake.LakeTable.write_delta_segment`), and
    each bucket's manifest entry appends ``(segment, [lo, hi))`` — its
    row range in the segment — to its chain. IO is O(changes +
    keys·3cols) in one file, not O(bucket) or O(buckets) files, and a
    bucket is never rewritten wholesale (cf. the reference's incremental
    pooled-writer flush, ``FeatureWriters.scala:197-260``). A bucket
    **compacts** instead — full chain merge, key-sorted rewrite of its own
    base file, chain reset — at creation, when its chain reaches
    ``max_deltas``, in partial-update mode, when it holds update-tagged
    ``_mode`` rows, and when it saw only dead rows; the compacting buckets
    of a call read their chains in one sink call too. Snapshot readers
    merge base+deltas per bucket (LWW with position tiebreak), so logical
    state is identical either way.

    The live-entry map (one entry per bucket; can be large at high P) is
    broadcast once via ``ray.put`` rather than captured in the closure,
    and each call fetches it once.

    ``sections``, when given, accumulates the merger's wall seconds per
    section — ``filter``, ``chain_read``, ``decide``, ``write``,
    ``lineage`` — for in-process benches (``tools/merge_kernel_bench.py``).
    """
    import json as _json
    import time

    import numpy as np
    import ray

    from geomesa_nifi_ray.upsert import beats_stored, lww_indices

    if sink is None:
        from geomesa_nifi_ray.sinks import ParquetLakeSink

        sink = ParquetLakeSink(table)
    stored_schema = table.schema
    key, order = table.key, list(table.order)
    min_cols = [key] + order
    live_ref = ray.put(live)

    def _lap(t0: float, name: str) -> float:
        """Add the time since ``t0`` to section ``name``; return now."""
        now = time.perf_counter()
        if sections is not None:
            sections[name] = sections.get(name, 0.0) + (now - t0)
        return now

    def _lineage(bucket, file, chain, epoch_ref, rows, rows_changed,
                 failed, digest, deleted=0, rg_total=0, rg_skipped=0) -> dict:
        """``chain`` is the entry's ``(path, range)`` delta refs, after
        ``file``; ``epoch_ref`` what this epoch wrote, or ``None``."""
        ep, ep_range = epoch_ref or (None, None)
        return {"bucket": int(bucket), "file": file,
                "deltas": _json.dumps([p for p, _ in chain]),
                "delta_ranges": _json.dumps([r for _, r in chain]),
                "epoch_file": ep,
                "epoch_file_range": (None if ep_range is None
                                     else _json.dumps(ep_range)),
                "rows": int(rows), "rows_changed": int(rows_changed),
                "rows_failed": int(failed), "rows_deleted": int(deleted),
                "digest": digest, "rg_total": int(rg_total),
                "rg_skipped": int(rg_skipped)}

    def _delta_merge(t, b, rows, dels, buckets, entries, failed,
                     changed) -> list[dict]:
        """Delta path for ``buckets`` (ascending): ``rows``/``dels`` mask
        the upsert and delete rows of ``t`` that belong to them."""
        t0 = time.perf_counter()

        def winners(mask, tomb: int) -> pa.Table:
            w = project_to_schema(t.filter(pa.array(mask)), stored_schema)
            w = w.append_column("bucket", pa.array(b[mask], type=pa.int32()))
            w = lww_dedupe(w, key, order)
            return w.append_column(
                TOMB_COLUMN, pa.nulls(w.num_rows, pa.int8()).fill_null(tomb))

        # winners + TOMBSTONES in one delta: a delete that beats the stored
        # winner writes a _tomb=1 marker row (key + order + content_hash
        # only) instead of forcing an O(bucket) compaction; chain readers
        # (merge_chain_tables) suppress tombstoned keys. Deletes follow the
        # upserts, so an exact tie goes to the delete.
        combined = winners(rows, 0)
        if dels.any():
            combined = lww_dedupe(
                pa.concat_tables([combined, winners(dels, 1)]), key, order)
        combined = combined.take(pc.sort_indices(
            combined, sort_keys=[("bucket", "ascending"), (key, "ascending")]))
        cb = combined["bucket"].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(cb, buckets, side="left")
        hi = np.searchsorted(cb, buckets, side="right")
        target = pa.schema([combined.schema.field(c) for c in min_cols]
                           + [pa.field(TOMB_COLUMN, pa.int8())])
        t0 = _lap(t0, "decide")
        # one sink call reads every chain, each distinct file once. Bucket
        # files are key-sorted, so row groups whose [min,max] cannot
        # contain any of this epoch's keys are skipped — a small epoch
        # reads O(its key span), not O(touched chain). Pruning only drops
        # rows whose keys the epoch does not touch; those never join
        # against the change rows.
        chains, rg_total, rg_kept = sink.read_chains(
            [LakeTable.chain_refs(e) for e in entries], min_cols, key,
            [combined[key].slice(lo[j], hi[j] - lo[j]).to_pylist()
             for j in range(len(entries))])            # sorted above
        cur_parts = []
        for part in (p for chain in chains for p in chain):
            if TOMB_COLUMN not in part.column_names:
                part = part.append_column(
                    TOMB_COLUMN, pa.nulls(part.num_rows, pa.int8()).fill_null(0))
            # the cast gives every file the change rows' types: a chain
            # file may predate a widening of its column
            cur_parts.append(part.select(target.names).cast(target))
        t0 = _lap(t0, "chain_read")
        # chain order is kept per bucket, so LWW's position tiebreak (a
        # later chain file wins an exact tie) holds across the concat
        cur = pa.concat_tables(cur_parts)
        cur = cur.take(pa.array(np.sort(lww_indices(cur, key, order))))
        pos, wins = beats_stored(combined, cur, key, order)
        have = pos >= 0
        cur_tomb = np.zeros(len(pos), dtype=bool)
        if have.any():
            stored_tomb = pc.fill_null(cur[TOMB_COLUMN], 0).to_numpy(
                zero_copy_only=False) == 1
            cur_tomb = have & stored_tomb[np.where(have, pos, 0)]
        w_tomb = combined[TOMB_COLUMN].to_numpy(zero_copy_only=False) == 1
        # visible-row accounting: a live winner inserts when the key was
        # absent OR tombstoned; a tombstone deletes only a live key;
        # tombstones for absent/already-deleted keys are no-ops (parity
        # with the compaction path) and are not written.
        code = np.searchsorted(buckets, cb)
        nb = len(buckets)
        inserts = np.bincount(code[wins & ~w_tomb & (~have | cur_tomb)],
                              minlength=nb)
        deleted = np.bincount(code[wins & w_tomb & have & ~cur_tomb],
                              minlength=nb)
        keep = wins & (~w_tomb | (have & ~cur_tomb))
        delta_all = combined.filter(pa.array(keep))
        kcb, kept_tomb = cb[keep], w_tomb[keep]
        klo = np.searchsorted(kcb, buckets, side="left")
        khi = np.searchsorted(kcb, buckets, side="right")
        t0 = _lap(t0, "decide")
        hashes = delta_all["content_hash"]
        parts = [(int(buckets[j]), int(klo[j]), int(khi[j]),
                  digest_of_hashes(
                      hashes.slice(klo[j], khi[j] - klo[j]).to_pylist()))
                 for j in range(len(buckets)) if khi[j] > klo[j]]
        written = {}      # bucket -> (its (segment, range) ref, digest)
        if parts:
            seg = delta_all.drop_columns(["bucket"])
            if not kept_tomb.any():
                # no tombstones -> keep the historical delta file schema
                seg = seg.drop_columns([TOMB_COLUMN])
            refs = sink.write_deltas(seg, epoch, parts)
            written = {b: (ref, d) for (b, _, _, d), ref in zip(parts, refs)}
        out = []
        for j, (bucket, entry) in enumerate(zip(buckets, entries)):
            rg = ((rg_total, rg_total - rg_kept) if j == 0 else (0, 0))
            deltas = LakeTable.chain_refs(entry)[1:]
            if int(bucket) not in written:
                # every change lost to the stored winners: chain unchanged
                out.append(_lineage(bucket, entry["file"], deltas, None,
                                    entry["rows"], changed[j], failed[j],
                                    entry["digest"], rg_total=rg[0],
                                    rg_skipped=rg[1]))
                continue
            ref, digest = written[int(bucket)]
            out.append(_lineage(bucket, entry["file"], [*deltas, ref], ref,
                                int(entry["rows"]) + inserts[j] - deleted[j],
                                changed[j], failed[j], digest, deleted[j],
                                rg_total=rg[0], rg_skipped=rg[1]))
        _lap(t0, "write")
        return out

    def _full_merge(bucket, chain, changes, update_part, delete_part, failed,
                    rows_changed, row_modes) -> dict:
        """Compaction path for one bucket (``chain``: its chain's tables,
        ``None`` for a new bucket): full chain merge and rewrite."""
        t0 = time.perf_counter()
        base = None
        if chain is not None:
            base = table.merge_chain(chain, stored_schema)
        if row_modes:
            # upsert-destined rows first, then the update-tagged rows
            # coalesce onto the result (deterministic rule; per-key order
            # within the epoch was already resolved by LWW)
            merged = merge_upsert(base, project_to_schema(changes, stored_schema),
                                  key, order)
            if update_part.num_rows:
                merged, unmatched = merge_update(
                    merged, project_to_schema(update_part, stored_schema),
                    key, order)
                failed += unmatched
            merged = project_to_schema(merged, stored_schema)
        elif mode == "upsert":
            merged = merge_upsert(base, project_to_schema(changes, stored_schema),
                                  key, order)
        else:
            merged, unmatched = merge_update(base, changes, key, order)
            failed += unmatched
            merged = project_to_schema(merged, stored_schema)
        rows_deleted = 0
        if delete_part.num_rows:
            # rank delete events against the surviving winners: concat with
            # an _op tag, per-key LWW under the same total order, and drop
            # keys whose winner is a delete. Absent-key deletes are no-ops
            # (removeFeatures-on-missing-id semantics).
            dels = project_to_schema(delete_part, stored_schema)
            tagged = pa.concat_tables([
                merged.append_column(
                    OP_COLUMN, pa.nulls(merged.num_rows, pa.string()).fill_null("")
                ),
                dels.append_column(
                    OP_COLUMN,
                    pa.nulls(dels.num_rows, pa.string()).fill_null("delete"),
                ),
            ])
            win = lww_dedupe(tagged, key, order)
            kept = win.filter(
                pc.invert(pc.equal(win[OP_COLUMN], "delete"))
            ).drop_columns([OP_COLUMN])
            rows_deleted = merged.num_rows - kept.num_rows
            merged = kept
        if merged.num_rows == 0 and base is None:
            # bucket touched only by dead-letter skeletons / no-op deletes:
            # keep no file, report the failures
            _lap(t0, "decide")
            return _lineage(bucket, None, [], None, 0, rows_changed, failed,
                            "", rows_deleted)
        merged = merged.take(pc.sort_indices(merged, sort_keys=[(key, "ascending")]))
        t0 = _lap(t0, "decide")
        rel = sink.write_partition(merged, bucket, epoch)
        digest = digest_of_hashes(merged["content_hash"].to_pylist())
        _lap(t0, "write")
        return _lineage(bucket, rel, [], (rel, None), merged.num_rows,
                        rows_changed, failed, digest, rows_deleted)

    def merge_buckets(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return LINEAGE_SCHEMA.empty_table()
        t0 = time.perf_counter()
        b = t["bucket"].to_numpy(zero_copy_only=False)
        if (np.diff(b) < 0).any():
            # group each bucket's rows, input order kept within a bucket
            # (LWW breaks exact ties by position)
            idx = np.argsort(b, kind="stable")
            t, b = t.take(pa.array(idx)), b[idx]
        t = t.drop_columns(["bucket"])
        buckets, starts, codes = np.unique(b, return_index=True,
                                           return_inverse=True)
        bounds = np.r_[starts, len(b)]
        n = t.num_rows
        ok = np.ones(n, dtype=bool)
        failed = np.zeros(n, dtype=bool)
        if "_dead" in t.column_names:
            dead = pc.equal(t["_dead"], pa.scalar(1, pa.int8()))
            failed |= _mask(dead)
            ok &= _mask(pc.invert(dead))
            t = t.drop_columns(["_dead"])
        # per-row op directive: delete events rank against the surviving
        # winner by the same (warc_ts, offset) order; unknown ops
        # dead-letter (counted failed), like any bad record
        is_del = np.zeros(n, dtype=bool)
        if OP_COLUMN in t.column_names:
            ocol = pc.fill_null(pc.cast(t[OP_COLUMN], pa.string()), "")
            known = _mask(pc.is_in(ocol, pa.array(["delete", "upsert", ""])))
            failed |= ok & ~known
            ok &= known
            is_del = ok & _mask(pc.equal(ocol, "delete"))
            t = t.drop_columns([OP_COLUMN])
        # per-row mode directive (DynamicWriters at row granularity) on the
        # non-delete rows: explicit 'update'/'upsert' wins, null/'' follows
        # the epoch default; unknown directives dead-letter
        is_upd = np.zeros(n, dtype=bool)
        row_modes = MODE_COLUMN in t.column_names
        if row_modes:
            mcol = pc.fill_null(pc.cast(t[MODE_COLUMN], pa.string()), "")
            dflt = _mask(pc.equal(mcol, ""))
            upd = _mask(pc.equal(mcol, "update"))
            bad = ok & ~is_del & ~_mask(
                pc.is_in(mcol, pa.array(["update", "upsert", ""])))
            failed |= bad
            ok &= ~bad
            if mode == "update":
                upd |= dflt
            is_upd = ok & ~is_del & upd
            t = t.drop_columns([MODE_COLUMN])
        is_ch = ok & ~is_del & ~is_upd

        nb = len(buckets)
        n_failed, n_ch, n_upd, n_del = (np.bincount(codes[m], minlength=nb)
                                        for m in (failed, is_ch, is_upd, is_del))
        changed = n_ch + n_upd + n_del
        live_now = ray.get(live_ref)
        entries = [live_now.get(int(bk)) for bk in buckets]
        use_delta = np.array([
            mode == "upsert" and n_upd[i] == 0 and e is not None
            and changed[i] > 0 and len(e.get("deltas", [])) < max_deltas
            for i, e in enumerate(entries)], dtype=bool)
        _lap(t0, "filter")

        out = []
        if use_delta.any():
            d = np.flatnonzero(use_delta)
            in_delta = use_delta[codes]
            out.extend(_delta_merge(
                t, b, is_ch & in_delta, is_del & in_delta, buckets[d],
                [entries[i] for i in d], n_failed[d], changed[d]))
        # full-merge path: creation, compaction, partial update, and
        # update-tagged per-row modes; the compacting buckets' chains are
        # read in one sink call (a segment they share is read once)
        full = np.flatnonzero(~use_delta)
        t0 = time.perf_counter()
        old = [i for i in full if entries[i] is not None]
        chains = dict(zip(old, sink.read_chains(
            [LakeTable.chain_refs(entries[i]) for i in old])[0])) if old else {}
        _lap(t0, "chain_read")
        for i in full:
            s0, s1 = int(bounds[i]), int(bounds[i + 1])
            part = t.slice(s0, s1 - s0)
            out.append(_full_merge(
                int(buckets[i]), chains.get(i),
                part.filter(pa.array(is_ch[s0:s1])),
                part.filter(pa.array(is_upd[s0:s1])),
                part.filter(pa.array(is_del[s0:s1])),
                int(n_failed[i]), int(changed[i]), row_modes))
        t0 = time.perf_counter()
        out.sort(key=lambda r: r["bucket"])
        lineage = pa.Table.from_pylist(out, schema=LINEAGE_SCHEMA)
        _lap(t0, "lineage")
        return lineage

    return merge_buckets


_TASKS: dict = {}


def _task(fn):
    """Process-wide Ray task for the module-level function ``fn``, defined
    ONCE and cached. Defining a fresh ``@ray.remote`` per call exports a new
    pickled function definition to the cluster each time — a function-table
    entry that is never removed, so a long-running tailer would grow
    cluster metadata without bound. Per-epoch state (the merger, the
    convert fn) rides as a task ARGUMENT instead."""
    t = _TASKS.get(fn)
    if t is None:
        import ray

        t = _TASKS[fn] = ray.remote(fn)
    return t


def _merge_parts(merger, *parts: pa.Table) -> pa.Table:
    """Merge task of the two-wave split and the late exchange: one merger
    call over the concatenation of this task's parts (deterministic part
    order), however many buckets they span.

    The exchange tasks take their input blocks as top-level arguments, so
    Ray starts a task only once its inputs exist. A task that waits in
    ``ray.get`` instead hands its CPU slot to another task, which may
    start an extra worker process; on one CPU, runs that had gained a
    third worker took 2.8-3.7 s per 36k-event catch-up drain instead of
    1.1-1.5 s."""
    tables = [t for t in parts if t.num_rows]
    if not tables:
        return LINEAGE_SCHEMA.empty_table()
    return merger(pa.concat_tables(tables))


def _late_split_keys(block: pa.Table, block_id: int, key: str,
                     order: list[str]) -> pa.Table:
    """Late round 1: the block's bucket-sorted KEY table."""
    import numpy as np

    kt = block.select([key] + order + ["bucket", "_dead"])
    kt = kt.append_column(
        "_block", pa.array(np.full(block.num_rows, block_id, dtype=np.int32)))
    kt = kt.append_column(
        "_row", pa.array(np.arange(block.num_rows, dtype=np.int32)))
    buckets = kt["bucket"].to_numpy(zero_copy_only=False)
    return kt.take(pa.array(np.argsort(buckets, kind="stable")))


def _late_select_winners(bucket: int, key: str, order: list[str],
                         *key_tables: pa.Table) -> pa.Table | None:
    """Late round 2: keys-only LWW for one bucket -> winning
    ``(_block, _row, bucket)`` ids (dead skeletons ride along to be
    counted by the merge)."""
    import numpy as np

    from geomesa_nifi_ray.upsert import lww_indices

    parts = []
    for p in key_tables:
        bl = p["bucket"].to_numpy(zero_copy_only=False)
        lo = int(np.searchsorted(bl, bucket, side="left"))
        hi = int(np.searchsorted(bl, bucket, side="right"))
        if hi > lo:
            parts.append(p.slice(lo, hi - lo))
    if not parts:
        return None
    kt = pa.concat_tables(parts)
    dead_mask = pc.equal(kt["_dead"], pa.scalar(1, pa.int8()))
    good = kt.filter(pc.invert(dead_mask))
    dead = kt.filter(dead_mask)
    wanted = []
    if good.num_rows:
        win = lww_indices(good, key, order)
        wanted.append(good.take(pa.array(np.sort(win))))
    if dead.num_rows:
        wanted.append(dead)
    sel = pa.concat_tables(wanted).select(["_block", "_row"])
    return sel.append_column(
        "bucket", pa.array(np.full(sel.num_rows, bucket, dtype=np.int32)))


def _late_extract_block(block: pa.Table, block_id: int, groups: int,
                        num_buckets: int, *winners: pa.Table | None):
    """Late round 3a, node-local: take this block's winning rows (across
    all buckets) in one pass, sorted by (bucket, _row), and pre-split them
    into ``groups`` bucket-range parts for targeted fetch."""
    import numpy as np

    picks = []
    for w in winners:
        if w is None:
            continue
        m = w["_block"].to_numpy(zero_copy_only=False) == block_id
        if m.any():
            picks.append(pa.table({"_row": w["_row"].filter(pa.array(m)),
                                   "b": w["bucket"].filter(pa.array(m))}))
    if not picks:
        empty = block.schema.empty_table()
        return tuple([empty] * groups) if groups > 1 else empty
    sel = pa.concat_tables(picks)
    rows = sel["_row"].to_numpy(zero_copy_only=False)
    bks = sel["b"].to_numpy(zero_copy_only=False)
    o = np.lexsort((rows, bks))
    extracted = block.take(pa.array(rows[o]))
    if groups == 1:
        return extracted
    gs = (bks[o].astype(np.int64) * groups) // num_buckets
    outs = []
    for gi in range(groups):
        lo = int(np.searchsorted(gs, gi, side="left"))
        hi = int(np.searchsorted(gs, gi, side="right"))
        outs.append(extracted.slice(lo, hi - lo))
    return tuple(outs)


def run_late_exchange(refs: list, merge_bucket, key: str, order: list[str],
                      num_buckets: int) -> list[dict]:
    """Late-materialized keyed exchange (the 100 TB shuffle design) over
    the converted block refs of one epoch.

    A payload exchange ships every change row's full payload (html!)
    across the cluster; but LWW only needs the *keys* to pick winners. Three
    rounds, each moving the minimum possible bytes:

      1. **split** — one task per converted block emits a bucket-sorted KEY
         table ``(key, order…, bucket, _dead, _block, _row)``: ~40 B/row
         instead of ~2 KB. (One return object per block: per-bucket
         multi-returns push blocks×P objects through the driver's result
         path, which serializes the exchange.)
      2. **select** — one task per bucket concatenates its key slices
         (deterministic block order) and runs LWW; returns just the winning
         ``(_block, _row, bucket)`` ids. Only keys ever cross nodes here.
      3. **extract + merge** — one task per BLOCK takes its own winners out
         (runs node-local: Ray schedules it where the block lives, so the
         payload never moves whole) and pre-splits them into EG bucket-range
         parts; one task per bucket-range group concatenates its parts
         (tiny) and makes one batched merger call over all its buckets.

    Cluster network traffic = O(keys) + O(winner payloads) — proportional
    to the deduped output, not the input. (An earlier 2-round version had
    bucket tasks ray.get whole blocks, which on a multi-node cluster pulls
    every block to every node — input × nodes; the extract round is what
    makes the design real.) Determinism and idempotence: winner selection
    is a pure function of the deterministic block list, and writes stay
    deterministic tmp+rename.
    """
    import ray

    order = list(order)
    slices = [_task(_late_split_keys).remote(r, i, key, order)
              for i, r in enumerate(refs)]
    winner_ids = [_task(_late_select_winners).remote(b, key, order, *slices)
                  for b in range(num_buckets)]

    # Bucket-range pre-split of the extract outputs: each block's winner
    # payloads come back as EG parts (one per bucket-range group), so a
    # merge task pulls only its group's parts — per-NODE network is
    # O(winner bytes), not O(winner bytes x nodes) (without the split,
    # every node hosting merges pulls every extract object once).
    EG = max(1, min(16, num_buckets))
    extract = _task(_late_extract_block)
    extracts = [
        extract.options(num_returns=EG).remote(r, i, EG, num_buckets, *winner_ids)
        if EG > 1 else [extract.remote(r, i, EG, num_buckets, *winner_ids)]
        for i, r in enumerate(refs)
    ]
    merger_ref = ray.put(merge_bucket)
    per_group = [
        _task(_merge_parts).remote(merger_ref, *[parts[gi] for parts in extracts])
        for gi in range(EG)
    ]
    out = []
    for r in ray.get(per_group):
        out.extend(r.to_pylist())

    if os.environ.get("GRAFT_EXCHANGE_STATS"):
        # Byte/locality accounting for the multi-node rehearsal
        # (tools/multinode_rehearsal.py): object sizes + placement from the
        # object directory — payload blocks vs what each round actually
        # shipped, and whether extract outputs were created on the node
        # that owns their block (the node-locality claim).
        from ray.experimental import get_object_locations

        def _tot(refs):
            locs = get_object_locations(list(refs))
            return (sum((l.get("object_size") or 0) for l in locs.values()), locs)

        payload_b, payload_locs = _tot(refs)
        keys_b, _ = _tot(slices)
        winners_b, _ = _tot([w for w in winner_ids])
        flat_extracts = [p for parts in extracts for p in parts]
        extract_b, extract_locs = _tot(flat_extracts)
        colocated = total_pairs = 0
        for blk_ref, part_refs in zip(refs, extracts):
            bn = payload_locs.get(blk_ref, {}).get("node_ids") or []
            en = extract_locs.get(part_refs[0], {}).get("node_ids") or []
            if bn and en:
                total_pairs += 1
                if set(bn) & set(en):
                    colocated += 1
        global LAST_EXCHANGE_STATS
        LAST_EXCHANGE_STATS = {
            "payload_bytes": int(payload_b),
            "key_bytes": int(keys_b),
            "winner_id_bytes": int(winners_b),
            "extract_bytes": int(extract_b),
            "extract_colocated": colocated,
            "extract_pairs": total_pairs,
        }
    return out


LAST_EXCHANGE_STATS: dict | None = None


def _alive_node_count() -> int:
    """Alive Ray nodes, for exchange auto-selection (1 when Ray is not
    initialised — standalone library use stays single-node-shaped)."""
    import ray

    try:
        if not ray.is_initialized():
            return 1
        return len([n for n in ray.nodes() if n.get("Alive")])
    except Exception:
        return 1


# a part file above this size converts as several tasks, one per range of
# its row groups, so one oversized part does not serialize an epoch
_TASK_CONVERT_MAX_PART_BYTES = 64 << 20


def _convert_units(files: list[str]) -> list[tuple[str, list[int] | None]]:
    """``(path, row_groups)`` per convert task: a part file over
    ``_TASK_CONVERT_MAX_PART_BYTES`` with more than one row group is cut
    into contiguous row-group ranges of about that size; every other file
    (and a path that is not local) is one task reading the whole file."""
    units: list[tuple[str, list[int] | None]] = []
    for f in files:
        try:
            size = os.path.getsize(f)
        except OSError:
            size = 0
        if size > _TASK_CONVERT_MAX_PART_BYTES:
            n_rg = pq.ParquetFile(f).num_row_groups
            k = min(n_rg, -(-size // _TASK_CONVERT_MAX_PART_BYTES))
            if k > 1:
                cuts = [n_rg * i // k for i in range(k + 1)]
                units.extend((f, list(range(cuts[i], cuts[i + 1])))
                             for i in range(k))
                continue
        units.append((f, None))
    return units


@dataclass
class _ReplayGroup:
    """Consecutive pending epochs applied as one commit: a catch-up batch
    or a single epoch. ``files`` is ``None`` for epochs read from a
    Source; ``plan`` is what the schema timeline plans the group from (its
    input schema, or a part path whose footer is read on demand; ``None``
    when it cannot be planned)."""

    epochs: list[dict]
    mode: str
    files: list[str] | None
    plan: pa.Schema | str | None


class _SchemaTimeline:
    """Lazily-extended stored-schema timeline over a replay's per-epoch
    (or per-group) input schemas — the same deterministic merge rule
    ``apply_epoch`` applies, precomputed just far enough ahead to
    pre-convert. Entries may be ``pa.Schema`` (already read) or a parquet
    path whose footer is read ON DEMAND, so a missing/corrupt later file
    costs nothing until its turn. Planning STOPS at the first entry that
    fails to read or merge: ``schema_after`` returns ``None`` for it and
    everything beyond, so callers apply those entries WITHOUT
    pre-conversion and the real error (SchemaError, missing file, corrupt
    footer) surfaces from that entry's own ``apply_epoch`` — with every
    earlier entry already committed, as if the entries were applied one by
    one (an eager up-front timeline would abort the whole drain with zero
    progress). A ``None`` entry cannot be planned. If an unplanned entry
    then applies SUCCESSFULLY anyway (file rewritten between planning and
    apply — rewrite retries are
    supported), ``mark_applied`` adopts the actual stored schema as that
    entry and resumes planning, so one transient hiccup cannot silently
    degrade the whole remaining drain to the unprefetched path."""

    def __init__(self, stored: pa.Schema, compatibility, incoming: list):
        self._stored = stored
        self._compat = compatibility
        self._incoming = incoming
        self._schemas: list[pa.Schema] = []
        self._failed = False

    def schema_after(self, j: int) -> pa.Schema | None:
        while len(self._schemas) <= j:
            if self._failed or len(self._schemas) >= len(self._incoming):
                return None
            src = self._incoming[len(self._schemas)]
            try:
                inc = src if isinstance(src, pa.Schema) else pq.read_schema(src)
                mr = merge_schemas(
                    self._stored, inc, self._compat,
                    ignore=COMPUTED_COLUMNS + DIRECTIVE_COLUMNS)
            except Exception:
                # read failure (missing/truncated/corrupt footer) and
                # merge failure (SchemaError) stop planning identically:
                # the entry's own apply_epoch raises the real error
                self._failed = True
                return None
            self._stored = mr.schema
            self._schemas.append(mr.schema)
        return self._schemas[j]

    def mark_applied(self, j: int, stored: pa.Schema) -> None:
        """Entry ``j`` committed via its own apply_epoch: if planning had
        stopped exactly there, adopt the actual post-apply stored schema
        as its timeline entry and clear the failure so later entries plan
        (and pre-convert) again. No-op when ``j`` was planned normally."""
        if len(self._schemas) == j:
            self._stored = stored
            self._schemas.append(stored)
            self._failed = False


def _convert_file(src, convert_fn, batch_size: int,
                  row_groups: list[int] | None = None) -> pa.Table:
    """One raw conversion task: read one binlog part file (``src`` a path;
    only ``row_groups`` of it when given), or take one block of a
    ``Dataset`` source (``src`` a table); run the convert fn per
    ``batch_size`` slice of each chunk (winners are re-reduced per bucket
    later, so slice boundaries never change the final merge) and return
    one block. A row-group range reads through the dataset scanner, as
    ``pq.read_table`` does, so its chunks, and therefore its slices, are
    the ones the whole-file read would give."""
    if isinstance(src, pa.Table):
        t = src
    elif row_groups is None:
        t = pq.read_table(src)
    else:
        import pyarrow.dataset as pads

        frag = next(pads.dataset(src, format="parquet").get_fragments())
        t = frag.subset(row_group_ids=row_groups).to_table()
    outs = [
        convert_fn(pa.Table.from_batches([b]))
        for b in t.to_batches(max_chunksize=batch_size)
    ]
    return pa.concat_tables(outs) if outs else convert_fn(t.slice(0, 0))


def _merge_group_direct(merger, gi: int, groups: int, num_buckets: int,
                        *blocks: pa.Table) -> pa.Table:
    """Single-node split exchange: slice group ``gi``'s bucket range out of
    every shared plasma block and merge it in one call (with one group,
    the blocks as they are)."""
    import numpy as np

    parts = []
    for blk in blocks:
        if blk.num_rows == 0:
            continue
        if groups == 1:
            parts.append(blk)
            continue
        b = blk["bucket"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = (b * groups) // num_buckets == gi
        if m.any():
            parts.append(blk.filter(pa.array(m)))
    if not parts:
        return LINEAGE_SCHEMA.empty_table()
    return merger(pa.concat_tables(parts))


def _split_block(block: pa.Table, groups: int, num_buckets: int):
    """Two-wave split exchange, wave 1: one block -> ``groups``
    bucket-range parts."""
    import numpy as np

    b = block["bucket"].to_numpy(zero_copy_only=False).astype(np.int64)
    g = (b * groups) // num_buckets
    idx = np.argsort(g, kind="stable")
    sb = block.take(pa.array(idx))
    gs = g[idx]
    outs = []
    for gi in range(groups):
        lo = int(np.searchsorted(gs, gi, side="left"))
        hi = int(np.searchsorted(gs, gi, side="right"))
        outs.append(sb.slice(lo, hi - lo))
    return tuple(outs)


def _split_groups(rows_in: int, batch_size: int, num_buckets: int) -> int:
    """Merge-task count G of the split exchange for an epoch of
    ``rows_in`` rows: one task up to 2×batch rows, min(16, P) up to
    8×batch×P rows, P beyond — there a merge task holds about one
    bucket's rows, however large the epoch."""
    if rows_in <= 2 * batch_size:
        return 1
    if rows_in <= 8 * batch_size * num_buckets:
        return min(16, num_buckets)
    return num_buckets


def run_split_exchange(refs: list, merge_bucket, num_buckets: int,
                       num_groups: int) -> list[dict]:
    """Bucket-range hash exchange over the converted block refs of one
    epoch: ``num_groups`` merge tasks, each handing every row of its
    bucket range to ONE merger call (see :func:`make_bucket_merger`).

    On one node (and always with one group) each merge task takes every
    block as an argument and slices its own range out of the shared plasma
    blocks — no intermediate objects; one group skips even the slicing,
    so the single-node lookup is not paid either. On a cluster that would
    pull every block to every group (input x G network), so a first wave
    of one task per block splits it into G parts (blocks x G small
    objects) and each merge task fetches only its own parts. Results are
    identical: LWW inside the merger is a pure function of the row
    multiset. The tasks are module-level (:func:`_task`); the merger rides
    as an argument.
    """
    import ray

    G = max(1, min(num_groups, num_buckets))
    merger_ref = ray.put(merge_bucket)
    if G == 1 or _alive_node_count() <= 1:
        results = ray.get([
            _task(_merge_group_direct).remote(merger_ref, gi, G, num_buckets,
                                              *refs)
            for gi in range(G)])
    else:
        split = _task(_split_block).options(num_returns=G)
        parts = [split.remote(r, G, num_buckets) for r in refs]
        results = ray.get([
            _task(_merge_parts).remote(merger_ref, *[p[gi] for p in parts])
            for gi in range(G)])
    out = []
    for r in results:
        out.extend(r.to_pylist())
    return out


class CDCEngine:
    """Driver-side orchestration: schema registry, epoch cursor, lineage.

    The NiFi scheduler + controller-service analog (SURVEY.md §7.3 "driver
    state"). Holds no Ray session: callers own ``ray.init``.
    """

    def __init__(
        self,
        lake_root: str,
        table_name: str = "pages",
        num_buckets: int = 64,
        compatibility: CompatibilityMode = CompatibilityMode.EXISTING,
        schema: pa.Schema = PAGE_SCHEMA,
        max_deltas: int = 4,
        sink_factory=None,
        convert_fn_factory=None,
        key: str = "url",
        order: tuple[str, ...] = ("warc_ts", "offset"),
        content_hash_kernel: str = "md5",
        lake_fs=None,
        row_group_rows: int | None = None,
        key_transform: str | None = None,
    ):
        """``sink_factory(table: LakeTable) -> Sink`` plugs an alternate
        data-plane backend (the DataStoreService SPI analog); default is the
        bucketed Parquet lake. The metadata plane (schema, commit log,
        cursor) always lives in the LakeTable. ``lake_fs`` (a
        :class:`~geomesa_nifi_ray.lake.LakeFS`) puts the lake on any
        ``pyarrow.fs`` backend; default is local disk with tmp+rename."""
        self.lake_root = lake_root
        self.table_name = table_name
        self.compatibility = compatibility
        self.max_deltas = max_deltas
        self.convert_fn_factory = convert_fn_factory or make_convert_fn
        if LakeTable.exists(lake_root, table_name, fs=lake_fs):
            self.table = LakeTable.load(lake_root, table_name, fs=lake_fs)
            # writer context: upgrade a legacy utf8-only xx64 fingerprint
            # stamp to the two-part probe (load() itself is read-only)
            self.table.upgrade_fingerprint_if_legacy()
            if (key_transform is not None
                    and key_transform != self.table.key_transform):
                # the stamp is table identity: keys already in the lake were
                # canonicalized (or not) with it — a different transform
                # would silently split/merge key groups
                raise ValueError(
                    f"table {table_name!r} was created with key_transform="
                    f"{self.table.key_transform!r}; cannot open it with "
                    f"{key_transform!r}")
        else:
            self.table = LakeTable.create(lake_root, table_name, schema, num_buckets,
                                          key=key, order=order,
                                          content_hash_kernel=content_hash_kernel,
                                          fs=lake_fs,
                                          row_group_rows=row_group_rows,
                                          key_transform=key_transform)
        if sink_factory is None:
            from geomesa_nifi_ray.sinks import ParquetLakeSink

            self.sink = ParquetLakeSink(self.table)
        else:
            self.sink = sink_factory(self.table)
        try:
            # Ray Data's per-operator resource reservation starves a deep
            # pipeline when CPU slots are scarce: measured 214 s -> 56 s for
            # a 10M-event replay through a five-operator Dataset pipeline at
            # num_cpus=8 (43% -> ~90% slot utilization) by letting operators
            # share slots greedily. The engine's remaining Dataset pipelines
            # (snapshot scans, rewrites, derived views) keep the setting.
            # Backpressure still applies (object-store limits).
            from ray.data import DataContext

            DataContext.get_current().op_resource_reservation_enabled = False
        except Exception:  # pragma: no cover - ray absent in pure-unit tests
            pass
        from geomesa_nifi_ray.metrics import EpochCounters

        self._counters = EpochCounters(table_name)
        # which exchange the previous apply_epoch ran ("split" | "late");
        # observability + tests
        self.last_exchange_strategy: str | None = None
        # mixed-kernel gate runs once per engine instance (see apply_epoch)
        self._kernel_checked = False

    def _factory_accepts(self) -> tuple[bool, bool]:
        """(accepts hash_kernel, accepts key_transform) of the configured
        ``convert_fn_factory`` by signature inspection (not try/except, so
        a genuine TypeError inside a factory is never silently retried).
        Transform acceptance must be EXPLICIT (named parameter): a
        **kwargs factory could swallow the argument while ignoring it,
        silently ingesting raw keys into a canonical-key lake."""
        import inspect

        try:
            params = inspect.signature(self.convert_fn_factory).parameters
            has_kwargs = any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
            )
            return ("hash_kernel" in params or has_kwargs,
                    "key_transform" in params)
        except (TypeError, ValueError):  # builtins / odd callables
            return (False, False)

    def _make_convert(self, stored_schema: pa.Schema):
        """Instantiate the converter, passing the table's hash kernel /
        key transform when the factory accepts them (custom 4-arg
        factories keep working)."""
        accepts_kernel, accepts_transform = self._factory_accepts()
        kw = {}
        if accepts_kernel:
            kw["hash_kernel"] = self.table.content_hash_kernel
        if accepts_transform:
            kw["key_transform"] = self.table.key_transform
        elif self.table.key_transform is not None:
            # a lake stamped with a transform MUST canonicalize at convert;
            # a custom factory that can't take it would silently ingest raw
            # keys and split LWW groups
            raise ValueError(
                "table has key_transform="
                f"{self.table.key_transform!r} but convert_fn_factory "
                f"{self.convert_fn_factory!r} does not declare a "
                "key_transform parameter (a NAMED parameter is required; "
                "**kwargs does not count — the factory must provably "
                "canonicalize keys)")
        return self.convert_fn_factory(
            stored_schema, self.table.num_buckets, self.table.key,
            self.table.order, **kw,
        )

    def _submit_convert(self, stored_schema: pa.Schema, batch_size: int,
                        units: list) -> list:
        """One :func:`_convert_file` task per ``(source, row_groups)``
        unit, all sharing one put of the converter; returns the block
        refs."""
        import ray

        conv_ref = ray.put(self._make_convert(stored_schema))
        convert = _task(_convert_file)
        return [convert.remote(src, conv_ref, batch_size, rgs)
                for src, rgs in units]

    # -- epoch application --------------------------------------------------

    def apply_epoch(
        self,
        source,
        epoch: int,
        offset_range: tuple[int, int] | None = None,
        mode: str = "upsert",
        batch_size: int = 8192,
        epochs_covered: tuple[int, int] | None = None,
        exchange: str | None = None,
        rows_hint: int | None = None,
        _converted: list | None = None,
    ) -> EpochResult | None:
        """Apply one epoch of change events. ``source`` is a parquet path
        (str or list) or a ``ray.data.Dataset``. Idempotent: an epoch at or
        below the committed cursor is skipped.

        Every source becomes one list of converted block refs before the
        exchange: part files convert in raw tasks (:func:`_convert_file`,
        one per file or row-group range), a ``Dataset`` is materialized
        once and its blocks go through the same task. ``_converted`` hands
        in the refs a replay driver already converted with the same stored
        schema. ``exchange`` is ``None`` (auto), ``"split"`` or
        ``"late"``."""
        # explicit exchange requests are honored or rejected, never
        # silently downgraded (a caller benchmarking the multi-node path
        # must not unknowingly measure another exchange)
        if exchange not in (None, "late", "split"):
            raise ValueError(f"unknown exchange {exchange!r}; "
                             "one of 'late', 'split'")
        if exchange == "late" and mode != "upsert":
            raise ValueError(
                "exchange='late' requires mode='upsert': update merges "
                "need every change row, not just per-key winners")

        committed = self.table.committed_epoch()
        if committed is not None and epoch <= committed:
            logger.info("epoch %d already committed; skipping", epoch)
            return None
        if committed is not None and not self._kernel_checked:
            # Mixed-kernel lakes are rejected: the extracted `text` column
            # is defined by the versioned kernel, so appending epochs under
            # a DIFFERENT kernel version silently mixes two text
            # definitions in one table. Scope: only tables whose convert
            # actually derives kernel columns (html -> text); generic
            # tables (keyed views, kv tables) stamp the version for
            # provenance but have nothing kernel-derived to mix. A clear
            # epoch empties the table, so a clear tip is never mixed —
            # truncate IS the sanctioned migration (with full rebuild /
            # re-extracting rewrite_epoch). Checked once per engine
            # instance: after the first gate this process only ever stamps
            # its own TEXT_KERNEL_VERSION, so re-reading the tip manifest
            # per epoch would buy nothing and cost a JSON GET per epoch on
            # an object-store lake. (Implementation choice — per-row loop
            # vs Arrow-RE2 vectorized — is byte-identical, one version.)
            kernel_sensitive = {"html", "text"} <= set(self.table.schema.names)
            if kernel_sensitive:
                # head-only: the gate reads kernel_version/mode, never the
                # bucket map — no shard reassembly on sharded manifests
                tip = self.table.manifest_head(committed)
                prev_kernel = tip.get("kernel_version")
                if (tip.get("mode") != "clear" and prev_kernel is not None
                        and prev_kernel != TEXT_KERNEL_VERSION):
                    raise SchemaError(
                        f"text kernel changed ({prev_kernel} -> "
                        f"{TEXT_KERNEL_VERSION}); refusing to append to a "
                        "mixed-kernel lake — truncate or rebuild the table"
                    )
            self._kernel_checked = True
        expected = 0 if committed is None else committed + 1
        first_epoch = epochs_covered[0] if epochs_covered else epoch
        if first_epoch != expected:
            raise SchemaError(f"epoch {first_epoch} out of order; next expected {expected}")

        # every source becomes convert units — (part file, row groups) or
        # (block, None) — plus the part files whose footers are unread
        if isinstance(source, (str, list)):
            paths = [source] if isinstance(source, str) else list(source)
            files = _expand_parquet_paths(paths)
            incoming_schema = pq.read_schema(files[0])
            # footer scan is ~5 ms/file — at steady-state commit cadence the
            # descriptor's row count (binlog meta) skips ~0.4 s/epoch
            rows_in = rows_hint if rows_hint is not None else sum(
                pq.ParquetFile(p).metadata.num_rows for p in files
            )
            units, unread_parts = _convert_units(files), files[1:]
        else:
            ds = source.materialize()   # one execution: count + blocks
            incoming_schema = pa.schema(ds.schema().base_schema)
            rows_in = rows_hint if rows_hint is not None else ds.count()
            units, unread_parts = [(b, None) for b in ds.to_arrow_refs()], []

        # Late is explicit opt-in OR the auto-default for large upsert
        # epochs on a multi-node cluster, where a payload exchange would
        # ship every change row's html across the network. The node count
        # is probed only in the large band: small epochs (every tail
        # commit) never pay the ray.nodes() GCS round trip.
        num_buckets = self.table.num_buckets
        want_late = exchange == "late" or (
            exchange is None and mode == "upsert"
            and rows_in > 8 * batch_size * num_buckets
            and _alive_node_count() > 1)
        # per-row _mode directives are incompatible with the late
        # exchange's keys-only winner collapse: an older upsert row under
        # a newer update row for the same key would be dropped before the
        # merge ever sees it (split delivers BOTH rows to the merger, which
        # inserts then coalesces). Parts convert file-by-file with their
        # own columns, so a _mode column in ANY part vetoes late; the extra
        # footer reads are paid only when late could run. Checked BEFORE
        # schema reconciliation: a refused epoch must not evolve the
        # stored schema as a side effect.
        row_modes = MODE_COLUMN in incoming_schema.names
        if want_late and not row_modes:
            row_modes = any(
                MODE_COLUMN in pq.read_schema(p).names for p in unread_parts)
        if exchange == "late" and row_modes:
            raise ValueError(
                "exchange='late' cannot honor per-row _mode directives; "
                "use the split exchange for _mode-carrying epochs")

        # schema reconciliation, once per epoch on the driver (§1.3)
        merge = merge_schemas(
            self.table.schema, incoming_schema, self.compatibility, ignore=COMPUTED_COLUMNS + DIRECTIVE_COLUMNS
        )
        if merge.evolved:
            self.table.set_schema(merge.schema)
            logger.info("schema evolved: +%s", merge.added_columns)
        for w in merge.warnings:
            logger.warning("%s", w)
        stored_schema = self.table.schema

        live = self.table.live_entries()
        merger = make_bucket_merger(self.table, epoch, live, mode=mode,
                                    max_deltas=self.max_deltas, sink=self.sink)

        refs = (_converted if _converted is not None else
                self._submit_convert(stored_schema, batch_size, units))

        if want_late and not row_modes:
            self.last_exchange_strategy = "late"
            lineage = run_late_exchange(refs, merger, self.table.key,
                                        self.table.order, num_buckets)
        else:
            self.last_exchange_strategy = "split"
            lineage = run_split_exchange(
                refs, merger, num_buckets,
                _split_groups(rows_in, batch_size, num_buckets))

        return self._commit_lineage(epoch, live, lineage, rows_in, mode,
                                    offset_range, epochs_covered)

    def _commit_lineage(self, epoch: int, live: dict[int, dict],
                        lineage: list[dict], rows_in: int, mode: str,
                        offset_range: tuple[int, int] | None,
                        epochs_covered: tuple[int, int] | None,
                        ) -> EpochResult:
        """Commit one epoch from its merge lineage (one row per touched
        bucket, :data:`LINEAGE_SCHEMA`): touched buckets take their new
        entries, untouched live buckets are carried forward."""
        import json as _json

        touched = {r["bucket"]: r for r in lineage}
        buckets: dict[str, dict] = {}
        for b, r in touched.items():
            if r["file"] is None:
                continue  # bucket saw only dead-letter rows; counted below
            buckets[str(b)] = {
                "file": r["file"],
                "deltas": _json.loads(r["deltas"]),
                "delta_ranges": _json.loads(r["delta_ranges"]),
                "epoch_file": r["epoch_file"],
                "epoch_file_range": (None if r["epoch_file_range"] is None
                                     else _json.loads(r["epoch_file_range"])),
                "rows": int(r["rows"]),
                "rows_changed": int(r["rows_changed"]),
                "digest": r["digest"],
            }
        carried = 0
        for b, entry in live.items():
            if str(b) not in buckets:
                buckets[str(b)] = {
                    "file": entry["file"],
                    "deltas": entry.get("deltas", []),
                    "delta_ranges": delta_ranges(entry),
                    "epoch_file": None,
                    "epoch_file_range": None,
                    "rows": int(entry["rows"]),
                    "rows_changed": 0,
                    "digest": entry["digest"],
                }
                carried += 1

        # rows_applied: change rows reaching the merge (post partial-LWW);
        # rows_failed: dead-lettered rows (+ unmatched partial updates) —
        # duplicates collapsed by LWW are neither (rows_collapsed)
        rows_applied = sum(int(r["rows_changed"]) for r in touched.values())
        rows_failed = sum(int(r["rows_failed"]) for r in touched.values())
        rows_deleted = sum(int(r["rows_deleted"]) for r in touched.values())
        rg_total = sum(int(r["rg_total"]) for r in touched.values())
        rg_skipped = sum(int(r["rg_skipped"]) for r in touched.values())
        rows_collapsed = max(0, rows_in - rows_applied - rows_failed)
        if offset_range is None:
            offset_range = (-1, -1)
        manifest = {
            "epoch": epoch,
            "epochs_covered": list(epochs_covered) if epochs_covered else [epoch, epoch],
            "table": self.table_name,
            "offset_min": int(offset_range[0]),
            "offset_max": int(offset_range[1]),
            "rows_in": int(rows_in),
            "rows_applied": int(rows_applied),
            "rows_failed": int(rows_failed),
            "rows_deleted": int(rows_deleted),
            "rows_collapsed": int(rows_collapsed),
            "mode": mode,
            "schema_version": self.table.meta["schema_version"],
            "schema_fingerprint": self.table.schema_fingerprint(),
            "kernel_version": TEXT_KERNEL_VERSION,
            "buckets": buckets,
        }
        self.sink.commit(manifest)
        self._counters.record(rows_applied, rows_failed)
        return EpochResult(
            epoch=epoch,
            rows_in=rows_in,
            rows_applied=rows_applied,
            rows_failed=rows_failed,
            rows_deleted=rows_deleted,
            rows_collapsed=rows_collapsed,
            buckets_touched=len(touched),
            buckets_carried=carried,
            table_rows=sum(int(e["rows"]) for e in buckets.values()),
            row_groups_total=rg_total,
            row_groups_skipped=rg_skipped,
            manifest=manifest,
        )

    def truncate(self, epoch: int | None = None) -> EpochResult | None:
        """Whole-table clear as an exactly-once epoch — the GeoMessage.Clear
        analog of the reference's upstream Kafka model (the companion to
        ``_op='delete'``). Commits a manifest referencing NO bucket files:
        readers resolve through manifests only, so the table is empty from
        this epoch on while pre-clear epochs remain time-travel-readable
        until vacuumed. No data file is touched or deleted here (vacuum
        reclaims them by the normal retention rule)."""
        committed = self.table.committed_epoch()
        if epoch is None:
            epoch = 0 if committed is None else committed + 1
        if committed is not None and epoch <= committed:
            logger.info("epoch %d already committed; skipping truncate", epoch)
            return None
        manifest = {
            "epoch": int(epoch),
            "epochs_covered": [int(epoch), int(epoch)],
            "table": self.table_name,
            "offset_min": -1,
            "offset_max": -1,
            "rows_in": 0,
            "rows_applied": 0,
            "rows_failed": 0,
            "rows_deleted": sum(
                int(e["rows"]) for e in self.table.live_entries().values()
            ),
            "rows_collapsed": 0,
            "mode": "clear",
            "schema_version": self.table.meta["schema_version"],
            "schema_fingerprint": self.table.schema_fingerprint(),
            "kernel_version": TEXT_KERNEL_VERSION,
            "buckets": {},
        }
        self.sink.commit(manifest)
        return EpochResult(
            epoch=int(epoch), rows_in=0, rows_applied=0, rows_failed=0,
            rows_deleted=int(manifest["rows_deleted"]), buckets_touched=0,
            buckets_carried=0, table_rows=0, manifest=manifest,
        )

    def _delete_events(self, winners: pa.Table) -> pa.Table:
        """Synthesize payload-less delete events for the given winner rows.

        Each event carries the winner's EXACT ``(key, order…)`` values —
        the LWW rules make a delete at the winner's own order win the tie
        on both merge paths (delta: ties go to the change row; compaction:
        the delete's later input position wins) — with every other stored
        column null and ``_op='delete'``. Events re-enter through the
        normal converter, so tombstone hashing / digests / accounting stay
        byte-identical to stream-borne deletes."""
        return synth_tombstone_events(self.table.schema, self.table.key,
                                      list(self.table.order), winners)

    def mirror_from(self, src_table: LakeTable) -> list[EpochResult]:
        """Replicate another lake's committed epochs into this engine via
        its change stream — cross-lake replication / bucket-count
        migration, the consumer side of ``epoch_changes_dataset``.

        Resumable and idempotent: this lake's committed epoch is the
        cursor, so a crashed mirror re-run continues where it stopped.
        The source identity is stamped into the mirror's ``_table.json``
        on first use and validated on every resume — resuming into a lake
        that tracks a DIFFERENT source (or was never a mirror) raises
        instead of silently interleaving two histories, and a source that
        fell BEHIND its mirror (rebuilt from scratch) raises instead of
        silently no-oping. ``include_ops=True`` carries deletes
        explicitly, and maintenance epochs replicate too (delete epochs
        as their tombstone winners, rewrites as full re-broadcasts,
        clears as native truncates), so the mirror converges to the
        source's exact snapshot — including content hashes, which are
        recomputed at ingest from the same null payloads (tested across
        delete + rewrite + clear + reload and across additive schema
        evolution, at differing bucket counts). Catch-up-built sources
        (one manifest covering an epoch span) mirror via the manifest's
        ``epochs_covered``. A schema-evolved source requires this engine
        in UPDATE compatibility; EXISTING/EXACT would silently project
        the evolved columns away, so that combination raises."""
        src_id = f"{os.path.abspath(src_table.root)}::{src_table.name}"
        src_kt = src_table.key_transform
        my_kt = self.table.key_transform
        mine = self.table.committed_epoch()
        stamped = self.table.meta.get("mirror_source")
        # identity refusals run FIRST so their diagnostics name the real
        # problem: a wrong-source resume must say "tracks a different
        # source", not surface a downstream transform conflict whose
        # "recreate the target" advice would destroy a healthy mirror
        if stamped is not None and stamped != src_id:
            raise ValueError(
                f"mirror target tracks {stamped!r}; refusing epochs from "
                f"{src_id!r}")
        if stamped is None and mine is not None:
            raise ValueError(
                "mirror target already has epochs not produced by "
                f"mirroring (no mirror_source stamp); refusing to "
                f"interleave {src_id!r} into it — use a fresh lake")
        if my_kt is not None and my_kt != src_kt:
            # a DIFFERENT transform (or one the source lacks) would
            # re-transform replicated keys at convert time and silently
            # diverge the mirror from its source's snapshot
            raise ValueError(
                f"mirror target was created with key_transform="
                f"{my_kt!r} but source {src_id!r} has {src_kt!r}; a "
                "mirror must use its source's transform — recreate the "
                "target without one (it inherits the source's)")
        src_committed = src_table.committed_epoch()
        if mine is not None and (src_committed is None
                                 or src_committed < mine):
            raise ValueError(
                f"source {src_id!r} is at epoch {src_committed} but this "
                f"mirror is at {mine} — source rebuilt? A stale mirror "
                "must be recreated, not resumed")
        extra = [c for c in src_table.schema.names
                 if c not in self.table.schema.names]
        if extra and self.compatibility != CompatibilityMode.UPDATE:
            raise SchemaError(
                f"source carries evolved columns {extra} but this mirror "
                f"engine is {self.compatibility.value!r}, which would "
                "silently project them away — construct the mirror with "
                "CompatibilityMode.UPDATE")
        stamps: dict = {}
        if stamped is None:
            stamps["mirror_source"] = src_id
        if (my_kt is None and src_kt is not None
                and self._factory_accepts()[1]):
            # inherit the source's canonical-key transform: every key in a
            # mirror came from the source's change stream and is therefore
            # already canonical, so stamping is sound on a fresh mirror AND
            # on resume of an un-stamped one — future replication
            # re-applies an idempotent transform (no-op) and the mirror's
            # probe paths (lookup/delete) gain the same raw-spelling
            # canonicalization the source has. Inherited ONLY when the
            # convert factory can honor it — a custom factory without a
            # key_transform parameter keeps the mirror un-stamped (probe
            # keys taken verbatim), exactly its pre-inheritance behavior,
            # instead of wedging every later apply on the _make_convert
            # canonicalization gate. The fingerprint is computed from the
            # LOCAL kernel (which also proves the name resolves here —
            # an unresolvable transform must fail THIS call, not wedge
            # every later load of the mirror) and checked against the
            # source's stamp when it has one; a legacy source with no
            # stamp still yields a fingerprinted mirror, so future kernel
            # drift is caught at load like any other table.
            from geomesa_nifi_ray.text import key_transform_fingerprint

            local_fp = key_transform_fingerprint(src_kt)
            src_fp = src_table.meta.get("key_transform_fingerprint")
            if src_fp is not None and src_fp != local_fp:
                raise ValueError(
                    f"source {src_id!r} stamped key_transform={src_kt!r} "
                    f"with fingerprint {src_fp!r} but the local kernel "
                    f"computes {local_fp!r} — the transform implementation "
                    "drifted; refusing to mirror with mismatched "
                    "canonicalization")
            stamps["key_transform"] = src_kt
            stamps["key_transform_fingerprint"] = local_fp
        if stamps:
            # ONE meta publish AFTER every refusal check above: a refused
            # call leaves no trace (not even mirror_source), and a crash
            # can never persist the transform without its drift guard
            self.table.stamp_meta_many(stamps)
        drop_hash = "content_hash" in src_table.schema.names
        out = []
        for e in src_table.manifest_epochs():
            if mine is not None and e <= mine:
                continue
            m = src_table.manifest_head(e)
            covered = tuple(m.get("epochs_covered", (e, e)))
            if m.get("mode") == "clear":
                # replicate a clear natively: O(1) instead of applying the
                # O(prev lake) tombstone re-broadcast the row-level egress
                # renders for stream-only consumers
                r = self.truncate(epoch=e)
            else:
                ch = src_table.epoch_changes_dataset(e, include_ops=True)
                if drop_hash:
                    ch = ch.drop_columns(["content_hash"])
                r = self.apply_epoch(
                    ch, epoch=e,
                    offset_range=(int(m["offset_min"]),
                                  int(m["offset_max"])),
                    epochs_covered=covered)
            if r is not None:
                out.append(r)
            mine = e
        return out

    def delete_keys(self, keys, epoch: int | None = None) -> EpochResult | None:
        """Delete the given keys as one exactly-once maintenance epoch —
        the reference's ``removeFeatures(ids)`` (modify-writer delete path,
        ``FeatureWriters.scala:115-160``) as an engine API.

        O(probe): the current winners come from :meth:`LakeTable.
        lookup_keys` (bucket-hash + row-group key-skipping), so only the
        probed buckets are read AND only those with a live key are touched
        by the merge. Absent keys are no-ops (removeFeatures-on-missing-id
        semantics). The committed manifest advances no offsets (-1): the
        tail cursor skips maintenance epochs."""
        import ray.data

        committed = self.table.committed_epoch()
        if committed is None:
            raise SchemaError("cannot delete from an empty table")
        if epoch is None:
            epoch = committed + 1
        elif epoch <= committed:
            return None  # exactly-once: already committed, skip the probe
        key, order = self.table.key, self.table.order
        winners = self.table.lookup_keys(keys, columns=[key, *order])
        ev = self._delete_events(winners)
        return self.apply_epoch(ray.data.from_arrow(ev), epoch,
                                offset_range=(-1, -1))

    def delete_where(self, predicate, columns: list[str] | None = None,
                     epoch: int | None = None) -> EpochResult | None:
        """Predicate-based bulk delete as one exactly-once epoch — the
        reference's filter-based feature removal (``removeFeatures(
        filter)``) re-expressed as a streaming scan-delete.

        ``predicate(batch: pa.Table) -> pa.BooleanArray`` marks rows to
        DELETE (nulls count as keep). ``columns`` lists the columns the
        predicate reads so the snapshot scan prunes to ``key + order +
        columns`` — the scan is O(lake) in those columns by semantics (a
        predicate must look at every live row), but the write side stays
        O(matches): only buckets with matched rows get a tombstone delta;
        the rest are carried untouched. The matched events flow through
        the normal keyed exchange, so a skew-heavy match set behaves like
        any hot epoch."""
        import ray.data

        committed = self.table.committed_epoch()
        if committed is None:
            raise SchemaError("cannot delete from an empty table")
        if epoch is None:
            epoch = committed + 1
        elif epoch <= committed:
            return None  # exactly-once: already committed, skip the scan
        key, order = self.table.key, self.table.order
        need = list(dict.fromkeys([key, *order, *(columns or [])]))
        stored = self.table.schema
        order_list = list(order)

        def to_events(batch: pa.Table) -> pa.Table:
            mask = pc.fill_null(predicate(batch), False)
            return synth_tombstone_events(stored, key, order_list,
                                          batch.filter(mask))

        # apply_epoch materializes the (small: matches-only, null payloads)
        # event set once, so the O(lake) scan+predicate runs once
        ev = self.table.snapshot_dataset(columns=need).map_batches(
            to_events, batch_format="pyarrow")
        return self.apply_epoch(ev, epoch, offset_range=(-1, -1))

    def expire_before(self, cutoff, epoch: int | None = None) -> EpochResult | None:
        """Retention maintenance: tombstone every live row whose winning
        event time (``order[0]``, e.g. ``warc_ts``) is older than
        ``cutoff`` — TTL/data-retention as one exactly-once epoch (the
        age-off analog of the reference stores' per-feature TTL; delete
        path ``FeatureWriters.scala:115-160``).

        A thin, named wrapper over :meth:`delete_where`: the scan reads
        only ``(key, order)`` columns, the write side is O(matches), the
        epoch egresses as tombstones so mirrors and incremental views age
        off in lockstep, and a re-run at the same epoch number is a no-op.
        ``cutoff`` is anything pyarrow can cast to the order column's
        type (datetime, ISO string, int epoch-us)."""
        ts_col = self.table.order[0]
        ts_type = self.table.schema.field(ts_col).type
        if isinstance(cutoff, str):
            # ISO strings parse via Arrow's string->timestamp cast
            # (pa.scalar(str, timestamp) does not parse)
            lit = pc.cast(pa.scalar(cutoff), ts_type)
        else:
            lit = pa.scalar(cutoff, type=ts_type)
        return self.delete_where(lambda b: pc.less(b[ts_col], lit),
                                 columns=[], epoch=epoch)

    def rewrite_epoch(self, fn, epoch: int | None = None,
                      ) -> EpochResult | None:
        """Lake-wide rewrite as a new epoch: apply a batch function to every
        live bucket and commit the result atomically (the UPDATE-WHERE /
        backfill / update-by-attribute path — the reference's modify-writer
        with an attribute filter, ``UpdateGeoMesaRecord.scala:157-193``,
        generalized to a whole-table pass).

        ``fn(batch: pa.Table) -> pa.Table`` may change values (not the key
        column); the result is projected back to the stored schema and
        ``content_hash`` is recomputed so hashes stay consistent with the
        rewritten values. One task per bucket, no shuffle (buckets are
        already co-partitioned); untouched rows round-trip unchanged.

        Kernel migration: the committed manifest stamps the CURRENT
        ``TEXT_KERNEL_VERSION``, re-opening appends on a lake written
        under an older kernel (see the mixed-kernel gate in
        ``apply_epoch``). That is only sound when ``fn`` re-derives the
        kernel-computed columns (``text`` from ``html``) — the sanctioned
        migration is ``rewrite_epoch(fn=re-extract)`` or ``truncate``.
        """
        import ray
        import ray.data

        committed = self.table.committed_epoch()
        if committed is None:
            raise SchemaError("cannot rewrite an empty table")
        if epoch is None:
            epoch = committed + 1
        elif epoch <= committed:
            # exactly-once retry (same contract as delete_keys/truncate):
            # a re-run after a committed rewrite must NOT re-apply fn to
            # the post-rewrite state — that would overwrite the committed
            # epoch's bucket files with fn(fn(x)) while commit_epoch
            # silently skips, corrupting the manifest's digests
            logger.info("epoch %d already committed; skipping rewrite", epoch)
            return None
        table = self.table
        sink = self.sink
        stored_schema = table.schema
        key, order = table.key, table.order
        live = table.live_entries()
        live_ref = ray.put(live)
        num_buckets = table.num_buckets

        def rewrite_bucket(batch: pa.Table) -> pa.Table:
            # batch carries one bucket id per row (driver-built control set);
            # one sink call reads their chains, each distinct file once and
            # only the row groups of a segment their ranges overlap
            out_rows = []
            bucket_ids = batch["bucket"].to_pylist()
            live_now = ray.get(live_ref)
            chains, _, _ = sink.read_chains(
                [LakeTable.chain_refs(live_now[b]) for b in bucket_ids])
            for bucket, chain in zip(bucket_ids, chains):
                base = table.merge_chain(chain, stored_schema)
                base = base.take(pc.sort_indices(base, sort_keys=[(key, "ascending")]))
                new = project_to_schema(fn(base), stored_schema)
                # pc.all over an EMPTY comparison is null (-> bool None is
                # False): a fully-deleted bucket (0 visible rows) must not
                # abort a lake-wide rewrite with a spurious key error
                keys_equal = new.num_rows == base.num_rows and (
                    base.num_rows == 0
                    or pc.all(pc.equal(
                        new[key].combine_chunks(), base[key].combine_chunks()
                    )).as_py() is True
                )
                if not keys_equal:
                    raise SchemaError("rewrite must not alter the key column")
                new = new.drop_columns(["content_hash"])
                new = add_hash_and_bucket(new, num_buckets, url_col=key,
                                          kernel=table.content_hash_kernel)
                new = new.drop_columns(["bucket"]).select([f.name for f in stored_schema])
                new = new.take(pc.sort_indices(new, sort_keys=[(key, "ascending")]))
                rel = sink.write_partition(new, bucket, epoch)
                out_rows.append(
                    {
                        "bucket": bucket,
                        "file": rel,
                        "rows": new.num_rows,
                        "rows_changed": new.num_rows,
                        "digest": digest_of_hashes(new["content_hash"].to_pylist()),
                    }
                )
            import pandas as _pd

            return pa.Table.from_pandas(_pd.DataFrame(out_rows), preserve_index=False)

        control = ray.data.from_arrow(
            pa.table({"bucket": pa.array(sorted(live), type=pa.int32())})
        ).repartition(max(1, min(len(live), 64)))
        lineage = control.map_batches(rewrite_bucket, batch_format="pyarrow").take_all()

        buckets = {
            str(r["bucket"]): {
                "file": r["file"],
                "deltas": [],          # rewrite compacts: chain reset
                "delta_ranges": [],
                "epoch_file": r["file"],
                "epoch_file_range": None,
                "rows": int(r["rows"]),
                "rows_changed": int(r["rows_changed"]),
                "digest": r["digest"],
            }
            for r in lineage
        }
        manifest = {
            "epoch": epoch,
            "epochs_covered": [epoch, epoch],
            "table": self.table_name,
            "offset_min": -1,
            "offset_max": -1,
            "rows_in": sum(int(b["rows"]) for b in buckets.values()),
            "rows_applied": sum(int(b["rows_changed"]) for b in buckets.values()),
            "rows_failed": 0,
            "mode": "rewrite",
            "schema_version": self.table.meta["schema_version"],
            "schema_fingerprint": self.table.schema_fingerprint(),
            "kernel_version": TEXT_KERNEL_VERSION,
            "buckets": buckets,
        }
        self.sink.commit(manifest)
        return EpochResult(
            epoch=epoch,
            rows_in=manifest["rows_in"],
            rows_applied=manifest["rows_applied"],
            rows_failed=0,
            buckets_touched=len(buckets),
            buckets_carried=0,
            table_rows=manifest["rows_in"],
            manifest=manifest,
        )

    # -- replay / resume ----------------------------------------------------

    def replay_binlog(
        self,
        binlog_meta: dict,
        mode: str = "upsert",
        catchup: bool = False,
        max_batch_epochs: int | None = None,
        source=None,
        lookahead: int | None = None,
        **apply_kwargs,
    ) -> list[EpochResult]:
        """Run all uncommitted epochs of a binlog (resume-aware). The
        descriptor is the dict written by ``synth.write_binlog`` or any
        object with ``epochs: [{epoch, path, offset_min, offset_max}]``.

        ``catchup=True`` (upsert mode only) batches consecutive pending
        epochs that share an input schema into ONE commit.
        This is legal because LWW under the total order ``(warc_ts,
        offset)`` is associative: applying epochs [i..j] at once yields the
        same table as applying them one by one — the batched manifest
        records ``epochs_covered=[i, j]`` and a crash replays the whole
        range deterministically. This is how a real CDC tailer drains a
        backlog: the per-epoch commit cadence is a *latency* choice, not a
        correctness one. Schema-evolution epochs always start a new batch
        (evolution only happens at a commit boundary, SURVEY.md §7.5);
        partial-update mode is order-sensitive and never batched.

        **Dynamic write mode**: an epoch descriptor may carry its own
        ``mode`` key (``upsert`` / ``update``) overriding the call-level
        default — the per-epoch resolution of the reference's
        attribute-driven append/modify switch (``FeatureWriters.
        DynamicWriters:300-328``; SURVEY §2.9 maps per-batch dynamism to
        epoch-boundary config on purpose). A run with any non-upsert epoch
        commits one epoch at a time, each with its own mode.

        ``lookahead`` bounds how many groups beyond the one being applied
        are converted ahead (default 8 single epochs, 1 catch-up batch):
        at most ``lookahead + 1`` groups' converted blocks are alive in
        the object store at once. Descriptors without ``files``/``path``
        are read from ``source`` (a message-bus Source) at apply time.
        """
        committed = self.table.committed_epoch()
        pending = [
            e for e in binlog_meta["epochs"]
            if committed is None or int(e["epoch"]) > committed
        ]
        from_source = any("files" not in e and "path" not in e
                          for e in pending)
        if from_source and source is None:
            raise ValueError(
                "descriptors carry no files/path; pass the Source so "
                "epochs can be read (tail() does this automatically)"
            )
        modes = [e.get("mode", mode) for e in pending]
        batch = (catchup and not from_source
                 and all(m == "upsert" for m in modes))
        groups = []
        last_schema = None
        broken = False
        for e, e_mode in zip(pending, modes):
            if from_source:
                groups.append(_ReplayGroup([e], e_mode, None, None))
                continue
            # eager expansion (a directory listing); the footer is read
            # here only to draw catch-up batch boundaries, otherwise lazily
            # by the schema timeline. An epoch that fails to expand or read
            # stops planning: it and everything after apply one by one with
            # no pre-conversion, so the readable prefix commits and the
            # real error surfaces from the broken epoch's own apply_epoch
            raw = e["files"] if "files" in e else [e["path"]]
            files, sch = list(raw), None
            if not broken:
                try:
                    files = _expand_parquet_paths(raw)
                    if batch:
                        sch = pq.read_schema(files[0])
                except Exception:
                    broken = True
            if (sch is not None and last_schema is not None
                    and sch.equals(last_schema)
                    and (max_batch_epochs is None
                         or len(groups[-1].epochs) < max_batch_epochs)):
                groups[-1].epochs.append(e)
                groups[-1].files.extend(files)
            else:
                plan = None if broken else (sch if sch is not None else files[0])
                groups.append(_ReplayGroup([e], e_mode, files, plan))
            last_schema = sch
        if lookahead is None:
            lookahead = 1 if batch else 8
        return self._replay_groups(groups, max(1, int(lookahead)), source,
                                   **apply_kwargs)

    def _replay_groups(self, groups: list["_ReplayGroup"], window: int,
                       source=None, batch_size: int = 8192,
                       **apply_kwargs) -> list[EpochResult]:
        """The one replay driver: apply ``groups`` in order, one commit
        each, while converting up to ``window`` groups ahead.

        Conversion is one raw Ray task per part file (or row-group range,
        :func:`_convert_units`); its blocks stay in plasma and reach
        ``apply_epoch`` as refs, so the cluster runs the next groups'
        conversions around this group's exchange tasks with no driver
        threads at all — the driver-side analog of the reference's
        consumer-thread prefetch (``GetGeoMesaKafkaRecord.scala:263-304``:
        Kafka threads accumulate the next batch while onTrigger writes the
        current one). Commit order, schema-evolution boundaries and crash
        semantics are those of applying each group alone: conversion is
        pure, only commits are serialized.

        A group converts ahead with the stored schema it will meet, from
        the lazily-extended :class:`_SchemaTimeline`. A group that cannot
        be planned (incompatible schema, unreadable footer, or read from a
        Source) converts inside its own ``apply_epoch``, which raises the
        real error with every earlier group committed; a planned group
        whose post-apply stored schema diverges from the timeline (lake
        changed underneath) raises ``SchemaError``."""
        timeline = _SchemaTimeline(self.table.schema, self.compatibility,
                                   [g.plan for g in groups])
        ahead: dict[int, list] = {}

        def submit(j: int) -> None:
            if j >= len(groups) or j in ahead or groups[j].plan is None:
                return
            sch = timeline.schema_after(j)
            if sch is None:   # unplannable: apply_epoch raises at j
                return
            ahead[j] = self._submit_convert(
                sch, batch_size, _convert_units(groups[j].files))

        for j in range(window):
            submit(j)
        results: list[EpochResult] = []
        for i, g in enumerate(groups):
            refs = ahead.pop(i, None)
            submit(i + window)
            first, last = g.epochs[0], g.epochs[-1]
            r = self.apply_epoch(
                g.files if g.files is not None else source.read(first),
                epoch=int(last["epoch"]),
                offset_range=(first["offset_min"], last["offset_max"]),
                mode=g.mode,
                batch_size=batch_size,
                epochs_covered=(int(first["epoch"]), int(last["epoch"])),
                rows_hint=(sum(int(e["rows"]) for e in g.epochs)
                           if all("rows" in e for e in g.epochs) else None),
                _converted=refs,
                **apply_kwargs,
            )
            if r is not None:
                if refs is not None and not self.table.schema.equals(
                        timeline.schema_after(i)):
                    raise SchemaError(
                        "stored schema diverged from the precomputed timeline"
                    )
                # an unplanned group that applied anyway (input fixed
                # between planning and apply) re-seeds the timeline so
                # later groups convert ahead again; no-op when planned
                timeline.mark_applied(i, self.table.schema)
                results.append(r)
        return results

    def snapshot(self, columns: list[str] | None = None,
                 include_pending: bool = False):
        """Live table view. ``include_pending=True`` = the hot (Lambda)
        view: committed lake plus the in-flight epoch's flushed buckets."""
        return self.table.snapshot_dataset(columns=columns,
                                           include_pending=include_pending)

    # -- live tail ----------------------------------------------------------

    def committed_offset(self) -> int:
        """Greatest committed binlog offset: the RESUME CURSOR for
        record-granular (message-bus) sources. The latest manifest whose
        ``offset_max`` is a real offset wins — rewrite/clear manifests
        advance no offsets (-1) and are skipped."""
        for e in reversed(self.table.manifest_epochs()):
            # head-only read: offset_max lives in the main manifest JSON;
            # manifest() would reassemble every shard of a >10k-bucket
            # epoch (O(shards) GETs) on every idle tail poll
            m = self.table.manifest_head(e)
            if int(m.get("offset_max", -1)) >= 0:
                return int(m["offset_max"])
        return -1

    def discover_epochs(self, binlog_dir: str, require_marker: bool = False) -> list[dict]:
        """Discover epoch directories (``epoch-NNNNN/``) directly from the
        filesystem — no descriptor needed, so a producer can drop epoch
        dirs while the tailer runs. Offset ranges come from parquet column
        statistics (min/max of ``offset``), read from footers only.

        **Producers must publish epoch dirs atomically** (write the part
        files into a hidden tmp dir, then one ``os.rename`` to the final
        ``epoch-NNNNN`` name): an epoch is committed as soon as it is seen,
        and part files that appear in an already-committed epoch dir are
        skipped forever (the tailer's offset cursor has passed them).
        Producers that cannot rename atomically should instead write a
        ``_SUCCESS`` marker as their last file and run the tailer with
        ``require_marker=True``, which ignores epoch dirs until the marker
        exists.

        Delegates to :class:`~geomesa_nifi_ray.sources.spi.
        FilesystemEpochSource` — the default ``Source`` implementation."""
        from geomesa_nifi_ray.sources.spi import FilesystemEpochSource

        return FilesystemEpochSource(
            binlog_dir, require_marker=require_marker
        ).poll_epochs()

    def tail(
        self,
        source,
        poll_interval: float = 1.0,
        max_idle_polls: int = 3,
        catchup: bool = True,
        require_marker: bool = False,
        **apply_kwargs,
    ) -> list[EpochResult]:
        """Tail a growing change stream: poll the source for new epochs,
        apply pending ones (catch-up batched), commit, repeat; stop after
        ``max_idle_polls`` consecutive polls with nothing new.

        ``source`` is either a binlog directory path (wrapped in the
        default :class:`~geomesa_nifi_ray.sources.spi.FilesystemEpochSource`
        — epoch dirs must be published atomically, tmp dir + rename, or
        with a ``_SUCCESS`` marker and ``require_marker=True``; see
        :meth:`discover_epochs`) or any object implementing the
        :class:`~geomesa_nifi_ray.sources.spi.Source` protocol — e.g.
        :class:`~geomesa_nifi_ray.sources.spi.SqliteBinlogSource`, the
        message-bus stand-in.

        The driver-loop analog of the reference's Kafka consumer + poll
        timeout + min/max batch envelope (``GetGeoMesaKafkaRecord.scala:
        263-304``): arrival batching is epoch-granular, offsets advance
        only at commit, and a crash at any poll boundary resumes exactly
        (commit log cursor). Backpressure is the replay's ``lookahead``
        window of converted groups and this loop's seriality.
        """
        import time as _time

        if isinstance(source, str):
            from geomesa_nifi_ray.sources.spi import FilesystemEpochSource

            source = FilesystemEpochSource(source, require_marker=require_marker)

        results: list[EpochResult] = []
        idle = 0
        while idle < max_idle_polls:
            # every source reports only what lies strictly after the
            # lake's committed offset_max, numbered from the committed
            # epoch + 1 — offsets, not epoch numbers, are the resume
            # cursor, so a maintenance epoch (delete_keys, rewrite, clear)
            # cannot shadow the producer epoch that shares its number
            pending = source.poll_epochs(cursor={
                "epoch": self.table.committed_epoch(),
                "offset": self.committed_offset(),
            })
            if pending:
                results.extend(
                    self.replay_binlog({"epochs": pending}, catchup=catchup,
                                       source=source, **apply_kwargs)
                )
                idle = 0
            else:
                idle += 1
                _time.sleep(poll_interval)
        return results
