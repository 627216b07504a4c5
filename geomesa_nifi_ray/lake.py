"""Bucketed Parquet lake with an epoch/manifest commit log (exactly-once sink).

The lake is the engine's ``DataStore`` analog
(``geomesa-datastore-bundle/…/services/DataStoreService.java:15-31``): a
keyed, schema'd mutable table. Layout::

    <root>/<table>/
        _table.json              # schema, key, order cols, bucket count P, versions
        _log/epoch-00000.json    # one manifest per committed epoch (the commit log)
        data/bucket=<b>/epoch-<e>.parquet   # full bucket state as of epoch e
        data/delta-<e>-<md5>.parquet        # one merge task's delta rows of
                                            # epoch e, all its buckets

Exactly-once protocol (the strict form of the reference's
commit-offsets-after-durable-write, ``GetGeoMesaKafkaRecord.scala:294-302``):

1. every epoch writes bucket files to *deterministic* paths via tmp+rename —
   a replayed epoch overwrites identical content, never duplicates;
2. the epoch manifest (offset range, per-bucket file list, row counts,
   content-hash digests, schema + kernel versions) is committed by a single
   atomic rename of ``_log/epoch-<e>.json``;
3. readers resolve the live file set *only* through the latest manifest —
   data files not referenced by a committed manifest are invisible;
4. resume = max committed epoch + 1; a crash between data write and
   manifest commit simply replays the epoch (bit-identical results).

Buckets untouched by an epoch carry their previous file pointer forward in
the manifest (copy-on-write, no rewrite) — at 100 TB an epoch touching 1%
of keys rewrites ~1% of the lake. A touched bucket either appends a delta
— a ``[lo, hi)`` row range of its merge task's segment for the epoch — to
its chain, or compacts into a new base file (:meth:`LakeTable.chain_refs`).

``num_buckets`` (P) is fixed at table creation and recorded in
``_table.json`` so the partition layout is identical on any cluster size
(SURVEY.md §7.5); scaling comes from assigning more buckets per node.
"""

from __future__ import annotations

import json
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq

from geomesa_nifi_ray.schema import (
    SchemaError,
    project_to_schema,
    schema_fingerprint,
    schema_from_json,
    schema_to_json,
)
from geomesa_nifi_ray.text import TEXT_KERNEL_VERSION

TABLE_META = "_table.json"
LOG_DIR = "_log"
DATA_DIR = "data"
# rows per parquet row group in bucket files: the pruning granularity of
# read_parquet_pruned's key-range skip (files are key-sorted)
BUCKET_ROW_GROUP_ROWS = 65536
# rows per row group in delta SEGMENTS (one file per merge task per
# epoch, rows sorted by (bucket, key)): a per-bucket reader reads only the
# row groups its range overlaps. Measured on synth page rows, 16 buckets,
# one CPU (BASELINE.md "Delta segments"): a tail-sized segment (~360
# rows) is one row group at any size >= 1024; at 2k-10k rows, 1024 reads
# one bucket's range in half the time 65536 takes for 2-3% more bytes,
# while 256 costs 18-20% more bytes and slower key-column reads.
SEGMENT_ROW_GROUP_ROWS = 1024
# manifests stay ONE json up to this many touched buckets; above it the
# bucket map shards into ~MANIFEST_SHARD_SIZE-bucket range files written
# before the (still single, still atomic) manifest
MANIFEST_SHARD_THRESHOLD = 10_000
MANIFEST_SHARD_SIZE = 10_000

# Tombstone marker column inside DELTA files only: a row with _tomb=1
# carries (key, order..., content_hash) of a delete event and suppresses
# the key when it wins the chain LWW. Base files never contain tombstones
# (compaction folds them away), and deltas without deletes omit the column
# entirely, so pre-tombstone lakes read unchanged.
TOMB_COLUMN = "_tomb"

# manifest counters a head carries as running totals (``totals``) through
# its epoch; ``offset_max`` is a maximum, the rest are sums
TOTAL_FIELDS = ("rows_in", "rows_applied", "rows_failed", "rows_deleted",
                "offset_max")
ZERO_TOTALS = {**{f: 0 for f in TOTAL_FIELDS}, "offset_max": -1}


def add_totals(totals: dict, manifest: dict) -> dict:
    """``totals`` advanced by one manifest's counts."""
    out = dict(totals)
    for f in TOTAL_FIELDS:
        v = int(manifest.get(f, -1 if f == "offset_max" else 0))
        out[f] = max(out[f], v) if f == "offset_max" else out[f] + v
    return out


def merge_chain_tables(tables, schema: pa.Schema, key: str, order: list[str]) -> pa.Table:
    """Merge a bucket chain (base first) into its current visible state:
    per-key LWW with input position as the final tiebreak, tombstone
    winners removed. Shared by driver-side and task-side chain readers.
    The winners are taken in ONE copy (tombstoned ones dropped from the
    winner positions first), in input order."""
    import numpy as np
    import pyarrow.compute as pc

    from geomesa_nifi_ray.upsert import lww_indices

    parts = [project_to_schema(t, schema) for t in tables]
    if len(parts) == 1 and TOMB_COLUMN not in tables[0].column_names:
        return parts[0]
    merged = pa.concat_tables(parts)
    idx = np.sort(lww_indices(merged, key, order))
    if any(TOMB_COLUMN in t.column_names for t in tables):
        tomb = np.concatenate([
            pc.fill_null(t[TOMB_COLUMN], 0).to_numpy(zero_copy_only=False)
            if TOMB_COLUMN in t.column_names
            else np.zeros(t.num_rows, dtype=np.int8)
            for t in tables])
        idx = idx[tomb[idx] == 0]
    return merged.take(pa.array(idx))


def read_chains(lake_fs, chains: list[list[tuple[str, list | None]]],
                columns: list[str] | tuple[str, ...] | None,
                key: str | None = None, keys: list[list] | None = None,
                ) -> tuple[list[list[pa.Table]], int, int]:
    """Read bucket chains of ``(path, range)`` refs (oldest first; a
    ``[lo, hi)`` row range inside a delta segment, ``None`` for a whole
    file) projected to ``columns`` plus ``TOMB_COLUMN`` wherever a file
    carries it (``None`` reads every column), ready for
    :func:`merge_chain_tables`. Every chain reader goes through here.

    Each distinct path is opened ONCE per call
    (:meth:`LakeFS.read_parquet_pruned`), however many chains reference
    it — a delta segment holds the rows of every bucket its merge task
    wrote — and only the row groups its refs' ranges overlap are read.
    With ``key``, chain ``i`` keeps only the rows whose key is in
    ``keys[i]`` (its sorted probe keys): row groups whose key statistics
    rule them all out are not read (a file shared by several chains is
    pruned by the union of their keys), and the rest are filtered as each
    file is read, so one file's full rows are in memory at a time.
    Returns ``(tables per chain, in chain order; row groups seen; row
    groups kept)``."""
    import pyarrow.compute as pc

    slots: dict[str, list[tuple[int, int]]] = {}
    for i, chain in enumerate(chains):
        for j, (path, _) in enumerate(chain):
            slots.setdefault(path, []).append((i, j))
    cols = None if columns is None else [*dict.fromkeys(columns), TOMB_COLUMN]
    out: list[list] = [[None] * len(c) for c in chains]
    seen = kept = 0
    for path, ij in slots.items():
        probe = None
        if key is not None and keys is not None:
            owners = {i for i, _ in ij}
            probe = (keys[ij[0][0]] if len(owners) == 1
                     else sorted(set().union(*(keys[i] for i in owners))))
        tabs, n, k = lake_fs.read_parquet_pruned(
            path, cols, key, probe, ranges=[chains[i][j][1] for i, j in ij])
        seen += n
        kept += k
        for (i, j), t in zip(ij, tabs):
            if probe is not None:
                t = t.filter(pc.is_in(t[key], value_set=pa.array(
                    keys[i], type=t.schema.field(key).type)))
            out[i][j] = t
    return out, seen, kept


def merge_bucket_chains(chains: list[list[pa.Table]], schema: pa.Schema,
                        key: str, order: list[str]) -> pa.Table:
    """Visible rows of several buckets' chains in ONE LWW/tombstone pass
    (keys never span buckets, so concatenating the chains, each in chain
    order, keeps every key's position tiebreak). A chain of one file
    without tombstones is its own visible state and skips the pass."""
    parts, multi = [], []
    for tabs in chains:
        if len(tabs) == 1 and TOMB_COLUMN not in tabs[0].column_names:
            parts.append(project_to_schema(tabs[0], schema))
        else:
            multi.extend(tabs)
    if multi:
        parts.append(merge_chain_tables(multi, schema, key, order))
    return pa.concat_tables(parts) if parts else schema.empty_table()


def delta_ranges(entry: dict) -> list:
    """A manifest entry's per-delta row ranges, parallel to ``deltas``
    (``None`` = the whole file: deltas written before segments, and sink
    refs that are whole partitions)."""
    deltas = entry.get("deltas", [])
    return list(entry.get("delta_ranges") or [None] * len(deltas))


# -- predicate scans (zone-map data skipping) ---------------------------------
#
# A `where` spec is a CONJUNCTION of simple comparisons
# `[(column, op, literal), ...]` with op in _WHERE_OPS. SQL semantics: a
# null column value never satisfies a conjunct. Two layers consume one
# normalized spec: parquet footer min/max statistics prune whole bucket
# CHAINS (never individual chain files — see prune_chains for why), and an
# exact vectorized mask filters the merged rows.

_WHERE_OPS = ("==", "<", "<=", ">", ">=")


def validate_where(schema: pa.Schema, where) -> list[tuple]:
    """Normalize a `where` spec against the stored schema: check shape,
    column existence, operator, and cast each literal to the column type
    ONCE on the driver (ISO strings parse for timestamp columns) so task-
    side stat comparisons and exact masks see the same python value.
    Idempotent — re-validating a normalized spec is a no-op."""
    import pyarrow.compute as pc

    if not where or not isinstance(where, (list, tuple)):
        raise ValueError("where must be a non-empty list of "
                         "(column, op, literal) conjuncts")
    out = []
    for item in where:
        try:
            col, op, val = item
        except (TypeError, ValueError):
            raise ValueError(f"malformed where conjunct: {item!r}") from None
        if col not in schema.names:
            raise KeyError(f"where column {col!r} not in the stored schema")
        if op not in _WHERE_OPS:
            raise ValueError(f"unsupported where op {op!r}; one of {_WHERE_OPS}")
        if val is None:
            raise ValueError("a conjunct never matches null; filter nulls "
                             "explicitly instead of where-ing on None")
        typ = schema.field(col).type
        if pa.types.is_nested(typ):
            raise ValueError(f"where on nested column {col!r} is unsupported")
        if isinstance(val, str) and not (pa.types.is_string(typ)
                                         or pa.types.is_large_string(typ)):
            # string literal against a typed column (CLI / ISO timestamps):
            # pa.scalar(str, typ) does not parse; Arrow's cast does
            val = pc.cast(pa.scalar(val), typ).as_py()
        else:
            val = pa.scalar(val, type=typ).as_py()
        out.append((col, op, val))
    return out


def predicate_mask(table: pa.Table, where: list[tuple]):
    """Exact boolean mask for a normalized `where` over a batch: AND of
    the conjuncts, nulls -> False (SQL filter semantics)."""
    import pyarrow.compute as pc

    fns = {"==": pc.equal, "<": pc.less, "<=": pc.less_equal,
           ">": pc.greater, ">=": pc.greater_equal}
    mask = None
    for col, op, val in where:
        arr = table[col]
        m = fns[op](arr, pa.scalar(val, type=arr.type))
        mask = m if mask is None else pc.and_kleene(mask, m)
    return pc.fill_null(mask, False)


def apply_where_dataset(ds, schema: pa.Schema, where):
    """Exact predicate filter over a Dataset of ``schema``-shaped batches:
    validate the spec ONCE on the driver (KeyError/ValueError raise here,
    eagerly), then filter each batch with :func:`predicate_mask`. The one
    filter stage shared by every change-stream consumer (egress, diff CLI)
    — the snapshot scan has its own fused path that also prunes chains."""
    wnorm = tuple(validate_where(schema, where))
    return ds.map_batches(
        lambda b, w=wnorm: b.filter(predicate_mask(b, list(w))),
        batch_format="pyarrow")


def _stat_range(st, typ):
    """Decode one row group's (min, max) statistics for a column, or None
    when the stats can't be trusted — absent, truncation-suspect (near
    parquet's stats size cap), or bytes that don't decode for a string
    column (parquet reports BYTES stats for string and binary alike;
    decoding a binary column's stats would crash on non-UTF8 and
    mis-compare str vs bytes). The one shared distrust implementation for
    key row-group pruning (read_parquet_pruned) and where-scan chain
    pruning (parquet_file_could_match)."""
    if st is None or not st.has_min_max:
        return None
    lo, hi = st.min, st.max
    if isinstance(lo, bytes) and (pa.types.is_string(typ)
                                  or pa.types.is_large_string(typ)):
        try:
            lo, hi = lo.decode(), hi.decode()
        except UnicodeDecodeError:
            return None
    if isinstance(lo, (str, bytes)) and (len(lo) >= 4000 or len(hi) >= 4000):
        return None
    return lo, hi


def _range_could_match(lo, hi, op: str, val) -> bool:
    """Could some value in [lo, hi] satisfy `x <op> val`?"""
    if op == "==":
        return lo <= val <= hi
    if op == "<":
        return lo < val
    if op == "<=":
        return lo <= val
    if op == ">":
        return hi > val
    return hi >= val  # ">="


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


class LakeFS:
    """Filesystem seam for the lake (the ``FileSystemDataStoreService.
    scala:23-44`` analog): every lake IO goes through a
    ``pyarrow.fs.FileSystem`` plus ONE publish primitive, so the same
    table logic runs on local disk, HDFS, or an object store.

    ``publish_*`` is the exactly-once building block. Two modes:

    - ``rename_capable=True`` (local/HDFS default): write to a tmp name,
      fsync, one atomic rename — a reader never observes a torn file.
    - ``rename_capable=False`` (S3-style object stores): ONE direct write
      call per object. This is correct on stores whose single-object PUT
      is atomic (S3, GCS): readers see the old object or the whole new
      one, never bytes in between. The lake's linearization point is
      unchanged — data files first, the epoch manifest LAST, and readers
      resolve files only through committed manifests, so an epoch is
      visible exactly when its manifest object appears. Replayed epochs
      rewrite identical bytes to identical keys (idempotent PUT). On
      stores with conditional writes, pass the equivalent of
      ``If-None-Match: *`` for ``_log/epoch-*.json`` to also fence two
      concurrent writers racing the same epoch (single-writer deployments
      don't need it; the commit-cursor check already rejects stale
      epochs).

    Instances are small and picklable (pyarrow filesystems serialize), so
    a ``LakeTable`` carrying one stays safe to ship into merge tasks.
    """

    def __init__(self, fs=None, rename_capable: bool | None = None):
        import pyarrow.fs as pafs

        self.pafs = fs if fs is not None else pafs.LocalFileSystem()
        if rename_capable is None:
            # local disk renames; so does a SubTreeFileSystem VIEW of local
            # disk (a direct in-place write there would NOT be atomic —
            # the no-rename mode's atomic-PUT assumption holds for S3/GCS,
            # not local-backed wrappers). Other filesystems must state
            # their capability explicitly.
            probe = self.pafs
            while isinstance(probe, pafs.SubTreeFileSystem):
                probe = probe.base_fs
            rename_capable = isinstance(probe, pafs.LocalFileSystem)
        self.rename_capable = rename_capable

    @property
    def is_plain_local(self) -> bool:
        """True for the default local filesystem — callers may then use
        plain-path fast paths (os.* probes, Ray's own path resolution)."""
        import pyarrow.fs as pafs

        return type(self.pafs) is pafs.LocalFileSystem

    # -- probes -------------------------------------------------------------

    def exists(self, path: str) -> bool:
        import pyarrow.fs as pafs

        return self.pafs.get_file_info(path).type != pafs.FileType.NotFound

    def makedirs(self, path: str) -> None:
        self.pafs.create_dir(path, recursive=True)

    def listdir(self, path: str) -> list[str]:
        """Base names of files directly under ``path`` ([] if absent)."""
        import pyarrow.fs as pafs

        info = self.pafs.get_file_info(path)
        if info.type == pafs.FileType.NotFound:
            return []
        sel = pafs.FileSelector(path, recursive=False, allow_not_found=True)
        return [i.base_name for i in self.pafs.get_file_info(sel)
                if i.type == pafs.FileType.File]

    def walk_files(self, path: str) -> list[str]:
        """All file paths under ``path``, recursive."""
        import pyarrow.fs as pafs

        sel = pafs.FileSelector(path, recursive=True, allow_not_found=True)
        return [i.path for i in self.pafs.get_file_info(sel)
                if i.type == pafs.FileType.File]

    def remove(self, path: str) -> None:
        self.pafs.delete_file(path)

    # -- reads --------------------------------------------------------------

    def read_json(self, path: str) -> dict:
        with self.pafs.open_input_stream(path) as f:
            return json.loads(f.read().decode())

    def read_parquet(self, path: str, columns: list[str] | None = None,
                     filters=None) -> pa.Table:
        return pq.read_table(path, columns=columns, filters=filters,
                             filesystem=self.pafs)

    def read_parquet_pruned(self, path: str, columns: list[str] | None,
                            key: str | None, keys_sorted: list | None,
                            ranges: list | None = None):
        """Row-group-pruned read for key-sorted files: keep only row groups
        whose parquet ``[min, max]`` statistics on ``key`` could contain one
        of ``keys_sorted`` (a sorted list; ``key=None`` prunes nothing).
        Returns ``(table, row_groups_total, row_groups_kept)``. Columns are
        leniently projected (missing names are dropped, like the sink's
        ``read_partition``). Statistics that are absent or suspiciously
        long (possible truncation) keep their row group — pruning is an
        optimization, never a filter.

        ``ranges`` (a list of ``[lo, hi)`` row ranges, ``None`` for the
        whole file) reads the refs of a delta segment: row groups that no
        range overlaps are skipped too (they are not counted in the
        totals), and the first item returned is the list of per-range
        tables, in ``ranges`` order."""
        import bisect

        import numpy as np

        with self.pafs.open_input_file(path) as f:
            pf = pq.ParquetFile(f)
            names = pf.schema_arrow.names
            if columns is not None:
                columns = [c for c in columns if c in names]
            md = pf.metadata
            n_rg = md.num_row_groups
            starts = np.cumsum([0] + [md.row_group(i).num_rows
                                      for i in range(n_rg)])
            cand = list(range(n_rg))
            if ranges is not None and None not in ranges:
                cand = [i for i in cand
                        if any(lo < starts[i + 1] and starts[i] < hi
                               for lo, hi in ranges)]
            keep = cand
            # row-group column index = parquet LEAF index, which diverges
            # from arrow-schema position once any nested column precedes
            # the key (a struct expands to multiple leaves) — same rule as
            # parquet_file_could_match; an unmapped key never prunes
            kidx = None
            if key in names and len(cand) > 1:
                kidx = {md.schema.column(j).path: j
                        for j in range(md.num_columns)}.get(key)
            if kidx is not None:
                ktype = pf.schema_arrow.field(key).type
                keep = []
                for i in cand:
                    # _stat_range owns the distrust rules (absent,
                    # truncation-suspect, undecodable bytes) shared with
                    # where-scan pruning
                    rng = _stat_range(md.row_group(i).column(kidx).statistics,
                                      ktype)
                    if rng is None:
                        keep.append(i)
                        continue
                    lo, hi = rng
                    try:
                        j = bisect.bisect_left(keys_sorted, lo)
                        hit = j < len(keys_sorted) and keys_sorted[j] <= hi
                    except TypeError:
                        keep.append(i)  # stats/key type mismatch: never filter
                        continue
                    if hit:
                        keep.append(i)
            if len(keep) == n_rg:
                table = pf.read(columns=columns)
            elif not keep:
                sch = pf.schema_arrow
                if columns is not None:
                    sch = pa.schema([sch.field(c) for c in columns])
                table = sch.empty_table()
            else:
                table = pf.read_row_groups(keep, columns=columns)
        if ranges is None:
            return table, len(cand), len(keep)
        # slice each range out of the row groups read: kept row group i
        # holds file rows [starts[i], starts[i+1]) at table position pos
        pos = np.cumsum([0] + [int(starts[i + 1] - starts[i]) for i in keep])
        out = []
        for r in ranges:
            if r is None:
                out.append(table)
                continue
            lo, hi = r
            pieces = []
            for i, p in zip(keep, pos):
                a, b = max(lo, int(starts[i])), min(hi, int(starts[i + 1]))
                if a < b:
                    pieces.append(table.slice(int(p) + a - int(starts[i]),
                                              b - a))
            out.append(pa.concat_tables(pieces) if pieces
                       else table.slice(0, 0))
        return out, len(cand), len(keep)

    def read_parquet_schema(self, path: str) -> pa.Schema:
        return pq.read_schema(path, filesystem=self.pafs)

    def parquet_file_could_match(self, path: str, where: list[tuple]) -> bool:
        """Footer-only data-skipping check: could ANY row of this file
        satisfy a normalized `where` conjunction? True iff some row group's
        per-column [min, max] statistics admit every conjunct (unknown /
        distrusted stats admit — pruning is an optimization, never a
        filter). A conjunct column ABSENT from the file's schema excludes
        the file outright: readers project missing columns to null and a
        conjunct never matches null. Reads the footer only, no data pages."""
        with self.pafs.open_input_file(path) as f:
            pf = pq.ParquetFile(f)
            sch = pf.schema_arrow
            names = sch.names
            for col, _, _ in where:
                if col not in names:
                    return False
            md = pf.metadata
            # row-group column index = parquet LEAF index; map by leaf path
            # (== the name for flat columns) rather than arrow-schema order
            idx = {md.schema.column(j).path: j for j in range(md.num_columns)}
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                admits = True
                for col, op, val in where:
                    if col not in idx:
                        continue  # non-leaf layout: stats unknown, admit
                    rng = _stat_range(rg.column(idx[col]).statistics,
                                      sch.field(col).type)
                    if rng is None:
                        continue  # unknown stats: this conjunct could match
                    try:
                        if not _range_could_match(rng[0], rng[1], op, val):
                            admits = False
                            break
                    except TypeError:
                        continue  # stats/literal type mismatch: never filter
                if admits:
                    return True
            # every row group excluded some conjunct — or the file is empty
            return False

    # -- publishes (the exactly-once primitive) ------------------------------

    def _move_replacing(self, tmp: str, path: str) -> None:
        """Rename with replace semantics on a non-local rename-capable fs.
        POSIX rename replaces, but Hadoop-style filesystems FAIL a rename
        to an existing destination — and the crash-replay contract rewrites
        the same deterministic path with identical content, so replay must
        overwrite, not abort. Durability caveat: pyarrow exposes no
        fsync/hsync on generic streams, so (unlike the plain-local branch)
        the write-then-rename here is only as durable as the backing
        filesystem's close() semantics — documented, not silently assumed.
        """
        try:
            self.pafs.move(tmp, path)
        except OSError:
            if not self.exists(path):
                raise
            self.pafs.delete_file(path)
            self.pafs.move(tmp, path)

    def publish_json(self, path: str, payload: dict,
                     if_absent: bool = False) -> None:
        """``if_absent=True`` requests create-if-absent semantics (raises
        :class:`FileExistsError` when the object already exists) — the
        split-brain fence for manifest commits. Honored atomically when
        the backend exposes ``put_if_absent`` (conditional PUT, e.g. the
        boto3 S3 handler); rename-capable filesystems fall back to the
        atomic-replace publish under the engine's single-writer cursor
        assumption (two LOCAL drivers racing the same lake dir is outside
        the deployment model; on object stores it is exactly the case the
        fence closes)."""
        if if_absent and not self.rename_capable:
            handler = getattr(self.pafs, "handler", None)
            put = getattr(handler, "put_if_absent", None)
            if put is not None:
                data = json.dumps(payload, indent=1, sort_keys=True).encode()
                if not put(path, data):
                    raise FileExistsError(path)
                return
        if self.rename_capable and self.is_plain_local:
            # tmp + FSYNC + atomic rename (a journaled rename of un-synced
            # data can survive a crash as a committed-but-torn manifest —
            # the one thing the exactly-once linearization point must rule
            # out); single implementation shared with the local view-state
            # writer
            _atomic_write_json(path, payload)
            return
        data = json.dumps(payload, indent=1, sort_keys=True).encode()
        if self.rename_capable:
            tmp = f"{path}.tmp.{os.getpid()}"
            with self.pafs.open_output_stream(tmp) as f:
                f.write(data)
            self._move_replacing(tmp, path)
        else:
            with self.pafs.open_output_stream(path) as f:
                f.write(data)

    def publish_parquet(self, path: str, table: pa.Table,
                        row_group_rows: int | None = None) -> None:
        kw = {"compression": "zstd", "write_statistics": True}
        if row_group_rows is not None:
            kw["row_group_size"] = int(row_group_rows)
        if self.rename_capable:
            tmp = f"{path}.tmp.{os.getpid()}"
            if self.is_plain_local:
                with open(tmp, "wb") as f:
                    pq.write_table(table, f, **kw)
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, path)
                return
            with self.pafs.open_output_stream(tmp) as f:
                pq.write_table(table, f, **kw)
            self._move_replacing(tmp, path)
        else:
            with self.pafs.open_output_stream(path) as f:
                pq.write_table(table, f, **kw)


class LakeTable:
    """Handle to one lake table; cheap to construct, safe to use from tasks.

    All IO goes through a :class:`LakeFS` (default: local filesystem with
    the tmp+rename publish), so the same table runs over any
    ``pyarrow.fs`` backend — pass ``fs=`` to ``create``/``load``."""

    def __init__(self, root: str, name: str, fs: LakeFS | None = None):
        self.root = root
        self.name = name
        self.fs = fs if fs is not None else LakeFS()
        self.table_dir = os.path.join(root, name)
        self._meta: dict | None = None
        # skip report of the most recent where-scan (observability/tests)
        self.last_prune_report: dict | None = None

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str,
        name: str,
        schema: pa.Schema,
        num_buckets: int,
        key: str = "url",
        order: tuple[str, ...] = ("warc_ts", "offset"),
        exist_ok: bool = False,
        content_hash_kernel: str = "md5",
        fs: LakeFS | None = None,
        row_group_rows: int | None = None,
        key_transform: str | None = None,
    ) -> "LakeTable":
        t = cls(root, name, fs=fs)
        if t.fs.exists(os.path.join(t.table_dir, TABLE_META)):
            if exist_ok:
                return cls.load(root, name, fs=fs)
            raise FileExistsError(f"table {name} already exists under {root}")
        if key_transform is not None:
            # validate (and fingerprint) BEFORE any layout is written, so
            # an unknown transform name leaves no half-created directories
            from geomesa_nifi_ray.text import key_transform_fingerprint

            kt_fingerprint = key_transform_fingerprint(
                key_transform, check_idempotent=True)
        t.fs.makedirs(os.path.join(t.table_dir, LOG_DIR))
        t.fs.makedirs(os.path.join(t.table_dir, DATA_DIR))
        meta = {
            "name": name,
            "key": key,
            "order": list(order),
            "num_buckets": int(num_buckets),
            "schema": schema_to_json(schema),
            "schema_version": 0,
            "kernel_version": TEXT_KERNEL_VERSION,
            "content_hash_kernel": content_hash_kernel,
        }
        if row_group_rows is not None:
            # pruning-granularity override (default BUCKET_ROW_GROUP_ROWS);
            # stored in meta so every writer task agrees
            meta["row_group_rows"] = int(row_group_rows)
        if key_transform is not None:
            # canonical-key ingest (converter id-field analog): the named
            # transform is applied to the CDC key column at convert time
            # and to probe keys (lookup/delete). Stamped with the behavior
            # fingerprint computed above so a library change fails loudly
            # on load.
            meta["key_transform"] = key_transform
            meta["key_transform_fingerprint"] = kt_fingerprint
        from geomesa_nifi_ray.hashing import kernel_fingerprint

        fp = kernel_fingerprint(content_hash_kernel)
        if fp is not None:
            # non-standardized kernels (xx64 rides on polars' hash, which
            # is unstable across polars versions) stamp a behavior
            # fingerprint, verified on every load()
            meta["content_hash_fingerprint"] = fp
        t.fs.publish_json(os.path.join(t.table_dir, TABLE_META), meta)
        t._meta = meta
        return t

    @classmethod
    def load(cls, root: str, name: str, fs: LakeFS | None = None) -> "LakeTable":
        t = cls(root, name, fs=fs)
        t.meta  # force read, raises if absent
        stamped = t.meta.get("content_hash_fingerprint")
        if stamped is not None:
            from geomesa_nifi_ray.hashing import kernel_fingerprint

            current = kernel_fingerprint(t.content_hash_kernel)
            # legacy v1 stamps carried only the utf8-path probe; accept
            # them when that part still reproduces. load() itself stays
            # READ-ONLY (a reader must not need write credentials, and a
            # reader republishing meta could clobber a concurrent writer's
            # update) — the WRITER upgrades the stamp via
            # upgrade_fingerprint_if_legacy() (CDCEngine.__init__), so a
            # FUTURE polars change to only the Binary dtype hash path
            # still fails loudly on actively-written lakes.
            legacy_ok = (current is not None and ":" in current
                         and stamped == current.split(":")[0])
            if current != stamped and not legacy_ok:
                raise RuntimeError(
                    f"content-hash kernel {t.content_hash_kernel!r} of table "
                    f"{name!r} no longer reproduces the fingerprint stamped "
                    f"at create time ({stamped!r} -> {current!r}); the hash "
                    "library changed behavior (e.g. a polars upgrade). "
                    "Re-hash the lake or pin the library version."
                )
        kt = t.meta.get("key_transform")
        if kt is not None:
            from geomesa_nifi_ray.text import key_transform_fingerprint

            cur = key_transform_fingerprint(kt)  # KeyError if unknown name
            kt_stamped = t.meta.get("key_transform_fingerprint")
            if kt_stamped is not None and cur != kt_stamped:
                raise RuntimeError(
                    f"key_transform {kt!r} of table {name!r} no longer "
                    f"reproduces the fingerprint stamped at create time "
                    f"({kt_stamped!r} -> {cur!r}); the transform kernel "
                    "changed behavior — keys already in the lake would no "
                    "longer match newly transformed ones. Rewrite the lake "
                    "or restore the old kernel."
                )
        return t

    @classmethod
    def exists(cls, root: str, name: str, fs: LakeFS | None = None) -> bool:
        if fs is None:
            return os.path.exists(os.path.join(root, name, TABLE_META))
        return fs.exists(os.path.join(root, name, TABLE_META))

    @property
    def meta(self) -> dict:
        if self._meta is None:
            self._meta = self.fs.read_json(os.path.join(self.table_dir, TABLE_META))
        return self._meta

    @property
    def schema(self) -> pa.Schema:
        return schema_from_json(self.meta["schema"])

    @property
    def num_buckets(self) -> int:
        return int(self.meta["num_buckets"])

    @property
    def key(self) -> str:
        return self.meta["key"]

    @property
    def order(self) -> list[str]:
        return list(self.meta["order"])

    @property
    def content_hash_kernel(self) -> str:
        """Table-fixed content-hash kernel ('md5' default; 'xx64' = the
        vectorized scale path, see hashing.py). Older metas default md5."""
        return self.meta.get("content_hash_kernel", "md5")

    @property
    def key_transform(self) -> str | None:
        """Table-fixed canonical-key transform name (None = identity).
        Stamped at create; every ingest convert and probe path applies it."""
        return self.meta.get("key_transform")

    def canonicalize_keys(self, keys) -> list:
        """Apply the table's stamped key transform to raw probe keys
        (lookup / delete callers may pass un-normalized crawl URLs).
        Identity when no transform is stamped; None keys pass through."""
        kt = self.key_transform
        if kt is None:
            return list(keys)
        from geomesa_nifi_ray.text import resolve_key_transform

        fn = resolve_key_transform(kt)
        return fn(pa.array(list(keys), pa.string())).to_pylist()

    def stamp_meta(self, key: str, value) -> None:
        """Persist one auxiliary key into ``_table.json`` (e.g. a mirror's
        source identity). Same publish path as schema evolution; not for
        schema/layout fields, which have dedicated setters."""
        self.stamp_meta_many({key: value})

    def stamp_meta_many(self, items: dict) -> None:
        """Persist several auxiliary keys in ONE ``_table.json`` publish —
        a crash can never leave a partial subset (e.g. a ``key_transform``
        stamp without the behavior fingerprint that guards it)."""
        meta = dict(self.meta)
        meta.update(items)
        self.fs.publish_json(os.path.join(self.table_dir, TABLE_META), meta)
        self._meta = meta

    def set_schema(self, new_schema: pa.Schema) -> None:
        """Widen the stored schema (Update compatibility mode). Epoch
        boundaries are the only safe evolution point (SURVEY.md §7.5); old
        bucket files are read with null-fill projection, never rewritten
        (cf. writer invalidation in ``DataStoreIngestProcessor.scala:245-251``)."""
        meta = dict(self.meta)
        meta["schema"] = schema_to_json(new_schema)
        meta["schema_version"] = int(meta["schema_version"]) + 1
        self.fs.publish_json(os.path.join(self.table_dir, TABLE_META), meta)
        self._meta = meta

    def upgrade_fingerprint_if_legacy(self) -> bool:
        """WRITER-side stamp upgrade: if the table carries a legacy
        utf8-only xx64 fingerprint (accepted by load() while it still
        reproduces), republish meta with the current two-part probe so a
        future polars change to only the Binary hash path fails loudly.
        A reader never calls this — load() is read-only by contract; the
        single-writer model makes the fresh-read + publish safe here."""
        from geomesa_nifi_ray.hashing import kernel_fingerprint

        stamped = self.meta.get("content_hash_fingerprint")
        if stamped is None or ":" in stamped:
            return False
        current = kernel_fingerprint(self.content_hash_kernel)
        if current is None or stamped != current.split(":")[0]:
            return False
        # fresh read: never republish a meta snapshot older than the store
        meta = dict(self.fs.read_json(
            os.path.join(self.table_dir, TABLE_META)))
        meta["content_hash_fingerprint"] = current
        self.fs.publish_json(os.path.join(self.table_dir, TABLE_META), meta)
        self._meta = meta
        return True

    # -- commit log ---------------------------------------------------------

    def _log_path(self, epoch: int) -> str:
        return os.path.join(self.table_dir, LOG_DIR, f"epoch-{epoch:05d}.json")

    def _shard_path(self, epoch: int, shard: int) -> str:
        # deliberately NOT matching the epoch-*.json pattern so
        # manifest_epochs never mistakes a shard for a manifest
        return os.path.join(self.table_dir, LOG_DIR,
                            f"shards-{epoch:05d}-{shard:04d}.json")

    def manifest_epochs(self) -> list[int]:
        """Epoch numbers with a manifest file present, ascending. Catch-up
        batched commits cover a *range* of epochs with one manifest, so the
        log is not necessarily contiguous — consumers must iterate this
        list, never ``range(committed + 1)``."""
        log_dir = os.path.join(self.table_dir, LOG_DIR)
        if self.fs.is_plain_local:
            if not os.path.isdir(log_dir):
                return []
            names = os.listdir(log_dir)
        else:
            names = self.fs.listdir(log_dir)
        return sorted(
            int(n[len("epoch-") : -len(".json")])
            for n in names
            if n.startswith("epoch-") and n.endswith(".json")
        )

    def committed_epoch(self) -> int | None:
        epochs = self.manifest_epochs()
        return max(epochs) if epochs else None

    def manifest_head(self, epoch: int) -> dict:
        """The manifest's top-level fields ONLY (epoch, offsets, counts,
        mode, ...) in one JSON GET — sharded bucket maps are NOT fetched
        or reassembled. The cheap read for cursor/metadata probes like
        ``CDCEngine.committed_offset`` that would otherwise pay O(shards)
        GETs per poll. The ``buckets`` entry map must not be used from
        the result (a sharded manifest has none — use :meth:`manifest`
        when entries are needed); the ``buckets_sharded`` METADATA
        (shards / files / bucket_ranges) is complete here and fine to
        read."""
        return self.fs.read_json(self._log_path(epoch))

    def manifest(self, epoch: int, buckets=None) -> dict:
        """Manifest for ``epoch``; sharded bucket maps reassemble
        transparently. ``buckets`` (iterable of bucket ids) restricts a
        SHARDED read to only the shard files whose recorded id range
        intersects — point lookups at P=10^5 fetch 1-2 shard JSONs
        instead of all ~10. Single-JSON manifests always return the full
        map (it was one read either way)."""
        m = self.fs.read_json(self._log_path(epoch))
        sh = m.get("buckets_sharded")
        if sh:
            n = int(sh["shards"])
            need = range(n)
            ranges = sh.get("bucket_ranges")
            if buckets is not None and ranges:
                want = sorted({int(b) for b in buckets})
                import bisect

                los = [r[0] for r in ranges]
                need = sorted({
                    i for b in want
                    for i in [min(bisect.bisect_right(los, b) - 1, n - 1)]
                    if 0 <= i and ranges[i][0] <= b <= ranges[i][1]
                })
            files = sh.get("files")
            out: dict = {}
            for i in need:
                # content-addressed names recorded in the manifest; fall
                # back to the legacy fixed naming for pre-digest manifests
                path = (os.path.join(self.table_dir, LOG_DIR, files[i])
                        if files else self._shard_path(epoch, i))
                out.update(self.fs.read_json(path)["buckets"])
            m["buckets"] = out
        return m

    def commit_epoch(self, manifest: dict) -> None:
        epoch = int(manifest["epoch"])
        committed = self.committed_epoch()
        expected = 0 if committed is None else committed + 1
        if epoch < expected:
            # idempotent replay of an already-committed epoch: results are
            # deterministic, nothing to do
            return
        # a catch-up batch commits one manifest for a contiguous range
        # [first, epoch]; it is valid iff the range starts at the cursor
        first = int(manifest.get("epochs_covered", [epoch, epoch])[0])
        if first > expected:
            raise SchemaError(f"cannot commit epoch {epoch}; next expected is {expected}")
        # running totals ride in every head, so a scrape reads the tip
        # only; a function of the previous head, so a replayed epoch
        # commits the same bytes
        prev = (ZERO_TOTALS if committed is None
                else self.totals_through(self.manifest_head(committed)))
        manifest = {**manifest, "totals": add_totals(prev, manifest)}
        buckets = manifest.get("buckets", {})
        if len(buckets) > MANIFEST_SHARD_THRESHOLD:
            # one JSON per ~10^4-bucket id range, written BEFORE the main
            # manifest — which stays the single atomic linearization point
            # (a crash after some shards leaves deterministic orphans that
            # replay overwrites byte-identically). manifest() reassembles,
            # so every consumer is oblivious; the recorded id ranges let a
            # future reader fetch only the shards its buckets live in.
            items = sorted(buckets.items(), key=lambda kv: int(kv[0]))
            chunks = [items[i:i + MANIFEST_SHARD_SIZE]
                      for i in range(0, len(items), MANIFEST_SHARD_SIZE)]
            # shards are CONTENT-ADDRESSED (name carries a digest of the
            # bytes): same name => same bytes, so overwrites are always
            # harmless (crash replay may legally re-form an epoch with
            # different content — bus sources grow trailing batches — and
            # then writes DIFFERENT names, never shadowing bytes any
            # committed manifest references; a diverged racing writer's
            # shards are likewise private to its own names). The single
            # fenced linearization point stays the main manifest PUT below;
            # losers' shards become unreferenced orphans that vacuum()
            # removes.
            import hashlib as _hashlib

            shard_files = []
            for i, chunk in enumerate(chunks):
                payload = {"epoch": epoch, "shard": i, "buckets": dict(chunk)}
                # FULL md5 of the exact published bytes: truncating would
                # weaken the never-shadow guarantee to probabilistic
                digest = _hashlib.md5(
                    json.dumps(payload, indent=1, sort_keys=True).encode()
                ).hexdigest()
                name = f"shards-{epoch:05d}-{i:04d}-{digest}.json"
                self.fs.publish_json(
                    os.path.join(self.table_dir, LOG_DIR, name), payload)
                shard_files.append(name)
            manifest = {k: v for k, v in manifest.items() if k != "buckets"}
            manifest["buckets_sharded"] = {
                "shards": len(chunks),
                "count": len(items),
                "files": shard_files,
                "bucket_ranges": [[int(c[0][0]), int(c[-1][0])]
                                  for c in chunks],
            }
        # if_absent: on conditional-PUT-capable backends the manifest
        # create is fenced — a SECOND writer racing the same epoch either
        # committed identical bytes (manifests are deterministic from the
        # immutable source epoch: benign, return) or diverged (split
        # brain: fail loudly instead of silently overwriting history)
        try:
            self.fs.publish_json(self._log_path(epoch), manifest,
                                 if_absent=True)
        except FileExistsError:
            existing = self.fs.read_json(self._log_path(epoch))
            mine = json.loads(json.dumps(manifest, sort_keys=True))
            if existing == mine:
                return
            raise SchemaError(
                f"split-brain commit: epoch {epoch} already committed "
                "with different content by another writer")

    def totals_through(self, head: dict) -> dict:
        """Running totals (:data:`TOTAL_FIELDS`) through the manifest whose
        head is ``head``: the ones it carries, or — for a head written
        before totals existed — the sum over every head up to it."""
        if "totals" in head:
            return dict(head["totals"])
        totals = dict(ZERO_TOTALS)
        epoch = int(head["epoch"])
        for e in self.manifest_epochs():
            if e <= epoch:
                totals = add_totals(
                    totals, head if e == epoch else self.manifest_head(e))
        return totals

    # -- data files ---------------------------------------------------------

    def bucket_file(self, bucket: int, epoch: int, kind: str = "base") -> str:
        """Deterministic relative path for a bucket's state as of an epoch.
        ``kind='base'`` is a full bucket snapshot; ``kind='delta'`` is the
        per-bucket delta name of lakes written before delta segments
        (:meth:`write_delta_segment`)."""
        name = f"epoch-{epoch:05d}.parquet" if kind == "base" else f"delta-{epoch:05d}.parquet"
        return os.path.join(DATA_DIR, f"bucket={bucket:05d}", name)

    @staticmethod
    def chain_refs(entry: dict) -> list[tuple[str, list | None]]:
        """A bucket's live chain, oldest first, as ``(path, range)`` refs:
        the base file, then each delta. A delta written by a merge task
        is a ``[lo, hi)`` row range of that task's segment file for the
        epoch, ``delta-<epoch>-<digest>.parquet``; a ref without a range
        is a whole file (deltas written before segments). Read refs with
        :func:`read_chains`, which opens each distinct file once.

        Chain semantics: each delta contains complete rows for the keys it
        won; merging = concat in chain order + per-key LWW with input
        position as the final tiebreak, so a later delta's row replaces an
        earlier one even on equal ``(warc_ts, offset)`` (rewrites). A key
        absent from every delta is served by the base row unchanged."""
        return [(entry["file"], None),
                *zip(entry.get("deltas", []), delta_ranges(entry))]

    @staticmethod
    def epoch_ref(entry: dict) -> tuple[str, list | None] | None:
        """``(path, range)`` of what this entry's epoch wrote for the
        bucket — its delta or its new base — or ``None`` when it wrote
        nothing (every change lost to the stored winners). Manifests from
        before deltas (no ``epoch_file``) name the bucket file."""
        if "epoch_file" not in entry:
            return entry["file"], None
        if not entry["epoch_file"]:
            return None
        return entry["epoch_file"], entry.get("epoch_file_range")

    def merge_chain(self, tables: list[pa.Table], schema: pa.Schema | None = None) -> pa.Table:
        """Merge a bucket chain (base first) into its current state
        (tombstone-aware; see :func:`merge_chain_tables`)."""
        return merge_chain_tables(tables, schema or self.schema,
                                  self.key, self.order)

    def abs_path(self, rel: str) -> str:
        return os.path.join(self.table_dir, rel)

    def live_entries(self, epoch: int | None = None,
                     buckets=None) -> dict[int, dict]:
        """bucket -> manifest entry ({file, rows, digest}) at a given epoch
        (default: latest committed). Empty dict for an empty table.
        ``buckets`` restricts a sharded-manifest read to the relevant
        shards (see :meth:`manifest`)."""
        explicit = epoch is not None
        if epoch is None:
            epoch = self.committed_epoch()
        if epoch is None:
            return {}
        self.check_time_travel_floor(epoch, refresh=explicit)
        m = self.manifest(epoch, buckets=buckets)
        return {int(b): e for b, e in m["buckets"].items()}

    def live_entries_with_pending(self) -> dict[int, dict]:
        """Committed entries overlaid with the IN-FLIGHT epoch's files
        (epoch committed+1, probed on disk) — the hot/cold composite view
        of the reference's Lambda store (``LambdaDataStoreService.scala:
        42-83``: Kafka in-flight layer over the persistent store).
        Read-uncommitted semantics: mid-epoch, only the buckets whose merge
        task has already flushed appear with pending rows — a new base
        file, or a range of a pending delta segment (found from the
        segment's footer ranges). A crash discards nothing: the committed
        view is untouched and the pending files are overwritten or
        vacuumed on replay."""
        committed = self.committed_epoch()
        nxt = 0 if committed is None else committed + 1
        entries = dict(self.live_entries())
        _exists = (os.path.exists if self.fs.is_plain_local else self.fs.exists)
        pending: dict[int, tuple[str, list]] = {}
        prefix = f"delta-{nxt:05d}-"
        for name in sorted(self.fs.listdir(os.path.join(self.table_dir,
                                                        DATA_DIR))):
            if name.startswith(prefix) and name.endswith(".parquet"):
                rel = os.path.join(DATA_DIR, name)
                for b, lo, hi in self.segment_ranges(rel):
                    # two attempts of one epoch (different task grouping)
                    # may both have flushed: the first name wins
                    pending.setdefault(int(b), (rel, [int(lo), int(hi)]))
        for b in range(self.num_buckets):
            base_rel = self.bucket_file(b, nxt, "base")
            prev = entries.get(b)
            if _exists(self.abs_path(base_rel)):
                entries[b] = {"file": base_rel, "deltas": [], "rows": -1,
                              "digest": None, "pending": True}
            elif b in pending and prev is not None:
                # a delta is only ever written over a live entry
                rel, rng = pending[b]
                entries[b] = {
                    "file": prev["file"],
                    "deltas": [*prev.get("deltas", []), rel],
                    "delta_ranges": [*delta_ranges(prev), rng],
                    "rows": -1, "digest": None, "pending": True,
                }
        return entries

    def segment_ranges(self, rel: str) -> list[list[int]]:
        """``[bucket, lo, hi]`` row ranges recorded in a delta segment's
        footer (the same ranges its manifest entries carry)."""
        md = self.fs.read_parquet_schema(self.abs_path(rel)).metadata or {}
        return json.loads(md.get(b"lake.segment", b"[]"))

    def _user_data(self, epoch: int) -> dict:
        meta = self.meta
        return {
            b"lake.key": meta["key"].encode(),
            b"lake.order": ",".join(meta["order"]).encode(),
            b"lake.schema_version": str(meta["schema_version"]).encode(),
            b"lake.kernel_version": meta["kernel_version"].encode(),
            b"lake.epoch": str(epoch).encode(),
        }

    def write_bucket_file(self, table: pa.Table, bucket: int,
                          epoch: int) -> str:
        """Write one bucket's merged state (a base file) atomically;
        returns the relative path. Deterministic content + deterministic
        path = idempotent replay.

        Table-level user data (key column, LWW order, schema/kernel
        versions) is embedded in the parquet schema metadata — the analog
        of the SFT user-data map / GeoAvro's schema-embedding writer
        (``GeoAvroRecordSetWriterFactory.scala:34-49``)."""
        rel = self.bucket_file(bucket, epoch)
        path = self.abs_path(rel)
        self.fs.makedirs(os.path.dirname(path))
        user_data = {**self._user_data(epoch),
                     b"lake.bucket": str(bucket).encode()}
        table = table.replace_schema_metadata({**(table.schema.metadata or {}), **user_data})
        # bucket files are key-sorted (both merge paths sort before write),
        # so bounded row groups give the delta merge's chain reads per-key
        # min/max pruning granularity (read_parquet_pruned); 64k web-page
        # rows ~ a few hundred MB uncompressed per group
        self.fs.publish_parquet(
            path, table,
            row_group_rows=self.meta.get("row_group_rows",
                                         BUCKET_ROW_GROUP_ROWS))
        return rel

    def write_delta_segment(self, table: pa.Table, epoch: int,
                            parts: list[tuple[int, int, int, str]]) -> str:
        """Write one merge task's delta rows for ``epoch`` as ONE segment
        file; returns its relative path. ``table`` is sorted by (bucket,
        key); ``parts`` lists ``(bucket, lo, hi, digest)`` per bucket,
        ascending, where ``[lo, hi)`` are the bucket's rows. The footer
        records the ranges too (``lake.segment``), for the hot view.

        The name is content-addressed, ``delta-<epoch>-<md5 of the
        (bucket, digest) pairs>.parquet``, as manifest shards are: a
        replay that groups buckets into tasks differently writes other
        names, so it never overwrites a segment a manifest references,
        and the same rows always land under the same name."""
        import hashlib

        key = json.dumps([[int(b), d] for b, _, _, d in parts]).encode()
        rel = os.path.join(
            DATA_DIR,
            f"delta-{epoch:05d}-{hashlib.md5(key).hexdigest()}.parquet")
        path = self.abs_path(rel)
        self.fs.makedirs(os.path.dirname(path))
        ranges = [[int(b), int(lo), int(hi)] for b, lo, hi, _ in parts]
        user_data = {**self._user_data(epoch),
                     b"lake.segment": json.dumps(ranges).encode()}
        table = table.replace_schema_metadata(
            {**(table.schema.metadata or {}), **user_data})
        self.fs.publish_parquet(path, table,
                                row_group_rows=SEGMENT_ROW_GROUP_ROWS)
        return rel

    def vacuum(self, retain_epochs: int = 2) -> list[str]:
        """Delete data files not referenced by the manifests of the last
        ``retain_epochs`` committed epochs (the writer-cache eviction /
        cleanup analog; a lake table otherwise accumulates one file per
        touched bucket per epoch forever). Returns deleted paths.

        Safe by construction: readers resolve files only through manifests,
        and every retained manifest's file set is kept — including files
        carried forward from older epochs. A delta segment holds rows of
        several buckets, so it stays while ANY retained manifest references
        it for any bucket. Files belonging to epochs NEWER than the
        committed cursor (``epoch-<e>``, ``delta-<e>-*``) are also kept: an
        in-flight epoch flushes its files before its manifest commits (the
        hot Lambda view reads them), and deleting them would let the
        eventual commit publish a manifest pointing at vacuumed paths —
        permanent corruption the crash-replay protocol cannot repair (the
        manifest exists, so the epoch never re-runs). Segments of
        committed epochs that no retained manifest references (a crashed
        attempt that grouped buckets differently) are deleted."""
        epochs = self.manifest_epochs()
        if not epochs:
            return []
        committed = epochs[-1]
        keep: set[str] = set()
        # keep the file sets of the last N manifests that actually exist —
        # catch-up commits leave gaps in the epoch numbering, so the log is
        # enumerated, never assumed contiguous; a bucket's live set is its
        # whole chain (base + deltas)
        retained = epochs[-retain_epochs:]
        for e in retained:
            for entry in self.manifest(e)["buckets"].values():
                keep.update(p for p, _ in self.chain_refs(entry))
        deleted = []
        data_root = os.path.join(self.table_dir, DATA_DIR)
        ep_re = re.compile(r"(?:epoch|delta)-(\d+)")
        doomed: list[str] = []
        for abs_path in self.fs.walk_files(data_root):
            rel = os.path.relpath(abs_path, self.table_dir)
            if not abs_path.endswith(".parquet") or rel in keep:
                continue
            m = ep_re.search(os.path.basename(abs_path))
            if m and int(m.group(1)) > committed:
                continue  # in-flight epoch's flushed-but-uncommitted file
            doomed.append(abs_path)
        if doomed:
            # time-travel floor: data files below the retained window are
            # about to go (post-compaction vacuums delete folded chains),
            # so time-travel reads are only GUARANTEED at >= the oldest
            # retained manifest. Stamped BEFORE any removal — a crash
            # mid-vacuum must not leave deleted files with no floor on
            # record, and an early stamp is merely conservative. Only DATA
            # deletions stamp: the orphan shard JSONs below are referenced
            # by no manifest, so removing them cannot invalidate any
            # committed epoch's read. The monotonic compare runs against a
            # FRESH meta read — another process may have stamped a higher
            # floor since this handle cached its meta, and a stale
            # read-modify-write would move the floor backwards.
            floor = int(retained[0])
            self._meta = None
            prev = self.meta.get("time_travel_floor")
            if prev is None or floor > int(prev):
                self.stamp_meta("time_travel_floor", floor)
        for abs_path in doomed:
            self.fs.remove(abs_path)
            deleted.append(os.path.relpath(abs_path, self.table_dir))
        # content-addressed shard JSONs: crashed or raced commits leave
        # orphans no manifest references (manifests themselves are never
        # vacuumed, so the referenced set is complete and stable). Shards
        # of epochs NEWER than the cursor are kept — they may belong to
        # an in-flight commit whose manifest lands next. Walk FIRST and
        # probe only the epochs that actually have shard files on disk —
        # typically none — instead of a manifest_head GET per committed
        # epoch (O(total epochs) on a long-lived object-store lake).
        shard_re = re.compile(r"^shards-(\d+)-")
        candidates: list[tuple[str, str, int]] = []
        for abs_path in self.fs.walk_files(os.path.join(self.table_dir,
                                                        LOG_DIR)):
            base = os.path.basename(abs_path)
            m = shard_re.match(base)
            if m is not None and int(m.group(1)) <= committed:
                candidates.append((abs_path, base, int(m.group(1))))
        if candidates:
            epoch_set = set(epochs)
            referenced: set[str] = set()
            for e in sorted({e for _, _, e in candidates} & epoch_set):
                sh = self.manifest_head(e).get("buckets_sharded")
                if not sh:
                    continue
                files = sh.get("files") or [
                    os.path.basename(self._shard_path(e, i))
                    for i in range(int(sh["shards"]))]
                referenced.update(files)
            for abs_path, base, _ in candidates:
                if base in referenced:
                    continue
                self.fs.remove(abs_path)
                deleted.append(os.path.relpath(abs_path, self.table_dir))
        return deleted

    def check_time_travel_floor(self, epoch: int, *,
                                refresh: bool = True) -> None:
        """Refuse a time-travel read below the vacuum floor with a clear
        error instead of the bare FileNotFoundError the chain read would
        otherwise surface from a deleted parquet path.

        ``refresh=True`` (explicit time-travel epochs): when the cached
        meta would ALLOW the read, ``_table.json`` is re-read once so a
        long-lived handle observes a floor stamped by another process's
        vacuum. The floor is monotonic, so a stale cache can only be too
        permissive, never too strict — the refresh closes exactly that
        gap. Head reads pass ``refresh=False`` and skip the extra GET: the
        committed epoch's chain is always within the retained window."""
        floor = self.meta.get("time_travel_floor")
        if refresh and (floor is None or epoch >= int(floor)):
            self._meta = None
            floor = self.meta.get("time_travel_floor")
        if floor is not None and epoch < int(floor):
            raise ValueError(
                f"epoch {epoch} of table {self.name!r} predates the "
                f"vacuum time-travel floor ({int(floor)}): a previous "
                "vacuum deleted data files that older epochs' chains may "
                "reference — time travel is guaranteed only within the "
                "retained window (vacuum retain_epochs)")

    # -- reads --------------------------------------------------------------

    def snapshot_files(self, epoch: int | None = None) -> list[str]:
        return list(dict.fromkeys(
            self.abs_path(p)
            for e in self.live_entries(epoch).values()
            for p, _ in self.chain_refs(e)
        ))

    def prune_chains(self, where, epoch: int | None = None,
                     include_pending: bool = False,
                     entries: dict[int, dict] | None = None,
                     ) -> tuple[dict[int, dict], dict]:
        """Zone-map pruning for a predicate scan: return the subset of live
        bucket entries whose chains COULD contain a row matching the
        normalized `where` conjunction, plus a report dict
        (``chains_total/kept/skipped``, ``files_checked``).

        Prunes whole CHAINS only, never individual files within a kept
        chain: every merged output row is a verbatim LWW-winner row from
        some chain file, so if every file's footer stats exclude the
        conjunction, the merged+filtered bucket is provably empty — but
        dropping one file from a surviving chain would change which rows
        win (tombstones / newer versions), so per-file skipping inside a
        chain is unsound for predicate scans. A conjunct column absent
        from a pre-evolution file excludes that file (readers null-fill,
        and a conjunct never matches null).

        Footer checks run distributed (one task per ~512 chains, footer
        reads only, early-exit on the first admitting file); each task
        receives only its slice of chain paths via the control table, and
        the driver materializes just the O(P) keep flags. At 100 TB /
        P=32k this is ~160k footer HEADs fanned across the cluster,
        against the full data scan it replaces."""
        if include_pending and epoch is not None:
            raise ValueError("include_pending reads the latest state; "
                             "an explicit epoch cannot be combined with it")
        if entries is not None and (epoch is not None or include_pending):
            raise ValueError("pass either a precomputed entries map or "
                             "epoch/include_pending, not both")
        wnorm = validate_where(self.schema, where)
        if entries is None:
            entries = (self.live_entries_with_pending() if include_pending
                       else self.live_entries(epoch))
        return self._prune_chains_normalized(wnorm, entries)

    def _prune_chains_normalized(self, wnorm: list[tuple],
                                 entries: dict[int, dict],
                                 ) -> tuple[dict[int, dict], dict]:
        import ray.data

        buckets = sorted(entries)
        if not buckets:
            return {}, {"chains_total": 0, "chains_kept": 0,
                        "chains_skipped": 0, "files_checked": 0}
        fs = self.fs

        def check(batch: pa.Table) -> pa.Table:
            keeps, checked = [], []
            for files in batch["files"].to_pylist():
                n = 0
                keep = False
                for p in files:
                    n += 1
                    if fs.parquet_file_could_match(p, wnorm):
                        keep = True
                        break  # one admitting file keeps the whole chain
                keeps.append(keep)
                checked.append(n)
            return pa.table({"i": batch["i"],
                             "keep": pa.array(keeps, type=pa.bool_()),
                             "checked": pa.array(checked, type=pa.int64())})

        # chain paths travel IN the control table so each task ships only
        # its own slice, not the full O(P x files) path list
        control = ray.data.from_arrow(pa.table({
            "i": pa.array(range(len(buckets)), type=pa.int64()),
            "files": pa.array(
                [list(dict.fromkeys(self.abs_path(p) for p, _ in
                                    self.chain_refs(entries[b])))
                 for b in buckets],
                type=pa.list_(pa.string())),
        })).repartition(max(1, min(len(buckets), 64)))
        flags = {r["i"]: (r["keep"], r["checked"])
                 for r in control.map_batches(check,
                                              batch_format="pyarrow").take_all()}
        kept = {b: entries[b] for j, b in enumerate(buckets) if flags[j][0]}
        report = {
            "chains_total": len(buckets),
            "chains_kept": len(kept),
            "chains_skipped": len(buckets) - len(kept),
            "files_checked": int(sum(c for _, c in flags.values())),
        }
        return kept, report

    def snapshot_dataset(self, epoch: int | None = None, columns: list[str] | None = None,
                         include_pending: bool = False, where=None):
        """Lazy Ray Dataset over the live table state, projected (null-fill)
        to the current stored schema so pre-evolution files read uniformly.

        Fast path (no bucket has pending deltas — steady state after
        compaction): a plain parallel ``read_parquet``. Delta path: one task
        per bucket reads its chain and merges (reads stay bucket-parallel;
        nothing touches the driver).

        ``where=[(col, op, literal), ...]`` returns only rows satisfying
        the conjunction (SQL null semantics), evaluated on the merged LWW
        winners — AND first prunes every bucket chain whose parquet footer
        statistics prove it can't match (:meth:`prune_chains`), so a
        selective scan reads O(matching buckets), not O(lake). The skip
        report of the most recent where-scan is left in
        ``self.last_prune_report``.

        ``include_pending=True`` returns the HOT view: committed state plus
        whatever the in-flight (uncommitted) epoch has already flushed —
        see :meth:`live_entries_with_pending`."""
        import ray.data

        if include_pending:
            if epoch is not None:
                raise ValueError("include_pending reads the latest state; "
                                 "an explicit epoch cannot be combined with it")
            entries = self.live_entries_with_pending()
        else:
            entries = self.live_entries(epoch)
        schema = self.schema
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        wnorm = None
        if where is not None:
            wnorm = validate_where(self.schema, where)
            entries, report = self._prune_chains_normalized(wnorm, entries)
            self.last_prune_report = report
        if not entries:
            return ray.data.from_arrow(schema.empty_table())
        # the exact mask needs the predicate columns even when the caller
        # didn't project them; read the union, filter, project down
        scan_cols = None
        if columns is not None:
            pred_cols = [c for c, _, _ in (wnorm or [])]
            scan_cols = list(dict.fromkeys([*columns, *pred_cols]))
        # Fast path: one parallel multi-file read. Only sound when every
        # base file shares one schema — a multi-file read_parquet takes its
        # schema from the FIRST fragment, silently dropping columns that
        # exist only in later files (and erroring under columns=). After a
        # schema evolution (schema_version > 1) untouched buckets still
        # carry pre-evolution files, so evolved tables take the per-bucket
        # chain path below, whose per-file reads project correctly.
        if (int(self.meta.get("schema_version", 0)) == 0
                and all(not e.get("deltas") for e in entries.values())):
            files = [self.abs_path(e["file"]) for e in entries.values()]
            ds = ray.data.read_parquet(
                files, columns=scan_cols,
                filesystem=None if self.fs.is_plain_local else self.fs.pafs,
            )

            def finish_fast(t: pa.Table, s=schema, w=wnorm) -> pa.Table:
                if w is not None:
                    t = t.filter(predicate_mask(t, w))
                return project_to_schema(t, s)

            return ds.map_batches(finish_fast, batch_format="pyarrow")

        key, order = self.key, self.order
        read_cols = None
        if scan_cols is not None:
            # the merge needs key+order; project down afterwards
            read_cols = sorted(set(scan_cols + [key] + order))
        chains = [json.dumps([[self.abs_path(p), r]
                              for p, r in self.chain_refs(e)])
                  for e in entries.values()]
        base = pa.schema([f for f in self.schema
                          if read_cols is None or f.name in read_cols])
        fs = self.fs

        def read_chain(batch: pa.Table) -> pa.Table:
            # the control table carries each task's OWN chain refs —
            # nothing captures the full O(P x files) path list (the
            # sliced-shipping rule prune_chains already follows)
            refs = [json.loads(c) for c in batch["chain"].to_pylist()]
            if not refs:
                # an empty control batch is possible after repartition
                return schema.empty_table()
            tabs, _, _ = read_chains(fs, refs, read_cols)
            merged = merge_bucket_chains(tabs, base, key, order)
            if wnorm is not None:
                # exact filter on the MERGED winners (the predicate
                # column may be pred-only: filter before projecting)
                merged = merged.filter(predicate_mask(merged, wnorm))
            return project_to_schema(merged, schema)

        import ray.data

        control = ray.data.from_arrow(
            pa.table({"chain": pa.array(chains, type=pa.string())})
        ).repartition(len(chains))
        return control.map_batches(read_chain, batch_format="pyarrow")

    def lookup_keys(self, keys, columns: list[str] | None = None,
                    epoch: int | None = None) -> pa.Table:
        """Keyed point lookup: the live row (if any) for each given key
        value, at the latest committed state or a time-travel ``epoch``.

        O(probe), never O(lake): keys hash to their buckets with the
        ingest partitioner (crc32 of ``str(key)`` % P), only the touched
        buckets' manifest shards are fetched (sharded manifests prune by
        bucket range), and each distinct chain file is opened ONCE with
        parquet row-group min/max key-skipping
        (:meth:`LakeFS.read_parquet_pruned` — bucket files are key-sorted),
        so a point probe reads a couple of row groups, not the bucket, and
        a delta segment shared by the probed buckets is read once. One
        LWW + tombstone pass over all probed buckets resolves exactly as in
        the snapshot: a tombstoned or never-written key returns no row.
        The store-side keyed index read of the reference's modify writer
        (``FeatureWriters.scala:115-160``) as a user-facing API.

        Driver-side by design (no Ray job — a point probe must not pay
        cluster scheduling latency); the contract is a SMALL probe set
        (≤ ~10^4 keys). For bulk key joins use :meth:`snapshot_dataset`
        with a broadcast filter instead. Output is one row per present
        key, unordered; ``columns`` projects the result."""
        import zlib

        schema = self.schema
        out_cols = list(columns) if columns is not None else list(schema.names)
        out_schema = pa.schema([schema.field(c) for c in out_cols])
        if epoch is not None and epoch not in self.manifest_epochs():
            raise ValueError(
                f"no manifest for epoch {epoch}; lookup-able epochs are "
                f"{self.manifest_epochs() or '[] (empty table)'}")
        # probe keys canonicalize with the table's stamped transform, so a
        # caller may pass raw crawl URLs against a normalized-key lake
        uniq = list(dict.fromkeys(
            self.canonicalize_keys([k for k in keys if k is not None])))
        if not uniq:
            return out_schema.empty_table()
        # merge needs key + order columns even when the caller projects
        # them away
        need = list(dict.fromkeys([self.key, *self.order, *out_cols]))
        proj_schema = pa.schema([schema.field(c) for c in need])
        by_bucket: dict[int, list] = {}
        for k in uniq:
            b = int(zlib.crc32(str(k).encode("utf-8")) % self.num_buckets)
            by_bucket.setdefault(b, []).append(k)
        entries = self.live_entries(epoch, buckets=set(by_bucket))
        probed = [b for b in sorted(by_bucket) if b in entries]
        if not probed:
            return out_schema.empty_table()
        # read_parquet_pruned projects leniently (missing names are
        # dropped), so no separate schema fetch — that extra footer GET
        # would double the object-store round trips on the point-lookup
        # hot path
        tabs, _, _ = read_chains(
            self.fs,
            [[(self.abs_path(p), r) for p, r in self.chain_refs(entries[b])]
             for b in probed],
            need, self.key, [sorted(by_bucket[b]) for b in probed])
        # read_chains keeps only the probed keys' rows: LWW is per key
        hit = merge_bucket_chains(tabs, proj_schema, self.key,
                                  list(self.order))
        return hit.select(out_cols)

    def epoch_changes_dataset(self, epoch: int, include_ops: bool = False):
        """CDC egress: the net row-level changes epoch ``epoch`` produced —
        rows of the table-as-of-``epoch`` whose winning ``offset`` falls in
        the epoch's offset range. The change-stream-to-records path of
        ``GetGeoMesaKafkaRecord`` re-expressed over manifests: only bucket
        files the epoch touched are read, then a vectorized offset filter.

        ``include_ops=True`` appends an ``_op`` column ('upsert'/'delete')
        so downstream consumers see deletions explicitly (tombstone rows
        otherwise surface as null-payload rows) — the full GeoMessage
        Change/Delete stream, not the Change-only subset the reference's
        processor emits.

        Offset-less maintenance epochs egress too: a delete epoch yields
        exactly its tombstone winners, a rewrite epoch re-emits every live
        row as an upsert (full re-broadcast — the rewrite may have
        re-derived any value column), and a clear (truncate) epoch yields
        a tombstone per previously-live key — the row-level rendering of
        GeoMessage.Clear, so a mirror consuming only rows still empties."""
        import ray.data

        self.check_time_travel_floor(epoch)
        m = self.manifest(epoch)
        if m.get("mode") == "clear":
            return self._clear_epoch_changes(epoch, include_ops)
        lo, hi = int(m["offset_min"]), int(m["offset_max"])
        # maintenance epochs (delete_keys / delete_where / rewrite_epoch)
        # advance no offsets (-1) while their written rows carry ORIGINAL
        # offsets — an offset window would match nothing and a change-
        # stream mirror would silently miss the bulk deletes (or a
        # kernel-migration rewrite). For those epochs the epoch files ARE
        # the change set: a delete epoch's deltas hold exactly the
        # tombstone winners; a rewrite holds every (possibly re-derived)
        # live row, re-emitted as upserts like a backfill re-broadcast.
        no_window = lo < 0 or m.get("mode") == "rewrite"
        # what this epoch wrote per bucket: a delta range holds exactly the
        # epoch's winners; a base (epoch 0 / compaction / update / rewrite)
        # holds older rows too — the offset filter prunes both to the
        # epoch's net changes (LakeTable.epoch_ref)
        refs = [
            (self.abs_path(ref[0]), ref[1])
            for e in m["buckets"].values()
            if int(e["rows_changed"]) > 0
            for ref in [self.epoch_ref(e)] if ref is not None
        ]
        schema = self.schema
        if not refs:
            empty = schema.empty_table()
            if include_ops:
                empty = empty.append_column("_op", pa.array([], pa.string()))
            return ray.data.from_arrow(empty)
        # One task per bucket, each reading its ref INDIVIDUALLY (only the
        # row groups of a segment its range overlaps): epoch files are
        # schema-heterogeneous (a delta carries _tomb only when its
        # segment had deletes that epoch), and a single multi-file
        # read_parquet takes its schema from the first fragment — the
        # _tomb column would be silently dropped whenever the first-listed
        # file had no tombstones, turning deletes into upserts downstream.
        lake_fs = self.fs

        def read_changes(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            out = []
            for i in batch["i"].to_pylist():
                [[t]], _, _ = read_chains(lake_fs, [[refs[i]]], None)
                if not no_window:
                    off = t["offset"]
                    t = t.filter(pc.and_(
                        pc.greater_equal(off, pa.scalar(lo, off.type)),
                        pc.less_equal(off, pa.scalar(hi, off.type))))
                tomb = (pc.fill_null(t[TOMB_COLUMN], 0)
                        if TOMB_COLUMN in t.column_names else None)
                rows = project_to_schema(t, schema)
                if include_ops:
                    if tomb is None:
                        ops = pa.nulls(rows.num_rows,
                                       pa.string()).fill_null("upsert")
                    else:
                        ops = pc.if_else(
                            pc.equal(pc.cast(tomb, pa.int8()),
                                     pa.scalar(1, pa.int8())),
                            pa.scalar("delete"), pa.scalar("upsert"),
                        )
                    rows = rows.append_column("_op", ops)
                out.append(rows)
            if not out:
                # an empty control batch (possible after repartition) must
                # yield an empty table, not a concat_tables ValueError
                empty = schema.empty_table()
                if include_ops:
                    empty = empty.append_column(
                        "_op", pa.array([], pa.string()))
                return empty
            return pa.concat_tables(out)

        control = ray.data.from_arrow(
            pa.table({"i": pa.array(range(len(refs)), type=pa.int64())})
        ).repartition(len(refs))
        return control.map_batches(read_changes, batch_format="pyarrow")

    def _clear_epoch_changes(self, epoch: int, include_ops: bool):
        """Change-stream rendering of a clear (truncate) epoch: one
        ``_op='delete'`` tombstone per key live at the previous committed
        epoch, with the winner's (key, order…) values and null payloads —
        O(previous lake) by semantics (a clear IS a table-wide event).
        Requires the pre-clear epoch to be within vacuum retention, like
        any time-travel read."""
        import ray.data

        schema = self.schema
        prev = [e for e in self.manifest_epochs() if e < epoch]

        def empty():
            t = schema.empty_table()
            if include_ops:
                t = t.append_column("_op", pa.array([], pa.string()))
            return ray.data.from_arrow(t)

        if not prev:
            return empty()  # clear of an already-empty table
        need = list(dict.fromkeys([self.key, *self.order]))
        ds = self.snapshot_dataset(columns=need, epoch=prev[-1])
        pre_hash = pa.schema([f for f in schema if f.name != "content_hash"])
        key_name, kernel = self.key, self.content_hash_kernel
        num_buckets = self.num_buckets

        def to_tombstones(batch: pa.Table) -> pa.Table:
            from geomesa_nifi_ray.hashing import add_hash_and_bucket

            # null-fill to the stored schema, then compute content_hash
            # with the table's kernel over the null payloads — the EXACT
            # hash a delete-epoch tombstone carries (the converter hashes
            # null text/lang the same way), so clear- and delete-epoch
            # tombstones render identically on the change stream
            t = project_to_schema(batch, pre_hash)
            t = add_hash_and_bucket(t, num_buckets, url_col=key_name,
                                    kernel=kernel)
            t = t.drop_columns(["bucket"]).select([f.name for f in schema])
            if include_ops:
                t = t.append_column(
                    "_op",
                    pa.nulls(t.num_rows, pa.string()).fill_null("delete"))
            return t

        return ds.map_batches(to_tombstones, batch_format="pyarrow")

    def epoch_diff_dataset(self, epoch_a: int, epoch_b: int):
        """Row-level diff between the table states at two committed
        epochs: ``_change`` in {'added', 'removed', 'changed'} with the
        epoch-b payload for added/changed rows and the epoch-a payload
        for removed rows (keys whose LWW winner became a tombstone).

        Scale shape: BUCKET-LOCAL — both states live in the same bucketed
        layout, so one task diffs one bucket's chains at the two epochs
        and there is no shuffle at any size; buckets whose manifest
        entries are identical at both epochs (same files + digests) are
        skipped without reading a byte. The time-travel analog of the
        reference's change-stream egress (``GetGeoMesaKafkaRecord``'s
        Change/Delete stream) computed between arbitrary epochs."""
        import ray.data

        schema, key, order = self.schema, self.key, self.order
        if "content_hash" not in schema.names:
            raise ValueError(
                "epoch_diff_dataset requires a content_hash column (the "
                "row-identity the 'changed' classification compares); "
                f"table {self.name!r} schema has none")
        avail = self.manifest_epochs()
        missing = sorted({e for e in (epoch_a, epoch_b) if e not in avail})
        if missing:
            raise ValueError(
                f"no manifest for epoch(s) {missing}; diffable epochs are "
                f"{avail or '[] (empty table)'} — catch-up replay commits "
                "ONE range manifest at its final epoch (intermediate "
                "epochs have no snapshot to diff against) and vacuum "
                "retires old manifests")
        ea = self.live_entries(epoch_a)
        eb = self.live_entries(epoch_b)
        work = [b for b in sorted(set(ea) | set(eb)) if ea.get(b) != eb.get(b)]
        out_schema = schema.append(pa.field("_change", pa.string()))
        if not work:
            return ray.data.from_arrow(out_schema.empty_table())
        lake_fs = self.fs

        def _state(chain: str) -> pa.Table:
            refs = json.loads(chain)
            if not refs:
                return schema.empty_table()
            [tabs], _, _ = read_chains(lake_fs, [refs], None)
            return merge_chain_tables(tabs, schema, key, order)

        def _tag(t: pa.Table, tag: str) -> pa.Table:
            return t.append_column(
                "_change", pa.nulls(t.num_rows, pa.string()).fill_null(tag))

        def diff(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            out = []
            for fa, fb in zip(batch["fa"].to_pylist(),
                              batch["fb"].to_pylist()):
                ta, tb = _state(fa), _state(fb)
                ka = ta[key].combine_chunks()
                kb = tb[key].combine_chunks()
                pos_in_a = pc.index_in(kb, value_set=ka)
                new_mask = pc.is_null(pos_in_a)
                out.append(_tag(tb.filter(new_mask), "added"))
                both = tb.filter(pc.invert(new_mask))
                pos = pos_in_a.filter(pc.invert(new_mask))
                a_hash = ta["content_hash"].combine_chunks().take(pos)
                diff_mask = pc.not_equal(
                    pc.fill_null(both["content_hash"], ""),
                    pc.fill_null(a_hash, ""))
                out.append(_tag(both.filter(diff_mask), "changed"))
                gone = pc.is_null(pc.index_in(ka, value_set=kb))
                out.append(_tag(ta.filter(gone), "removed"))
            out = [t for t in out if t.num_rows]
            return pa.concat_tables(out) if out else out_schema.empty_table()

        # the control table CARRIES each bucket's two chains (JSON refs) so
        # a task receives only its own rows — a closure-captured {bucket:
        # chains} map would ship O(P) state to each of P tasks (O(P^2))
        def chain(entries: dict[int, dict], b: int) -> str:
            return json.dumps([[self.abs_path(p), r] for p, r in
                               self.chain_refs(entries[b])] if b in entries
                              else [])

        control = ray.data.from_arrow(pa.table({
            "fa": pa.array([chain(ea, b) for b in work], pa.string()),
            "fb": pa.array([chain(eb, b) for b in work], pa.string()),
        })).repartition(len(work))
        return control.map_batches(diff, batch_format="pyarrow")

    def snapshot_table(self, epoch: int | None = None,
                       include_pending: bool = False) -> pa.Table:
        """Driver-side snapshot as one Arrow table — tests / small tables only."""
        entries = (self.live_entries_with_pending() if include_pending
                   else self.live_entries(epoch))
        schema = self.schema
        if not entries:
            return schema.empty_table()
        chains = [[(self.abs_path(p), r) for p, r in self.chain_refs(e)]
                  for _, e in sorted(entries.items())]
        # every delta ref in one call (a segment shared by buckets is read
        # once), then bucket by bucket its base and its merge: reading
        # every base up front as well kept all of them in memory beside
        # the merged parts, which raised the driver's peak memory
        deltas, _, _ = read_chains(self.fs, [c[1:] for c in chains], None)
        parts = []
        for chain, tail in zip(chains, deltas):
            [[base]], _, _ = read_chains(self.fs, [chain[:1]], None)
            parts.append(merge_chain_tables([base, *tail], schema, self.key,
                                            self.order))
        out = pa.concat_tables(parts)
        import pyarrow.compute as pc

        return out.take(pc.sort_indices(out, sort_keys=[(self.key, "ascending")]))

    def schema_fingerprint(self) -> str:
        return schema_fingerprint(self.schema)
