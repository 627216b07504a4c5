"""Incrementally-maintained derived views over the CDC lake.

The point of a CDC engine is that DOWNSTREAM state can be maintained from
the change stream instead of recomputed from scratch — the reference's
Kafka-egress consumers do exactly this (``GetGeoMesaKafkaRecord`` feeding
downstream NiFi flows). This module closes that loop in-engine with the
simplest useful materialized view: ``COUNT(*) GROUP BY <col>`` kept exact
under upserts.

Per committed epoch ``e`` the view applies a DELTA, never a rescan:

+ the epoch's net new winner rows    (``epoch_file`` per touched bucket,
                                      offset-range filtered — the same
                                      source ``epoch_changes_dataset``
                                      reads);
- the previous values those keys had (the touched buckets' chains AT the
                                      previous manifest epoch — the
                                      manifest log doubles as time travel,
                                      so "state before e" is a first-class
                                      read);

so per-epoch work is O(changed buckets), not O(lake). Reads run as one
Ray task per touched bucket (the ``snapshot_dataset`` chain-reader
pattern); only the tiny per-group delta table reaches the driver.

Exactly-once: the view state (``view-<col>.json``) records
``last_epoch`` and is written atomically; ``refresh()`` applies committed
manifests strictly in order and skips epochs already applied, so crashes
and re-runs converge (tested: incremental == full recompute after every
epoch).

Scope: offset-monotonic CDC epochs (upsert / update / per-row modes).
Out-of-band rewrites (``rewrite_epoch``) change rows without advancing
offsets; call ``rebuild()`` after one (documented, asserted by keeping
the full-recompute path first-class).

Cardinality: view state is a JSON counts map — right for group columns
with up to ~10^6 distinct values (lang, host, content-type...). A
high-cardinality view (group = url prefix, say) would keep the same
delta math but store counts as a keyed parquet table updated through the
generic CDC engine itself; the per-epoch delta computation is unchanged.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from geomesa_nifi_ray.lake import LakeTable, _atomic_write_json


def _offsetless_epoch(m: dict) -> bool:
    """True for out-of-band maintenance epochs whose manifest advances no
    offsets (``offset_min/max = -1``): ``rewrite_epoch`` (mode 'rewrite')
    and the ``delete_keys`` / ``delete_where`` tombstone epochs (mode
    'upsert', synthesized events). Their written rows carry ORIGINAL
    offsets, so the offset-windowed epoch delta is empty by construction
    and incremental consumers must recompute at the epoch instead.
    ``mode='clear'`` is handled separately (view truncate)."""
    return (m.get("mode") == "rewrite"
            or int(m.get("offset_min", 0)) < 0)


class GroupCountView:
    """Exact ``COUNT(*) GROUP BY group_col`` over the lake's live winners,
    maintained incrementally from epoch change sets."""

    def __init__(self, table: LakeTable, root: str, group_col: str = "lang"):
        self.table = table
        self.root = root
        self.col = group_col
        os.makedirs(root, exist_ok=True)
        self._path = os.path.join(root, f"view-{group_col}.json")

    # -- state ---------------------------------------------------------------

    def _load(self) -> dict:
        if not os.path.exists(self._path):
            return {"last_epoch": None, "counts": {}}
        with open(self._path) as f:
            return json.load(f)

    def counts(self) -> dict[str, int]:
        return {k: int(v) for k, v in self._load()["counts"].items()}

    def as_table(self) -> pa.Table:
        c = self.counts()
        keys = sorted(c)
        return pa.table({
            self.col: pa.array(keys, type=pa.string()),
            "n": pa.array([c[k] for k in keys], type=pa.int64()),
        })

    # -- maintenance ---------------------------------------------------------

    def refresh(self) -> int:
        """Apply all committed epochs newer than the view state, in commit
        order. Returns the number of epochs applied. Idempotent."""
        state = self._load()
        last = state["last_epoch"]
        applied = 0
        epochs = self.table.manifest_epochs()
        for i, e in enumerate(epochs):
            if last is not None and e <= last:
                continue
            m = self.table.manifest(e)
            if m.get("mode") == "clear":
                # truncate epoch: the table state is now empty, so the view
                # resets — symmetric with rebuild() over an empty snapshot
                state = {"last_epoch": int(e), "counts": {}}
                _atomic_write_json(self._path, state)
                applied += 1
                continue
            if _offsetless_epoch(m):
                # out-of-band maintenance epoch (rewrite_epoch,
                # delete_keys/delete_where): offsets do not advance
                # (offset_min/max = -1) while the written rows carry their
                # ORIGINAL offsets, so the offset-windowed epoch delta is
                # empty by construction — recompute from the snapshot AT
                # this epoch instead of silently advancing the cursor past
                # a change
                state = {"last_epoch": int(e),
                         "counts": self._recompute_counts(epoch=e)}
                _atomic_write_json(self._path, state)
                applied += 1
                continue
            prev = epochs[i - 1] if i > 0 else None
            delta = self._epoch_delta(e, prev, manifest=m)
            counts = dict(state["counts"])
            for k, d in delta.items():
                n = counts.get(k, 0) + d
                if n:
                    counts[k] = n
                else:
                    counts.pop(k, None)
            state = {"last_epoch": int(e), "counts": counts}
            _atomic_write_json(self._path, state)
            applied += 1
        return applied

    def _read_columns(self) -> list[str]:
        return [self.col]

    def _partials(self, t: pa.Table) -> pa.Table:
        return self._partial_counts(t, self.col)

    def rebuild(self) -> None:
        """Full recompute (bootstrap, or after an out-of-band rewrite)."""
        _atomic_write_json(self._path, {
            "last_epoch": self.table.committed_epoch(),
            "counts": self._recompute_counts(),
        })

    def _recompute_counts(self, epoch: int | None = None) -> dict[str, int]:
        """Full distributed recompute of the counts map at ``epoch``
        (default: latest committed). Only the folded map reaches the
        driver — O(groups), the JSON-state cardinality contract."""
        import ray.data  # noqa: F401  (callers own the session)

        ds = self.table.snapshot_dataset(epoch=epoch,
                                         columns=self._read_columns())
        agg: dict[str, int] = {}
        for blk in ds.map_batches(self._partials,
                                  batch_format="pyarrow").iter_batches(
                                      batch_format="pyarrow"):
            for k, n in zip(blk["k"].to_pylist(), blk["n"].to_pylist()):
                agg[k] = agg.get(k, 0) + int(n)
        return {k: v for k, v in agg.items() if v}

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _partial_counts(t: pa.Table, col: str | None = None) -> pa.Table:
        c = col or t.column_names[0]
        # null group values are skipped (JSON state cannot key on null;
        # rebuild() and the incremental path both route through here, so
        # the skip is consistent end-to-end)
        vc = t[c].combine_chunks().drop_null().value_counts()
        return pa.table({
            "k": pc.cast(vc.field("values"), pa.string()),
            "n": pc.cast(vc.field("counts"), pa.int64()),
        })

    def _epoch_delta(self, epoch: int, prev_epoch: int | None,
                     manifest: dict | None = None) -> dict[str, int]:
        return epoch_group_delta(self.table, self.col, epoch, prev_epoch,
                                 manifest=manifest)


# named pure value kernels for SUM views (named, not lambdas-from-callers,
# so the aggregation definition is declarative/serializable and the view
# state file can record it)
_VALUE_KERNELS = {
    "identity": lambda a: a,
    "utf8_length": lambda a: pc.utf8_length(a),
    "binary_length": lambda a: pc.binary_length(a),
}


def _partial_agg(t: pa.Table, col: str, value_col: str | None = None,
                 value_kernel: str = "identity") -> pa.Table:
    """Per-block partial aggregate: COUNT(*) per group when ``value_col``
    is None (delegates to the count partials), else SUM(kernel(value)) per
    group. Null groups are skipped (consistent with the count path); null
    values contribute nothing (Arrow sum skips nulls on both the +new and
    -old sides, so deltas stay exact)."""
    if value_col is None:
        return GroupCountView._partial_counts(t, col)
    kern = _VALUE_KERNELS[value_kernel]
    k = pc.cast(t[col].combine_chunks(), pa.string())
    v = pc.cast(kern(t[value_col].combine_chunks()), pa.int64())
    tbl = pa.table({"k": k, "v": v}).filter(pc.is_valid(k))
    gb = tbl.group_by("k").aggregate([("v", "sum")])
    return pa.table({"k": gb["k"],
                     "n": pc.cast(pc.fill_null(gb["v_sum"], 0), pa.int64())})


def epoch_group_delta_dataset(table: LakeTable, col: str, epoch: int,
                              prev_epoch: int | None,
                              manifest: dict | None = None,
                              value_col: str | None = None,
                              value_kernel: str = "identity"):
    """Per-group count delta contributed by one committed epoch, as a
    lazy ``ray.data.Dataset`` of PARTIAL ``(k, n)`` rows (one Ray task per
    touched source bucket reads the new winners and the old values of the
    same keys and emits +/- partial counts; the same ``k`` may appear in
    several blocks). Returns ``None`` when the epoch touched nothing.
    ``manifest`` lets the caller pass an already-fetched manifest (refresh
    reads it for the mode check; an object-store lake pays a JSON GET per
    fetch).

    Single source of the delta math for every consumer:
    :func:`epoch_group_delta` folds it into a driver dict
    (:class:`GroupCountView`, small-delta :class:`KeyedGroupCountView`);
    ``KeyedGroupCountView.refresh(distributed=True)`` keeps it in Ray and
    joins it against the view buckets with one hash exchange — no
    O(delta) driver state at all."""
    import ray.data

    m = manifest if manifest is not None else table.manifest(epoch)
    lo, hi = int(m["offset_min"]), int(m["offset_max"])
    key = table.key
    prev_entries = table.live_entries(prev_epoch) if prev_epoch is not None else {}
    touched = []
    for b, e in m["buckets"].items():
        new = LakeTable.epoch_ref(e)
        if int(e.get("rows_changed", 0)) <= 0 or new is None:
            continue
        prev = prev_entries.get(int(b))
        touched.append({
            "new": (table.abs_path(new[0]), new[1]),
            "old": [(table.abs_path(p), r)
                    for p, r in LakeTable.chain_refs(prev)] if prev else [],
        })
    if not touched:
        return None
    lww_key, lww_order = table.key, table.order
    # prev-chain reads must be tombstone-aware: a delta file's _tomb row
    # can be the LWW winner for its key (the key was deleted), in which
    # case the key has NO previous live value to subtract. Reuse the
    # lake's canonical chain merge over just the columns we need.
    full_schema = table.schema
    prev_cols = [lww_key, col] + [c for c in lww_order
                                  if c not in (lww_key, col)]
    if value_col is not None and value_col not in prev_cols:
        prev_cols.append(value_col)
    prev_schema = pa.schema([f for f in full_schema if f.name in prev_cols])

    lake_fs = table.fs

    def bucket_delta(batch: pa.Table) -> pa.Table:
        from geomesa_nifi_ray.lake import (
            TOMB_COLUMN,
            merge_chain_tables,
            read_chains,
        )

        outs = []
        for i in batch["i"].to_pylist():
            spec = touched[i]
            # the epoch's ref alone: only the row groups of a segment its
            # range overlaps; columns project leniently
            [[new]], _, _ = read_chains(
                lake_fs, [[spec["new"]]],
                [key, "offset", col] + ([value_col] if value_col else []))
            if col not in new.column_names:
                # pre-evolution epoch file without the GROUP column: rows
                # get a null group, which the partials skip — same rule as
                # the rebuild path's null-filled projection
                new = new.append_column(
                    col, pa.nulls(new.num_rows, full_schema.field(col).type))
            off = new["offset"]
            mask = pc.and_(pc.greater_equal(off, pa.scalar(lo)),
                           pc.less_equal(off, pa.scalar(hi)))
            new = new.filter(mask)
            if new.num_rows == 0:
                continue
            # tombstone rows contribute NO +1 (the key is leaving);
            # their keys still drive the -old subtraction below
            live_new = new
            if TOMB_COLUMN in new.column_names:
                live_new = new.filter(pc.invert(pc.equal(
                    pc.fill_null(new[TOMB_COLUMN], 0),
                    pa.scalar(1, pa.int8()))))
            if live_new.num_rows:
                if (value_col is not None
                        and value_col not in live_new.column_names):
                    # pre-evolution epoch file without the value column:
                    # null values contribute nothing to the SUM (same rule
                    # as the rebuild path), so null-fill rather than KeyError
                    live_new = live_new.append_column(
                        value_col,
                        pa.nulls(live_new.num_rows,
                                 full_schema.field(value_col).type))
                sel = [col] + ([value_col] if value_col is not None else [])
                plus = _partial_agg(live_new.select(sel), col,
                                    value_col, value_kernel)
                outs.append(plus)
            if spec["old"]:
                [old], _, _ = read_chains(lake_fs, [spec["old"]], prev_cols)
                # tombstone-aware LWW: a deleted key yields no prev row
                prev_tbl = merge_chain_tables(
                    old, prev_schema, lww_key, lww_order)
                hit = prev_tbl.filter(
                    pc.is_in(prev_tbl[key], value_set=new[key].combine_chunks())
                )
                if hit.num_rows:
                    sel = [col] + ([value_col] if value_col is not None else [])
                    minus = _partial_agg(hit.select(sel), col,
                                         value_col, value_kernel)
                    minus = minus.set_column(
                        1, "n", pc.multiply(minus["n"], pa.scalar(-1)))
                    outs.append(minus)
        if not outs:
            return pa.table({"k": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return pa.concat_tables(outs)

    control = ray.data.from_arrow(
        pa.table({"i": pa.array(range(len(touched)), type=pa.int64())})
    ).repartition(len(touched))
    return control.map_batches(bucket_delta, batch_format="pyarrow")


def epoch_group_delta(table: LakeTable, col: str, epoch: int,
                      prev_epoch: int | None,
                      manifest: dict | None = None,
                      value_col: str | None = None,
                      value_kernel: str = "identity") -> dict[str, int]:
    """Driver-dict consumer of :func:`epoch_group_delta_dataset`: folds
    the partial rows into ``{group: +/-count-or-sum}``. O(groups touched
    by this epoch) driver memory, never O(total groups)."""
    ds = epoch_group_delta_dataset(table, col, epoch, prev_epoch,
                                   manifest=manifest, value_col=value_col,
                                   value_kernel=value_kernel)
    if ds is None:
        return {}
    agg: dict[str, int] = {}
    for blk in ds.iter_batches(batch_format="pyarrow"):
        for k, n in zip(blk["k"].to_pylist(), blk["n"].to_pylist()):
            agg[k] = agg.get(k, 0) + int(n)
    return {k: v for k, v in agg.items() if v}


class KeyedGroupCountView:
    """High-cardinality ``COUNT(*) GROUP BY group_col``: the view state is
    itself a CDC lake table — key = group value, columns ``(k, n, offset)``
    — maintained through the generic engine
    (``CDCEngine(convert_fn_factory=make_generic_convert_fn)``), exactly
    the keyed-parquet variant :class:`GroupCountView`'s docstring promises.

    What this buys over the JSON counts map:

    * state is bucketed parquet — 10^5..10^9 groups never live in one JSON
      blob or in driver memory; reads are bucket-pruned point lookups;
    * every view update is an exactly-once epoch of the SAME engine
      (atomic manifest commit, crash/resume, delta files, time travel on
      the VIEW itself), so the downstream-consumer loop is literally
      CDC-on-CDC — the reference's Kafka-egress consumer feeding another
      GeoMesa store (``GetGeoMesaKafkaRecord`` -> ``PutGeoMesa``);
    * deletes are first-class: a group whose count reaches 0 is emitted as
      an ``_op='delete'`` tombstone event, not a lingering ``n=0`` row.

    Epoch parity is 1:1 — view epoch e holds the counts of source epoch e
    (``manifest.offset_min/max`` = the source epoch), so the view cursor
    IS ``view.table.committed_epoch()``: no side state file, and a crash
    anywhere re-converges because ``apply_epoch`` skips committed epochs
    and the delta recompute is deterministic from immutable source files.

    Per-epoch cost envelope: delta = O(source buckets touched); lookup =
    O(view buckets touched by the delta's groups) bucket-pruned Ray-task
    reads; commit = one engine epoch over O(groups touched) rows. Only
    the touched-group delta dict transits the driver (same envelope as
    the source epoch itself). ``rebuild()`` / ``counts()`` are O(total
    groups) by definition and documented as such.
    """

    VIEW_SCHEMA = pa.schema([
        pa.field("k", pa.string()),
        pa.field("n", pa.int64()),
        pa.field("offset", pa.int64()),
        pa.field("content_hash", pa.string()),
    ])

    def __init__(self, table: LakeTable, root: str, group_col: str = "lang",
                 num_buckets: int = 16, lake_fs=None):
        from geomesa_nifi_ray.engine import CDCEngine, make_generic_convert_fn

        self.table = table
        self.col = group_col
        self.engine = CDCEngine(
            root,
            table_name=f"view_{group_col}",
            num_buckets=num_buckets,
            schema=self.VIEW_SCHEMA,
            key="k",
            order=("offset",),
            convert_fn_factory=make_generic_convert_fn,
            lake_fs=lake_fs,
        )

    # -- reads ----------------------------------------------------------------

    def last_epoch(self) -> int | None:
        return self.engine.table.committed_epoch()

    def as_table(self) -> pa.Table:
        """Current counts, sorted by group, column named after the group
        col (same surface as :meth:`GroupCountView.as_table`). Driver-
        materialized: the read path for tests/small views; big views read
        ``engine.table.snapshot_dataset()`` and stay distributed."""
        t = self.engine.table.snapshot_table().select(["k", "n"])
        t = t.take(pc.sort_indices(t, sort_keys=[("k", "ascending")]))
        return t.rename_columns([self.col, "n"])

    def counts(self) -> dict[str, int]:
        t = self.as_table()
        return dict(zip(t.column(0).to_pylist(),
                        (int(v) for v in t.column(1).to_pylist())))

    # -- maintenance ----------------------------------------------------------

    def refresh(self, distributed: bool = False) -> int:
        """Apply all committed source epochs newer than the view cursor, in
        commit order, each as one exactly-once view epoch. Idempotent.

        ``distributed=False`` (default) folds each epoch's delta into a
        driver dict — O(groups touched by the epoch) driver memory, right
        for steady-state epochs. ``distributed=True`` never materializes
        the delta on the driver: the partial-delta Dataset is hash-
        exchanged to the view's buckets and each bucket task joins its own
        chain and emits the event rows — O(1) driver state, the 100 TB
        path for backfill/catch-up epochs whose delta is itself huge.
        Both paths produce identical view state (tested)."""
        applied = 0
        epochs = self.table.manifest_epochs()
        last = self.engine.table.committed_epoch()
        for i, e in enumerate(epochs):
            if last is not None and e <= last:
                continue
            m = self.table.manifest(e)
            if m.get("mode") == "clear":
                # source truncate -> view truncate, same epoch number
                self.engine.truncate(epoch=e)
                applied += 1
                continue
            # catch-up source lakes commit ONE manifest covering an epoch
            # span (epochs_covered); mirror the span so the view's epoch
            # numbering stays 1:1 with the source numbering it tracks
            vc = self.engine.table.committed_epoch()
            expected = 0 if vc is None else vc + 1
            if _offsetless_epoch(m):
                # out-of-band maintenance epoch (rewrite_epoch,
                # delete_keys/delete_where): offsets do not advance
                # (offset_min/max = -1) while the written rows carry their
                # ORIGINAL offsets, so the offset-windowed epoch delta is
                # empty by construction. Recompute from the source snapshot
                # AT this epoch and commit it as this view epoch —
                # advancing the cursor with an empty delta would leave the
                # view permanently stale (rebuild()'s cursor guard would
                # then see nothing to do)
                self._rebuild_at(e, epochs_covered=(expected, e))
                applied += 1
                continue
            prev = epochs[i - 1] if i > 0 else None
            if distributed:
                self._apply_delta_distributed(e, prev, m,
                                              epochs_covered=(expected, e))
            else:
                delta = epoch_group_delta(self.table, self.col, e, prev,
                                          manifest=m)
                self._apply_delta(delta, epoch=e,
                                  epochs_covered=(expected, e))
            applied += 1
        return applied

    def rebuild(self, force: bool = False) -> None:
        """Full recompute as ONE catch-up view epoch (bootstrap, or repair):
        recompute all counts, diff against the view's current keys so
        vanished groups become tombstones, and land the view cursor exactly
        at the source's committed epoch via ``epochs_covered``. O(total
        groups) by definition.

        ``force=True`` repairs a view whose cursor already sits at the
        source's committed epoch but whose counts are suspect (e.g. the
        view log predates rewrite-aware ``refresh``). The commit log is
        append-only and 1:1 with source numbering, so the repair RESETS the
        view's lake table (all files under its table dir are removed) and
        bootstrap-commits one catch-up epoch covering ``(0, src_committed)``
        — cursor parity and all invariants are restored in one epoch."""
        src_committed = self.table.committed_epoch()
        if src_committed is None:
            return
        view_committed = self.engine.table.committed_epoch()
        if view_committed is not None and view_committed >= src_committed:
            if not force:
                return
            self._reset_view_table()
            view_committed = None
        expected = 0 if view_committed is None else view_committed + 1
        self._rebuild_at(src_committed,
                         epochs_covered=(expected, src_committed))

    def _rebuild_at(self, epoch: int,
                    epochs_covered: tuple[int, int]) -> None:
        """Recompute counts from the source snapshot AT ``epoch`` and commit
        them as view epoch ``epoch`` (tombstoning groups that vanished)."""
        ds = self.table.snapshot_dataset(epoch=epoch, columns=[self.col])
        counts: dict[str, int] = {}
        col = self.col
        for blk in ds.map_batches(
                lambda t: GroupCountView._partial_counts(t, col),
                batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
            for k, n in zip(blk["k"].to_pylist(), blk["n"].to_pylist()):
                counts[k] = counts.get(k, 0) + int(n)
        stale = [k for k in self._existing_keys() if k not in counts]
        self._commit_events(
            upserts={k: v for k, v in counts.items() if v},
            deletes=stale,
            epoch=epoch,
            epochs_covered=epochs_covered,
        )

    def _reset_view_table(self) -> None:
        """Remove every file of the VIEW's lake table and re-open the
        engine on the now-empty dir (``CDCEngine`` recreates ``_table.json``
        on construction). Local-FS and object-store safe: file removals
        only, directories are left behind/virtual."""
        from geomesa_nifi_ray.engine import CDCEngine, make_generic_convert_fn

        vt = self.engine.table
        for f in vt.fs.walk_files(vt.table_dir):
            vt.fs.remove(f)
        self.engine = CDCEngine(
            self.engine.lake_root,
            table_name=self.engine.table_name,
            num_buckets=vt.num_buckets,
            schema=self.VIEW_SCHEMA,
            key="k",
            order=("offset",),
            convert_fn_factory=make_generic_convert_fn,
            lake_fs=vt.fs,
        )

    # -- internals --------------------------------------------------------------

    def _existing_keys(self) -> list[str]:
        vt = self.engine.table
        if vt.committed_epoch() is None:
            return []
        return vt.snapshot_table().column("k").to_pylist()

    def _lookup_counts(self, keys: list[str]) -> dict[str, int]:
        """Point-lookup current counts for ``keys``: bucket-pruned,
        tombstone-aware chain reads, one Ray task per touched view bucket."""
        if not keys:
            return {}
        import ray.data

        from geomesa_nifi_ray.hashing import bucket_ids
        from geomesa_nifi_ray.lake import merge_chain_tables

        vt = self.engine.table
        if vt.committed_epoch() is None:
            return {}
        buckets = bucket_ids(keys, vt.num_buckets)
        # shard-pruned manifest read: only the shard files covering the
        # touched view buckets are fetched (P=10^5 views pay 1-2 JSON
        # GETs per lookup, not the whole bucket map)
        live = vt.live_entries(buckets={int(b) for b in buckets})
        by_bucket: dict[int, list[str]] = {}
        for k, b in zip(keys, buckets):
            if int(b) in live:
                by_bucket.setdefault(int(b), []).append(k)
        if not by_bucket:
            return {}
        specs = [
            {"refs": [(vt.abs_path(p), r)
                      for p, r in LakeTable.chain_refs(live[b])],
             "keys": ks}
            for b, ks in sorted(by_bucket.items())
        ]
        schema = pa.schema([
            pa.field("k", pa.string()),
            pa.field("n", pa.int64()),
            pa.field("offset", pa.int64()),
        ])
        lake_fs = vt.fs

        def lookup(batch: pa.Table) -> pa.Table:
            from geomesa_nifi_ray.lake import read_chains

            outs = []
            for i in batch["i"].to_pylist():
                spec = specs[i]
                [tabs], _, _ = read_chains(lake_fs, [spec["refs"]],
                                           ("k", "n", "offset"))
                merged = merge_chain_tables(tabs, schema, "k", ["offset"])
                hit = merged.filter(
                    pc.is_in(merged["k"], value_set=pa.array(spec["keys"])))
                if hit.num_rows:
                    outs.append(hit.select(["k", "n"]))
            if not outs:
                return pa.table({"k": pa.array([], pa.string()),
                                 "n": pa.array([], pa.int64())})
            return pa.concat_tables(outs)

        control = ray.data.from_arrow(
            pa.table({"i": pa.array(range(len(specs)), type=pa.int64())})
        ).repartition(len(specs))
        out: dict[str, int] = {}
        for blk in control.map_batches(lookup,
                                       batch_format="pyarrow").iter_batches(
                                           batch_format="pyarrow"):
            for k, n in zip(blk["k"].to_pylist(), blk["n"].to_pylist()):
                out[k] = int(n)
        return out

    def _apply_delta(self, delta: dict[str, int], epoch: int,
                     epochs_covered: tuple[int, int] | None = None) -> None:
        touched = sorted(delta)
        old = self._lookup_counts(touched)
        upserts: dict[str, int] = {}
        deletes: list[str] = []
        for k in touched:
            n = old.get(k, 0) + delta[k]
            if n:
                upserts[k] = n
            elif k in old:
                deletes.append(k)
            # n == 0 and no existing row: nothing to write
        self._commit_events(upserts, deletes, epoch=epoch,
                            epochs_covered=epochs_covered)

    def _apply_delta_distributed(self, epoch: int, prev_epoch: int | None,
                                 manifest: dict,
                                 epochs_covered: tuple[int, int] | None = None,
                                 ) -> None:
        """Delta -> events without driver materialization: the partial
        (k, n) Dataset is bucketed by the VIEW's hash (one exchange of
        O(delta) rows), then each view-bucket task sums its partials,
        point-looks-up its own chain for the old counts and emits the
        epoch's event rows. Only apply_epoch's commit bookkeeping runs on
        the driver."""
        import ray.data

        delta_ds = epoch_group_delta_dataset(self.table, self.col, epoch,
                                             prev_epoch, manifest=manifest)
        vt = self.engine.table
        if delta_ds is None:
            self._commit_events({}, [], epoch=epoch,
                                epochs_covered=epochs_covered)
            return
        live = vt.live_entries()
        nb = vt.num_buckets
        lake_fs = vt.fs
        chain_specs = {int(b): [(vt.abs_path(p), r)
                                for p, r in LakeTable.chain_refs(e)]
                       for b, e in live.items()}
        chain_schema = pa.schema([
            pa.field("k", pa.string()),
            pa.field("n", pa.int64()),
            pa.field("offset", pa.int64()),
        ])

        def add_vbucket(t: pa.Table) -> pa.Table:
            from geomesa_nifi_ray.hashing import bucket_ids

            return t.append_column(
                "vb", pa.array(bucket_ids(t["k"].to_pylist(), nb), pa.int32()))

        def vbucket_events(g: pa.Table) -> pa.Table:
            from geomesa_nifi_ray.lake import TOMB_COLUMN, merge_chain_tables

            empty = pa.table({
                "k": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "offset": pa.array([], pa.int64()),
                "_op": pa.array([], pa.string()),
            })
            if g.num_rows == 0:
                return empty
            # sum this bucket's partials per group
            gb = g.select(["k", "n"]).group_by("k").aggregate([("n", "sum")])
            ks, dns = gb["k"].to_pylist(), gb["n_sum"].to_pylist()
            vb = int(g["vb"][0].as_py())
            old: dict[str, int] = {}
            refs = chain_specs.get(vb, [])
            if refs:
                from geomesa_nifi_ray.lake import read_chains

                [tabs], _, _ = read_chains(lake_fs, [refs],
                                           ("k", "n", "offset"))
                merged = merge_chain_tables(tabs, chain_schema, "k", ["offset"])
                hit = merged.filter(
                    pc.is_in(merged["k"], value_set=gb["k"].combine_chunks()))
                old = dict(zip(hit["k"].to_pylist(),
                               (int(v) for v in hit["n"].to_pylist())))
            rk: list[str] = []
            rn: list[int | None] = []
            ops: list[str | None] = []
            for k, d in zip(ks, dns):
                if not int(d):
                    # zero net delta: the group was not really touched —
                    # the driver path drops these before lookup; emitting
                    # a no-op upsert would grow chains and skew offsets
                    continue
                n = old.get(k, 0) + int(d)
                if n:
                    rk.append(k); rn.append(n); ops.append(None)
                elif k in old:
                    rk.append(k); rn.append(None); ops.append("delete")
            if not rk:
                return empty
            return pa.table({
                "k": pa.array(rk, pa.string()),
                "n": pa.array(rn, pa.int64()),
                "offset": pa.array([epoch] * len(rk), pa.int64()),
                "_op": pa.array(ops, pa.string()),
            })

        events = (
            delta_ds.map_batches(add_vbucket, batch_format="pyarrow")
            .groupby("vb")
            .map_groups(vbucket_events, batch_format="pyarrow")
            .materialize()   # small (O(groups touched)); avoids re-running
                             # the exchange for apply_epoch's row count
        )
        self.engine.apply_epoch(
            events, epoch=epoch, offset_range=(epoch, epoch),
            epochs_covered=epochs_covered,
        )

    def _commit_events(self, upserts: dict[str, int], deletes: list[str],
                       epoch: int,
                       epochs_covered: tuple[int, int] | None = None) -> None:
        import ray.data

        ks = sorted(upserts)
        events = pa.table({
            "k": pa.array(ks + deletes, pa.string()),
            "n": pa.array([upserts[k] for k in ks] + [None] * len(deletes),
                          pa.int64()),
            "offset": pa.array([epoch] * (len(ks) + len(deletes)), pa.int64()),
        })
        if deletes:
            events = events.append_column(
                "_op", pa.array([None] * len(ks) + ["delete"] * len(deletes),
                                pa.string()))
        self.engine.apply_epoch(
            ray.data.from_arrow(events), epoch=epoch,
            offset_range=(epoch, epoch), epochs_covered=epochs_covered,
        )


class GroupSumView(GroupCountView):
    """Exact ``SUM(kernel(value)) GROUP BY group_col`` over the lake's live
    winners, maintained incrementally by the same +new/-old delta math as
    the count view — e.g. ``GroupSumView(..., group_col="lang",
    value_col="text", value_kernel="utf8_length")`` tracks extracted-text
    characters per language, the corpus-curation size metric, without ever
    rescanning the lake. ``value_kernel`` is a NAMED pure kernel
    (:data:`_VALUE_KERNELS`) so the aggregation definition is declarative;
    the delta reads additionally project ``value_col`` from the epoch file
    and the touched prev chains (for ``text`` that is the same IO envelope
    as the winners-only extract path: touched buckets only). Null groups
    are skipped, null values contribute nothing — identically on the +new,
    -old and rebuild paths, so incremental == recompute exactly.

    Sparseness contract: the state is a sparse map — a group whose total
    is 0 is NOT materialized. For non-negative kernels (lengths) a zero
    total means every row's value is empty/null, indistinguishable in the
    delta algebra from the group having left the table; SQL comparisons
    must mirror this (``HAVING sum(...) > 0``). Signed identity-kernel
    sums that legitimately pass through 0 need a (sum, count) state —
    out of scope for this view."""

    def __init__(self, table: LakeTable, root: str, group_col: str = "lang",
                 value_col: str = "text", value_kernel: str = "utf8_length"):
        if value_kernel not in _VALUE_KERNELS:
            raise ValueError(f"unknown value_kernel {value_kernel!r}; "
                             f"expected one of {sorted(_VALUE_KERNELS)}")
        super().__init__(table, root, group_col)
        self.value_col = value_col
        self.value_kernel = value_kernel
        self._path = os.path.join(
            root, f"view-sum-{group_col}-{value_col}-{value_kernel}.json")

    def _read_columns(self) -> list[str]:
        cols = [self.col]
        if self.value_col not in cols:
            cols.append(self.value_col)
        return cols

    def _partials(self, t: pa.Table) -> pa.Table:
        return _partial_agg(t, self.col, self.value_col, self.value_kernel)

    def _epoch_delta(self, epoch: int, prev_epoch: int | None,
                     manifest: dict | None = None) -> dict[str, int]:
        return epoch_group_delta(self.table, self.col, epoch, prev_epoch,
                                 manifest=manifest, value_col=self.value_col,
                                 value_kernel=self.value_kernel)
