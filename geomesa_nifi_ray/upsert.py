"""Last-writer-wins merge kernels and the per-bucket upsert stage.

The LWW merge is the explicit, deterministic form of what the reference
gets implicitly from keyed overwrite at the store: the modify writer takes
the *first* match and warns on multiples (``FeatureWriters.scala:115-160``),
with processing order deciding ties. We instead define a total order per
key: the row with the greatest ``(warc_ts, offset)`` wins (SURVEY.md §7.5
"Deterministic LWW ties").

Two merge modes mirror the two reference sinks:

- **upsert** (``PutGeoMesa*`` modify writers, ``FeatureWriters.scala:143-148``):
  update-else-insert — change rows for unknown keys are inserted;
- **update** (``UpdateGeoMesaRecord.scala:157-193``): partial update — only
  intersecting columns are overwritten on existing keys; change rows with
  no matching base row are *skipped and counted failed* (:168-170), never
  inserted.

All kernels are vectorized: dictionary-encode the key, ``np.lexsort`` on
``(order cols…, key code)``, keep the last row of each key run. No Python
loop touches row payloads.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _key_codes(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    idx = enc.indices
    if idx.null_count:
        # null keys (dead-lettered upstream, but this kernel must still be
        # total): each null row gets a UNIQUE negative code so distinct
        # null-key rows pass through as singleton groups instead of
        # LWW-merging unrelated rows into one survivor (and a NaN->int64
        # cast would be undefined behavior with a platform-dependent winner)
        mask = pc.is_null(idx).to_numpy(zero_copy_only=False)
        codes = pc.fill_null(idx, 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        codes[mask] = -np.arange(1, int(mask.sum()) + 1, dtype=np.int64)
        return codes
    return idx.to_numpy(zero_copy_only=False).astype(np.int64)


def _order_arrays(table: pa.Table, order: list[str]) -> list[np.ndarray]:
    """Order columns as numpy arrays with nulls filled to the type MINIMUM:
    a null order value must LOSE to every real value — the same verdict the
    delta path's ``lex_ge`` reaches (NaN comparisons are False, change
    loses), so the full-merge and delta paths agree. An unfixed null would
    surface as NaN, which ``np.lexsort`` places LAST, spuriously WINNING
    the LWW."""
    out = []
    for c in order:
        col = table[c]
        if pa.types.is_timestamp(col.type):
            col = pc.cast(col, pa.int64())
        if col.null_count:
            if pa.types.is_floating(col.type):
                col = pc.fill_null(col, float("-inf"))
            elif pa.types.is_integer(col.type):
                col = pc.fill_null(
                    col, pa.scalar(np.iinfo(col.type.to_pandas_dtype()).min,
                                   col.type))
            else:  # string-typed order columns: empty sorts first
                col = pc.fill_null(col, "")
        out.append(col.to_numpy(zero_copy_only=False))
    return out


def beats_stored(changes: pa.Table, stored: pa.Table, key: str,
                 order: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Join change rows to the stored per-key winners and decide which
    changes win: ``(pos, wins)`` aligned with ``changes``, where ``pos`` is
    the row of the change's key in ``stored`` (-1 when absent) and
    ``wins`` is True for absent keys and for changes whose order tuple is
    ``>=`` the stored one (ties go to the change, the concat-order rule of
    the full merge). ``stored`` holds at most one row per key.

    Stored key and order columns are cast to the change rows' types first
    (a chain file may predate a widening, or carry another timestamp
    unit), and nulls take the :func:`_order_arrays` fill, so a null order
    value loses to every real value on either side — the verdict the
    full-merge ``np.lexsort`` reaches."""
    n = changes.num_rows
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    cols = {}
    for c in [key, *order]:
        col = stored[c]
        if not col.type.equals(changes.schema.field(c).type):
            col = pc.cast(col, changes.schema.field(c).type)
        cols[c] = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    pos = pc.index_in(changes[key], value_set=cols[key])
    pos = pc.fill_null(pos, -1).to_numpy(zero_copy_only=False).astype(np.int64)
    have = pos >= 0
    if not have.any():
        return pos, np.ones(n, dtype=bool)
    aligned = pa.table({c: cols[c] for c in order}).take(
        pa.array(np.where(have, pos, 0)))
    ge = lex_ge(_order_arrays(changes, order), _order_arrays(aligned, order))
    return pos, ~have | ge


def lww_indices(table: pa.Table, key: str, order: list[str]) -> np.ndarray:
    """Row indices of the per-key winners under max-(order cols) with input
    position as the final tiebreak (later physical row wins exact ties).
    Total on empty input (the key-pruned chain read legitimately returns 0
    rows when an epoch's keys all fall outside every row-group range —
    np.r_[...] would otherwise emit a length-1 mask against a length-0
    index and crash the merge task)."""
    if table.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    codes = _key_codes(table[key])
    ords = _order_arrays(table, order)
    # np.lexsort: last key is primary. Sort by (key, order..., position);
    # stable sort means equal (key, order) rows keep input order, so the
    # last row of each key run is the winner.
    sort_keys = ords[::-1] + [codes]
    idx = np.lexsort(sort_keys)
    sorted_codes = codes[idx]
    last_in_run = np.r_[sorted_codes[1:] != sorted_codes[:-1], True]
    return idx[last_in_run]


def lww_dedupe(table: pa.Table, key: str, order: list[str]) -> pa.Table:
    """Reduce a batch to one winner row per key. Used both as the per-batch
    partial reduction (combiner before the bucket shuffle — the scale lever
    for hot-url skew) and as the final per-bucket reduction."""
    if table.num_rows == 0:
        return table
    return table.take(pa.array(np.sort(lww_indices(table, key, order))))


def lex_ge(a_cols: list[np.ndarray], b_cols: list[np.ndarray]) -> np.ndarray:
    """Vectorized lexicographic ``a >= b`` over parallel column lists
    (most-significant first). NaN/NaT comparisons yield False, so callers
    must mask missing rows themselves."""
    ge = np.ones(len(a_cols[0]), dtype=bool)
    for a, b in zip(reversed(a_cols), reversed(b_cols)):
        ge = (a > b) | ((a == b) & ge)
    return ge


def merge_upsert(
    base: pa.Table | None,
    changes: pa.Table,
    key: str,
    order: list[str],
) -> pa.Table:
    """Update-else-insert merge: concat base + changes, per-key LWW.

    ``base`` rows must sort *below* change rows on equal order values —
    guaranteed because base rows carry the ``offset`` they were written
    with, and change offsets are strictly greater (monotonic binlog)."""
    if base is None or base.num_rows == 0:
        merged = changes
    else:
        merged = pa.concat_tables([base, changes], promote_options="permissive")
    return lww_dedupe(merged, key, order)


def merge_update(
    base: pa.Table | None,
    changes: pa.Table,
    key: str,
    order: list[str],
) -> tuple[pa.Table, int]:
    """Partial-update merge (``UpdateGeoMesaRecord`` parity): overwrite only
    the change's non-key columns on matching base rows; return
    ``(merged, unmatched_count)`` where unmatched change keys are dropped.

    Change tables may carry a subset of the base columns; missing columns
    keep their base values.
    """
    changes = lww_dedupe(changes, key, order)
    if base is None or base.num_rows == 0:
        return (base if base is not None else changes.slice(0, 0)), changes.num_rows

    base_keys = base[key].combine_chunks() if isinstance(base[key], pa.ChunkedArray) else base[key]
    change_keys = (
        changes[key].combine_chunks()
        if isinstance(changes[key], pa.ChunkedArray)
        else changes[key]
    )
    matched_mask = pc.is_in(change_keys, value_set=base_keys)
    # the sum of an empty mask is null (a bucket whose update-epoch rows
    # were all deletes hands over no changes)
    unmatched = changes.num_rows - (
        pc.sum(pc.cast(matched_mask, pa.int64())).as_py() or 0)
    changes = changes.filter(matched_mask)
    if changes.num_rows == 0:
        return base, unmatched

    # align: position of each base row's key in the (deduped) change table —
    # vectorized (pc.index_in); a Python dict over every base key would make
    # the update merge O(bucket rows) of string materialization per epoch
    idx_arr = pc.index_in(base_keys, value_set=changes[key].combine_chunks())
    take_idx = pc.fill_null(idx_arr, -1).to_numpy(
        zero_copy_only=False).astype(np.int64)
    has_update = take_idx >= 0
    safe_idx = np.where(has_update, take_idx, 0)
    update_cols = [c for c in changes.column_names if c != key and c in base.column_names]

    arrays = []
    names = []
    mask = pa.array(~has_update)  # True -> keep base value
    for name in base.column_names:
        col = base[name]
        if name in update_cols:
            new_vals = changes[name].take(pa.array(safe_idx))
            if isinstance(new_vals, pa.ChunkedArray):
                new_vals = new_vals.combine_chunks()
            # per-column coalesce (UpdateGeoMesaRecord semantics, matching
            # the oracle's coalesce(c.x, b.x)): a null change value keeps
            # the base value, it never nulls an existing attribute
            keep = pc.or_(mask, pc.is_null(new_vals))
            col = pc.if_else(keep, col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col, new_vals)
        arrays.append(col)
        names.append(name)
    return pa.table(dict(zip(names, arrays))), unmatched
