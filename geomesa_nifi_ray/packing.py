"""Deterministic distributed prefix sums + the training-mix operators
built on them: sequence packing (concat-then-chunk bookkeeping),
token-budget head selection, and per-group (per-language / per-source)
budget mixes.

The reference has no analog (NiFi flows never need a global running
total); a training-data pipeline needs these constantly — "pack these
documents into 2048-token sequences", "take the first 50B tokens of
this source", "cap each language at its mix budget" — and at 100 TB
they must be DETERMINISTIC and cluster-size-independent, like everything
in :mod:`sampling`: the global order is ``(hash(seed || key), key,
value)`` (within the group, when grouped), a pure function of the rows,
never of block boundaries or node count.

Scale shape — a classic two-pass distributed prefix sum, with the
hierarchy level chosen by STATIC hash-range buckets instead of physical
partitions (physical partitioning is cluster-shape-dependent; the bucket
of a row is not):

1. **Pass 1 (sum):** a per-batch combiner reduces every batch to at most
   ``num_buckets`` (× groups present) ``(bucket, partial_sum)`` rows
   (int64 scatter-add), one tiny groupby exchange combines them, and the
   driver holds O(num_buckets × groups) integers — the exclusive
   per-bucket offsets. Nothing row-sized ever reaches the driver, so
   ``group_col`` cardinality must stay modest (languages, sources —
   thousands, not keys).
2. **Pass 2 (scan):** one ``groupby(bucket).map_groups`` exchange
   co-locates each bucket, which sorts its own rows by the order key and
   emits ``offset[(group,) bucket] + local exclusive (segmented) cumsum``.
   Each bucket is ~1/num_buckets of the input — size ``num_buckets`` so
   a bucket fits a worker (same contract as ``stratified_cap``).

The input pipeline executes once per pass (lineage recompute). That is
deliberate: two column-pruned streaming scans beat materializing the
whole dataset mid-pipeline at 100 TB (the object store would spill the
full input); callers with an expensive upstream can ``materialize()``
it themselves before calling.

Hash kernels mirror :mod:`sampling`: ``md5`` is DuckDB-reproducible
(``sum(v) over ([partition by g] order by md5(seed || key), key, v)`` —
the ``pack_documents`` / ``token_budget_documents`` /
``lang_token_budget_documents`` oracles), ``xx64`` is the vectorized
scale kernel. Bucket boundaries are key-prefix ranges (first 4 hex
nibbles), so ordering by ``(bucket, pack_key)`` IS ordering by
``pack_key`` — the same argument as
:func:`sampling.deterministic_shuffle`'s bucketed layout.

Determinism under duplicate ``(key, value)`` rows is multiset-level:
indistinguishable rows may swap which of them receives which running
total, but the OUTPUT multiset is identical (and a SQL window over the
same ORDER BY has the same ambiguity, so the oracle contract still
holds). Unique keys — doc ids — make it exact per row. A null group
forms one partition of its own (SQL ``PARTITION BY`` agrees).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from geomesa_nifi_ray.sampling import _bucket_from_hex, _check_kernel, _hash_col

_BUCKET_COL = "_pack_bucket"
_NULL_GROUP = "\x00<null-group>"


def _value_int64(t: pa.Table, value_col: str) -> pa.ChunkedArray:
    """The value column as non-null int64 (null contributes 0 — the SQL
    ``coalesce`` the oracles spell out)."""
    return pc.fill_null(pc.cast(t[value_col], pa.int64()), 0)


def _group_strings(t: pa.Table, group_col: str) -> pa.Array:
    """Group labels as non-null strings (nulls collapse to one sentinel
    partition, matching SQL PARTITION BY)."""
    g = pc.fill_null(pc.cast(t[group_col], pa.string()), _NULL_GROUP)
    return g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g


def running_total(ds, col: str, value_col: str, *, seed: str = "pack0",
                  kernel: str = "md5", num_buckets: int = 64,
                  key_col: str = "pack_key", out_col: str = "cum_before",
                  group_col: str | None = None):
    """Append ``out_col``: the EXCLUSIVE running total of ``value_col``
    in the deterministic order ``(hash(seed || col), col, value_col)`` —
    the sum of every row strictly before this one. With ``group_col``,
    the total runs independently within each group (SQL ``PARTITION BY
    group ORDER BY …``); group cardinality must be modest (see module
    docstring). Two passes; the seeded hash key stays in the output as
    ``key_col`` so the order is verifiable downstream."""
    _check_kernel(kernel)
    if num_buckets < 1 or num_buckets > 65536:
        raise ValueError(f"num_buckets must be in [1, 65536], got {num_buckets}")

    # ---- pass 1: per-(group,)bucket totals -> driver offsets ----
    def partials(t: pa.Table) -> pa.Table:
        empty = pa.table({"g": pa.array([], pa.string()),
                          "b": pa.array([], pa.int32()),
                          "v": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        h = _hash_col(t, col, seed, kernel)
        b = _bucket_from_hex(h, num_buckets).to_numpy(zero_copy_only=False)
        v = _value_int64(t, value_col).to_numpy(zero_copy_only=False)
        # int64 scatter-add, not bincount(weights=...) — bincount goes
        # through float64 and a 100 TB lake's totals overflow 2^53
        if group_col is None:
            sums = np.zeros(num_buckets, dtype=np.int64)
            np.add.at(sums, b, v)
            used = np.flatnonzero(sums != 0)
            return pa.table({"g": pa.array([""] * len(used), pa.string()),
                             "b": pa.array(used.astype(np.int32)),
                             "v": pa.array(sums[used])})
        genc = _group_strings(t, group_col).dictionary_encode()
        gcodes = genc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ng = len(genc.dictionary)
        sums = np.zeros(ng * num_buckets, dtype=np.int64)
        np.add.at(sums, gcodes * num_buckets + b, v)
        used = np.flatnonzero(sums != 0)
        return pa.table({
            "g": genc.dictionary.take(pa.array(used // num_buckets)),
            "b": pa.array((used % num_buckets).astype(np.int32)),
            "v": pa.array(sums[used]),
        })

    # the partial rows already carry both keys; one exchange combines
    # them per (g, b) — encoded as a single string key because the result
    # is tiny either way and a single-key groupby is the portable path
    def fuse(t: pa.Table) -> pa.Table:
        gb = pc.binary_join_element_wise(
            t["g"], pc.utf8_lpad(pc.cast(t["b"], pa.string()), 5, "0"),
            "\x1f")
        return pa.table({"gb": gb, "v": t["v"]})

    totals = (
        ds.map_batches(partials, batch_format="pyarrow")
        .map_batches(fuse, batch_format="pyarrow")
        .groupby("gb").sum("v")
        .take_all()
    )
    # always materialize the ungrouped entry: an all-zero value column
    # emits no pass-1 rows at all, and pass 2 still needs offsets[""]
    per: dict[str, np.ndarray] = (
        {} if group_col is not None else {"": np.zeros(num_buckets,
                                                       dtype=np.int64)})
    for r in totals:
        g, b = r["gb"].rsplit("\x1f", 1)
        per.setdefault(g, np.zeros(num_buckets, dtype=np.int64))[int(b)] = \
            int(r["sum(v)"])
    offsets: dict[str, np.ndarray] = {}
    for g, sums in per.items():
        off = np.zeros(num_buckets, dtype=np.int64)
        np.cumsum(sums[:-1], out=off[1:])
        offsets[g] = off

    # ---- pass 2: per-bucket sort + local exclusive cumsum + offset ----
    def keyed(t: pa.Table) -> pa.Table:
        h = _hash_col(t, col, seed, kernel)
        t = t.append_column(key_col, h)
        if isinstance(h, pa.ChunkedArray):
            h = h.combine_chunks()
        return t.append_column(_BUCKET_COL, _bucket_from_hex(h, num_buckets))

    def bucket_scan(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g.drop_columns([_BUCKET_COL]).append_column(
                out_col, pa.array([], pa.int64()))
        bucket = int(g[_BUCKET_COL][0].as_py())
        sort_keys = [(key_col, "ascending"), (col, "ascending"),
                     (value_col, "ascending")]
        if group_col is not None:
            # group-major sort gives contiguous segments for the
            # segmented cumsum; within a group the order is unchanged
            sort_keys = [(group_col, "ascending")] + sort_keys
        g = g.sort_by(sort_keys)
        v = _value_int64(g, value_col).to_numpy(zero_copy_only=False)
        cum = np.zeros(len(v), dtype=np.int64)
        np.cumsum(v[:-1], out=cum[1:])
        if group_col is None:
            cum += offsets[""][bucket]
        else:
            glabels = _group_strings(g, group_col).dictionary_encode()
            gcodes = glabels.indices.to_numpy(
                zero_copy_only=False).astype(np.int64)
            starts = np.flatnonzero(np.r_[True, gcodes[1:] != gcodes[:-1]])
            lengths = np.diff(np.r_[starts, len(gcodes)])
            # segmented exclusive cumsum: subtract each segment's base
            cum -= np.repeat(cum[starts], lengths)
            base = np.array(
                [offsets.get(d.as_py(),
                             np.zeros(num_buckets, np.int64))[bucket]
                 for d in glabels.dictionary], dtype=np.int64)
            cum += np.repeat(base[gcodes[starts]], lengths)
        return g.drop_columns([_BUCKET_COL]).append_column(
            out_col, pa.array(cum))

    return (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby(_BUCKET_COL)
        .map_groups(bucket_scan, batch_format="pyarrow")
    )


def pack_sequences(ds, col: str, value_col: str, seq_len: int, *,
                   seed: str = "pack0", kernel: str = "md5",
                   num_buckets: int = 64, key_col: str = "pack_key"):
    """Concat-then-chunk sequence packing bookkeeping (the GPT-style
    "concatenate documents, split every ``seq_len`` tokens" layout):
    append ``cum_before`` (global start offset of this row's tokens),
    ``seq_id = cum_before // seq_len`` (the training sequence this row
    STARTS in) and ``seq_off = cum_before % seq_len`` (position within
    it). A row whose tokens cross a boundary spans into the following
    sequence(s) — the split itself is a tokenizer-side concern; this
    operator pins the deterministic layout every worker agrees on.
    Pure bookkeeping on top of :func:`running_total` — no extra pass."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    out = running_total(ds, col, value_col, seed=seed, kernel=kernel,
                        num_buckets=num_buckets, key_col=key_col)

    def chunk(t: pa.Table) -> pa.Table:
        # a negative token count has no layout: it would give a
        # cum_before below a row's predecessors (wrong seq_id, negative
        # seq_off) — refuse it instead
        low = pc.min(t[value_col]).as_py() if t.num_rows else None
        if low is not None and low < 0:
            raise ValueError(
                f"pack_sequences: {value_col!r} has a negative value "
                f"({low}); token counts must be >= 0")
        cum = t["cum_before"]
        # int64 division: cum_before >= 0, so truncation == floor, exact
        # at any magnitude (a float64 floor would break past 2^53 tokens)
        seq_id = pc.divide(cum, pa.scalar(seq_len, pa.int64()))
        t = t.append_column("seq_id", seq_id)
        return t.append_column(
            "seq_off", pc.subtract(
                cum, pc.multiply(seq_id, pa.scalar(seq_len, pa.int64()))))

    return out.map_batches(chunk, batch_format="pyarrow")


def token_budget_head(ds, col: str, value_col: str,
                      budget: int | dict[str, int], *,
                      seed: str = "pack0", kernel: str = "md5",
                      num_buckets: int = 64, key_col: str = "pack_key",
                      group_col: str | None = None,
                      default_budget: int = 0):
    """Deterministic "first N tokens of this source": keep the rows whose
    tokens START inside the budget in the seeded hash order (the greedy
    prefix — the last kept row may overhang the budget, matching the
    usual "stop after the document that crosses the line" convention).
    Increasing the budget only ever ADDS rows (tested), so a training
    mix can be grown without reshuffling what was already selected.

    With ``group_col`` the budget applies independently per group — the
    per-language / per-source training-mix lever. ``budget`` may then be
    a dict ``{group: tokens}`` (groups absent from the dict get
    ``default_budget``) or a scalar applied to every group."""
    if isinstance(budget, dict):
        if group_col is None:
            raise ValueError("a budget dict requires group_col")
        if any(b < 0 for b in budget.values()) or default_budget < 0:
            raise ValueError("budgets must be >= 0")
    elif budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    out = running_total(ds, col, value_col, seed=seed, kernel=kernel,
                        num_buckets=num_buckets, key_col=key_col,
                        group_col=group_col)

    def head(t: pa.Table) -> pa.Table:
        if not isinstance(budget, dict):
            return t.filter(pc.less(t["cum_before"],
                                    pa.scalar(budget, pa.int64())))
        genc = _group_strings(t, group_col).dictionary_encode()
        lim = np.array([budget.get(d.as_py(), default_budget)
                        for d in genc.dictionary], dtype=np.int64)
        per_row = lim[genc.indices.to_numpy(zero_copy_only=False)
                      .astype(np.int64)] if t.num_rows else \
            np.array([], dtype=np.int64)
        return t.filter(pc.less(t["cum_before"], pa.array(per_row)))

    return out.map_batches(head, batch_format="pyarrow")
