"""Distributed EXACT quantiles over a numeric column — no sort, no
sampling error.

A corpus-stats staple ("p50/p99 document length", "token-count
distribution for batch sizing") that Ray Data has no primitive for; a
global ``sort`` is the naive answer and is exactly the all-to-all
exchange this repo avoids. Instead: histogram refinement —

1. **Pass 1 (extent):** per-batch ``(min, max, non-null count)``
   partials, reduced on the driver (O(blocks) tiny rows).
2. **Pass 2 (histogram):** per-batch ``np.histogram`` over ``bins``
   fixed equal-width bins, shipped as nonzero ``(bin, count)`` pairs,
   combined by one tiny groupby — the driver holds O(bins) int64s.
   Cumulative counts locate the bin containing each target rank
   (DuckDB ``quantile_disc`` semantics: 1-based rank
   ``max(1, ceil(q * n))``, nulls excluded — pinned by test).
3. **Pass 3 (exact):** only rows falling in the NEEDED bins are
   reduced to distinct ``(value, count)`` pairs (in-batch combine +
   one groupby over ~n/bins rows per bin); the driver resolves exact
   ranks from those. ``driver_cap`` bounds pass-3 driver rows and
   raises with advice (more bins) rather than silently collecting —
   the no-silent-caps rule.

Three streaming passes over ONE pruned column, O(bins + distinct-in-
needed-bins) driver state, deterministic at any cluster size. Floats and
ints both work (bin edges are float64; exact values come from pass 3,
never from edge arithmetic), with the honest edges of the float64
pipeline made explicit rather than silent: NaN values are EXCLUDED like
nulls (they are unorderable; DuckDB instead sorts NaN greatest — callers
needing that treat NaN upstream), ±inf raises (no finite bin edges
exist), and an integer column whose extent exceeds 2^53 raises (distinct
int64 values beyond float64's integer precision would silently merge in
pass 3 — the same discipline as packing.py's int64 scatter-add).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def exact_quantiles(ds, col: str, qs: list[float], *, bins: int = 4096,
                    driver_cap: int = 1_000_000) -> dict[float, float]:
    """Exact ``quantile_disc``-semantics quantiles of ``ds[col]``
    (nulls excluded). Returns ``{q: value}``; empty input raises.

    The input is executed three times (extent, histogram, values in the
    needed bins), so every pass must see the same rows: a
    nondeterministic upstream (random sampling, a source that changes
    between reads) must be ``materialize()``-d first. Passes that
    disagree raise ``ValueError`` rather than return a wrong value."""
    if not qs or any(not (0.0 <= q <= 1.0) for q in qs):
        raise ValueError(f"quantiles must be in [0, 1], got {qs}")
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")

    pruned = ds.select_columns([col])

    def _clean(v) -> np.ndarray:
        """Non-null, non-NaN values as float64 (the one exclusion rule
        every pass applies, so n / histogram / pass-3 counts agree)."""
        arr = v.drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
        return arr[~np.isnan(arr)] if len(arr) else arr

    # ---- pass 1: extent ----------------------------------------------------
    def extent(t: pa.Table) -> pa.Table:
        empty = pa.table({"lo": pa.array([], pa.float64()),
                          "hi": pa.array([], pa.float64()),
                          "n": pa.array([], pa.int64()),
                          "isint": pa.array([], pa.bool_())})
        arr = _clean(t[col])
        if len(arr) == 0:
            return empty
        return pa.table({
            "lo": pa.array([float(arr.min())]),
            "hi": pa.array([float(arr.max())]),
            "n": pa.array([len(arr)], pa.int64()),
            "isint": pa.array([pa.types.is_integer(t.schema.field(col).type)]),
        })

    parts = pa.concat_tables(
        [b for b in pruned.map_batches(extent, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow")] or
        [pa.table({"lo": pa.array([], pa.float64()),
                   "hi": pa.array([], pa.float64()),
                   "n": pa.array([], pa.int64()),
                   "isint": pa.array([], pa.bool_())})])
    if parts.num_rows == 0 or not int(pc.sum(parts["n"]).as_py() or 0):
        raise ValueError(f"exact_quantiles: no non-null values in {col!r}")
    lo = pc.min(parts["lo"]).as_py()
    hi = pc.max(parts["hi"]).as_py()
    n = int(pc.sum(parts["n"]).as_py())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"exact_quantiles: {col!r} contains infinite values — no "
            "finite bin edges exist; filter them upstream")
    if (bool(pc.any(parts["isint"]).as_py())
            and max(abs(lo), abs(hi)) > 2.0 ** 53):
        raise ValueError(
            f"exact_quantiles: integer column {col!r} exceeds 2^53 — "
            "distinct values would merge in the float64 pipeline; rescale "
            "or bucket upstream")
    ranks = {q: max(1, math.ceil(q * n)) for q in qs}  # quantile_disc rank

    if lo == hi:
        return {q: lo for q in qs}

    # ---- pass 2: fixed-width histogram -> bins holding each rank ----------
    edges = np.linspace(lo, hi, bins + 1)

    def hist(t: pa.Table) -> pa.Table:
        arr = _clean(t[col])
        if len(arr) == 0:
            return pa.table({"b": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        counts, _ = np.histogram(arr, bins=edges)
        used = np.flatnonzero(counts)
        return pa.table({"b": pa.array(used.astype(np.int64)),
                         "c": pa.array(counts[used].astype(np.int64))})

    def disagree(what: str) -> ValueError:
        return ValueError(
            f"exact_quantiles: the passes over {col!r} saw different data "
            f"({what}); the input must give the same rows on every "
            "execution — call ds.materialize() first")

    counts = np.zeros(bins, dtype=np.int64)
    for row in (pruned.map_batches(hist, batch_format="pyarrow")
                .groupby("b").sum("c").take_all()):
        counts[int(row["b"])] = int(row["sum(c)"])
    cum = np.cumsum(counts)                 # cum[b] = ranks through bin b
    if int(cum[-1]) != n:
        raise disagree(f"{n} values, then {int(cum[-1])} inside their extent")
    need: dict[float, int] = {}
    for q, r in ranks.items():
        need[q] = int(np.searchsorted(cum, r, side="left"))
    needed_bins = sorted(set(need.values()))

    # ---- pass 3: distinct (value, count) inside the needed bins ------------
    lo_edges = edges[needed_bins]
    hi_edges = edges[[b + 1 for b in needed_bins]]

    def in_bins(t: pa.Table) -> pa.Table:
        arr = _clean(t[col])
        if len(arr) == 0:
            return pa.table({"v": pa.array([], pa.float64()),
                             "c": pa.array([], pa.int64())})
        mask = np.zeros(len(arr), dtype=bool)
        for blo, bhi, is_last in zip(
                lo_edges, hi_edges,
                [b == bins - 1 for b in needed_bins]):
            m = (arr >= blo) & ((arr <= bhi) if is_last else (arr < bhi))
            mask |= m
        sel = arr[mask]
        if len(sel) == 0:
            return pa.table({"v": pa.array([], pa.float64()),
                             "c": pa.array([], pa.int64())})
        uv, uc = np.unique(sel, return_counts=True)
        return pa.table({"v": pa.array(uv),
                         "c": pa.array(uc.astype(np.int64))})

    pairs = (pruned.map_batches(in_bins, batch_format="pyarrow")
             .groupby("v").sum("c").take_all())
    if len(pairs) > driver_cap:
        raise ValueError(
            f"exact_quantiles: {len(pairs)} distinct values in the needed "
            f"bins exceeds driver_cap={driver_cap}; raise bins= (currently "
            f"{bins}) to narrow them")
    vals = np.array([r["v"] for r in pairs], dtype=np.float64)
    cts = np.array([r["sum(c)"] for r in pairs], dtype=np.int64)
    if int(cts.sum()) != int(counts[needed_bins].sum()):
        raise disagree(f"{int(counts[needed_bins].sum())} values in the "
                       f"needed bins, then {int(cts.sum())}")
    order = np.argsort(vals, kind="stable")
    vals, cts = vals[order], cts[order]

    out: dict[float, float] = {}
    for q, r in ranks.items():
        b = need[q]
        rank_before_bin = int(cum[b - 1]) if b > 0 else 0
        local = r - rank_before_bin      # 1-based rank inside the bin...
        # ...but pass 3 may span several needed bins: offset by the counts
        # of needed-bin values BELOW this bin's lower edge
        below = int(cts[vals < edges[b]].sum())
        within = np.cumsum(cts)
        idx = int(np.searchsorted(within, below + local, side="left"))
        out[q] = float(vals[idx])
    return out
