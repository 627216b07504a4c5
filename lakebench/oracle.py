"""Expected lake state, computed apart from the engine.

Nothing here imports ``geomesa_nifi_ray``: the expected state comes from
DuckDB over the raw event parquet, content hashes from ``hashlib`` with the
formula documented in ``geomesa_nifi_ray/hashing.py``::

    md5(url || chr(31) || epoch_us(warc_ts) || chr(31) || text || chr(31) || lang)

and the ``serve`` workload keeps a per-key model that each upsert and delete
updates. Every check raises :class:`CheckError` with the first difference
it finds.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

# columns compared between the lake and the expected state
COLUMNS = ("url", "warc_ts", "offset", "html", "text", "lang", "content_hash")
EXTRA = "content_type"
_SEP = "\x1f"
_TYPES = {
    "url": pa.string(), "warc_ts": pa.int64(), "offset": pa.int64(),
    "html": pa.binary(), "text": pa.string(), "lang": pa.string(),
    "content_hash": pa.string(), EXTRA: pa.string(),
}


class CheckError(AssertionError):
    """A program output differs from what the oracle expects."""


def content_hash(url: str, ts_us: int, text: str | None,
                 lang: str | None) -> str:
    payload = _SEP.join([url, str(int(ts_us)), text or "", lang or ""])
    return hashlib.md5(payload.encode("utf-8")).hexdigest()


def _with_hashes(t: pa.Table) -> pa.Table:
    d = t.select(["url", "warc_ts", "text", "lang"]).to_pydict()
    hashes = [content_hash(u, ts, x, la) for u, ts, x, la in
              zip(d["url"], d["warc_ts"], d["text"], d["lang"])]
    return t.append_column("content_hash", pa.array(hashes, pa.string()))


def canon(t: pa.Table, columns) -> pa.Table:
    """``columns`` of ``t`` cast to one comparable type each, sorted by url."""
    cols = []
    for c in columns:
        col = t[c]
        if pa.types.is_timestamp(col.type):
            col = pc.cast(col, pa.timestamp("us"))
        cols.append(pc.cast(col, _TYPES[c]))
    out = pa.table(dict(zip(columns, cols)))
    return out.take(pc.sort_indices(out, sort_keys=[("url", "ascending")]))


def _duck():
    import duckdb

    return duckdb.connect()


def expected_state(files: list[str]) -> pa.Table:
    """Per url, the event with non-null ``html`` and the greatest
    ``(warc_ts, offset)``, with its content hash; sorted by url."""
    con = _duck()
    try:
        has_extra = any(
            EXTRA in r[0] for r in con.execute(
                "SELECT list(name) FROM parquet_schema(?) GROUP BY file_name",
                [files]).fetchall())
        extra = f", {EXTRA}" if has_extra else ""
        t = con.execute(f"""
            SELECT url, epoch_us(warc_ts) AS warc_ts, "offset", html, text,
                   lang{extra}
            FROM (
              SELECT *, row_number() OVER (
                       PARTITION BY url ORDER BY warc_ts DESC, "offset" DESC) AS rn
              FROM read_parquet(?, union_by_name = true)
              WHERE html IS NOT NULL AND url IS NOT NULL AND warc_ts IS NOT NULL)
            WHERE rn = 1""", [files]).arrow()
    finally:
        con.close()
    t = _with_hashes(t)
    return canon(t, COLUMNS + ((EXTRA,) if has_extra else ()))


def dead_letters(files: list[str]) -> int:
    """Events the engine must dead-letter: null url, warc_ts or html."""
    con = _duck()
    try:
        return int(con.execute(
            "SELECT count(*) FROM read_parquet(?, union_by_name = true) "
            "WHERE html IS NULL OR url IS NULL OR warc_ts IS NULL",
            [files]).fetchone()[0])
    finally:
        con.close()


def check_state(actual: pa.Table, expected: pa.Table, what: str) -> None:
    """The lake output ``actual`` (any column order, any row order) holds
    exactly the rows of ``expected``."""
    missing = [c for c in expected.column_names if c not in actual.column_names]
    if missing:
        raise CheckError(f"{what}: columns {missing} missing")
    got = canon(actual, expected.column_names)
    if got.num_rows != expected.num_rows:
        want_keys = set(expected["url"].to_pylist())
        have_keys = set(got["url"].to_pylist())
        raise CheckError(
            f"{what}: {got.num_rows} rows, expected {expected.num_rows} "
            f"(missing {sorted(want_keys - have_keys)[:3]}, "
            f"unexpected {sorted(have_keys - want_keys)[:3]})")
    for c in expected.column_names:
        if got[c].equals(expected[c]):
            continue
        diff = pc.invert(pc.fill_null(pc.equal(got[c], expected[c]), False))
        both_null = pc.and_(pc.is_null(got[c]), pc.is_null(expected[c]))
        diff = pc.and_(diff, pc.invert(both_null))
        idx = pc.index(diff, True).as_py()
        if idx < 0:
            continue
        raise CheckError(
            f"{what}: column {c!r} differs at url "
            f"{expected['url'][idx].as_py()!r}: got {_short(got[c][idx])}, "
            f"expected {_short(expected[c][idx])}")


def _short(v) -> str:
    s = repr(v.as_py())
    return s if len(s) <= 80 else s[:77] + "..."


def check_equal(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


class KeyModel:
    """Per-key expected state for ``serve``: each upsert epoch and each
    delete updates it the way last-writer-wins and deletes are specified,
    and lookups and scans are checked against it."""

    def __init__(self, state: pa.Table):
        d = state.select(["url", "warc_ts", "offset", "content_hash"]).to_pydict()
        self.live = {u: (ts, off, h) for u, ts, off, h in
                     zip(d["url"], d["warc_ts"], d["offset"], d["content_hash"])}
        # greatest (warc_ts, offset) seen per key; a deleted key keeps its
        # tombstone's order, so only a later event brings it back
        self.order = {u: v[:2] for u, v in self.live.items()}

    def upsert(self, events: pa.Table) -> None:
        ok = pc.and_(pc.and_(pc.is_valid(events["html"]), pc.is_valid(events["url"])),
                     pc.is_valid(events["warc_ts"]))
        e = events.filter(ok).select(["url", "warc_ts", "offset", "text", "lang"])
        e = canon(e, ["url", "warc_ts", "offset", "text", "lang"])
        d = e.to_pydict()
        best: dict[str, int] = {}
        for i, (u, ts, off) in enumerate(zip(d["url"], d["warc_ts"], d["offset"])):
            j = best.get(u)
            if j is None or (ts, off) > (d["warc_ts"][j], d["offset"][j]):
                best[u] = i
        for u, i in best.items():
            o = (d["warc_ts"][i], d["offset"][i])
            if u in self.order and o <= self.order[u]:
                continue
            self.order[u] = o
            self.live[u] = (*o, content_hash(u, o[0], d["text"][i], d["lang"][i]))

    def delete(self, keys) -> None:
        for k in keys:
            self.live.pop(k, None)

    def check_lookup(self, keys, result: pa.Table, what: str) -> None:
        got = canon(result, ["url", "warc_ts", "offset", "content_hash"]).to_pydict()
        rows = {u: (ts, off, h) for u, ts, off, h in
                zip(got["url"], got["warc_ts"], got["offset"], got["content_hash"])}
        if len(rows) != len(got["url"]):
            raise CheckError(f"{what}: a key was returned twice")
        for k in dict.fromkeys(keys):
            want = self.live.get(k)
            have = rows.pop(k, None)
            if want is None and have is not None:
                raise CheckError(f"{what}: absent key {k!r} returned a row")
            if want != have:
                raise CheckError(f"{what}: key {k!r} got {have}, expected {want}")
        if rows:
            raise CheckError(f"{what}: unrequested keys {sorted(rows)[:3]}")

    def check_scan(self, snapshot: pa.Table, what: str) -> None:
        got = canon(snapshot, ["url", "warc_ts", "offset", "content_hash"]).to_pydict()
        rows = dict(zip(got["url"], zip(got["warc_ts"], got["offset"],
                                        got["content_hash"])))
        if len(rows) != len(got["url"]) or rows != self.live:
            missing = sorted(set(self.live) - set(rows))[:3]
            extra = sorted(set(rows) - set(self.live))[:3]
            changed = sorted(k for k in set(rows) & set(self.live)
                             if rows[k] != self.live[k])[:3]
            raise CheckError(
                f"{what}: {len(got['url'])} rows vs {len(self.live)} expected; "
                f"missing {missing}, unexpected {extra}, differing {changed}")
