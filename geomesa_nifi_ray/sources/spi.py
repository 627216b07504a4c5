"""Source protocol: the pluggable change-stream surface (the consumer side
of the reference's ``GetGeoMesaKafkaRecord.scala:100-188`` — poll for new
batches, read them, let the engine commit offsets), mirroring the ``Sink``
SPI (``sinks.py:25``).

A ``Source`` is anything implementing the two-method protocol below. The
engine's tailer (``CDCEngine.tail``) drives it: poll for epoch
descriptors, filter by the lake's committed cursor, read + apply + commit,
repeat. Offsets/epochs advance only at commit, so a crash at any poll
boundary resumes exactly — the source never tracks consumer state, the
lake's commit log is the single cursor (the consumer-group-offsets analog,
except exactly-once because the cursor commits atomically WITH the data).

Two built-ins:

- :class:`FilesystemEpochSource` — the default: epoch directories of
  parquet dropped into a watched dir (atomic rename or ``_SUCCESS``
  marker publish). ``read`` returns file paths so the engine's
  footer-statistics / rows-hint / catch-up-grouping fast paths all apply;
  the lake's committed offset decides which directories are pending.
- :class:`SqliteBinlogSource` — an append-only log TABLE (a stand-in for
  any message bus / WAL a real deployment would tail): producers append
  rows + publish the epoch row in one transaction, readers see epochs
  atomically. ``read`` returns a ``ray.data.Dataset`` via
  ``ray.data.read_sql``, proving the engine's non-file ingest seam.
- :class:`AppendLogBusSource` — the message-bus envelope proper: the log
  has NO epochs, only records with bus-assigned monotonic offsets; the
  CONSUMER forms epochs from offset ranges at poll time under the
  reference's min/max/latency batch envelope
  (``GetGeoMesaKafkaRecord.scala:113-122,263-304``), and the lake's
  committed ``offset_max`` — not an epoch directory name — is the resume
  cursor (``needs_cursor = True``; ``CDCEngine.tail`` passes it).
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Protocol, runtime_checkable

import pyarrow as pa

from geomesa_nifi_ray.schema import schema_from_json, schema_to_json


@runtime_checkable
class Source(Protocol):
    """Pluggable change-stream protocol.

    ``poll_epochs()`` returns epoch descriptors — dicts with at least
    ``epoch`` (int), ``offset_min``/``offset_max``; plus either
    ``files``/``path`` (parquet fast path) or nothing file-like, in which
    case the engine calls ``read(descriptor)`` for a Dataset. Optional
    keys: ``rows`` (row-count hint), ``mode`` (per-epoch write mode).
    Descriptors must be stable across polls (same epoch -> same content):
    an epoch is immutable once published, exactly like a closed Kafka
    batch. Sources hold no consumer state — the caller filters by its own
    committed cursor, or, for a source that sets ``needs_cursor = True``,
    passes it: ``poll_epochs(cursor={"epoch": committed epoch, "offset":
    committed offset})`` returns only the pending epochs, numbered from
    the committed epoch + 1."""

    def poll_epochs(self) -> list[dict]:
        """All currently published epochs, ascending by epoch."""
        ...

    def read(self, descriptor: dict):
        """Materializable input for one epoch: a list of parquet paths or
        a ``ray.data.Dataset`` in the event schema."""
        ...


class FilesystemEpochSource:
    """Epoch directories (``epoch-NNNNN/``) polled from a filesystem dir —
    the engine's original hardcoded tailer target, now behind the SPI.
    Producers publish atomically (tmp dir + one rename), or write a
    ``_SUCCESS`` marker last and set ``require_marker=True``
    (``CDCEngine.discover_epochs`` documents the contract).

    The tailer passes the lake's cursor (``needs_cursor = True``): offsets,
    not directory names, decide what is pending, because maintenance
    epochs (``delete_keys``, rewrites, clears) take lake epoch numbers that
    the producer's directories know nothing about."""

    needs_cursor = True

    def __init__(self, binlog_dir: str, require_marker: bool = False):
        self.binlog_dir = binlog_dir
        self.require_marker = require_marker

    def _published(self) -> list[tuple[int, str, list[str]]]:
        """``(epoch, dir, part files)`` of every published epoch directory,
        ascending — a directory listing, no footer reads."""
        import glob as _glob

        out = []
        for d in sorted(_glob.glob(os.path.join(self.binlog_dir, "epoch-*"))):
            if not os.path.isdir(d):
                continue
            if self.require_marker and not os.path.exists(
                os.path.join(d, "_SUCCESS")
            ):
                continue
            files = sorted(_glob.glob(os.path.join(d, "*.parquet")))
            if files:
                out.append((int(os.path.basename(d).split("-")[1]), d, files))
        return out

    @staticmethod
    def _describe(epoch: int, d: str, files: list[str]) -> dict:
        """Descriptor of one epoch directory; the offset range comes from
        the parquet footers' ``offset`` statistics (-1 when absent)."""
        import pyarrow.parquet as pq

        lo, hi = None, None
        for f in files:
            md = pq.ParquetFile(f).metadata
            idx = md.schema.to_arrow_schema().get_field_index("offset")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is not None and st.has_min_max:
                    lo = st.min if lo is None else min(lo, st.min)
                    hi = st.max if hi is None else max(hi, st.max)
        return {
            "epoch": epoch,
            "path": d,
            "files": files,
            "offset_min": -1 if lo is None else int(lo),
            "offset_max": -1 if hi is None else int(hi),
        }

    def poll_epochs(self, cursor: dict | None = None) -> list[dict]:
        """Published epochs, ascending. Without ``cursor``: every epoch
        directory, numbered by its name.

        With the lake's ``cursor = {"epoch": committed epoch, "offset":
        committed offset}``: only the pending ones, numbered from
        ``epoch + 1``. A directory is pending when its ``offset_min`` is
        above the committed offset; one without offset statistics falls
        back to its name (pending when numbered above the committed
        epoch). Footers are read newest-first and the scan stops at the
        first directory that is not pending — offsets grow with the
        directory names, so everything older was applied too, and a poll
        reads O(new epochs) footers however long the history is."""
        dirs = self._published()
        if cursor is None:
            return [self._describe(*x) for x in dirs]
        after = cursor.get("offset")
        after = -1 if after is None else int(after)
        last = cursor.get("epoch")
        pending = []
        for x in reversed(dirs):
            desc = self._describe(*x)
            if desc["offset_min"] >= 0:
                if desc["offset_min"] <= after:
                    break
            elif last is not None and desc["epoch"] <= int(last):
                break
            pending.append(desc)
        first = 0 if last is None else int(last) + 1
        pending.reverse()
        for i, desc in enumerate(pending):
            desc["epoch"] = first + i
        return pending

    def read(self, descriptor: dict):
        return descriptor["files"]


def _sqlite_connect(path: str):
    """Module-level so ``read_sql``'s connection factory pickles into the
    read task."""
    con = sqlite3.connect(path, timeout=60)
    con.execute("PRAGMA journal_mode=WAL")  # concurrent reader + appender
    return con


class SqliteBinlogSource:
    """Append-only log table as a change-stream source (the in-sandbox
    stand-in for a message bus / database WAL).

    Layout: one sqlite db with ``binlog`` (event rows + an ``epoch``
    column) and ``epochs`` (one row per published epoch: offset range, row
    count, optional mode). A producer appends an epoch with
    :meth:`append_epoch` — event inserts and the ``epochs`` row commit in
    ONE transaction, the ``epochs`` row last, so a poll either sees a
    whole epoch or none of it (the atomic-publish contract the filesystem
    source gets from ``os.rename``). The event schema is pinned as arrow
    JSON in a ``_meta`` table at creation; timestamps store as int64
    microseconds, binaries as BLOB.

    ``read`` returns a ``ray.data.read_sql`` Dataset (the query runs in a
    Ray task, not on the driver) cast back to the pinned schema. One task
    per epoch read — right for steady-state tail cadence where an epoch is
    one commit's worth of rows; a real bus source at catch-up scale would
    shard reads by offset range (``read_sql(shard_keys=...)`` exists for
    stores whose SQL can hash-shard; sqlite's cannot).
    """

    def __init__(self, db_path: str, schema: pa.Schema | None = None):
        self.db_path = db_path
        exists = os.path.exists(db_path)
        if not exists and schema is None:
            raise ValueError("new SqliteBinlogSource needs the event schema")
        con = _sqlite_connect(db_path)
        try:
            with con:
                con.execute(
                    "CREATE TABLE IF NOT EXISTS _meta (k TEXT PRIMARY KEY, v TEXT)"
                )
                con.execute(
                    "CREATE TABLE IF NOT EXISTS epochs (epoch INTEGER PRIMARY KEY, "
                    "offset_min INTEGER, offset_max INTEGER, rows INTEGER, mode TEXT)"
                )
                row = con.execute(
                    "SELECT v FROM _meta WHERE k = 'schema'"
                ).fetchone()
                if row is None:
                    con.execute(
                        "INSERT INTO _meta VALUES ('schema', ?)",
                        (json.dumps(schema_to_json(schema)),),
                    )
                    decl = ", ".join(
                        f'"{f.name}" {self._sql_type(f.type)}' for f in schema
                    )
                    con.execute(
                        f'CREATE TABLE binlog (epoch INTEGER, {decl})'
                    )
                    con.execute("CREATE INDEX binlog_epoch ON binlog (epoch)")
                    self.schema = schema
                else:
                    self.schema = schema_from_json(json.loads(row[0]))
        finally:
            con.close()

    @staticmethod
    def _sql_type(t: pa.DataType) -> str:
        if pa.types.is_integer(t) or pa.types.is_boolean(t) or pa.types.is_timestamp(t):
            return "INTEGER"
        if pa.types.is_floating(t):
            return "REAL"
        if pa.types.is_binary(t) or pa.types.is_large_binary(t):
            return "BLOB"
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return "TEXT"
        raise ValueError(f"SqliteBinlogSource supports scalar columns only, got {t}")

    # -- producer side -------------------------------------------------------

    def append_epoch(self, events: pa.Table, epoch: int,
                     mode: str | None = None) -> None:
        """Atomically publish one epoch: event rows + the ``epochs``
        registration commit in a single transaction (readers poll
        ``epochs``, so a torn write is invisible). Idempotent-unsafe on
        purpose: re-publishing an epoch id raises (epochs are immutable)."""
        import pyarrow.compute as pc

        events = events.select([f.name for f in self.schema])
        cols = []
        for f in self.schema:
            col = events[f.name]
            if pa.types.is_timestamp(f.type):
                col = pc.cast(col, pa.int64())
            cols.append(col.to_pylist())
        offs = events["offset"].to_pylist() if "offset" in events.schema.names else []
        lo = min(offs) if offs else -1
        hi = max(offs) if offs else -1
        con = _sqlite_connect(self.db_path)
        try:
            with con:
                placeholders = ", ".join("?" * (1 + len(self.schema)))
                con.executemany(
                    f"INSERT INTO binlog VALUES ({placeholders})",
                    [(epoch, *row) for row in zip(*cols)] if cols else [],
                )
                con.execute(
                    "INSERT INTO epochs VALUES (?, ?, ?, ?, ?)",
                    (epoch, lo, hi, events.num_rows, mode),
                )
        finally:
            con.close()

    # -- Source protocol -----------------------------------------------------

    def poll_epochs(self) -> list[dict]:
        con = _sqlite_connect(self.db_path)
        try:
            rows = con.execute(
                "SELECT epoch, offset_min, offset_max, rows, mode "
                "FROM epochs ORDER BY epoch"
            ).fetchall()
        finally:
            con.close()
        out = []
        for epoch, lo, hi, n, mode in rows:
            d = {"epoch": int(epoch), "offset_min": int(lo),
                 "offset_max": int(hi), "rows": int(n)}
            if mode:
                d["mode"] = mode
            out.append(d)
        return out

    def read(self, descriptor: dict):
        import functools

        import ray.data

        schema = self.schema
        names = ", ".join(f'"{f.name}"' for f in schema)
        ds = ray.data.read_sql(
            f"SELECT {names} FROM binlog WHERE epoch = {int(descriptor['epoch'])}",
            functools.partial(_sqlite_connect, self.db_path),
        )

        def cast(t: pa.Table) -> pa.Table:
            arrays = []
            for f in schema:
                col = t[f.name]
                if pa.types.is_timestamp(f.type):
                    col = col.cast(pa.int64()).cast(f.type)
                elif not col.type.equals(f.type):
                    col = col.cast(f.type)
                arrays.append(col)
            return pa.Table.from_arrays(arrays, schema=schema)

        return ds.map_batches(cast, batch_format="pyarrow")


class AppendLogBusSource:
    """Record-granular message-bus stand-in: an append-only sqlite log
    whose OFFSETS are assigned by the bus (AUTOINCREMENT rowid) — there
    are no producer-side epochs at all. The consumer forms epochs from
    offset ranges at poll time under the reference Kafka processor's
    batch envelope (``GetGeoMesaKafkaRecord.scala:113-122,263-304``):

    * ``max_records``  — a full batch closes as soon as that many records
      are pending (``RECORD_MAXIMUM``); a backlog yields several epochs
      per poll (catch-up);
    * ``min_records``  — a partial batch below this is NOT emitted ...
      (``RECORD_MINIMUM``);
    * ``max_latency_s`` — ... unless the oldest pending record has waited
      this long (``RECORD_MAX_LATENCY``), so a trickle still commits.

    Exactly-once contract: the bus holds no consumer state. ``tail``
    passes the lake's committed cursor (``needs_cursor = True``) — epoch
    numbering continues from ``cursor['epoch']`` and records strictly
    after ``cursor['offset']`` (the last committed manifest's
    ``offset_max``, NOT a directory name) are eligible. A batch only
    becomes immutable when its manifest commits; a crash between polls
    may re-form a larger batch from the same records, which is exactly a
    Kafka consumer re-polling an uncommitted range — the lake state
    converges identically because LWW application is associative (the
    same argument that legalizes catch-up batching).

    ``pause()`` / ``resume()`` mirror the reference's consumer-pause
    backpressure: a paused source reports no batches (offsets keep
    accumulating in the bus) and drains on resume.

    Producers call :meth:`append` (one transaction per call — readers
    never see a torn append). The event schema is the LAKE schema; the
    bus assigns the ``offset`` column, so appended events need not (and
    cannot) set it. Arrival wall-time is stored per row for the latency
    gate.
    """

    needs_cursor = True

    def __init__(self, db_path: str, schema: pa.Schema | None = None,
                 min_records: int = 1, max_records: int = 100_000,
                 max_latency_s: float = 5.0):
        self.db_path = db_path
        self.min_records = int(min_records)
        self.max_records = int(max_records)
        self.max_latency_s = float(max_latency_s)
        self._paused = False
        exists = os.path.exists(db_path)
        if not exists and schema is None:
            raise ValueError("new AppendLogBusSource needs the event schema")
        con = _sqlite_connect(db_path)
        try:
            with con:
                con.execute(
                    "CREATE TABLE IF NOT EXISTS _meta (k TEXT PRIMARY KEY, v TEXT)"
                )
                row = con.execute(
                    "SELECT v FROM _meta WHERE k = 'schema'"
                ).fetchone()
                if row is None:
                    payload = pa.schema([f for f in schema
                                         if f.name != "offset"])
                    con.execute(
                        "INSERT INTO _meta VALUES ('schema', ?)",
                        (json.dumps(schema_to_json(payload)),),
                    )
                    decl = ", ".join(
                        f'"{f.name}" {SqliteBinlogSource._sql_type(f.type)}'
                        for f in payload
                    )
                    con.execute(
                        "CREATE TABLE log (off INTEGER PRIMARY KEY "
                        f"AUTOINCREMENT, at REAL, {decl})"
                    )
                    self.payload_schema = payload
                else:
                    self.payload_schema = schema_from_json(json.loads(row[0]))
        finally:
            con.close()

    # -- producer side ---------------------------------------------------------

    def append(self, events: pa.Table) -> tuple[int, int]:
        """Append records; the bus assigns their offsets. Returns the
        assigned ``(first_offset, last_offset)``. One transaction — a
        concurrent poll sees all of this call's rows or none.

        A zero-row append is a no-op (a trickle producer flushing an
        empty batch is normal); it assigns no offsets and returns the
        empty range ``(last + 1, last)`` — callers must treat
        ``first > last`` as "nothing appended"."""
        import time as _time

        import pyarrow.compute as pc

        if events.num_rows == 0:
            con = _sqlite_connect(self.db_path)
            try:
                import sqlite3
                try:
                    row = con.execute(
                        "SELECT seq FROM sqlite_sequence WHERE name = 'log'"
                    ).fetchone()
                except sqlite3.OperationalError:
                    row = None  # sqlite_sequence absent before first insert
            finally:
                con.close()
            last = int(row[0]) if row else 0
            return last + 1, last
        events = events.select([f.name for f in self.payload_schema])
        cols = []
        for f in self.payload_schema:
            col = events[f.name]
            if pa.types.is_timestamp(f.type):
                col = pc.cast(col, pa.int64())
            cols.append(col.to_pylist())
        now = _time.time()
        con = _sqlite_connect(self.db_path)
        try:
            with con:
                placeholders = ", ".join("?" * (1 + len(self.payload_schema)))
                con.executemany(
                    f"INSERT INTO log (at, {', '.join(chr(34) + f.name + chr(34) for f in self.payload_schema)}) "
                    f"VALUES ({placeholders})",
                    [(now, *row) for row in zip(*cols)],
                )
                last = con.execute(
                    "SELECT seq FROM sqlite_sequence WHERE name = 'log'"
                ).fetchone()[0]
        finally:
            con.close()
        return last - events.num_rows + 1, last

    # -- consumer pause (the reference's backpressure lever) --------------------

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    # -- Source protocol ---------------------------------------------------------

    def poll_epochs(self, cursor: dict | None = None) -> list[dict]:
        """Form epoch descriptors for records after ``cursor['offset']``
        under the min/max/latency envelope. Numbering continues from
        ``cursor['epoch']``. Stateless: the same cursor re-forms the same
        full batches (the trailing partial batch may grow between polls —
        legal, it is uncommitted by definition)."""
        import time as _time

        if self._paused:
            return []
        cursor = cursor or {}
        after = int(cursor.get("offset") if cursor.get("offset") is not None
                    else -1)
        last_epoch = cursor.get("epoch")
        next_epoch = 0 if last_epoch is None else int(last_epoch) + 1
        con = _sqlite_connect(self.db_path)
        try:
            rows = con.execute(
                "SELECT off, at FROM log WHERE off > ? ORDER BY off",
                (after,),
            ).fetchall()
        finally:
            con.close()
        if not rows:
            return []
        now = _time.time()
        out = []
        i = 0
        while i < len(rows):
            chunk = rows[i:i + self.max_records]
            if len(chunk) < self.max_records:
                # trailing partial batch: the min/latency gate
                oldest = min(at for _, at in chunk)
                if (len(chunk) < self.min_records
                        and (now - oldest) < self.max_latency_s):
                    break
            out.append({
                "epoch": next_epoch,
                "offset_min": int(chunk[0][0]),
                "offset_max": int(chunk[-1][0]),
                "rows": len(chunk),
            })
            next_epoch += 1
            i += len(chunk)
        return out

    def read(self, descriptor: dict):
        import functools

        import ray.data

        schema = self.payload_schema
        names = ", ".join(f'"{f.name}"' for f in schema)
        lo, hi = int(descriptor["offset_min"]), int(descriptor["offset_max"])
        ds = ray.data.read_sql(
            f"SELECT off, {names} FROM log WHERE off BETWEEN {lo} AND {hi}",
            functools.partial(_sqlite_connect, self.db_path),
        )
        out_schema = pa.schema(
            list(schema) + [pa.field("offset", pa.int64())])

        def cast(t: pa.Table) -> pa.Table:
            arrays = []
            for f in schema:
                col = t[f.name]
                if pa.types.is_timestamp(f.type):
                    col = col.cast(pa.int64()).cast(f.type)
                elif not col.type.equals(f.type):
                    col = col.cast(f.type)
                arrays.append(col)
            arrays.append(t["off"].cast(pa.int64()))
            return pa.Table.from_arrays(arrays, schema=out_schema)

        return ds.map_batches(cast, batch_format="pyarrow")
