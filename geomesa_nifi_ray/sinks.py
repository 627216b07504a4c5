"""Sink protocol: the pluggable-backend surface (DataStoreService SPI analog,
``geomesa-datastore-bundle/…/services/DataStoreService.java:15-31``).

The reference ships one thin connector shim per backend (Accumulo, HBase,
Kafka, Redis, FS/Iceberg, JDBC, Lambda) over a common load/new/dispose
protocol. Here a ``Sink`` is anything implementing the protocol below;
the engine's lake is one implementation (:class:`ParquetLakeSink`), and a
user can plug an object-store or table-format sink without touching the
engine. Writes happen inside the merge tasks (each task owns the
partitions of its bucket range — the store-per-writer isolation of
``JdbcDataStoreService.scala:27-30``); ``commit`` runs once on the driver
per epoch.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import pyarrow as pa

from geomesa_nifi_ray.lake import LakeTable


@runtime_checkable
class Sink(Protocol):
    """Pluggable data-plane protocol. The engine's metadata plane (schema,
    manifest commit log, epoch cursor) stays in :class:`LakeTable` — the
    sink owns only partition bytes, so any backend that can durably write
    and read a keyed partition participates in the same exactly-once
    protocol. Instances are pickled into the merge tasks; keep them
    connection-free (open handles lazily per call).

    A reference is ``(ref, range)``: an opaque string recorded in the
    manifest plus an optional ``[lo, hi)`` row range inside it (``None``
    = the whole partition)."""

    def write_partition(self, table: pa.Table, bucket: int,
                        epoch: int) -> str:
        """Durably write one bucket's full state (a base); return its ref.
        Must be idempotent (deterministic destination for (bucket,
        epoch))."""
        ...

    def write_deltas(self, table: pa.Table, epoch: int,
                     parts: list[tuple[int, int, int, str]],
                     ) -> list[tuple[str, list | None]]:
        """Durably write one merge task's delta rows for ``epoch`` — the
        one delta write of the task. ``table`` is sorted by (bucket, key);
        ``parts`` lists ``(bucket, lo, hi, digest)`` per bucket, ascending,
        with ``[lo, hi)`` its rows. Returns one ``(ref, range)`` per part.
        Must be idempotent for the same rows, and must never overwrite a
        ref holding other rows."""
        ...

    def read_chains(self, chains: list[list[tuple[str, list | None]]],
                    columns: list[str] | None = None, key: str | None = None,
                    keys: list[list] | None = None,
                    ) -> tuple[list[list[pa.Table]], int, int]:
        """Read bucket chains of ``(ref, range)`` references (see
        :func:`~geomesa_nifi_ray.lake.read_chains`): per chain its tables,
        oldest first, projected leniently to ``columns`` plus the
        ``_tomb`` marker where present; ``keys[i]`` (sorted probe keys of
        chain ``i``) MAY prune rows of other keys. Returns ``(tables,
        row groups seen, row groups kept)``."""
        ...

    def commit(self, manifest: dict) -> None:
        """Atomically publish an epoch manifest (exactly-once point)."""
        ...

    def read_schema(self) -> pa.Schema:
        """Current stored schema (the ``store.getSchema`` lookup analog)."""
        ...


class ParquetLakeSink:
    """The built-in sink: bucketed Parquet lake + manifest commit log. A
    merge task's delta rows go to ONE segment file per epoch
    (:meth:`LakeTable.write_delta_segment`); chain reads open each
    distinct file once and prune row groups by key statistics — bucket
    files are key-sorted, so a small epoch reads O(its key span), not the
    touched chains (the reference's keyed-index point reads,
    ``FeatureWriters.scala:115-160``)."""

    def __init__(self, table: LakeTable):
        self.table = table

    def write_partition(self, data: pa.Table, bucket: int,
                        epoch: int) -> str:
        return self.table.write_bucket_file(data, bucket, epoch)

    def write_deltas(self, data: pa.Table, epoch: int,
                     parts: list[tuple[int, int, int, str]],
                     ) -> list[tuple[str, list | None]]:
        rel = self.table.write_delta_segment(data, epoch, parts)
        return [(rel, [lo, hi]) for _, lo, hi, _ in parts]

    def read_chains(self, chains, columns=None, key=None, keys=None):
        from geomesa_nifi_ray.lake import read_chains

        t = self.table
        return read_chains(
            t.fs, [[(t.abs_path(p), r) for p, r in c] for c in chains],
            columns, key, keys)

    def commit(self, manifest: dict) -> None:
        self.table.commit_epoch(manifest)

    def read_schema(self) -> pa.Schema:
        return self.table.schema


class SqliteSink:
    """Second concrete backend over the SPI: each bucket lives in its own
    sqlite database file, each (epoch, kind) as a table inside it — the
    store-per-writer isolation of the reference's JDBC shim
    (``JdbcDataStoreService.scala:27-30``: one store per writer to dodge
    the write lock; here one db per bucket, so parallel merge tasks never
    contend). Partition schema fidelity is kept in a ``_partitions`` side
    table (arrow schema JSON per ref). Scalar columns only (the engine's
    page schema); timestamps store as int64 microseconds.
    """

    def __init__(self, root: str, table: LakeTable | None = None):
        import os

        self.root = root
        self.table = table  # commit log delegate (metadata plane)
        os.makedirs(root, exist_ok=True)

    # -- helpers ------------------------------------------------------------

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
        raise ValueError(f"SqliteSink supports scalar columns only, got {t}")

    def _db_path(self, bucket: int) -> str:
        import os

        return os.path.join(self.root, f"bucket={bucket:05d}.db")

    def _connect(self, bucket: int):
        import sqlite3

        con = sqlite3.connect(self._db_path(bucket), timeout=60)
        con.execute(
            "CREATE TABLE IF NOT EXISTS _partitions (ref TEXT PRIMARY KEY, "
            "tbl TEXT, schema_json TEXT)"
        )
        return con

    # -- Sink protocol ------------------------------------------------------

    def write_partition(self, data: pa.Table, bucket: int,
                        epoch: int) -> str:
        return self._write(data, bucket, epoch, "base")

    def write_deltas(self, data: pa.Table, epoch: int,
                     parts: list[tuple[int, int, int, str]],
                     ) -> list[tuple[str, list | None]]:
        """One ``delta`` table per bucket; the refs are whole partitions."""
        return [(self._write(data.slice(lo, hi - lo), b, epoch, "delta"), None)
                for b, lo, hi, _ in parts]

    def read_chains(self, chains, columns=None, key=None, keys=None):
        """Every ref is a whole partition; nothing is pruned."""
        from geomesa_nifi_ray.lake import TOMB_COLUMN

        cols = None if columns is None else [*columns, TOMB_COLUMN]
        return [[self.read_partition(ref, cols) for ref, _ in c]
                for c in chains], 0, 0

    def _write(self, data: pa.Table, bucket: int, epoch: int,
               kind: str) -> str:
        import json

        from geomesa_nifi_ray.schema import schema_to_json

        ref = f"bucket={bucket:05d}::{kind}-{epoch:05d}"
        tbl = f"{kind}_{epoch:05d}"
        import pyarrow.compute as pc

        cols = []
        for f in data.schema:
            col = data[f.name]
            if pa.types.is_timestamp(f.type):
                col = pc.cast(col, pa.int64())
            cols.append(col.to_pylist())
        con = self._connect(bucket)
        try:
            with con:  # one transaction: drop+create+insert is atomic
                con.execute(f'DROP TABLE IF EXISTS "{tbl}"')
                decl = ", ".join(
                    f'"{f.name}" {self._sql_type(f.type)}' for f in data.schema
                )
                con.execute(f'CREATE TABLE "{tbl}" ({decl})')
                placeholders = ", ".join("?" * len(data.schema))
                con.executemany(
                    f'INSERT INTO "{tbl}" VALUES ({placeholders})',
                    list(zip(*cols)) if cols else [],
                )
                con.execute(
                    "INSERT OR REPLACE INTO _partitions VALUES (?, ?, ?)",
                    (ref, tbl, json.dumps(schema_to_json(data.schema))),
                )
        finally:
            con.close()
        return ref

    def read_partition(self, ref: str, columns: list[str] | None = None) -> pa.Table:
        import json

        from geomesa_nifi_ray.schema import schema_from_json

        bucket = int(ref.split("::")[0].split("=")[1])
        con = self._connect(bucket)
        try:
            row = con.execute(
                "SELECT tbl, schema_json FROM _partitions WHERE ref = ?", (ref,)
            ).fetchone()
            if row is None:
                raise FileNotFoundError(f"no partition {ref!r} in {self._db_path(bucket)}")
            tbl, schema_json = row
            schema = schema_from_json(json.loads(schema_json))
            names = [f.name for f in schema if columns is None or f.name in columns]
            sel = ", ".join(f'"{n}"' for n in names)
            rows = con.execute(f'SELECT {sel} FROM "{tbl}"').fetchall()
        finally:
            con.close()
        arrays = {}
        for i, n in enumerate(names):
            t = schema.field(n).type
            vals = [r[i] for r in rows]
            if pa.types.is_timestamp(t):
                arrays[n] = pa.array(vals, type=pa.int64()).cast(t)
            elif pa.types.is_boolean(t):
                arrays[n] = pa.array(
                    [None if v is None else bool(v) for v in vals], type=t
                )
            else:
                arrays[n] = pa.array(vals, type=t)
        out_schema = pa.schema([schema.field(n) for n in names])
        if not arrays:
            return out_schema.empty_table()
        return pa.Table.from_arrays([arrays[n] for n in names], schema=out_schema)

    def commit(self, manifest: dict) -> None:
        if self.table is None:
            raise RuntimeError("SqliteSink needs a LakeTable commit-log delegate")
        self.table.commit_epoch(manifest)

    def read_schema(self) -> pa.Schema:
        if self.table is None:
            raise RuntimeError("SqliteSink needs a LakeTable commit-log delegate")
        return self.table.schema
