"""Rehearsal filesystems: simulate object-store semantics on local disk.

``object_store_sim_fs()`` returns a :class:`~geomesa_nifi_ray.lake.LakeFS`
whose backend (a) fails hard on any rename — S3 has none, a "move" is
copy+delete, and the lake's exactly-once protocol must never rely on one
— and (b) pays a per-open latency, approximating object-store round
trips. Used by the test suite to prove the commit protocol holds without
rename atomicity (single-PUT atomicity + manifest-written-last is the
linearization point, ``lake.LakeFS`` docstring); importable from Ray
workers, unlike classes defined inside test modules.

``ref_rows`` / ``resolved_buckets`` compare lakes by what their manifest
refs hold: two runs that grouped buckets into merge tasks differently
write the same delta rows into differently named segments."""

from __future__ import annotations

import time

from fsspec.implementations.local import LocalFileSystem as _FsspecLocal


class SlowNoRenameFS(_FsspecLocal):
    """fsspec backend: local disk, no rename, per-open latency."""

    latency = 0.002

    def mv(self, *args, **kwargs):  # pragma: no cover - raising IS the contract
        raise AssertionError("rename attempted on a no-rename store")

    mv_file = mv

    def _open(self, *args, **kwargs):
        time.sleep(self.latency)
        return super()._open(*args, **kwargs)


def object_store_sim_fs():
    """LakeFS over the no-rename, latency-injected backend."""
    import pyarrow.fs as pafs

    from geomesa_nifi_ray.lake import LakeFS

    return LakeFS(pafs.PyFileSystem(pafs.FSSpecHandler(SlowNoRenameFS())),
                  rename_capable=False)


def ref_rows(table, path: str, rng) -> list[dict]:
    """Rows of one ``(path, range)`` manifest ref of ``table``, with a
    ``_tomb`` column (0 where the file has none)."""
    import pyarrow as pa

    from geomesa_nifi_ray.lake import TOMB_COLUMN, read_chains

    [[t]], _, _ = read_chains(table.fs, [[(table.abs_path(path), rng)]], None)
    if TOMB_COLUMN not in t.column_names:
        t = t.append_column(TOMB_COLUMN, pa.array([0] * t.num_rows, pa.int8()))
    return t.to_pylist()


def resolved_buckets(table, epoch: int, drop=()) -> dict:
    """The bucket map of ``epoch``'s manifest with every delta ref and the
    epoch's own ref replaced by the rows they name (bases keep their
    deterministic paths), minus the fields in ``drop``."""
    out = {}
    for b, e in table.manifest(epoch)["buckets"].items():
        ep = table.epoch_ref(e)
        r = {k: v for k, v in e.items()
             if k not in ("deltas", "delta_ranges", "epoch_file",
                          "epoch_file_range", *drop)}
        r["deltas"] = [ref_rows(table, p, rng)
                       for p, rng in table.chain_refs(e)[1:]]
        r["epoch_rows"] = None if ep is None else ref_rows(table, *ep)
        out[b] = r
    return out
