"""Benchmark inputs: one synthetic binlog per seed, cached, plus the
producer that turns its epochs into an unbounded stream of newer epochs.

Every workload of a seed reads the same ``synth.BinlogSpec`` binlog, so a
seed's events are generated once per checkout and reused by all three
workloads and by every later run with that seed.

The producer publishes *shifted copies* of binlog epochs: copy number ``s``
adds ``s * span_us`` to ``warc_ts`` and ``s * num_events`` to ``offset``.
Each copy therefore carries the same url skew, inverted and tied
timestamps and null ``html`` rows as its source epoch, while every event
of a later copy orders after every event published before it. That keeps
the expected lake state unambiguous when a key deleted earlier comes back,
and lets a workload run for as long as it is asked to without generating
new pages.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Bumped whenever the cached layout or the producer transform changes.
CACHE_VERSION = 1


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark configuration."""

    num_events: int = 40_000
    num_epochs: int = 20
    num_urls: int = 16_000
    # the last ``evolve_epochs`` binlog epochs carry the additive
    # ``content_type`` column: backlog drains the epochs before them, tail
    # meets the schema change on its first published epoch
    evolve_epochs: int = 2
    backlog_groups: int = 3       # backlog's per-epoch drain commits
    num_buckets: int = 16


SMOKE = Sizes(num_events=6_000, num_epochs=6, num_urls=3_000,
              evolve_epochs=1, backlog_groups=2, num_buckets=8)


def binlog_spec(seed: int, sizes: Sizes):
    from geomesa_nifi_ray import synth

    return synth.BinlogSpec(
        num_events=sizes.num_events,
        num_urls=sizes.num_urls,
        num_epochs=sizes.num_epochs,
        seed=seed,
        extra_column_from_epoch=sizes.num_epochs - sizes.evolve_epochs,
    )


def _generate(out_dir: str, spec) -> dict:
    """``synth.write_binlog`` with its paragraph pool memoized.

    ``synth._base_text`` is a pure function of ``(pool_id, seed)`` over a
    pool of ``pool_size`` entries, but the generator rebuilds an entry for
    every event (a fresh ``RandomState`` each time). Caching it makes
    generation about 4x faster on one CPU and leaves every byte the same.
    """
    from geomesa_nifi_ray import synth

    original = synth._base_text
    synth._base_text = functools.lru_cache(maxsize=None)(original)
    try:
        return synth.write_binlog(out_dir, spec, parallel=False)
    finally:
        synth._base_text = original


def load_binlog(cache_root: str, seed: int, sizes: Sizes) -> tuple[dict, float]:
    """The seed's binlog descriptor, generated into ``cache_root`` on first
    use. Returns ``(descriptor, seconds spent generating)``; 0 on a hit."""
    spec = binlog_spec(seed, sizes)
    key = hashlib.sha1(json.dumps(
        [CACHE_VERSION, asdict(spec)], sort_keys=True).encode()).hexdigest()[:16]
    final = os.path.join(cache_root, f"binlog-{key}")
    took = 0.0
    if not os.path.exists(os.path.join(final, "binlog.json")):
        os.makedirs(cache_root, exist_ok=True)
        tmp = f"{final}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        t0 = time.perf_counter()
        _generate(tmp, spec)
        took = time.perf_counter() - t0
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
    with open(os.path.join(final, "binlog.json")) as f:
        meta = json.load(f)
    # the descriptor records the dir it was written to; re-root its paths
    for e in meta["epochs"]:
        e["path"] = os.path.join(final, os.path.basename(e["path"]))
        e["files"] = [os.path.join(e["path"], os.path.basename(p))
                      for p in e["files"]]
    return meta, took


def ts_span_us(meta: dict) -> int:
    """One more than the binlog's ``warc_ts`` range, in microseconds: the
    shift that puts a copy after every event of the previous copy."""
    lo = hi = None
    for e in meta["epochs"]:
        for f in e["files"]:
            t = pq.read_table(f, columns=["warc_ts"])["warc_ts"]
            mm = pc.min_max(pc.cast(t, pa.int64()))
            a, b = mm["min"].as_py(), mm["max"].as_py()
            lo = a if lo is None else min(lo, a)
            hi = b if hi is None else max(hi, b)
    return int(hi - lo + 1)


class Producer:
    """Publishes epochs into ``out_dir`` the way a CDC producer must for
    ``FilesystemEpochSource``: part files go to a hidden tmp dir, then one
    ``os.rename`` makes the ``epoch-NNNNN`` dir visible.

    ``plan`` lists ``(binlog epoch index, copy number)`` pairs in publish
    order; after it is used up, copy numbers keep increasing over the
    binlog epochs in order, so the stream never ends."""

    def __init__(self, meta: dict, out_dir: str, first_epoch: int,
                 plan: list[tuple[int, int]], first_copy: int):
        self.meta = meta
        self.out_dir = out_dir
        self.next_epoch = first_epoch
        self.plan = list(plan)
        self.next_copy = first_copy
        self.n_events = int(meta["total_rows"])
        self.span_us = ts_span_us(meta)
        self.published: list[dict] = []
        os.makedirs(out_dir, exist_ok=True)

    def _next_source(self) -> tuple[int, int]:
        if self.plan:
            return self.plan.pop(0)
        epochs = len(self.meta["epochs"])
        c = self.next_copy
        self.next_copy += 1
        # copy c >= first_copy walks the binlog epochs round-robin
        return c % epochs, c

    def events(self, src: int, copy: int) -> pa.Table:
        e = self.meta["epochs"][src]
        t = pa.concat_tables([pq.read_table(f) for f in e["files"]])
        if copy == 0:
            return t
        off = pc.add(t["offset"], pa.scalar(copy * self.n_events, pa.int64()))
        ts = pc.cast(
            pc.add(pc.cast(t["warc_ts"], pa.int64()),
                   pa.scalar(copy * self.span_us, pa.int64())),
            t.schema.field("warc_ts").type)
        t = t.set_column(t.column_names.index("offset"), "offset", off)
        return t.set_column(t.column_names.index("warc_ts"), "warc_ts", ts)

    def publish(self) -> dict:
        """Publish the next epoch; returns its record (epoch number, dir,
        offset range, row count and the events table)."""
        src, copy = self._next_source()
        t = self.events(src, copy)
        epoch = self.next_epoch
        self.next_epoch += 1
        name = f"epoch-{epoch:05d}"
        tmp = os.path.join(self.out_dir, f".tmp-{name}")
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(t, os.path.join(tmp, "part-00000.parquet"),
                       compression="zstd")
        final = os.path.join(self.out_dir, name)
        os.rename(tmp, final)
        offs = pc.min_max(t["offset"])
        rec = {
            "epoch": epoch,
            "path": final,
            "files": [os.path.join(final, "part-00000.parquet")],
            "offset_min": offs["min"].as_py(),
            "offset_max": offs["max"].as_py(),
            "rows": t.num_rows,
            "events": t,
        }
        self.published.append(rec)
        return rec


def group_epochs(descs: list[dict], groups: int) -> list[dict]:
    """Merge consecutive epoch descriptors into ``groups`` bigger epochs
    (one descriptor each, files concatenated), renumbered from 0."""
    per = -(-len(descs) // groups)
    out = []
    for g in range(0, len(descs), per):
        part = descs[g:g + per]
        out.append({
            "epoch": len(out),
            "files": [f for d in part for f in d["files"]],
            "offset_min": part[0]["offset_min"],
            "offset_max": part[-1]["offset_max"],
        })
    return out


def event_files(descs: list[dict]) -> list[str]:
    return [f for d in descs for f in d["files"]]
