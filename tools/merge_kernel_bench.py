"""Single-layer bench of the bucket merger (``make_bucket_merger``).

Builds a 16-bucket lake from a ``synth.BinlogSpec`` binlog whose bucket
chains hold 0-4 deltas (bucket b has min(b % 5, 4); each delta epoch
writes one segment for all the buckets it touches), then
times the merger alone, in-process — no Ray tasks, no manifest commit —
on the next epoch's converted rows, twice:

- a delta commit: every bucket takes the delta path (``max_deltas=5``);
- a compaction commit: every bucket compacts (``max_deltas=0``).

For each it prints the median over ``--reps`` calls of the ms per bucket
spent in each section the merger reports (filter, chain_read, decide,
write, lineage) and in the whole call, then one JSON line with the same
figures and the host (CPU count, affinity, load average). One run takes
about 10 s on one CPU once the binlog exists (it is cached under
``--cache``), Ray start-up included.

Run: python tools/merge_kernel_bench.py [--events 20000] [--reps 7]
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

BUCKETS = 16
MAX_CHAIN = 4
SECTIONS = ("filter", "chain_read", "decide", "write", "lineage")


def _events(descs) -> pa.Table:
    return pa.concat_tables(
        [pq.read_table(f) for d in descs for f in d["files"]])


def _commit(eng, conv: pa.Table, rows_in: int, offset_range) -> None:
    """One epoch through the merger and the engine's lineage commit."""
    from geomesa_nifi_ray.engine import make_bucket_merger

    epoch = 0 if eng.table.committed_epoch() is None else \
        eng.table.committed_epoch() + 1
    live = eng.table.live_entries()
    merger = make_bucket_merger(eng.table, epoch, live,
                                max_deltas=eng.max_deltas, sink=eng.sink)
    eng._commit_lineage(epoch, live, merger(conv).to_pylist(), rows_in,
                        "upsert", offset_range, None)


def build_lake(root: str, meta: dict):
    """Base from all but the last MAX_CHAIN + 1 binlog epochs, then
    MAX_CHAIN delta epochs, epoch j touching the buckets with
    b % (MAX_CHAIN + 1) >= j. Returns the engine and the converted rows of
    the last binlog epoch (the timed input)."""
    from geomesa_nifi_ray.engine import CDCEngine

    eng = CDCEngine(root, num_buckets=BUCKETS, max_deltas=MAX_CHAIN + 1)
    convert = eng._make_convert(eng.table.schema)
    eps = meta["epochs"]
    n_base = len(eps) - MAX_CHAIN - 1
    ev = _events(eps[:n_base])
    _commit(eng, convert(ev), ev.num_rows,
            (eps[0]["offset_min"], eps[n_base - 1]["offset_max"]))
    for j in range(1, MAX_CHAIN + 1):
        d = eps[n_base + j - 1]
        ev = _events([d])
        conv = convert(ev)
        b = conv["bucket"].to_numpy(zero_copy_only=False)
        _commit(eng, conv.filter(pa.array(b % (MAX_CHAIN + 1) >= j)),
                ev.num_rows,
                (d["offset_min"], d["offset_max"]))
    return eng, convert(_events(eps[-1:]))


def time_merger(eng, conv: pa.Table, max_deltas: int, reps: int) -> dict:
    """Median ms per bucket of each section and of the whole call."""
    from geomesa_nifi_ray.engine import make_bucket_merger

    epoch = eng.table.committed_epoch() + 1
    live = eng.table.live_entries()
    n_buckets = len(set(conv["bucket"].to_pylist()))
    runs = []
    for _ in range(reps + 1):                   # the first call warms up
        sections: dict = {}
        merger = make_bucket_merger(eng.table, epoch, live,
                                    max_deltas=max_deltas, sink=eng.sink,
                                    sections=sections)
        t0 = time.perf_counter()
        merger(conv)
        sections["total"] = time.perf_counter() - t0
        runs.append(sections)
    return {k: round(1e3 * statistics.median(r.get(k, 0.0) for r in runs[1:])
                     / n_buckets, 3)
            for k in (*SECTIONS, "total")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--events", type=int, default=20_000)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--cache", default=os.path.join(
        tempfile.gettempdir(), "merge_kernel_bench"))
    a = ap.parse_args(argv)

    import ray

    from geomesa_nifi_ray import synth

    spec = synth.BinlogSpec(num_events=a.events, num_urls=max(1, a.events * 2 // 5),
                            num_epochs=a.epochs, seed=a.seed)
    meta = synth.write_binlog(
        os.path.join(a.cache, f"binlog-{a.events}-{a.epochs}-{a.seed}"), spec,
        parallel=False)
    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
    root = tempfile.mkdtemp(prefix="lake-", dir=a.cache)
    try:
        eng, conv = build_lake(root, meta)
        chains = {b: len(e.get("deltas", []))
                  for b, e in eng.table.live_entries().items()}
        out = {"rows_in": conv.num_rows, "buckets": BUCKETS,
               "chain_deltas": sorted(chains.values())}
        for name, md in (("delta", MAX_CHAIN + 1), ("compaction", 0)):
            out[name] = time_merger(eng, conv, md, a.reps)
    finally:
        ray.shutdown()
        shutil.rmtree(root, ignore_errors=True)
    out["host"] = {"nproc": os.cpu_count(),
                   "affinity": len(os.sched_getaffinity(0)),
                   "loadavg": [round(x, 2) for x in os.getloadavg()]}
    print(f"{conv.num_rows} converted rows over {BUCKETS} buckets; chain "
          f"deltas {out['chain_deltas']}; ms per bucket, median of {a.reps}")
    print(f"{'commit':<11}" + "".join(f"{s:>11}" for s in (*SECTIONS, "total")))
    for name in ("delta", "compaction"):
        print(f"{name:<11}" + "".join(f"{out[name][s]:>11.3f}"
                                      for s in (*SECTIONS, "total")))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
