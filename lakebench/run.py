#!/usr/bin/env python3
"""CDC lake benchmark.

Usage, from the root of the repository::

    python3 lakebench/run.py --workload backlog --seed 1 --seconds 20 --trace 0
    python3 lakebench/run.py --smoke          # all workloads, small, < 1 min

One run starts its own local Ray instance with one CPU slot per CPU this
process may use, warms its workers up, loads the workload's base lake, runs
whole rounds of the workload for ``--seconds`` seconds, checks every output
against :mod:`lakebench.oracle` and stops Ray. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
A traced run also prints a ``trace:`` line with tracing overhead, the Ray
Data busy time and the per-layer CPU sum beside the measured CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".lakebench")
# Ray puts unix sockets under its temp dir; their paths may not exceed 107
# bytes, and the session dir adds about 60
RAY_TEMP_MAX = 45

END_TO_END = {
    "setup_s": "s",
    "catchup_events_per_s": "1/s",
    "replay_events_per_s": "1/s",
    "commit_p50_s": "s",
    "lookup_p50_ms": "ms",
    "scan_rows_per_s": "1/s",
    "lake_mb": "MB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sources.poll_ms": "ms",
    "engine.apply_epoch_s": "s",
    "engine.plan_ms": "ms",
    "engine.convert_busy_s": "s",
    "engine.convert_tasks": "count",
    "engine.merge_busy_s": "s",
    "engine.merge_tasks": "count",
    "engine.tasks_per_commit": "count",
    "engine.collapse_ratio": "ratio",
    "convert.us_per_event": "us",
    "text.extract_us_per_row": "us",
    "upsert.lww_us_per_row": "us",
    "schema.merge_ms": "ms",
    "lake.commit_ms": "ms",
    "lake.files_per_commit": "count",
    "lake.bytes_per_commit": "B",
    "lake.compactions": "count",
    "lake.rg_skip_ratio": "ratio",
    "lake.chain_len_mean": "count",
    "lake.files_per_lookup": "count",
    "lake.scan_s": "s",
    "lake.vacuum_s": "s",
    "lake.log_kb": "kB",
    "metrics.scrape_ms": "ms",
    "cpu_us_per_event": "us",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def require_program() -> None:
    """Fail unless the engine's source sits beside the benchmark."""
    if not os.path.isfile(os.path.join(ROOT, "geomesa_nifi_ray", "engine.py")):
        raise SystemExit(f"lakebench: no geomesa_nifi_ray/ under {ROOT}")
    sys.path.insert(0, ROOT)
    # Ray workers import the engine from the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    for k, v in (("RAY_USAGE_STATS_ENABLED", "0"),
                 ("RAY_DATA_DISABLE_PROGRESS_BARS", "1"),
                 ("RAY_DISABLE_IMPORT_WARNING", "1")):
        os.environ.setdefault(k, v)


def usable_cpus() -> int:
    """CPUs this process may use: its affinity set, capped by
    ``OMP_NUM_THREADS`` when the environment sets it (as ``nproc`` does)."""
    n = len(os.sched_getaffinity(0))
    cap = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(cap)) if cap.isdigit() and int(cap) > 0 else n


def _busy_ticks() -> dict[int, int]:
    out = {}
    with open("/proc/stat") as f:
        for line in f:
            name, *vals = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                v = [int(x) for x in vals]
                out[int(name[3:])] = sum(v) - v[3] - v[4]   # all but idle, iowait
    return out


def quiet_cpus(n: int) -> list[int]:
    """The ``n`` allowed CPUs that were least busy over the last half
    second, by ``/proc/stat`` (which counts every process on the machine)."""
    allowed = sorted(os.sched_getaffinity(0))
    a = _busy_ticks()
    time.sleep(0.5)
    b = _busy_ticks()
    return sorted(sorted(allowed, key=lambda c: (b.get(c, 0) - a.get(c, 0), c))[:n])


def pin_tree(cpus: list[int]) -> None:
    """Pin every thread of this process and of the processes it started
    (Ray's daemons and workers, and so the workers they start later).

    Left to migrate between CPUs that other processes on the machine also
    use, the same 100-key lookup measured 80 to 180 ms from one process to
    the next; pinned to one CPU it measured 92 to 103 ms."""
    from lakebench.trace import descendants

    for pid in [str(os.getpid())] + descendants(os.getpid()):
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass                    # the process or thread has exited


def start_ray() -> float:
    """Start Ray on all allowed CPUs (faster), then pin everything to the
    quietest ``usable_cpus()`` of them and give Ray that many CPU slots."""
    import ray

    cpus = quiet_cpus(usable_cpus())
    t0 = time.perf_counter()
    kwargs = dict(address="local", num_cpus=len(cpus),
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False, object_store_memory=300 << 20)
    temp = os.path.join(WORK, "ray")
    if len(temp) <= RAY_TEMP_MAX:
        kwargs["_temp_dir"] = temp
    ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    pin_tree(cpus)
    log(f"lakebench: pinned to CPUs {cpus}")
    return time.perf_counter() - t0


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)


def warm_up(meta: dict, sizes, work: str, ray_data: bool) -> float:
    """Start the worker processes, fill the page cache with the inputs and
    run once every code path the workload uses, on scratch lakes.
    ``ray_data``: the workload deletes keys and applies epochs from file
    paths, which both run Ray Data operators."""
    from geomesa_nifi_ray import metrics
    from lakebench.workloads import engine_for

    t0 = time.perf_counter()
    eps = meta["epochs"]
    n_pre = len(eps) - sizes.evolve_epochs
    eng = engine_for(os.path.join(work, "warm"), sizes)
    eng.replay_binlog({"epochs": eps[:n_pre]}, catchup=True)
    eng.replay_binlog({"epochs": eps[n_pre:]}, catchup=False)
    keys = eng.table.snapshot_table()["url"].to_pylist()[:4]
    eng.table.lookup_keys(keys)
    metrics.prometheus_text(eng.table)
    if ray_data:
        eng.delete_keys(keys[:2])
        eng = engine_for(os.path.join(work, "warm-files"), sizes)
        eng.apply_epoch(eps[0]["files"], epoch=0,
                        offset_range=(eps[0]["offset_min"], eps[0]["offset_max"]))
    eng.table.vacuum()
    shutil.rmtree(work)
    return time.perf_counter() - t0


def median(xs) -> float:
    """Median, or NaN when a run stopped before taking any sample."""
    xs = list(xs)
    return statistics.median(xs) if xs else float("nan")


def end_to_end(w, run, ray_s: float, warm_s: float) -> dict:
    s = run.samples
    base = median(w.base_loads) if w.base_loads else 0.0
    catchup = (median(s["catchup_events_per_s"]) if s["catchup_events_per_s"]
               else w.base_events / base)
    return {
        "setup_s": ray_s + warm_s + base + w.extra_setup,
        "catchup_events_per_s": catchup,
        "replay_events_per_s": median(s["replay_events_per_s"]),
        "commit_p50_s": median(s["commit_s"]),
        "lookup_p50_ms": 1e3 * median(s["lookup_s"]),
        "scan_rows_per_s": median(s["scan_rows_per_s"]),
        "lake_mb": w.lake_mb(),
        "peak_rss_mb": run.rss.peak / 1e6,
    }


def kernel_times(path: str, table, num_buckets: int) -> dict:
    """The convert, LWW and text kernels, each alone on one part file."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from geomesa_nifi_ray.engine import make_convert_fn
    from geomesa_nifi_ray.text import extract_text_batch
    from geomesa_nifi_ray.upsert import lww_dedupe

    def best(fn) -> float:
        out = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        return statistics.median(out)

    t = pq.read_table(path)
    key, order = table.key, list(table.order)
    convert = make_convert_fn(table.schema, num_buckets, key, order)
    valid = t.filter(pc.is_valid(t["html"]))
    winners = lww_dedupe(valid, key, order)
    return {
        "convert.us_per_event": 1e6 * best(lambda: convert(t)) / t.num_rows,
        "upsert.lww_us_per_row":
            1e6 * best(lambda: lww_dedupe(valid, key, order)) / valid.num_rows,
        "text.extract_us_per_row":
            1e6 * best(lambda: extract_text_batch(winners["html"])) / winners.num_rows,
    }


class CommitLedger:
    """Per-commit counts read from each traced ``apply_epoch`` result and
    its manifest, while the files it wrote still exist."""

    def __init__(self):
        self.rows: list[dict] = []

    def __call__(self, args, result) -> None:
        if result is None:
            return
        table = args[0].table
        entries = result.manifest.get("buckets", {}).values()
        first = result.manifest.get("epochs_covered", [result.epoch])[0] == 0
        written = [e["epoch_file"] for e in entries if e.get("epoch_file")]
        self.rows.append({
            "files": len(written),
            "bytes": sum(os.path.getsize(table.abs_path(f)) for f in written),
            "compactions": 0 if first else sum(
                1 for e in entries
                if e.get("epoch_file") and e["epoch_file"] == e["file"]),
            "chain": (statistics.fmean(len(e.get("deltas", [])) for e in entries)
                      if entries else 0.0),
            "rows_in": result.rows_in,
            "collapsed": result.rows_collapsed,
            "rg_total": result.row_groups_total,
            "rg_skipped": result.row_groups_skipped,
        })


def per_layer(w, run, tracer, ledger: CommitLedger, timeline: list,
              traced_events: int) -> tuple[dict, dict]:
    from lakebench.trace import timeline_layers

    layers = timeline_layers(timeline, tracer.windows)
    commits = max(1, len(ledger.rows))
    applies = tracer.of("engine.apply_epoch")
    lookups = tracer.of("lake.lookup")
    vacuums = tracer.of("lake.vacuum")
    rows_in = sum(r["rows_in"] for r in ledger.rows)
    rg_total = sum(r["rg_total"] for r in ledger.rows)
    log_bytes = sum(
        sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in
            os.walk(os.path.join(e.table.table_dir, "_log")) for f in fs)
        for e in w.engines())

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    out = {
        "sources.poll_ms": tracer.median_ms("sources.poll"),
        "engine.apply_epoch_s": tracer.median_ms("engine.apply_epoch") / 1e3,
        "engine.plan_ms": 1e3 * median(s.self_wall for s in applies),
        "engine.convert_busy_s": layer("convert", "busy_s") / commits,
        "engine.convert_tasks": layer("convert", "tasks") / commits,
        "engine.merge_busy_s": layer("merge", "busy_s") / commits,
        "engine.merge_tasks": layer("merge", "tasks") / commits,
        "engine.tasks_per_commit": sum(v["tasks"] for v in layers.values()) / commits,
        "engine.collapse_ratio":
            sum(r["collapsed"] for r in ledger.rows) / rows_in if rows_in else 0.0,
        "schema.merge_ms": 1e3 * sum(s.wall for s in tracer.of("schema.merge")) / commits,
        "lake.commit_ms": tracer.median_ms("lake.commit"),
        "lake.files_per_commit": sum(r["files"] for r in ledger.rows) / commits,
        "lake.bytes_per_commit": sum(r["bytes"] for r in ledger.rows) / commits,
        "lake.compactions": sum(r["compactions"] for r in ledger.rows) / commits,
        "lake.rg_skip_ratio":
            sum(r["rg_skipped"] for r in ledger.rows) / rg_total if rg_total else 0.0,
        "lake.chain_len_mean": median(r["chain"] for r in ledger.rows),
        "lake.files_per_lookup":
            median(s.children["lake.read_pruned"] for s in lookups),
        "lake.scan_s": tracer.median_ms("lake.scan") / 1e3,
        "lake.vacuum_s": median(s.wall for s in vacuums),
        "lake.log_kb": log_bytes / 1e3,
        "metrics.scrape_ms": tracer.median_ms("metrics.scrape"),
        "cpu_us_per_event": 1e6 * run.cpu.total_s / run.events,
    }
    table = w.engines()[-1].table
    out.update(kernel_times(w.kernel_input(), table, w.sizes.num_buckets))

    main_cpu = sum(tracer.main_thread_cpu_s().values())
    worker_busy = sum(v["busy_s"] for v in layers.values())
    traced_walls = run.round_walls[True]
    plain_walls = run.round_walls[False]
    report = {
        "tracing_overhead_s_per_round":
            median(traced_walls) - median(plain_walls),
        "tracing_overhead_share":
            median(traced_walls) / median(plain_walls) - 1.0,
        "engine.raydata_busy_s": layer("raydata", "busy_s") / commits,
        "engine.other_busy_s": layer("other", "busy_s") / commits,
        "layer_cpu_us_per_event": 1e6 * (main_cpu + worker_busy) / max(1, traced_events),
        "layer_cpu_main_s": main_cpu,
        "layer_cpu_workers_s": worker_busy,
        "cpu_us_per_event": out["cpu_us_per_event"],
        "traced_rounds": len(traced_walls),
        "untraced_rounds": len(plain_walls),
        "commits_traced": len(ledger.rows),
    }
    return out, report


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes, keep_ray: bool = False) -> dict:
    from lakebench import inputs
    from lakebench.oracle import CheckError
    from lakebench.trace import CpuMeter, RssSampler, Tracer
    from lakebench.workloads import WORKLOADS, OpFailed, Run

    import ray

    meta, gen_s = inputs.load_binlog(os.path.join(WORK, "cache"), seed, sizes)
    print(f"inputs: seed {seed}, {meta['total_rows']} events, "
          f"generated in {gen_s:.2f} s" if gen_s else
          f"inputs: seed {seed}, {meta['total_rows']} events, cached", flush=True)
    work = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    rss = RssSampler()
    tracer = Tracer() if trace else None
    ledger = CommitLedger()
    try:
        ray_s = 0.0 if ray.is_initialized() else start_ray()
        w_cls = WORKLOADS[name]
        warm_s = warm_up(meta, sizes, work, w_cls.ray_data)
        run = Run(work, meta, sizes, seed, rss,
                  cpu=CpuMeter() if trace else None)
        w = w_cls(run)
        w.prepare()
        w.setup()
        if tracer is not None:
            tracer.install(on_apply=ledger)
        correct = True
        traced_events = 0
        deadline = time.perf_counter() + seconds
        try:
            i = 0
            while True:
                traced = tracer is not None and i % 2 == 1
                if traced:
                    tracer.begin()
                ev0, t0 = run.events, time.perf_counter()
                w.round()
                run.round_walls[traced].append(time.perf_counter() - t0)
                if traced:
                    tracer.end()
                    traced_events += run.events - ev0
                i += 1
                # stop before a round that would end past the deadline, so
                # that slow and fast code measure for about the same time
                walls = run.round_walls[False] + run.round_walls[True]
                ends = time.perf_counter() + statistics.median(walls)
                if ends > deadline and (tracer is None or i >= 2):
                    break
            if tracer is not None:
                tracer.begin()
            w.finish()
            if tracer is not None:
                tracer.end()
        except CheckError as exc:
            correct = False
            log(f"lakebench: check failed: {exc}")
        except OpFailed as exc:
            log(f"lakebench: operation failed: {exc}")
        finally:
            if tracer is not None:
                tracer.active = False
        log("lakebench: samples " + json.dumps({
            k: [round(x, 4) for x in v] for k, v in run.samples.items()}))
        log(f"lakebench: ray start {ray_s:.2f} s, warm-up {warm_s:.2f} s, "
            f"base loads {[round(x, 2) for x in w.base_loads]}")
        if tracer is None:
            metrics, units = end_to_end(w, run, ray_s, warm_s), END_TO_END
        else:
            metrics, report = per_layer(w, run, tracer, ledger, ray.timeline(),
                                        traced_events)
            units = PER_LAYER
            print("trace: " + json.dumps(report), flush=True)
        missing = [k for k in units if metrics[k] != metrics[k]]
        if missing:
            # only a run cut short by a failure lacks samples
            log(f"lakebench: no samples for {missing}")
            correct = correct and run.failed > 0
        return {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": 0.0 if k in missing else float(metrics[k]),
                            "unit": u} for k, u in units.items()},
        }
    finally:
        if tracer is not None:
            tracer.close()
        rss.close()
        if not keep_ray:
            stop_ray()
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> int:
    """All three workloads on small inputs with every check, sharing one
    Ray instance; exits non-zero if any check fails."""
    from lakebench import inputs

    ok = True
    try:
        start_ray()
        for name in ("backlog", "tail", "serve"):
            for trace in (False, True):
                res = run_workload(name, 7, 1.0, trace, inputs.SMOKE,
                                   keep_ray=True)
                good = res["correct"] and res["failed"] == 0
                ok &= good
                print(f"smoke {name} trace={int(trace)}: "
                      f"{'ok' if good else 'FAILED'} {json.dumps(res)}", flush=True)
    finally:
        stop_ray()
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("backlog", "tail", "serve"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload on small inputs, then exit")
    a = p.parse_args(argv)
    require_program()
    if a.smoke:
        return smoke()
    if a.workload is None:
        p.error("--workload is required")
    from lakebench import inputs

    res = run_workload(a.workload, a.seed, a.seconds, bool(a.trace), inputs.Sizes())
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
