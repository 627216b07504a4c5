"""The three workloads. Each runs whole rounds of the same operations until
its time is up, checks every output against :mod:`lakebench.oracle`, and
leaves its samples in :class:`Run`.

Workloads drive the engine only through public calls: ``CDCEngine``
(``replay_binlog``, ``tail``, ``apply_epoch``, ``delete_keys``,
``discover_epochs``, ``committed_offset``), ``LakeTable`` (``lookup_keys``,
``snapshot_table``, ``vacuum``) and ``metrics.prometheus_text``.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import sys
import time
import traceback
import zlib
from collections import defaultdict

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lakebench import inputs, oracle
from lakebench.oracle import CheckError, check_equal

LOOKUP_KEYS = 100


class OpFailed(Exception):
    """An operation of the program raised; the loop stops."""


class Run:
    """State of one benchmark run: counters, samples and meters."""

    def __init__(self, work: str, meta: dict, sizes: inputs.Sizes, seed: int,
                 rss, cpu=None):
        self.work = work
        self.meta = meta
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.rss, self.cpu = rss, cpu
        self.attempted = 0
        self.failed = 0
        self.events = 0          # change events committed by measured ops
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.round_walls: dict[bool, list[float]] = {True: [], False: []}

    def op(self, fn, *args, **kwargs):
        """One operation of the program: counted, timed, metered.
        Returns ``(result, seconds)``."""
        self.attempted += 1
        self.rss.on = True
        if self.cpu is not None:
            self.cpu.start()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(repr(exc)) from exc
        finally:
            took = time.perf_counter() - t0
            if self.cpu is not None:
                self.cpu.stop()
            self.rss.sample()
            self.rss.on = False
        return out, took

    def lake_dir(self, name: str) -> str:
        return os.path.join(self.work, "lakes", name)


def engine_for(lake_root: str, sizes: inputs.Sizes):
    from geomesa_nifi_ray.engine import CDCEngine
    from geomesa_nifi_ray.schema import CompatibilityMode

    # UPDATE admits the additive content_type column (the default mode
    # projects it away)
    return CDCEngine(lake_root, num_buckets=sizes.num_buckets,
                     compatibility=CompatibilityMode.UPDATE)


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


def scrape_values(text: str) -> dict[str, int]:
    """``name -> value`` of the unlabelled-by-bucket series of a scrape."""
    out = {}
    for line in text.splitlines():
        m = re.match(r'^(geomesa_\w+)\{table="[^"]*"\} (-?\d+)$', line)
        if m:
            out[m.group(1)] = int(m.group(2))
    return out


def url_pool(files: list[str]) -> list[str]:
    """Urls of all events, one entry per event: sampling it picks keys by
    how often they change (the Zipf-hot keys)."""
    return [u for f in files for u in pq.read_table(f, columns=["url"])["url"].to_pylist()
            if u is not None]


def key_batch(rng: random.Random, hot: list[str], live: list[str],
              num_urls: int) -> list[str]:
    """100 lookup keys: 45 hot, 45 uniform over live keys, 10 absent."""
    absent = [f"https://host{rng.randrange(20):03d}.example.com/page/"
              f"{num_urls + rng.randrange(10**6)}" for _ in range(LOOKUP_KEYS // 10)]
    k_hot = (LOOKUP_KEYS - len(absent)) // 2
    k_uni = LOOKUP_KEYS - len(absent) - k_hot
    keys = rng.choices(hot, k=k_hot) + rng.sample(live, min(k_uni, len(live))) + absent
    rng.shuffle(keys)
    return keys


class Workload:
    name = ""
    ray_data = False      # deletes keys and applies epochs from file paths

    def __init__(self, run: Run):
        self.run = run
        self.sizes = run.sizes
        self.meta = run.meta
        self.n_pre = len(self.meta["epochs"]) - self.sizes.evolve_epochs
        self.base_descs = self.meta["epochs"][:self.n_pre]
        self.base_events = sum(int(e["rows"]) for e in self.base_descs)
        self.base_loads: list[float] = []
        self.extra_setup = 0.0

    def prepare(self) -> None:
        """Untimed: expected states and producers."""

    def setup(self) -> None:
        """Timed as part of ``setup_s``: the base lake."""

    def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Operations and checks after the last round."""

    def kernel_input(self) -> str:
        """A part file of this workload's own input, for kernel timing."""
        return self.base_descs[-1]["files"][0]

    def engines(self) -> list:
        raise NotImplementedError

    # -- shared steps ------------------------------------------------------

    def load_base(self, copies: int = 3):
        """Catch-up drain of the pre-evolution epochs into ``copies`` fresh
        lakes; keeps the last one."""
        eng = None
        for i in range(copies):
            root = self.run.lake_dir(f"base{i}")
            t0 = time.perf_counter()
            eng = engine_for(root, self.sizes)
            eng.replay_binlog({"epochs": self.base_descs}, catchup=True)
            self.base_loads.append(time.perf_counter() - t0)
            if i < copies - 1:
                shutil.rmtree(root)
        return eng

    def lookups(self, table, model: oracle.KeyModel, hot: list[str],
                count: int, what: str) -> None:
        run = self.run
        live = list(model.live)
        for _ in range(count):
            keys = key_batch(run.rng, hot, live, self.sizes.num_urls)
            res, took = run.op(table.lookup_keys, keys)
            run.samples["lookup_s"].append(took)
            model.check_lookup(keys, res, what)

    def scan(self, table) -> pa.Table:
        """A full snapshot read, recorded as a ``scan_rows_per_s`` sample."""
        snap, took = self.run.op(table.snapshot_table)
        self.run.samples["scan_rows_per_s"].append(snap.num_rows / took)
        return snap

    def scrape(self, table) -> dict[str, int]:
        from geomesa_nifi_ray import metrics

        text, took = self.run.op(metrics.prometheus_text, table)
        self.run.samples["scrape_s"].append(took)
        return scrape_values(text)

    def lake_mb(self) -> float:
        return dir_bytes(os.path.join(self.run.work, "lakes")) / 1e6


class Backlog(Workload):
    """Drain the pre-evolution binlog into two fresh lakes per round: one
    catch-up commit, then one commit per grouped epoch."""

    name = "backlog"

    def prepare(self) -> None:
        files = inputs.event_files(self.base_descs)
        self.binlog_dir = os.path.dirname(self.base_descs[0]["path"])
        self.expected = oracle.expected_state(files)
        self.dead = oracle.dead_letters(files)
        self.hot = url_pool(files)
        self.rounds = 0

    def _drain(self, root: str, catchup: bool):
        eng = engine_for(root, self.sizes)
        descs = [d for d in eng.discover_epochs(self.binlog_dir)
                 if d["epoch"] < self.n_pre]
        if not catchup:
            descs = inputs.group_epochs(descs, self.sizes.backlog_groups)
        return eng, eng.replay_binlog({"epochs": descs}, catchup=catchup)

    def round(self) -> None:
        run = self.run
        shutil.rmtree(os.path.join(run.work, "lakes"), ignore_errors=True)
        i = self.rounds
        self.rounds += 1
        (cu, cu_res), took = run.op(self._drain, run.lake_dir(f"catchup{i}"), True)
        run.samples["catchup_events_per_s"].append(self.base_events / took)
        (pe, pe_res), took = run.op(self._drain, run.lake_dir(f"epochs{i}"), False)
        run.samples["replay_events_per_s"].append(self.base_events / took)
        # the drain is one call; its commits overlap the next epochs'
        # conversion, so a commit's share of it is the wall per commit
        run.samples["commit_s"].append(took / len(pe_res))
        run.events += 2 * self.base_events
        check_equal(len(cu_res), 1, "backlog catch-up commits")
        check_equal(len(pe_res), self.sizes.backlog_groups, "backlog per-epoch commits")
        for what, res in (("catch-up", cu_res), ("per-epoch", pe_res)):
            check_equal(sum(r.rows_failed for r in res), self.dead,
                        f"backlog {what} rows_failed vs null-html events")
        # one sample per round over both lakes: the per-epoch lake carries
        # delta chains and scans slower, and alternating samples from the
        # two would make the median jump between them
        snap_cu, took_cu = run.op(cu.table.snapshot_table)
        snap_pe, took_pe = run.op(pe.table.snapshot_table)
        run.samples["scan_rows_per_s"].append(
            (snap_cu.num_rows + snap_pe.num_rows) / (took_cu + took_pe))
        oracle.check_state(snap_cu, self.expected, "backlog catch-up snapshot")
        oracle.check_state(snap_pe, self.expected, "backlog per-epoch snapshot")
        cols = self.expected.column_names
        if not oracle.canon(snap_cu, cols).equals(oracle.canon(snap_pe, cols)):
            raise CheckError("backlog: catch-up and per-epoch snapshots differ")
        self.lookups(pe.table, oracle.KeyModel(self.expected), self.hot, 5,
                     "backlog lookup")
        vals = self.scrape(pe.table)
        check_equal(vals["geomesa_ingest_consumed"], self.base_events,
                    "backlog scrape consumed")
        check_equal(vals["geomesa_ingest_failures"], self.dead,
                    "backlog scrape failures")
        self.last = (cu, pe)

    def finish(self) -> None:
        run = self.run
        for eng in self.last:
            before, _ = run.op(eng.table.snapshot_table)
            run.op(eng.table.vacuum)
            after, _ = run.op(eng.table.snapshot_table)
            oracle.check_state(before, self.expected, "backlog snapshot")
            oracle.check_state(after, self.expected, "backlog snapshot after vacuum")

    def engines(self) -> list:
        return list(self.last)


class Tail(Workload):
    """Small epochs published one at a time and drained by ``tail()``; a
    round is five commits, one compaction cycle at ``max_deltas=4``."""

    name = "tail"
    COMMITS_PER_ROUND = 5

    def prepare(self) -> None:
        self.pub = os.path.join(self.run.work, "published")
        n = len(self.meta["epochs"])
        # first the evolution epochs as generated, then shifted copies
        self.producer = inputs.Producer(
            self.meta, self.pub, first_epoch=self.n_pre,
            plan=[(j, 0) for j in range(self.n_pre, n)], first_copy=1)
        self.files = inputs.event_files(self.meta["epochs"][:self.n_pre])
        self.hot = url_pool(inputs.event_files(self.meta["epochs"]))

    def setup(self) -> None:
        self.eng = self.load_base()

    def round(self) -> None:
        run, eng = self.run, self.eng
        events = 0
        busy = 0.0
        for _ in range(self.COMMITS_PER_ROUND):
            prev = eng.table.committed_epoch()
            rec = self.producer.publish()
            res, took = run.op(eng.tail, self.pub, poll_interval=0,
                               max_idle_polls=1)
            run.samples["commit_s"].append(took)
            busy += took
            check_equal(len(res), 1, "tail commits per tail() call")
            check_equal(eng.table.committed_epoch(), prev + 1, "tail committed epoch")
            check_equal(eng.committed_offset(), rec["offset_max"],
                        "tail committed offset")
            vals = self.scrape(eng.table)
            busy += run.samples["scrape_s"][-1]
            check_equal(vals["geomesa_committed_offset"], rec["offset_max"],
                        "tail scraped committed offset")
            self.files.extend(rec["files"])
            events += rec["rows"]
        run.events += events
        run.samples["replay_events_per_s"].append(events / busy)
        self.expected = oracle.expected_state(self.files)
        oracle.check_state(self.scan(eng.table), self.expected, "tail snapshot")

    def finish(self) -> None:
        eng = self.eng
        before = self.scan(eng.table)
        self.run.op(eng.table.vacuum)
        after = self.scan(eng.table)
        cols = self.expected.column_names
        if not oracle.canon(before, cols).equals(oracle.canon(after, cols)):
            raise CheckError("tail: vacuum changed the snapshot")
        oracle.check_state(after, self.expected, "tail snapshot after vacuum")
        self.lookups(eng.table, oracle.KeyModel(self.expected), self.hot, 20,
                     "tail lookup")

    def kernel_input(self) -> str:
        return self.producer.published[-1]["files"][0]

    def engines(self) -> list:
        return [self.eng]


class Serve(Workload):
    """Lookups and scans on a lake with delta chains, beside small upsert
    and delete epochs.

    One round is one compaction cycle: five commits, each touching every
    bucket, at ``max_deltas=4``. Every round therefore meets the lake in the
    same chain states, and a run's samples do not depend on how many
    rounds fit in its time."""

    name = "serve"
    ray_data = True
    CYCLE = ("upsert", "delete", "upsert", "delete", "upsert")
    LOOKUPS_PER_COMMIT = 4

    def prepare(self) -> None:
        self.pub = os.path.join(self.run.work, "published")
        self.producer = inputs.Producer(self.meta, self.pub, first_epoch=0,
                                        plan=[], first_copy=1)
        self.evolve = self.meta["epochs"][self.n_pre:]
        self.model = oracle.KeyModel(
            oracle.expected_state(inputs.event_files(self.meta["epochs"])))
        self.hot = url_pool(inputs.event_files(self.meta["epochs"]))

    def setup(self) -> None:
        eng = self.load_base()
        t0 = time.perf_counter()
        # the evolution epochs, one commit each, leave delta chains behind
        for d in self.evolve:
            eng.apply_epoch(d["files"], epoch=eng.table.committed_epoch() + 1,
                            offset_range=(d["offset_min"], d["offset_max"]))
        self.extra_setup = time.perf_counter() - t0
        self.eng = eng

    def _upsert(self, rec: dict):
        eng = self.eng
        desc = next(d for d in eng.discover_epochs(self.pub)
                    if d["epoch"] == rec["epoch"])
        t0 = time.perf_counter()
        res = eng.apply_epoch(desc["files"], epoch=eng.table.committed_epoch() + 1,
                              offset_range=(desc["offset_min"], desc["offset_max"]))
        return res, time.perf_counter() - t0

    def upsert(self) -> None:
        run, model = self.run, self.model
        rec = self.producer.publish()
        (res, apply_s), took = run.op(self._upsert, rec)
        run.samples["commit_s"].append(apply_s)
        run.samples["replay_events_per_s"].append(rec["rows"] / took)
        run.events += rec["rows"]
        model.upsert(rec["events"])
        ev = rec["events"]
        check_equal(res.rows_failed, ev.num_rows - pc.sum(pc.is_valid(ev["html"])).as_py(),
                    "serve upsert rows_failed vs null-html events")

    def delete_keys(self) -> list[str]:
        """One live key per bucket, hot keys first, so that the delete
        epoch touches every bucket (buckets are ``crc32(url) % P``)."""
        p = self.sizes.num_buckets
        by_bucket: dict[int, str] = {}
        for pool in (self.run.rng.sample(self.hot, min(len(self.hot), 40 * p)),
                     list(self.model.live)):
            for k in pool:
                if k in self.model.live:
                    by_bucket.setdefault(zlib.crc32(k.encode()) % p, k)
            if len(by_bucket) == p:
                break
        return [by_bucket[b] for b in sorted(by_bucket)]

    def delete(self) -> None:
        run, model = self.run, self.model
        keys = self.delete_keys()
        res, _ = run.op(self.eng.delete_keys, keys)
        run.events += len(keys)
        check_equal(res.rows_deleted, len(keys), "serve delete rows_deleted")
        model.delete(keys)

    def round(self) -> None:
        table, model = self.eng.table, self.model
        for kind in self.CYCLE:
            self.lookups(table, model, self.hot, self.LOOKUPS_PER_COMMIT,
                         "serve lookup")
            self.upsert() if kind == "upsert" else self.delete()
            model.check_scan(self.scan(table), "serve scan")
        vals = self.scrape(table)
        check_equal(vals["geomesa_table_rows"], len(model.live),
                    "serve scraped table rows")

    def finish(self) -> None:
        self.run.op(self.eng.table.vacuum)
        self.model.check_scan(self.scan(self.eng.table), "serve scan after vacuum")

    def kernel_input(self) -> str:
        return self.producer.published[-1]["files"][0]

    def engines(self) -> list:
        return [self.eng]


WORKLOADS = {w.name: w for w in (Backlog, Tail, Serve)}

