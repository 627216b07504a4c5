"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each module for the
length of a traced run and records one span per call on the main thread:
name, wall, thread CPU and the span that called it. Worker-side layers come
from ``ray.timeline()``: task durations and counts summed by function name
over the traced windows. :class:`CpuMeter` reads the CPU of this process and
of the Ray worker processes from ``/proc`` around each operation.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "wall", "cpu", "child_wall", "child_cpu", "parent",
                 "children")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.wall = self.cpu = self.child_wall = self.child_cpu = 0.0
        self.children: dict[str, int] = defaultdict(int)

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


class Tracer:
    """Wraps functions in place; :meth:`close` puts the originals back.

    Spans are recorded only while :attr:`active` is set, so a run can
    alternate traced and untraced rounds with the wrappers installed."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.windows: list[tuple[float, float]] = []   # traced, wall-clock s
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._main = threading.main_thread()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or threading.current_thread() is not tracer._main:
                return original(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent)
            tracer._stack.append(span)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                out = original(*args, **kwargs)
            finally:
                span.wall = time.perf_counter() - w0
                span.cpu = time.thread_time() - c0
                tracer._stack.pop()
                if parent is not None:
                    parent.child_wall += span.wall
                    parent.child_cpu += span.cpu
                    parent.children[name] += 1
                tracer.spans.append(span)
            if on_result is not None:
                on_result(args, out)
            return out

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self, on_apply=None) -> None:
        """Wrap every traced entry point; ``on_apply(args, result)`` sees
        each traced ``apply_epoch`` call."""
        import ray
        import ray.data

        from geomesa_nifi_ray import engine, lake, metrics
        from geomesa_nifi_ray.sources import spi

        self.wrap(spi.FilesystemEpochSource, "poll_epochs", "sources.poll")
        self.wrap(engine.CDCEngine, "apply_epoch", "engine.apply_epoch",
                  on_result=on_apply)
        self.wrap(engine, "merge_schemas", "schema.merge")
        self.wrap(engine, "run_split_exchange", "engine.exchange")
        self.wrap(engine, "run_late_exchange", "engine.exchange")
        # the waits apply_epoch spends on its tasks, wherever it blocks
        self.wrap(ray, "get", "engine.wait")
        self.wrap(ray.data.Dataset, "take_all", "engine.wait")
        self.wrap(ray.data.Dataset, "materialize", "engine.wait")
        self.wrap(lake.LakeTable, "commit_epoch", "lake.commit")
        self.wrap(lake.LakeTable, "lookup_keys", "lake.lookup")
        self.wrap(lake.LakeTable, "snapshot_table", "lake.scan")
        self.wrap(lake.LakeTable, "vacuum", "lake.vacuum")
        self.wrap(lake.LakeFS, "read_parquet_pruned", "lake.read_pruned")
        self.wrap(metrics, "prometheus_text", "metrics.scrape")

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def begin(self) -> None:
        self.active = True
        self._t0 = time.time()

    def end(self) -> None:
        self.active = False
        self.windows.append((self._t0, time.time()))

    # -- summaries ---------------------------------------------------------

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def median_ms(self, name: str) -> float:
        spans = self.of(name)
        return 1e3 * statistics.median(s.wall for s in spans) if spans else 0.0

    def main_thread_cpu_s(self) -> dict[str, float]:
        """Self CPU of the main thread by span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_cpu
        return dict(out)


def task_layer(cat: str, name: str) -> str:
    """Layer of one Ray task, from its timeline category and name."""
    fn = cat[len("task::"):]
    if "convert" in fn:
        return "convert"
    if "merge" in fn or fn == "split":
        return "merge"
    if name.startswith("ray.data.") or "StatsActor" in fn:
        return "raydata"
    return "other"


def timeline_layers(events: list[dict],
                    windows: list[tuple[float, float]]) -> dict[str, dict]:
    """Busy seconds and task counts per layer, over tasks that started
    inside one of ``windows`` (wall-clock seconds)."""
    spans = [(a * 1e6, b * 1e6) for a, b in windows]
    out: dict[str, dict] = defaultdict(lambda: {"busy_s": 0.0, "tasks": 0})
    for ev in events:
        cat = ev.get("cat", "")
        if ev.get("ph") != "X" or not cat.startswith("task::"):
            continue
        ts = float(ev.get("ts", 0))
        if not any(a <= ts <= b for a, b in spans):
            continue
        layer = out[task_layer(cat, ev.get("name", ""))]
        layer["busy_s"] += float(ev.get("dur", 0)) / 1e6
        layer["tasks"] += 1
    return dict(out)


def _stat(pid: int | str) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def _cpu_s(pid: int | str) -> float:
    fields = _stat(pid)             # utime and stime, in clock ticks
    return (int(fields[11]) + int(fields[12])) / _TICKS


_TICKS = os.sysconf("SC_CLK_TCK")


def descendants(root: int) -> list[str]:
    """Pids of the processes descended from ``root``."""
    parent = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                parent[pid] = _stat(pid)[1]
            except OSError:
                continue
    out = []
    for pid in parent:
        p, hops = parent.get(pid), 0
        while p is not None and p != str(root) and hops < 64:
            p, hops = parent.get(p), hops + 1
        if p == str(root):
            out.append(pid)
    return out


def ray_workers(root: int) -> list[str]:
    """Pids of the Ray worker processes descended from ``root``."""
    out = []
    for pid in descendants(root):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ")
        except OSError:
            continue
        if b"default_worker.py" in cmd or cmd.startswith(b"ray::"):
            out.append(pid)
    return out


class CpuMeter:
    """CPU seconds of this process plus its Ray worker processes, read
    from ``/proc`` and summed over the windows between :meth:`start` and
    :meth:`stop`."""

    def __init__(self):
        self.pid = os.getpid()
        self.total_s = 0.0
        self._t0 = 0.0

    def read(self) -> float:
        total = _cpu_s(self.pid)
        for pid in ray_workers(self.pid):
            try:
                total += _cpu_s(pid)
            except OSError:
                pass                # the worker exited meanwhile
        return total

    def start(self) -> None:
        self._t0 = self.read()

    def stop(self) -> None:
        self.total_s += self.read() - self._t0


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class RssSampler:
    """Peak resident set size of this process while :attr:`on` is set,
    sampled every 20 ms by a daemon thread (the checks that run between
    operations are left out)."""

    def __init__(self):
        self.on = False
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(0.02):
            if self.on:
                self.sample()

    def sample(self) -> None:
        self.peak = max(self.peak, rss_bytes())

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
