"""The two exchanges on more than one raylet, and replay's row-group split
of oversized part files.

The cluster test starts a local two-raylet ``ray.cluster_utils.Cluster``
(2 CPUs per node) in a subprocess, so this process's Ray session is left
alone. On it a large-band catch-up must auto-select the late exchange
(one merge task per bucket-range group), and ``exchange="split"`` must
run the two-wave split; both lakes must equal the single-node split lake.
"""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

from geomesa_nifi_ray import engine as eng_mod
from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.lake import LakeTable
from geomesa_nifi_ray.synth import BinlogSpec, write_binlog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 1200 events in one catch-up commit > 8 x batch(8) x P(4) = 256 rows:
# the large band, where late is the multi-node default and split runs
# P merge tasks
SPEC = BinlogSpec(num_events=1200, num_urls=300, num_epochs=3, seed=3)
BATCH = 8
P = 4

CLUSTER_SCRIPT = """
import json, sys
import ray
from ray.cluster_utils import Cluster

cluster = Cluster(initialize_head=True, connect=True, head_node_args=dict(
    num_cpus=2, object_store_memory=80 << 20, include_dashboard=False))
cluster.add_node(num_cpus=2, object_store_memory=80 << 20)
cluster.wait_for_nodes()
from geomesa_nifi_ray import engine as E

tasks = []
orig = E._task
E._task = lambda fn: tasks.append(fn.__name__) or orig(fn)
meta, out = json.loads(sys.argv[1]), {"nodes": E._alive_node_count()}
for name, kw in (("late", {}), ("split", {"exchange": "split"})):
    tasks.clear()
    eng = E.CDCEngine(sys.argv[2] + "/" + name, num_buckets=%d)
    eng.replay_binlog(meta, catchup=True, batch_size=%d, **kw)
    out[name] = {"strategy": eng.last_exchange_strategy, "tasks": sorted(set(tasks))}
ray.shutdown()
cluster.shutdown()
print(json.dumps(out))
""" % (P, BATCH)


def _state(table: LakeTable, counters: bool) -> dict:
    m = table.manifest(table.committed_epoch())
    drop = () if counters else ("rows_changed",)
    return {"buckets": {b: {k: v for k, v in e.items() if k not in drop}
                        for b, e in m["buckets"].items()},
            "rows": (m["rows_in"], m["rows_failed"], m["epochs_covered"])}


def test_two_raylet_cluster_late_and_two_wave_split(ray_session, tmp_path):
    meta = write_binlog(str(tmp_path / "bl"), SPEC)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CLUSTER_SCRIPT, json.dumps(meta),
         str(tmp_path / "cluster")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["nodes"] == 2
    assert out["late"]["strategy"] == "late"
    assert "_late_select_winners" in out["late"]["tasks"]
    assert out["split"]["strategy"] == "split"
    assert "_split_block" in out["split"]["tasks"]

    single = CDCEngine(str(tmp_path / "single"), num_buckets=P)
    single.replay_binlog(meta, catchup=True, batch_size=BATCH)
    assert single.last_exchange_strategy == "split"
    late = LakeTable.load(str(tmp_path / "cluster" / "late"), "pages")
    split = LakeTable.load(str(tmp_path / "cluster" / "split"), "pages")
    snap = single.table.snapshot_table()
    assert late.snapshot_table().equals(snap)
    assert split.snapshot_table().equals(snap)
    # the two-wave split hands the merger the same rows: identical counts;
    # late hands it one winner per key, so its rows_changed is smaller
    assert _state(split, True) == _state(single.table, True)
    assert _state(late, False) == _state(single.table, False)


def test_oversized_parts_convert_by_row_group_range(ray_session, tmp_path,
                                                    monkeypatch):
    """A part file over the size limit converts as one task per range of
    its row groups; the lake is the one whole-file conversion gives, and a
    part with one row group still converts as one task."""
    meta = write_binlog(str(tmp_path / "bl"), SPEC)
    for e in meta["epochs"][:2]:    # epoch 2 keeps its one row group
        for f in e["files"]:
            pq.write_table(pq.read_table(f), f, row_group_size=100)
    one_rg = meta["epochs"][2]["files"][0]
    assert pq.ParquetFile(one_rg).num_row_groups == 1

    def replay(name: str) -> CDCEngine:
        eng = CDCEngine(str(tmp_path / name), num_buckets=P)
        eng.replay_binlog(meta, batch_size=64)
        return eng

    whole = replay("whole")
    orig, calls = eng_mod._convert_units, []
    monkeypatch.setattr(eng_mod, "_TASK_CONVERT_MAX_PART_BYTES", 4096)
    monkeypatch.setattr(eng_mod, "_convert_units",
                        lambda files: calls.append((files, orig(files)))
                        or calls[-1][1])
    split = replay("split")
    assert os.path.getsize(one_rg) > 4096
    assert sum(len(u) for _, u in calls) > sum(len(f) for f, _ in calls)
    assert ([one_rg], [(one_rg, None)]) in calls
    assert split.table.snapshot_table().equals(whole.table.snapshot_table())
    for e in range(3):
        assert split.table.manifest(e) == whole.table.manifest(e), e
