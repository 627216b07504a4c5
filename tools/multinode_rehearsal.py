"""Two-node rehearsal of the late-materialized exchange.

The north rule's cluster criterion can't use a real multi-node cluster in
this sandbox, but Ray's node boundary CAN be rehearsed locally: a head and
a worker raylet each run their own plasma object store, so any bytes one
node's task reads from the other node's store cross a real object-transfer
boundary (loopback TCP instead of a NIC — same code path).

This script:
1. starts `ray start --head` + one `ray start --address=...` worker
   (16 CPUs each = the bench's 32);
2. replays the sf0.1 binlog (3M events) catch-up with ``exchange="late"``
   on the 2-node cluster, with ``GRAFT_EXCHANGE_STATS=1`` so
   ``run_late_exchange`` records per-round object sizes + placement from
   the object directory;
3. prints one JSON line: payload bytes vs key/winner/extract bytes (the
   O(keys + winners) claim) and the fraction of extract tasks that ran on
   the node owning their block (the node-locality claim);
4. cross-checks the resulting lake manifests against a single-node split-
   exchange replay (bit-identical buckets).

Run: ``python tools/multinode_rehearsal.py`` (~2-3 min). Results recorded
in BASELINE.md.
"""

import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

HEAD_PORT = 6399
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _ray_cli(*args):
    return subprocess.run(["ray", *args], capture_output=True, text=True)


def main():
    os.environ["GRAFT_EXCHANGE_STATS"] = "1"
    os.environ.pop("RAY_ADDRESS", None)
    _ray_cli("stop", "--force")
    time.sleep(2)
    head = _ray_cli(
        "start", "--head", f"--port={HEAD_PORT}", "--num-cpus=16",
        "--include-dashboard=false", "--disable-usage-stats",
    )
    assert head.returncode == 0, head.stderr
    worker = _ray_cli(
        "start", f"--address=127.0.0.1:{HEAD_PORT}", "--num-cpus=16",
        "--disable-usage-stats",
    )
    assert worker.returncode == 0, worker.stderr
    try:
        import ray

        ray.init(address=f"127.0.0.1:{HEAD_PORT}", include_dashboard=False,
                 logging_level="ERROR")
        nodes = [n for n in ray.nodes() if n.get("Alive")]
        print(f"# cluster nodes: {len(nodes)}", file=sys.stderr)
        assert len(nodes) == 2, "expected head + worker"

        from geomesa_nifi_ray import engine as E
        from geomesa_nifi_ray.engine import CDCEngine
        from geomesa_nifi_ray.pipelines import queries as Q

        meta = Q.get_binlog(SF_DIR)
        lake = "/tmp/graft_multinode/lake_late"
        shutil.rmtree(lake, ignore_errors=True)
        eng = CDCEngine(lake, num_buckets=32)
        t0 = time.time()
        # NO explicit exchange: on >1 alive node, apply_epoch must
        # auto-select the late exchange for the large catch-up epoch
        eng.replay_binlog(meta, catchup=True)
        wall = time.time() - t0
        stats = dict(E.LAST_EXCHANGE_STATS or {})
        auto = eng.last_exchange_strategy
        print(f"# auto-selected exchange: {auto}", file=sys.stderr)
        assert auto == "late", f"expected auto 'late' on 2 nodes, got {auto}"
        n_events = int(meta["total_rows"])

        # single-node split-exchange control for manifest equality
        ray.shutdown()
        _ray_cli("stop", "--force")
        time.sleep(2)
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
        lake2 = "/tmp/graft_multinode/lake_split"
        shutil.rmtree(lake2, ignore_errors=True)
        ctl = CDCEngine(lake2, num_buckets=32)
        ctl.replay_binlog(meta, catchup=True, exchange="split")
        last = eng.table.committed_epoch()
        m_late = eng.table.manifest(last)
        m_split = ctl.table.manifest(last)
        # compare table STATE (files, digests, row counts); the
        # `rows_changed` accounting legitimately differs in catch-up: the
        # late exchange pre-selects winners so its merge input is the
        # deduped set, while the split path's merge sees cross-epoch
        # duplicates. Digest equality proves byte-identical bucket files.
        state = lambda m: {
            b: (e["file"], e["digest"], e["rows"], tuple(e.get("deltas", [])))
            for b, e in m["buckets"].items()
        }
        identical = state(m_late) == state(m_split)
        ray.shutdown()

        payload = max(1, stats.get("payload_bytes", 0))
        out = {
            "nodes": 2,
            "events": n_events,
            "late_catchup_sec": round(wall, 2),
            "events_per_sec": round(n_events / wall, 1),
            **stats,
            "key_bytes_pct_of_payload": round(
                100.0 * stats.get("key_bytes", 0) / payload, 2),
            "extract_bytes_pct_of_payload": round(
                100.0 * stats.get("extract_bytes", 0) / payload, 2),
            "extract_locality": round(
                stats.get("extract_colocated", 0)
                / max(1, stats.get("extract_pairs", 1)), 3),
            "manifests_match_single_node_split": bool(identical),
        }
        print(json.dumps(out))
    finally:
        _ray_cli("stop", "--force")


if __name__ == "__main__":
    main()
