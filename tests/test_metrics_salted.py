"""Lineage/metrics module."""

import pandas as pd
import pytest

from geomesa_nifi_ray.engine import CDCEngine
from geomesa_nifi_ray.metrics import lineage_table, skew_report
from geomesa_nifi_ray.synth import BinlogSpec, write_binlog

SPEC = BinlogSpec(num_events=1500, num_urls=300, num_epochs=2, seed=13)


@pytest.fixture(scope="module")
def binlog(tmp_path_factory):
    return write_binlog(str(tmp_path_factory.mktemp("bl")), SPEC)


def test_lineage_table(ray_session, tmp_path, binlog):
    eng = CDCEngine(str(tmp_path / "lake"), num_buckets=8)
    eng.replay_binlog(binlog)
    lt = lineage_table(eng.table).to_pandas()
    assert set(lt.epoch) == {0, 1}
    assert lt.groupby("epoch").bucket.count().eq(8).all() or len(lt) > 0
    # offset ranges from the binlog descriptor survive into lineage
    assert lt[lt.epoch == 0].offset_min.iloc[0] == binlog["epochs"][0]["offset_min"]
    assert (lt.rows_in > 0).all()
    assert lt.digest.str.len().eq(32).all()

    sk = skew_report(eng.table)
    assert abs(sk.share.sum() - 1.0) < 1e-9
    assert sk.rows.iloc[0] >= sk.rows.iloc[-1]


def test_empty_lineage():
    import tempfile

    from geomesa_nifi_ray.lake import LakeTable
    from geomesa_nifi_ray.engine import PAGE_SCHEMA

    with tempfile.TemporaryDirectory() as d:
        t = LakeTable.create(d, "t", PAGE_SCHEMA, 4)
        lt = lineage_table(t)
        assert lt.num_rows == 0 and "digest" in lt.schema.names
