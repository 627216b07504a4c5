"""exact_quantiles: DuckDB quantile_disc parity on random int and float
data, skewed/constant distributions, null handling, resharding
invariance, and the driver_cap guard."""

import zlib

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from geomesa_nifi_ray.stats import exact_quantiles

QS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]


def _duck(vals, qs):
    con = duckdb.connect()
    con.execute("CREATE TABLE t (v DOUBLE)")
    con.executemany("INSERT INTO t VALUES (?)",
                    [(None if v is None else float(v),) for v in vals])
    return {q: con.execute(
        f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0] for q in qs}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["int", "float", "skewed", "withnulls"])
def test_matches_duckdb_quantile_disc(kind):
    import ray.data

    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    if kind == "int":
        vals = rng.integers(0, 1000, 5000).astype("int64").tolist()
        t = pa.table({"v": pa.array(vals, pa.int64())})
    elif kind == "float":
        vals = rng.normal(50, 20, 5000).tolist()
        t = pa.table({"v": pa.array(vals, pa.float64())})
    elif kind == "skewed":
        # 90% one hot value + a tail: the constant-heavy bin case
        vals = ([42.0] * 4500) + rng.exponential(10, 500).tolist()
        t = pa.table({"v": pa.array(vals, pa.float64())})
    else:
        vals = rng.integers(0, 100, 1000).astype("int64").tolist()
        vals = [None if i % 7 == 0 else v for i, v in enumerate(vals)]
        t = pa.table({"v": pa.array(vals, pa.int64())})

    got = exact_quantiles(ray.data.from_arrow(t).repartition(6), "v", QS,
                          bins=64)
    want = _duck(vals, QS)
    for q in QS:
        assert got[q] == pytest.approx(float(want[q]), abs=0), (kind, q)


@pytest.mark.usefixtures("ray_session")
def test_constant_column_and_resharding():
    import ray.data

    t = pa.table({"v": pa.array([7.5] * 200, pa.float64())})
    got = exact_quantiles(ray.data.from_arrow(t), "v", [0.5, 1.0])
    assert got == {0.5: 7.5, 1.0: 7.5}
    t2 = pa.table({"v": pa.array(np.arange(1000, dtype=np.int64))})
    a = exact_quantiles(ray.data.from_arrow(t2).repartition(3), "v", [0.5])
    b = exact_quantiles(ray.data.from_arrow(t2).repartition(11), "v", [0.5],
                        bins=16)
    assert a == b


@pytest.mark.usefixtures("ray_session")
def test_guards():
    import ray.data

    t = pa.table({"v": pa.array([1.0, 2.0, 3.0])})
    with pytest.raises(ValueError):
        exact_quantiles(ray.data.from_arrow(t), "v", [1.5])
    with pytest.raises(ValueError):
        exact_quantiles(ray.data.from_arrow(t), "v", [])
    empty = pa.table({"v": pa.array([None, None], pa.float64())})
    with pytest.raises(ValueError, match="no non-null"):
        exact_quantiles(ray.data.from_arrow(empty), "v", [0.5])
    spread = pa.table({"v": pa.array(np.linspace(0, 1, 500))})
    with pytest.raises(ValueError, match="driver_cap"):
        exact_quantiles(ray.data.from_arrow(spread), "v", [0.5], bins=2,
                        driver_cap=10)


@pytest.mark.usefixtures("ray_session")
def test_nan_excluded_inf_and_bigint_raise():
    """Review regressions: NaN rows are excluded like nulls (not silently
    dropped from the histogram while still counted in n — that crashed
    rank resolution); infinities and >2^53 integer extents raise with
    clear messages instead of returning merged/rounded values."""
    import ray.data

    t = pa.table({"v": pa.array([1.0, 2.0, float("nan"), 3.0, None])})
    got = exact_quantiles(ray.data.from_arrow(t), "v", [0.5, 1.0], bins=8)
    assert got == {0.5: 2.0, 1.0: 3.0}
    inf = pa.table({"v": pa.array([1.0, float("inf")])})
    with pytest.raises(ValueError, match="infinite"):
        exact_quantiles(ray.data.from_arrow(inf), "v", [0.5])
    big = pa.table({"v": pa.array([2**53 + 1, 2**53 + 2], pa.int64())})
    with pytest.raises(ValueError, match="2\\^53"):
        exact_quantiles(ray.data.from_arrow(big), "v", [0.5])


@pytest.mark.usefixtures("ray_session")
def test_passes_that_see_different_data_raise(tmp_path):
    """exact_quantiles executes its input once per pass. An input that
    changes between executions (here: every execution shifts the values
    by 1000) makes the passes disagree; that raises a ValueError naming
    materialize() instead of an IndexError or a wrong value."""
    import ray.data

    counter = tmp_path / "executions"
    counter.write_text("0")

    def shifting(b: pa.Table) -> pa.Table:
        k = int(counter.read_text())
        counter.write_text(str(k + 1))
        import pyarrow.compute as pc

        return pa.table({"v": pc.add(b["v"], 1000 * k)})

    ds = ray.data.from_arrow(pa.table({"v": pa.array(range(100),
                                                     pa.int64())}))
    with pytest.raises(ValueError, match="materialize"):
        exact_quantiles(ds.map_batches(shifting, batch_format="pyarrow"),
                        "v", [0.5])
    # the same rows materialized once give the exact answer
    counter.write_text("0")
    fixed = ds.map_batches(shifting, batch_format="pyarrow").materialize()
    assert exact_quantiles(fixed, "v", [0.5]) == {0.5: 49.0}
