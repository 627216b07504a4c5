"""Distributed deterministic prefix sum + sequence packing / token-budget
selection (packing.py): exactness vs a single-process pandas oracle,
cluster-shape independence (resharding), kernel parity, and the operator
contracts (seq boundaries, budget monotonicity, null handling)."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geomesa_nifi_ray.packing import (pack_sequences, running_total,
                                      token_budget_head)


def _docs(n=500, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(n)]),
        "n_tokens": pa.array(rng.integers(0, 400, n), type=pa.int64()),
        "extra": pa.array(rng.integers(0, 9, n), type=pa.int64()),
    })


def _oracle_cum(t: pa.Table, seed="pack0") -> pd.DataFrame:
    """Single-process reference: sort by (md5(seed||key), key, value),
    exclusive cumsum."""
    df = t.to_pandas()
    df["pack_key"] = [hashlib.md5((seed + k).encode()).hexdigest()
                      for k in df["doc_id"]]
    df = df.sort_values(["pack_key", "doc_id", "n_tokens"],
                        kind="stable").reset_index(drop=True)
    df["cum_before"] = df["n_tokens"].fillna(0).astype("int64").cumsum().shift(
        1, fill_value=0)
    return df


@pytest.mark.usefixtures("ray_session")
def test_running_total_matches_pandas_oracle():
    import ray.data

    t = _docs()
    out = running_total(ray.data.from_arrow(t), "doc_id", "n_tokens")
    got = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = _oracle_cum(t).sort_values("doc_id").reset_index(drop=True)
    assert list(got["cum_before"]) == list(want["cum_before"])
    assert list(got["pack_key"]) == list(want["pack_key"])
    # original columns survive
    assert set(got.columns) >= {"doc_id", "n_tokens", "extra"}


@pytest.mark.usefixtures("ray_session")
def test_running_total_independent_of_partitioning_and_buckets():
    """The defining contract: the output is a pure function of the rows —
    identical across block layouts and bucket counts (bucket count changes
    the EXCHANGE shape only, never values)."""
    import ray.data

    t = _docs(n=300, seed=7)
    base = running_total(ray.data.from_arrow(t), "doc_id", "n_tokens"
                         ).to_pandas().sort_values("doc_id")
    for reshard, nb in ((1, 64), (7, 64), (13, 8), (5, 1)):
        ds = ray.data.from_arrow(t).repartition(reshard)
        got = running_total(ds, "doc_id", "n_tokens", num_buckets=nb
                            ).to_pandas().sort_values("doc_id")
        assert list(got["cum_before"]) == list(base["cum_before"]), (reshard, nb)


@pytest.mark.usefixtures("ray_session")
def test_running_total_xx64_kernel_self_consistent():
    """xx64 (the scale kernel, not SQL-checkable) still satisfies the
    algebraic invariants: a permutation's exclusive cumsums are exactly
    the sorted partial sums of values; total preserved."""
    import ray.data

    t = _docs(n=200, seed=11)
    got = running_total(ray.data.from_arrow(t).repartition(5), "doc_id",
                        "n_tokens", kernel="xx64").to_pandas()
    got = got.sort_values("cum_before").reset_index(drop=True)
    v = got["n_tokens"].astype("int64").to_numpy()
    assert got["cum_before"].iloc[0] == 0
    assert list(got["cum_before"]) == list(np.concatenate([[0], v[:-1].cumsum()]))
    # and the order it implies is the xx64 hash order
    assert list(got["pack_key"]) == sorted(got["pack_key"])


@pytest.mark.usefixtures("ray_session")
def test_running_total_null_values_count_zero():
    import ray.data

    t = pa.table({
        "doc_id": pa.array(["a", "b", "c", "d"]),
        "n_tokens": pa.array([10, None, 5, None], type=pa.int64()),
    })
    got = running_total(ray.data.from_arrow(t), "doc_id", "n_tokens"
                        ).to_pandas().sort_values("cum_before")
    assert got["cum_before"].max() == 15 - got.iloc[-1]["n_tokens"] if \
        pd.notna(got.iloc[-1]["n_tokens"]) else True
    # total over all rows = 15; last row's cum_before + its value (0 if
    # null) == 15
    last = got.iloc[-1]
    lastv = 0 if pd.isna(last["n_tokens"]) else int(last["n_tokens"])
    assert int(last["cum_before"]) + lastv == 15


@pytest.mark.usefixtures("ray_session")
def test_pack_sequences_contract():
    import ray.data

    t = _docs(n=400, seed=5)
    L = 256
    got = pack_sequences(ray.data.from_arrow(t).repartition(3), "doc_id",
                         "n_tokens", L).to_pandas()
    assert (got["seq_id"] == got["cum_before"] // L).all()
    assert (got["seq_off"] == got["cum_before"] % L).all()
    assert (got["seq_off"] >= 0).all() and (got["seq_off"] < L).all()
    # consecutive rows in pack order tile the token stream with no gaps
    got = got.sort_values("cum_before").reset_index(drop=True)
    starts = got["cum_before"].to_numpy()
    widths = got["n_tokens"].fillna(0).astype("int64").to_numpy()
    assert (starts[1:] == (starts + widths)[:-1]).all()


@pytest.mark.usefixtures("ray_session")
def test_token_budget_head_greedy_prefix_and_monotone():
    import ray.data

    t = _docs(n=300, seed=9)
    total = int(pa.compute.sum(t["n_tokens"]).as_py())
    sel_cols = ["doc_id"]
    small = token_budget_head(ray.data.from_arrow(t), "doc_id", "n_tokens",
                              budget=total // 10).to_pandas()
    big = token_budget_head(ray.data.from_arrow(t).repartition(4), "doc_id",
                            "n_tokens", budget=total // 3).to_pandas()
    allr = token_budget_head(ray.data.from_arrow(t), "doc_id", "n_tokens",
                             budget=total).to_pandas()
    # greedy prefix: selected = rows starting inside the budget
    assert (small["cum_before"] < total // 10).all()
    # the selection is a prefix of the hash order: row count == number of
    # rows whose cum_before < budget in the full ordering
    full = _oracle_cum(t)
    assert len(small) == int((full["cum_before"] < total // 10).sum())
    # monotone growth
    assert set(small["doc_id"]) <= set(big["doc_id"]) <= set(allr["doc_id"])
    assert len(allr) == len(t)
    # zero budget selects nothing
    empty = token_budget_head(ray.data.from_arrow(t), "doc_id", "n_tokens",
                              budget=0).to_pandas()
    assert len(empty) == 0
    assert sel_cols[0] in allr.columns


def test_param_validation():
    import ray.data

    t = _docs(n=4)
    with pytest.raises(ValueError):
        running_total(ray.data.from_arrow(t), "doc_id", "n_tokens",
                      num_buckets=0)
    with pytest.raises(ValueError):
        pack_sequences(ray.data.from_arrow(t), "doc_id", "n_tokens", 0)
    with pytest.raises(ValueError):
        token_budget_head(ray.data.from_arrow(t), "doc_id", "n_tokens", -1)
    with pytest.raises(ValueError):
        running_total(ray.data.from_arrow(t), "doc_id", "n_tokens",
                      kernel="sha9")


def _oracle_group_cum(t: pa.Table, seed="pack0", group="lang") -> pd.DataFrame:
    df = t.to_pandas()
    df["pack_key"] = [hashlib.md5((seed + str(k)).encode()).hexdigest()
                      for k in df["doc_id"]]
    df = df.sort_values([group, "pack_key", "doc_id", "n_tokens"],
                        kind="stable").reset_index(drop=True)
    df["cum_before"] = (df.groupby(group, dropna=False)["n_tokens"]
                        .transform(lambda s: s.fillna(0).astype("int64")
                                   .cumsum().shift(1, fill_value=0)))
    return df


@pytest.mark.usefixtures("ray_session")
def test_grouped_running_total_matches_pandas():
    import ray.data

    rng = np.random.default_rng(21)
    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(400)]),
        "n_tokens": pa.array(rng.integers(0, 300, 400), type=pa.int64()),
        "lang": pa.array(rng.choice(["en", "de", "fr", None], 400).tolist()),
    })
    for reshard, nb in ((1, 64), (9, 8)):
        got = running_total(ray.data.from_arrow(t).repartition(reshard),
                            "doc_id", "n_tokens", group_col="lang",
                            num_buckets=nb
                            ).to_pandas().sort_values("doc_id")
        want = _oracle_group_cum(t).sort_values("doc_id")
        assert list(got["cum_before"]) == list(want["cum_before"]), (reshard, nb)


@pytest.mark.usefixtures("ray_session")
def test_group_token_budget_dict():
    import ray.data

    rng = np.random.default_rng(31)
    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(300)]),
        "n_tokens": pa.array(rng.integers(1, 100, 300), type=pa.int64()),
        "lang": pa.array(rng.choice(["en", "de", "fr"], 300).tolist()),
    })
    budgets = {"en": 500, "de": 200}   # fr falls to default_budget=0
    got = token_budget_head(ray.data.from_arrow(t).repartition(4),
                            "doc_id", "n_tokens", budgets,
                            group_col="lang").to_pandas()
    assert set(got["lang"]) <= {"en", "de"}
    for g, lim in budgets.items():
        sub = got[got["lang"] == g]
        assert (sub["cum_before"] < lim).all()
        # prefix property within each group vs the pandas oracle
        full = _oracle_group_cum(t)
        want_n = int(((full["lang"] == g) & (full["cum_before"] < lim)).sum())
        assert len(sub) == want_n, g
    # scalar budget with groups: applies per group
    sc = token_budget_head(ray.data.from_arrow(t), "doc_id", "n_tokens",
                           150, group_col="lang").to_pandas()
    assert (sc["cum_before"] < 150).all() and sc["lang"].nunique() == 3
    with pytest.raises(ValueError, match="group_col"):
        token_budget_head(ray.data.from_arrow(t), "doc_id", "n_tokens",
                          {"en": 10})


@pytest.mark.usefixtures("ray_session")
def test_all_zero_values_running_total():
    """Review regression: an all-zero value column emits no pass-1 rows;
    pass 2 must still produce cum_before = 0 everywhere (not KeyError)."""
    import ray.data

    t = pa.table({"doc_id": pa.array(["a", "b", "c"]),
                  "n_tokens": pa.array([0, 0, None], pa.int64())})
    got = running_total(ray.data.from_arrow(t), "doc_id", "n_tokens"
                        ).to_pandas()
    assert list(got["cum_before"]) == [0, 0, 0]
    grp = running_total(ray.data.from_arrow(t), "doc_id", "n_tokens",
                        group_col="doc_id").to_pandas()
    assert list(grp["cum_before"]) == [0, 0, 0]


@pytest.mark.usefixtures("ray_session")
def test_pack_sequences_rejects_negative_values():
    """A negative token count has no packing layout (it used to give
    seq_id 0 and seq_off -1 for cum_before -1): it raises instead."""
    import ray.data

    t = pa.table({"doc_id": pa.array(["a", "b", "c"]),
                  "n_tokens": pa.array([5, -1, 3], pa.int64())})
    with pytest.raises(Exception, match="negative"):
        pack_sequences(ray.data.from_arrow(t), "doc_id", "n_tokens",
                       4).take_all()
    # zero is a valid count
    ok = pa.table({"doc_id": pa.array(["a", "b"]),
                   "n_tokens": pa.array([0, 3], pa.int64())})
    assert len(pack_sequences(ray.data.from_arrow(ok), "doc_id", "n_tokens",
                              4).take_all()) == 2
