"""Distributed set-op tests (functions/setops.py): SQL DISTINCT
semantics, multi-column keys, null keys, parallelism invariance."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _got(ds):
    from anomalydetection_ray.pipelines.queries import as_table

    return sorted(map(tuple, as_table(ds).to_pandas().itertuples(index=False, name=None)), key=str)


def test_set_ops_match_python_sets(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.setops import (
        except_distinct,
        intersect_distinct,
    )

    rng = np.random.default_rng(2)
    a_vals = rng.integers(0, 60, 500)
    b_vals = rng.integers(30, 90, 500)
    a = rd.from_arrow(pa.table({"k": pa.array(a_vals, type=pa.int64())})).repartition(5)
    b = rd.from_arrow(pa.table({"k": pa.array(b_vals, type=pa.int64())})).repartition(3)
    sa, sb = set(a_vals.tolist()), set(b_vals.tolist())
    assert _got(intersect_distinct(a, b, ["k"])) == sorted([(v,) for v in sa & sb], key=str)
    assert _got(except_distinct(a, b, ["k"])) == sorted([(v,) for v in sa - sb], key=str)


def test_set_ops_multi_column_and_parallelism(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.setops import intersect_distinct

    t1 = pa.table({"x": pa.array([1, 1, 2, 2, 3], type=pa.int64()), "y": ["a", "a", "b", "c", "d"]})
    t2 = pa.table({"x": pa.array([1, 2, 3], type=pa.int64()), "y": ["a", "c", "zzz"]})
    for parts in (1, 4):
        got = _got(
            intersect_distinct(
                rd.from_arrow(t1).repartition(parts), rd.from_arrow(t2).repartition(parts), ["x", "y"]
            )
        )
        assert got == [(1, "a"), (2, "c")]


def test_grouped_exact_quantiles_match_numpy(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import grouped_exact_quantiles
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(8)
    keys = rng.choice(["x", "y", "z"], size=5000)
    vals = rng.standard_normal(5000) * 100
    t = pa.table({"g": keys, "v": vals})
    out = (
        as_table(grouped_exact_quantiles(rd.from_arrow(t).repartition(7), ["g"], "v", [0.5, 0.9]))
        .to_pandas()
        .set_index("g")
    )
    for g in ("x", "y", "z"):
        sub = vals[keys == g]
        assert np.isclose(out.loc[g, "q50"], np.percentile(sub, 50))
        assert np.isclose(out.loc[g, "q90"], np.percentile(sub, 90))


def test_robust_outlier_flags_match_numpy(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import robust_outlier_flags

    rng = np.random.default_rng(11)
    keys = rng.choice(["x", "y", "z"], size=4000)
    vals = rng.standard_normal(4000) * 10
    # plant unambiguous outliers in one group
    idx = np.flatnonzero(keys == "y")[:5]
    vals[idx] = 1e6
    t = pa.table({"g": keys, "v": vals})
    out = (
        robust_outlier_flags(rd.from_arrow(t).repartition(7), ["g"], "v")
        .to_pandas()
        .sort_values(["g", "v"])
        .reset_index(drop=True)
    )
    for g in ("x", "y", "z"):
        sub = np.sort(vals[keys == g])
        med = np.median(sub)
        mad = np.median(np.abs(sub - med))
        got = out[out["g"] == g]
        assert np.allclose(got["robust_z"], (sub - med) / (1.4826 * mad))
        assert (got["is_outlier"].to_numpy() == (np.abs(sub - med) > 3.5 * 1.4826 * mad)).all()
    assert int(out["is_outlier"].sum()) >= 5


def test_robust_outlier_flags_degenerate_and_collision(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import robust_outlier_flags

    # mad == 0 group: z is NULL, flag still fires for values off the median
    t = pa.table({"g": ["a"] * 5 + ["b"] * 3, "v": [2.0, 2.0, 2.0, 2.0, 9.0, 1.0, 2.0, 3.0]})
    out = (
        robust_outlier_flags(rd.from_arrow(t).repartition(3), ["g"], "v")
        .to_pandas()
        .sort_values(["g", "v"])
        .reset_index(drop=True)
    )
    a = out[out["g"] == "a"]
    assert a["robust_z"].isna().all()  # mad=0 -> null z
    assert a["is_outlier"].tolist() == [0, 0, 0, 0, 1]  # only the 9.0 is off the median
    b = out[out["g"] == "b"]
    assert b["is_outlier"].tolist() == [0, 0, 0]
    assert np.allclose(b["robust_z"], [-1 / 1.4826, 0.0, 1 / 1.4826])

    # an input key already named like the output column is rejected up front
    import pytest as _pytest

    clash = t.rename_columns(["robust_z", "v"])
    with _pytest.raises(ValueError, match="robust_z"):
        robust_outlier_flags(rd.from_arrow(clash), ["robust_z"], "v")


def test_grouped_topk_exact_and_deterministic(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import grouped_topk
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(5)
    n = 3000
    t = pa.table(
        {
            "g": rng.choice(["a", "b"], size=n),
            "id": pa.array(range(n), type=pa.int64()),
            "v": pa.array(rng.integers(0, 50, n), type=pa.int64()),  # many ties
        }
    )
    import pandas as pd

    df = t.to_pandas()
    expect = (
        df.sort_values(["v", "id"], ascending=[False, True])
        .groupby("g", group_keys=False)
        .head(4)
        .sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    for parts in (2, 9):
        got = (
            as_table(grouped_topk(rd.from_arrow(t).repartition(parts), ["g"], "v", k=4, tiebreak=["id"]))
            .to_pandas()
            .sort_values(["g", "v", "id"], ascending=[True, False, True])
            .reset_index(drop=True)[expect.columns.tolist()]
        )
        assert got.equals(expect)
