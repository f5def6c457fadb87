"""Distributed (non-broadcast) hash join — round-2 verdict item 7.

The shuffle plan must be semantically identical to the broadcast plan
(same output columns, same rows) on inner and left joins, including
null-key rows, so a caller can pick either plan on the dim side's size
alone.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _mk_sides():
    import ray.data as rd

    left = pa.table(
        {
            "k": pa.array([1, 2, 2, 3, None, 5], type=pa.int64()),
            "lv": pa.array(["a", "b", "c", "d", "e", "f"]),
            "shared": pa.array([10, 20, 30, 40, 50, 60], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([2, 3, 3, None, 7], type=pa.int64()),
            "rv": pa.array([2.0, 3.0, 3.5, 9.9, 7.0]),
            "shared": pa.array([-1, -2, -3, -4, -5], type=pa.int64()),
        }
    )
    return rd.from_arrow(left).repartition(3), rd.from_arrow(right).repartition(2), left, right


def _canon(t: pa.Table):
    import pandas as pd

    df = t.to_pandas().reindex(sorted(t.column_names), axis=1)
    return df.sort_values(by=list(df.columns), kind="mergesort", na_position="last").reset_index(
        drop=True
    )


@pytest.mark.parametrize("how", ["inner", "left"])
def test_shuffle_join_matches_polars(ray_session, how):
    import polars as pl

    from anomalydetection_ray.functions.relational import shuffle_hash_join
    from anomalydetection_ray.pipelines.queries import as_table

    lds, rds, left, right = _mk_sides()
    got = as_table(shuffle_hash_join(lds, "k", rds, "rk", how=how))
    # expected: polars single-node join, right key dropped, collision suffixed
    want = (
        pl.from_arrow(left)
        .join(
            pl.from_arrow(right).rename({"shared": "shared_r"}),
            left_on="k",
            right_on="rk",
            how=how,
            nulls_equal=False,
        )
        .to_arrow()
    )
    assert sorted(got.column_names) == sorted(want.column_names)
    a, b = _canon(got), _canon(want.cast(got.select(want.column_names).schema))
    assert a.equals(b), f"\n{a}\nvs\n{b}"
    if how == "left":
        # null-key left rows must survive with null right columns
        assert got.num_rows >= left.num_rows


def test_cost_based_join_switches_plans(ray_session):
    """The two plans a caller chooses between by the dim side's size —
    broadcast for a small dim, shuffle for a large one — return the
    same columns and rows."""
    import ray.data as rd

    from anomalydetection_ray.functions.relational import broadcast_join, shuffle_hash_join
    from anomalydetection_ray.pipelines.queries import as_table

    lds, _, _, right = _mk_sides()
    dim = right.drop_columns(["shared"])  # broadcast_join does not suffix
    bc = as_table(broadcast_join(lds, "k", dim, "rk", how="inner"))
    sh = as_table(shuffle_hash_join(lds, "k", rd.from_arrow(dim).repartition(2), "rk", how="inner"))
    a, b = _canon(bc), _canon(sh)
    assert sorted(bc.column_names) == sorted(sh.column_names)
    assert len(a) == len(b)
    # value-equality between plans on the join payload columns
    for col in ("k", "lv", "rv"):
        assert np.array_equal(
            a[col].to_numpy(), b[col].to_numpy()
        ), col


@pytest.mark.parametrize("how", ["inner", "left"])
def test_composite_key_join_matches_polars(ray_session, how):
    import polars as pl
    import ray.data as rd

    from anomalydetection_ray.functions.relational import broadcast_join, shuffle_hash_join
    from anomalydetection_ray.pipelines.queries import as_table

    left = pa.table(
        {
            "k1": pa.array([1, 1, 2, 2, None, 3], type=pa.int64()),
            "k2": pa.array(["x", "y", "x", "x", "x", None]),
            "lv": pa.array([10, 20, 30, 40, 50, 60], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "r1": pa.array([1, 2, 2, 9], type=pa.int32()),  # narrower type: cast path
            "r2": pa.array(["x", "x", "z", "x"]),
            "rv": pa.array([1.5, 2.5, 3.5, 9.5]),
        }
    )
    lds, rds = rd.from_arrow(left).repartition(3), rd.from_arrow(right).repartition(2)
    got = as_table(shuffle_hash_join(lds, ["k1", "k2"], rds, ["r1", "r2"], how=how))
    want = (
        pl.from_arrow(left)
        .join(
            pl.from_arrow(right).with_columns(pl.col("r1").cast(pl.Int64)),
            left_on=["k1", "k2"],
            right_on=["r1", "r2"],
            how=how,
            nulls_equal=False,
        )
        .to_arrow()
    )
    assert sorted(got.column_names) == sorted(want.column_names)
    a, b = _canon(got), _canon(want.cast(got.select(want.column_names).schema))
    assert a.equals(b), f"\n{a}\nvs\n{b}"
    # broadcast plan agrees with the shuffle plan
    bc = as_table(broadcast_join(lds, ["k1", "k2"], right, ["r1", "r2"], how=how))
    assert _canon(bc).equals(a)


@pytest.mark.parametrize("how", ["semi", "anti"])
def test_semi_anti_join_matches_polars(ray_session, how):
    import polars as pl

    from anomalydetection_ray.functions.relational import broadcast_join, shuffle_hash_join
    from anomalydetection_ray.pipelines.queries import as_table

    lds, rds, left, right = _mk_sides()
    got = as_table(shuffle_hash_join(lds, "k", rds, "rk", how=how))
    want = (
        pl.from_arrow(left)
        .join(pl.from_arrow(right), left_on="k", right_on="rk", how=how, nulls_equal=False)
        .to_arrow()
    )
    # semi/anti return left columns only, no multiplication on dup right keys
    assert sorted(got.column_names) == sorted(left.column_names)
    a, b = _canon(got), _canon(want.cast(got.select(want.column_names).schema))
    assert a.equals(b), f"\n{a}\nvs\n{b}"
    bc = as_table(broadcast_join(lds, "k", right, "rk", how=how))
    assert _canon(bc).equals(a)


def test_suffix_collision_raises(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.relational import shuffle_hash_join

    left = pa.table({"k": [1], "v": [1], "v_r": [2]})
    right = pa.table({"rk": [1], "v": [3]})
    with pytest.raises(ValueError, match="collide"):
        shuffle_hash_join(rd.from_arrow(left), "k", rd.from_arrow(right), "rk")


def test_frequency_filter_plan_equivalence(ray_session, monkeypatch):
    """DRIVER_MAX_ROWS=-1 forces the distributed semi-join plan; output
    must be row-identical to the broadcast plan (round-3 verdict item 3)."""
    import ray.data as rd

    from anomalydetection_ray.functions import shuffle
    from anomalydetection_ray.functions.relational import frequency_filter
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(7)
    vals = rng.integers(0, 40, size=5000)
    tb = pa.table({"v": pa.array(vals, type=pa.int64()), "row": pa.array(np.arange(5000))})
    ds = rd.from_arrow(tb).repartition(6)
    a = _canon(as_table(frequency_filter(ds, "v", 130)))
    monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
    b = _canon(as_table(frequency_filter(ds, "v", 130)))
    assert len(a) > 0 and len(a) < 5000  # threshold actually splits
    assert a.equals(b)


def test_frequency_filter_null_group_never_qualifies(ray_session, monkeypatch):
    """A null key group over the threshold must not qualify (SQL NULL
    semantics) — it used to crash the broadcast plan's np.sort and, via a
    null in the distributed value set, KEEP null rows on the shuffle plan."""
    import ray.data as rd

    from anomalydetection_ray.functions import shuffle
    from anomalydetection_ray.functions.relational import frequency_filter
    from anomalydetection_ray.pipelines.queries import as_table

    tb = pa.table({
        "v": pa.array(["a"] * 8 + [None] * 8 + ["b"] * 2, type=pa.string()),
        "row": pa.array(range(18), type=pa.int64()),
    })
    ds = rd.from_arrow(tb).repartition(3)
    for budget in (shuffle.DRIVER_MAX_ROWS, -1):  # broadcast plan, shuffle plan
        monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", budget)
        out = _canon(as_table(frequency_filter(ds, "v", 5)))
        assert out["v"].tolist() == ["a"] * 8, budget  # nulls and 'b' dropped


def test_shuffle_membership_filter_null_in_value_set(ray_session):
    """A null in the VALUE SET must not match null rows (pc.is_in matches
    null-to-null by default — the opposite of the documented contract)."""
    import ray.data as rd

    from anomalydetection_ray.functions.relational import shuffle_membership_filter
    from anomalydetection_ray.pipelines.queries import as_table

    rows = pa.table({"v": pa.array(["a", None, "b"]), "i": pa.array([1, 2, 3], type=pa.int64())})
    vals = pa.table({"v": pa.array(["a", None])})
    kept = _canon(as_table(shuffle_membership_filter(
        rd.from_arrow(rows), "v", rd.from_arrow(vals), "v", keep=True)))
    assert kept["i"].tolist() == [1]  # only 'a'; the null row never matches
    dropped = _canon(as_table(shuffle_membership_filter(
        rd.from_arrow(rows), "v", rd.from_arrow(vals), "v", keep=False)))
    assert sorted(dropped["i"].tolist()) == [2, 3]  # null row survives keep=False


def test_shuffle_membership_filter_nulls(ray_session):
    """NULL values never match (SQL semantics): dropped on keep=True,
    kept on keep=False."""
    import ray.data as rd

    from anomalydetection_ray.functions.relational import shuffle_membership_filter
    from anomalydetection_ray.pipelines.queries import as_table

    rows = pa.table(
        {"v": pa.array([1, 2, None, 4, 5], type=pa.int64()), "p": pa.array(list("abcde"))}
    )
    vals = pa.table({"m": pa.array([2, 4, 99], type=pa.int64())})
    ds, vds = rd.from_arrow(rows).repartition(3), rd.from_arrow(vals).repartition(2)
    kept = as_table(shuffle_membership_filter(ds, "v", vds, "m", keep=True))
    assert sorted(kept["p"].to_pylist()) == ["b", "d"]
    dropped = as_table(shuffle_membership_filter(ds, "v", vds, "m", keep=False))
    assert sorted(dropped["p"].to_pylist()) == ["a", "c", "e"]


@pytest.mark.parametrize("how", ["right", "full"])
def test_right_full_outer_join_matches_duckdb(ray_session, how):
    """RIGHT / FULL OUTER modes vs a DuckDB oracle, including null keys
    (never match, ride through unmatched) and collision suffixing."""
    import duckdb

    from anomalydetection_ray.functions.relational import shuffle_hash_join
    from anomalydetection_ray.pipelines.queries import as_table

    lds, rds, left, right = _mk_sides()
    got = as_table(shuffle_hash_join(lds, "k", rds, "rk", how=how))

    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    sqlhow = {"right": "RIGHT", "full": "FULL OUTER"}[how]
    want = con.sql(
        f"""SELECT COALESCE(l.k, r.rk) AS k, l.lv, l.shared,
                   r.rv, r.shared AS shared_r
            FROM l {sqlhow} JOIN r ON l.k = r.rk"""
    ).arrow()

    assert sorted(got.column_names) == sorted(want.column_names)
    a = _canon(got)
    b = _canon(want.cast(got.select(want.column_names).schema))
    assert a.equals(b), f"\n{a}\nvs\n{b}"


def test_skew_join_equivalent_to_shuffle_join(ray_session):
    """Hybrid hot-broadcast/cold-shuffle plan is row-identical to the
    one-plan shuffle join on planted Zipf skew, for every supported how."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.relational import shuffle_hash_join, skew_join
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(3)
    n = 20000
    keys = np.where(rng.random(n) < 0.4, 7, rng.integers(0, 1000, n)).astype("int64")
    lt = pa.table({"k": keys, "lv": rng.random(n)})
    lt = pa.concat_tables([lt, pa.table({"k": pa.array([None, None], type=pa.int64()), "lv": [0.1, 0.2]})])
    # right col 'lv' collides with a left name -> suffix path exercised
    rt = pa.table({"rk": np.arange(800, dtype="int64"), "lv": rng.random(800), "attr": [f"a{i}" for i in range(800)]})
    left = rd.from_arrow(lt).repartition(8)
    right = rd.from_arrow(rt).repartition(4)

    def canon(t):
        return t.to_pandas().sort_values(list(t.column_names)).reset_index(drop=True)

    for how in ["inner", "left", "semi", "anti"]:
        a = canon(as_table(skew_join(left, "k", right, "rk", how=how, hot_threshold=500)))
        b = canon(as_table(shuffle_hash_join(left, "k", right, "rk", how=how)))
        assert list(a.columns) == list(b.columns)
        pd.testing.assert_frame_equal(a, b, check_dtype=True)

    base = canon(as_table(shuffle_hash_join(left, "k", right, "rk")))
    all_hot = canon(as_table(skew_join(left, "k", right, "rk", hot_threshold=1)))
    none_hot = canon(as_table(skew_join(left, "k", right, "rk", hot_threshold=10**9)))
    pd.testing.assert_frame_equal(all_hot, base, check_dtype=True)
    pd.testing.assert_frame_equal(none_hot, base, check_dtype=True)


def test_skew_join_dim_side_budget_falls_back(ray_session, monkeypatch):
    """When the hot keys' RIGHT rows exceed the broadcast budget
    (``shuffle.DRIVER_MAX_ROWS``) the plan falls back to the shuffle join
    rather than gathering them."""
    import numpy as np
    import pyarrow as pa
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions import shuffle

    from anomalydetection_ray.functions.relational import shuffle_hash_join, skew_join
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(5)
    keys = np.where(rng.random(5000) < 0.5, 1, rng.integers(0, 50, 5000)).astype("int64")
    left = rd.from_arrow(pa.table({"k": keys, "lv": rng.random(5000)})).repartition(4)
    # right side ALSO skewed on the hot key: 3000 rows for k=1
    rk = np.concatenate([np.ones(3000, dtype="int64"), np.arange(50, dtype="int64")])
    right = rd.from_arrow(pa.table({"rk": rk, "attr": rng.random(len(rk))})).repartition(4)

    def canon(t):
        return t.to_pandas().sort_values(list(t.column_names)).reset_index(drop=True)

    b = canon(as_table(shuffle_hash_join(left, "k", right, "rk")))
    monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", 100)
    a = canon(as_table(skew_join(left, "k", right, "rk", hot_threshold=100)))
    pd.testing.assert_frame_equal(a, b, check_dtype=True)


def test_skew_join_empty_lanes_keep_schema(ray_session):
    """Round-4 verdict #2: a skew join whose hot lane OR cold lane is
    empty must emit only schema-carrying bundles — Ray's sort builds
    empty range partitions with NO schema, and an empty hot-lane block
    bypassing the probe UDF would carry the left schema instead of the
    join output schema. Either way the union's bundles diverge and Ray
    logs "RefBundle with a different schema". Assert every internal
    bundle of both degenerate plans carries the full output schema."""
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.relational import skew_join

    left = rd.from_arrow(
        pa.table({"k": ["a"] * 1000 + ["b"] * 3, "lv": list(range(1003))})
    ).repartition(6)
    right = rd.from_arrow(pa.table({"rk": ["a", "b", "c"], "rv": [1.0, 2.0, 3.0]}))

    # hot_threshold=1: every key hot -> cold lane (shuffle join) is empty
    # hot_threshold=2: only "a" hot -> both lanes nonempty but the cold
    # sort still produces mostly-empty range partitions
    for thresh, rows in [(1, 1003), (2, 1003)]:
        out = skew_join(left, "k", right, "rk", hot_threshold=thresh)
        schemas = []
        n = 0
        for b in out.iter_internal_ref_bundles():
            schemas.append(None if b.schema is None else b.schema.names)
            n += b.num_rows()
        assert n == 1003, (thresh, n)
        for names in schemas:
            assert names == ["k", "lv", "rv"], (thresh, schemas)


def test_hash_join_plan_invariant_suffix_on_collision(ray_session):
    """A right non-key column colliding with a left name must behave the
    same whatever the data size: the shuffle plan suffixes it with
    ``_r``, and the broadcast plan raises at call time, before any task
    runs, instead of failing mid-stream."""
    import ray.data as rd

    import pandas as pd

    from anomalydetection_ray.functions.relational import broadcast_join, shuffle_hash_join
    from anomalydetection_ray.pipelines.queries import as_table

    left = pa.table({"k": [1, 2, 3], "x": ["l1", "l2", "l3"]})
    right = pa.table({"k": [1, 2], "x": ["r1", "r2"]})

    a = as_table(
        shuffle_hash_join(rd.from_arrow(left), "k", rd.from_arrow(right), "k", how="left")
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert list(a.columns) == ["k", "x", "x_r"]
    assert a.loc[a["k"] == 1, "x_r"].iloc[0] == "r1"
    assert pd.isna(a.loc[a["k"] == 3, "x_r"].iloc[0])
    with pytest.raises(ValueError, match="collide"):
        broadcast_join(rd.from_arrow(left), "k", right, "k", how="left")
