"""As-of join and sessionization tests (functions/temporal.py):
hand-computed expectations, left-join semantics, tie determinism, and
parallelism invariance."""

from __future__ import annotations

import datetime

import numpy as np
import pyarrow as pa
import pytest


def _ts(*args):
    return datetime.datetime(2024, 1, 1) + datetime.timedelta(minutes=args[0])


def test_asof_join_backward_semantics(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import asof_join
    from anomalydetection_ray.pipelines.queries import as_table

    left = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 3], type=pa.int64()),
            "t": pa.array([_ts(10), _ts(20), _ts(5), _ts(10), _ts(10)], type=pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 1, 2, 2], type=pa.int64()),
            "rt": pa.array([_ts(8), _ts(15), _ts(10), _ts(10)], type=pa.timestamp("us")),
            "v": pa.array([100.0, 200.0, 7.0, 9.0]),
        }
    )
    out = as_table(
        asof_join(
            rd.from_arrow(left).repartition(3),
            rd.from_arrow(right).repartition(2),
            key="k", left_ts="t", right_ts="rt", right_values=["v"], right_key="rk",
        )
    ).sort_by([("k", "ascending"), ("t", "ascending")])
    vals = out["v"].to_pylist()
    # k=1: t=5 -> no order yet (null); t=10 -> v@8=100; t=20 -> v@15=200
    # k=2: tie at rt=10 deduped to max -> 9; k=3: no right rows -> null
    assert vals == [None, 100.0, 200.0, 9.0, None]


def test_sessionize_numeric_epoch_us_ts(ray_session):
    """Numeric ts columns are epoch-µs by contract across the module
    (rolling_window_agg, range_join_agg); sessionize used to raise on
    them at the .dt accessor."""
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import sessionize
    from anomalydetection_ray.pipelines.queries import as_table

    m = 60_000_000  # one minute in µs
    t = pa.table({
        "u": pa.array([1, 1, 1], type=pa.int64()),
        "t": pa.array([0 * m, 5 * m, 45 * m], type=pa.int64()),
    })
    out = as_table(
        sessionize(rd.from_arrow(t), key="u", ts_col="t", gap=datetime.timedelta(minutes=30))
    ).to_pandas().sort_values("session_id")
    assert out["session_id"].tolist() == [1, 2]
    assert out["n_events"].tolist() == [2, 1]


def test_asof_join_right_value_collision_raises(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import asof_join

    left = pa.table({"k": [1], "t": [1], "v": [1.0]})
    right = pa.table({"k": [1], "t": [1], "v": [2.0]})
    with pytest.raises(ValueError, match="collide"):
        asof_join(rd.from_arrow(left), rd.from_arrow(right),
                  key="k", left_ts="t", right_ts="t", right_values=["v"])


def test_sessionize_gap_semantics(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import sessionize
    from anomalydetection_ray.pipelines.queries import as_table

    t = pa.table(
        {
            "u": pa.array([1, 1, 1, 1, 2, 2], type=pa.int64()),
            "t": pa.array(
                [_ts(0), _ts(5), _ts(45), _ts(50), _ts(0), _ts(0)], type=pa.timestamp("us")
            ),
            "v": pa.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
        }
    )
    out = as_table(
        sessionize(
            rd.from_arrow(t).repartition(4), key="u", ts_col="t",
            gap=datetime.timedelta(minutes=30), value_col="v",
        )
    ).to_pandas().sort_values(["u", "session_id"]).reset_index(drop=True)
    # u=1: [0,5] then gap 40 -> [45,50]; u=2: tied timestamps share one session
    assert out["session_id"].tolist() == [1, 2, 1]
    assert out["n_events"].tolist() == [2, 2, 2]
    assert out["sum_value"].tolist() == [3.0, 12.0, 48.0]


def test_asof_and_sessionize_parallelism_invariant(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import asof_join, sessionize
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(6)
    n = 4000
    base = datetime.datetime(2024, 1, 1)
    ev = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n), type=pa.int64()),
            "t": pa.array(
                [base + datetime.timedelta(seconds=int(s)) for s in rng.integers(0, 86400, n)],
                type=pa.timestamp("us"),
            ),
            "v": pa.array(rng.random(n)),
        }
    )
    rt = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, 300), type=pa.int64()),
            "t": pa.array(
                [base + datetime.timedelta(seconds=int(s)) for s in rng.integers(0, 86400, 300)],
                type=pa.timestamp("us"),
            ),
            "w": pa.array(rng.random(300)),
        }
    )

    def run(parts):
        j = as_table(
            asof_join(
                rd.from_arrow(ev).repartition(parts), rd.from_arrow(rt).repartition(parts),
                key="k", left_ts="t", right_ts="t", right_values=["w"],
            )
        ).to_pandas().sort_values(["k", "t", "v"]).reset_index(drop=True)
        s = as_table(
            sessionize(
                rd.from_arrow(ev).repartition(parts), key="k", ts_col="t",
                gap=datetime.timedelta(hours=1), value_col="v",
            )
        ).to_pandas().sort_values(["k", "session_id"]).reset_index(drop=True)
        return j, s

    j2, s2 = run(2)
    j9, s9 = run(9)
    assert j2.equals(j9)
    assert s2.equals(s9)


def test_rolling_window_agg_hand_case(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import rolling_window_agg
    from anomalydetection_ray.pipelines.queries import as_table

    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2], type=pa.int64()),
            "t": pa.array([_ts(0), _ts(30), _ts(61), _ts(61), _ts(0)], type=pa.timestamp("us")),
            "v": pa.array([1.0, 2.0, 4.0, 8.0, 16.0]),
            "rid": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        }
    )
    out = (
        as_table(
            rolling_window_agg(
                rd.from_arrow(t).repartition(3), key="k", ts_col="t", value_col="v",
                window=datetime.timedelta(minutes=60), carry=["rid"],
            )
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    # rid0: only itself; rid1: 0+1; rid2/3: window [1,61] excludes t=0,
    # includes t=30 and BOTH t=61 peers (RANGE frame peer semantics)
    assert out["w_count"].tolist() == [1, 2, 3, 3, 1]
    assert out["w_sum"].tolist() == [1.0, 3.0, 14.0, 14.0, 16.0]


def test_rolling_window_parallelism_invariant(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import rolling_window_agg
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(12)
    n = 3000
    base = datetime.datetime(2024, 1, 1)
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 25, n), type=pa.int64()),
            "t": pa.array(
                [base + datetime.timedelta(seconds=int(s)) for s in rng.integers(0, 86400, n)],
                type=pa.timestamp("us"),
            ),
            "v": pa.array(rng.random(n)),
            "rid": pa.array(range(n), type=pa.int64()),
        }
    )

    def run(parts):
        return (
            as_table(
                rolling_window_agg(
                    rd.from_arrow(t).repartition(parts), key="k", ts_col="t", value_col="v",
                    window=datetime.timedelta(hours=2), carry=["rid"],
                )
            )
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )

    assert run(2).equals(run(11))


@pytest.mark.parametrize("nblocks", [1, 9])
def test_range_join_agg_duckdb_parity(ray_session, nblocks):
    import duckdb
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import range_join_agg
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(23)
    base = datetime.datetime(2024, 3, 1)
    nl, nr = 400, 700
    left = pa.table(
        {
            "k": pa.array(rng.integers(0, 15, nl), type=pa.int64()),
            "t": pa.array(
                [base + datetime.timedelta(minutes=int(m)) for m in rng.integers(0, 5000, nl)],
                type=pa.timestamp("us"),
            ),
            "rid": pa.array(range(nl), type=pa.int64()),
        }
    )
    # right: a null value row and keys absent from the left both included
    rv = rng.random(nr) * 100
    rvals = pa.array([None if i % 97 == 0 else float(v) for i, v in enumerate(rv)])
    right = pa.table(
        {
            "rk": pa.array(rng.integers(0, 18, nr), type=pa.int64()),
            "rt": pa.array(
                [base + datetime.timedelta(minutes=int(m)) for m in rng.integers(0, 5000, nr)],
                type=pa.timestamp("us"),
            ),
            "val": rvals,
        }
    )
    got = (
        as_table(
            range_join_agg(
                rd.from_arrow(left).repartition(nblocks),
                rd.from_arrow(right).repartition(max(1, nblocks - 2)),
                key="k", left_ts="t", right_ts="rt",
                lo=datetime.timedelta(hours=-6), hi=datetime.timedelta(hours=1),
                right_value="val", right_key="rk", carry=["rid"],
            )
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.execute(
        """
        SELECT l.rid, COUNT(r.rt) AS rj_count,
               COALESCE(SUM(COALESCE(r.val, 0)), 0) AS rj_sum
        FROM l LEFT JOIN r
          ON r.rk = l.k AND r.rt BETWEEN l.t - INTERVAL 6 HOUR AND l.t + INTERVAL 1 HOUR
        GROUP BY l.rid ORDER BY l.rid
        """
    ).df()
    assert got["rj_count"].tolist() == want["rj_count"].tolist()
    np.testing.assert_allclose(got["rj_sum"].to_numpy(), want["rj_sum"].to_numpy(), rtol=0, atol=1e-9)
    # parallelism invariance: BIT-identical sums at a different layout
    got2 = (
        as_table(
            range_join_agg(
                rd.from_arrow(left).repartition(3), rd.from_arrow(right).repartition(7),
                key="k", left_ts="t", right_ts="rt",
                lo=datetime.timedelta(hours=-6), hi=datetime.timedelta(hours=1),
                right_value="val", right_key="rk", carry=["rid"],
            )
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    assert got.equals(got2)


def test_range_join_agg_edges(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import range_join_agg
    from anomalydetection_ray.pipelines.queries import as_table

    left = pa.table({"k": pa.array([1, 2], type=pa.int64()), "t": pa.array([100, 200], type=pa.int64())})
    right = pa.table({"k": pa.array([1], type=pa.int64()), "t": pa.array([100], type=pa.int64()), "v": pa.array([5.0])})
    # count-only (no right_value), integer µs timestamps, inclusive bounds
    out = (
        as_table(
            range_join_agg(
                rd.from_arrow(left), rd.from_arrow(right), key="k", left_ts="t", right_ts="t",
                lo=np.timedelta64(0, "us"), hi=np.timedelta64(0, "us"),
            )
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["rj_count"].tolist() == [1, 0]
    assert "rj_sum" not in out.columns

    # NULL keys never match the ON condition (SQL LEFT JOIN): the null
    # left row survives with count 0, the null right row matches nothing —
    # string keys exercise the object-array path
    left_n = pa.table(
        {"k": pa.array(["a", None, "b"]), "t": pa.array([100, 100, 100], type=pa.int64())}
    )
    right_n = pa.table(
        {"k": pa.array(["a", None]), "t": pa.array([100, 100], type=pa.int64()), "v": [5.0, 7.0]}
    )
    out_n = (
        as_table(
            range_join_agg(
                rd.from_arrow(left_n), rd.from_arrow(right_n), key="k", left_ts="t", right_ts="t",
                lo=np.timedelta64(0, "us"), hi=np.timedelta64(0, "us"), right_value="v",
            )
        )
        .to_pandas()
        .sort_values("k", na_position="first")
        .reset_index(drop=True)
    )
    assert out_n["rj_count"].tolist() == [0, 1, 0]
    assert out_n["rj_sum"].tolist() == [0.0, 5.0, 0.0]

    with pytest.raises(ValueError, match="empty range"):
        range_join_agg(
            rd.from_arrow(left), rd.from_arrow(right), key="k", left_ts="t", right_ts="t",
            lo=np.timedelta64(1, "us"), hi=np.timedelta64(0, "us"),
        )


def test_funnel_counts_attrition_strict_order_and_layout(ray_session):
    """funnel_counts: real attrition, strict > (same-timestamp step does
    NOT count), out-of-order events don't count, null keys/ts dropped,
    block-layout invariance via the co-partition contract."""
    import datetime as dt

    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import funnel_counts

    t0 = dt.datetime(2024, 1, 1)
    s = lambda k: t0 + dt.timedelta(seconds=k)
    rows = [
        # u1 completes the funnel in order
        (1, s(0), "view"), (1, s(1), "click"), (1, s(2), "purchase"),
        # u2 clicks at the SAME ts as its first view -> strict > rejects
        (2, s(0), "view"), (2, s(0), "click"), (2, s(5), "purchase"),
        # u3 purchase BEFORE click -> reaches step 2 only
        (3, s(0), "view"), (3, s(4), "click"), (3, s(2), "purchase"),
        # u4 view only
        (4, s(0), "view"),
        # u5 click/purchase but never views -> reaches nothing
        (5, s(0), "click"), (5, s(1), "purchase"),
        # u6: second view AFTER click still counts via first view
        (6, s(0), "view"), (6, s(3), "click"), (6, s(9), "view"), (6, s(4), "purchase"),
        # null user / null ts rows are dropped
        (None, s(0), "view"), (7, None, "view"),
        # noise event types never enter the exchange
        (1, s(0), "error"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    # viewers u1,u2,u3,u4,u6 = 5; click-after-first-view u1,u3,u6 = 3;
    # purchase-after-that u1,u6 = 2
    expect = {1: 5, 2: 3, 3: 2}
    for nb in (1, 4, 16):
        out = funnel_counts(
            rd.from_pandas(df).repartition(nb), ["view", "click", "purchase"]
        )
        got = dict(zip(out["step"], out["n_users"]))
        assert got == expect, (nb, got)
        assert list(out["step_name"]) == ["view", "click", "purchase"]

    # empty input
    out = funnel_counts(rd.from_pandas(df.iloc[:0]), ["view", "click"])
    assert list(out["n_users"]) == [0, 0]


# ------------------------------------------------ round-5 review regressions


def _ts5(sec):
    return None if sec is None else datetime.datetime(2020, 1, 1, 0, 0, 0) + datetime.timedelta(seconds=sec)


def test_rolling_window_null_ts_duckdb_parity(ray_session):
    """Null-ts rows are their OWN peer group (DuckDB RANGE semantics,
    probed) and must not corrupt non-null rows' windows — a NaN in the
    searchsorted array previously mis-counted the whole key silently."""
    import duckdb
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import rolling_window_agg
    from anomalydetection_ray.pipelines.queries import as_table

    t = pa.table({
        "k": pa.array(["a"] * 5 + ["b"] * 2, type=pa.string()),
        "ts": pa.array([_ts5(None), _ts5(0), _ts5(1), _ts5(None), _ts5(3)]
                       + [_ts5(0), _ts5(1)], type=pa.timestamp("us")),
        "v": pa.array([10.0, 1.0, 2.0, 20.0, 4.0, 7.0, None], type=pa.float64()),
    })
    out = as_table(
        rolling_window_agg(rd.from_arrow(t).repartition(3), "k", "ts", "v",
                           np.timedelta64(1500, "ms"))
    ).to_pandas().sort_values(["k", "ts", "v"], na_position="first").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql("""
      SELECT k, ts, v, COUNT(*) OVER w AS w_count,
             COALESCE(SUM(v) OVER w, 0) AS w_sum
      FROM t WINDOW w AS (PARTITION BY k ORDER BY ts
        RANGE BETWEEN INTERVAL 1500 MILLISECOND PRECEDING AND CURRENT ROW)
      ORDER BY k, ts NULLS FIRST, v
    """).df().reset_index(drop=True)
    con.close()
    assert out["w_count"].tolist() == want["w_count"].tolist()
    np.testing.assert_allclose(out["w_sum"].to_numpy(), want["w_sum"].to_numpy())


def test_rolling_window_null_value_does_not_poison_later_windows(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import rolling_window_agg
    from anomalydetection_ray.pipelines.queries import as_table

    t = pa.table({
        "k": pa.array(["a"] * 3, type=pa.string()),
        "ts": pa.array([_ts5(0), _ts5(10), _ts5(20)], type=pa.timestamp("us")),
        "v": pa.array([1.0, None, 2.0], type=pa.float64()),
    })
    out = as_table(
        rolling_window_agg(rd.from_arrow(t), "k", "ts", "v", np.timedelta64(5, "s"))
    ).to_pandas().sort_values("ts").reset_index(drop=True)
    # each window holds exactly its own row; row 3's sum must be 2.0
    # (not NaN from a poisoned cumsum) and row 2's null adds 0
    assert out["w_count"].tolist() == [1, 1, 1]
    np.testing.assert_allclose(out["w_sum"].to_numpy(), [1.0, 0.0, 2.0])


def test_rolling_window_numeric_null_keys_group_together(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import rolling_window_agg
    from anomalydetection_ray.pipelines.queries import as_table

    t = pa.table({
        "k": pa.array([None, None, None, 7], type=pa.int64()),
        "ts": pa.array([_ts5(0), _ts5(1), _ts5(2), _ts5(0)], type=pa.timestamp("us")),
        "v": pa.array([1.0, 1.0, 1.0, 5.0], type=pa.float64()),
    })
    out = as_table(
        rolling_window_agg(rd.from_arrow(t), "k", "ts", "v", np.timedelta64(10, "s"))
    ).to_pandas()
    nulls = out[out["k"].isna()].sort_values("ts")
    # SQL PARTITION BY groups nulls: the third null row sees all three
    # (previously each numeric-null key was a NaN singleton)
    assert nulls["w_count"].tolist() == [1, 2, 3]
    assert out[out["k"] == 7]["w_count"].tolist() == [1]


def test_rolling_window_collision_validation(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import rolling_window_agg

    t = pa.table({
        "k": pa.array(["a"], type=pa.string()),
        "ts": pa.array([_ts5(0)], type=pa.timestamp("us")),
        "v": pa.array([1.0]),
        "w_count": pa.array([9], type=pa.int64()),
    })
    with pytest.raises(ValueError, match="w_count"):
        rolling_window_agg(rd.from_arrow(t), "k", "ts", "v",
                           np.timedelta64(1, "s"), carry=["w_count"])
    with pytest.raises(ValueError, match="repeat"):
        rolling_window_agg(rd.from_arrow(t), "k", "ts", "v",
                           np.timedelta64(1, "s"), carry=["k"])


def test_range_join_agg_null_right_ts_excluded(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import range_join_agg
    from anomalydetection_ray.pipelines.queries import as_table

    left = pa.table({
        "k": pa.array(["a", "a"], type=pa.string()),
        "lts": pa.array([_ts5(0), _ts5(10)], type=pa.timestamp("us")),
    })
    right = pa.table({
        "k": pa.array(["a", "a", "a"], type=pa.string()),
        "rts": pa.array([_ts5(None), _ts5(1), _ts5(11)], type=pa.timestamp("us")),
        "val": pa.array([100.0, 5.0, 7.0], type=pa.float64()),
    })
    out = as_table(
        range_join_agg(rd.from_arrow(left), rd.from_arrow(right), "k", "lts", "rts",
                       np.timedelta64(0, "s"), np.timedelta64(2, "s"), right_value="val")
    ).to_pandas().sort_values("lts").reset_index(drop=True)
    # SQL BETWEEN is never true for a NULL rts: the 100.0 row matches
    # nothing (and previously corrupted BOTH rows' counts via NaN order)
    assert out["rj_count"].tolist() == [1, 1]
    np.testing.assert_allclose(out["rj_sum"].to_numpy(), [5.0, 7.0])


def test_asof_join_can_attach_right_ts5(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import asof_join
    from anomalydetection_ray.pipelines.queries import as_table

    left = pa.table({
        "k": pa.array(["a"], type=pa.string()),
        "lts": pa.array([_ts5(5)], type=pa.timestamp("us")),
    })
    right = pa.table({
        "k": pa.array(["a", "a"], type=pa.string()),
        "rts": pa.array([_ts5(1), _ts5(4)], type=pa.timestamp("us")),
        "price": pa.array([10.0, 20.0], type=pa.float64()),
    })
    out = as_table(
        asof_join(rd.from_arrow(left), rd.from_arrow(right), "k", "lts", "rts",
                  right_values=["rts", "price"])
    ).to_pandas()
    # right_values may name right_ts itself (previously a duplicate-
    # select crash): the matched right timestamp rides along
    assert out["price"].tolist() == [20.0]
    assert out["rts"].tolist() == [_ts5(4)]


def test_sessionize_null_ts_matches_sql_oracle(ray_session):
    """Round-5 review: null-ts rows used to claim the LEADING session ids
    (one phantom singleton session each, real sessions renumbered). The
    oracle's CASE semantics (DuckDB-verified): nulls sort last, the first
    null-ts row joins the last real session (null gap → no break), each
    subsequent null row starts its own."""
    import datetime

    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import sessionize
    from anomalydetection_ray.pipelines.queries import as_table

    ts = pa.array([None, None,
                   np.datetime64("2024-01-01T10:00:00", "us"),
                   np.datetime64("2024-01-01T10:10:00", "us"),
                   np.datetime64("2024-01-01T12:00:00", "us"), None],
                  type=pa.timestamp("us"))
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 1, 2], type=pa.int64()),
        "ts": ts,
        "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0]),
    })
    out = as_table(sessionize(
        rd.from_arrow(t).repartition(2), "user_id", "ts",
        datetime.timedelta(minutes=30), value_col="value",
    )).to_pandas().sort_values(["user_id", "session_id"]).reset_index(drop=True)
    # DuckDB on the same VALUES (recorded in the fix commit):
    assert out["session_id"].tolist() == [1, 2, 3, 1]
    assert out["n_events"].tolist() == [2, 2, 1, 1]
    assert out["sum_value"].tolist() == [7.0, 6.0, 2.0, 9.0]
    # s2 = the 12:00 event + the first null row; bounds ignore the null
    assert str(out.loc[1, "session_start"]) == "2024-01-01 12:00:00"
    assert str(out.loc[1, "session_end"]) == "2024-01-01 12:00:00"


def test_asof_join_kind_mismatch_raises(ray_session):
    """Round-5 review: a numeric-left / temporal-right ts pairing used to
    cast silently, comparing raw epoch integers against rescaled temporal
    values — must raise up front instead."""
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import asof_join

    left = pa.table(
        {"k": pa.array([1], pa.int64()), "lts": pa.array([1_000_000], pa.int64())}
    )
    right = pa.table(
        {
            "k": pa.array([1], pa.int64()),
            "rts": pa.array([np.datetime64("2024-01-01", "ns")], pa.timestamp("ns")),
            "v": pa.array([1.0]),
        }
    )
    with pytest.raises(ValueError, match="disagree in kind"):
        asof_join(rd.from_arrow(left), rd.from_arrow(right), "k", "lts", "rts", ["v"])
