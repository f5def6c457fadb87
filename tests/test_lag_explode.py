"""lag_lead and window_rank (functions/temporal.py) and with_global_rank
(functions/shuffle.py): SQL-window parity via DuckDB on the same
in-memory table, null edges, and block-layout invariance; and a PCA fitted
from streaming_moments (functions/vector.py) against numpy."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest


def _events_table() -> pa.Table:
    rng = np.random.default_rng(7)
    n = 400
    return pa.table(
        {
            "k": pa.array(rng.integers(0, 12, n), type=pa.int64()),
            "t": pa.array(rng.choice(1000, n, replace=False), type=pa.int64()),
            "v": pa.array(np.round(rng.normal(size=n), 4), type=pa.float64()),
        }
    )


def _sorted_pd(tb: pa.Table):
    df = tb.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("nblocks", [1, 7])
def test_lag_lead_duckdb_parity(ray_session, nblocks):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import lag_lead
    from anomalydetection_ray.pipelines.queries import as_table

    tb = _events_table()
    ds = rd.from_arrow(tb).repartition(nblocks)
    got = as_table(lag_lead(ds, "k", "t", ["v"], lags=(1, 2), leads=(1,)))

    con = duckdb.connect()
    con.register("e", tb)
    want = con.execute(
        """
        SELECT k, t, v,
               LAG(v, 1)  OVER w AS v_lag1,
               LAG(v, 2)  OVER w AS v_lag2,
               LEAD(v, 1) OVER w AS v_lead1
        FROM e WINDOW w AS (PARTITION BY k ORDER BY t)
        """
    ).arrow()
    got_df, want_df = _sorted_pd(got), _sorted_pd(want)
    assert list(got_df.columns) == ["k", "t", "v", "v_lag1", "v_lag2", "v_lead1"]
    import pandas.testing as pdt

    pdt.assert_frame_equal(got_df, want_df, check_dtype=False)


@pytest.mark.parametrize("nblocks", [1, 7])
def test_window_rank_duckdb_parity(ray_session, nblocks):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import window_rank
    from anomalydetection_ray.pipelines.queries import as_table

    # deliberate value ties (integers from a tiny range) so RANK and
    # DENSE_RANK genuinely diverge from ROW_NUMBER
    rng = np.random.default_rng(11)
    n = 500
    tb = pa.table(
        {
            "k": pa.array(rng.integers(0, 9, n), type=pa.int64()),
            "t": pa.array(rng.choice(2000, n, replace=False), type=pa.int64()),
            "v": pa.array(rng.integers(0, 6, n), type=pa.int64()),
        }
    )
    ds = rd.from_arrow(tb).repartition(nblocks)
    got = as_table(
        window_rank(ds, "k", ["v"], kinds=("row_number", "rank", "dense_rank"), carry=["t"])
    )

    con = duckdb.connect()
    con.register("e", tb)
    want = con.execute(
        """
        SELECT k, v, t,
               ROW_NUMBER() OVER (PARTITION BY k ORDER BY v, t) AS row_number,
               RANK()       OVER (PARTITION BY k ORDER BY v)    AS rank,
               DENSE_RANK() OVER (PARTITION BY k ORDER BY v)    AS dense_rank
        FROM e
        """
    ).arrow()
    got_df, want_df = _sorted_pd(got), _sorted_pd(want)
    assert list(got_df.columns) == ["k", "v", "t", "row_number", "rank", "dense_rank"]
    import pandas.testing as pdt

    pdt.assert_frame_equal(got_df, want_df[got_df.columns], check_dtype=False)


def test_window_rank_multi_order_and_guards(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import window_rank
    from anomalydetection_ray.pipelines.queries import as_table

    tb = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
            "a": pa.array([5, 5, 3, 1, 1], type=pa.int64()),
            "b": pa.array([1, 2, 2, 0, 0], type=pa.int64()),
        }
    )
    got = _sorted_pd(
        as_table(window_rank(rd.from_arrow(tb), "k", ["a", "b"], kinds=("rank", "dense_rank")))
    )
    con = duckdb.connect()
    con.register("e", tb)
    want = _sorted_pd(
        con.execute(
            """SELECT k, a, b, RANK() OVER (PARTITION BY k ORDER BY a, b) AS rank,
                      DENSE_RANK() OVER (PARTITION BY k ORDER BY a, b) AS dense_rank FROM e"""
        ).arrow()
    )
    import pandas.testing as pdt

    pdt.assert_frame_equal(got, want[got.columns], check_dtype=False)

    with pytest.raises(ValueError, match="unknown rank kinds"):
        window_rank(rd.from_arrow(tb), "k", ["a"], kinds=("median_rank",))
    tb2 = pa.table({"k": [1], "a": [1], "rank": [9]})
    with pytest.raises(ValueError, match="collide"):
        window_rank(rd.from_arrow(tb2), "k", ["a"], kinds=("rank",), carry=["rank"])


def test_lag_lead_collision_guard(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import lag_lead

    tb = pa.table({"k": [1], "t": [1], "v_lag1": [0.0], "v": [1.0]})
    with pytest.raises(ValueError, match="collide"):
        lag_lead(rd.from_arrow(tb), "k", "t", ["v"], lags=(1,), carry=["v_lag1"])


@pytest.mark.parametrize("k", [1, 3, 7])
def test_window_rank_distribution_kinds_and_ntile(ray_session, k):
    import ray.data as rd

    from anomalydetection_ray.functions.temporal import window_rank
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(17)
    n = 300
    tb = pa.table(
        {
            "k": pa.array(rng.integers(0, 7, n), type=pa.int64()),
            "t": pa.array(rng.choice(5000, n, replace=False), type=pa.int64()),
            "v": pa.array(rng.integers(0, 5, n), type=pa.int64()),
        }
    )
    got = _sorted_pd(
        as_table(
            window_rank(
                rd.from_arrow(tb).repartition(4), "k", ["v"],
                kinds=("percent_rank", "cume_dist"), carry=["t"], ntile=k,
            )
        )
    )
    con = duckdb.connect()
    con.register("e", tb)
    want = _sorted_pd(
        con.execute(
            f"""
            SELECT k, v, t,
                   PERCENT_RANK() OVER w AS percent_rank,
                   CUME_DIST()    OVER w AS cume_dist,
                   NTILE({k}) OVER (PARTITION BY k ORDER BY v, t) AS ntile
            FROM e WINDOW w AS (PARTITION BY k ORDER BY v)
            """
        ).arrow()
    )
    import pandas.testing as pdt

    pdt.assert_frame_equal(got, want[got.columns], check_dtype=False)

    with pytest.raises(ValueError, match="ntile"):
        window_rank(rd.from_arrow(tb), "k", ["v"], ntile=0)


def test_with_global_rank_duckdb_parity_and_plans(ray_session, monkeypatch):
    """with_global_rank: RANK/DENSE_RANK/PERCENT_RANK/CUME_DIST over the
    whole dataset match DuckDB's null-filtered window (ties included),
    identically on the broadcast plan and the forced shuffle-join plan,
    at any block layout; null values keep null ranks."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions import shuffle
    from anomalydetection_ray.functions.shuffle import with_global_rank

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"id": range(400), "v": np.round(rng.normal(size=400), 2)})
    df.loc[5, "v"] = None

    want = duckdb.sql(
        """
        SELECT id, RANK() OVER w AS rank, DENSE_RANK() OVER w AS dense_rank,
               PERCENT_RANK() OVER w AS percent_rank, CUME_DIST() OVER w AS cume_dist
        FROM df WHERE v IS NOT NULL WINDOW w AS (ORDER BY v) ORDER BY id
        """
    ).df()

    for nb, max_bytes in ((1, 64 << 20), (6, 64 << 20), (6, -1)):
        with monkeypatch.context() as m:
            m.setattr(shuffle, "GLOBAL_RANK_MAX_BYTES", max_bytes)
            out = with_global_rank(
                rd.from_pandas(df).repartition(nb),
                "v",
                kinds=("rank", "dense_rank", "percent_rank", "cume_dist"),
            )
            got = (
                pa.concat_tables(out.iter_batches(batch_format="pyarrow", batch_size=None))
                .to_pandas()
                .sort_values("id")
                .reset_index(drop=True)
            )
        gm = got[got["v"].notna()].reset_index(drop=True)
        for c in ("rank", "dense_rank"):
            assert (gm[c].astype("int64") == want[c].astype("int64")).all(), (nb, max_bytes, c)
        for c in ("percent_rank", "cume_dist"):
            assert np.allclose(gm[c], want[c]), (nb, max_bytes, c)
        assert got.loc[got["v"].isna(), "rank"].isna().all()

    # empty input
    out = with_global_rank(rd.from_pandas(df.iloc[:0]), "v", kinds=("rank",))
    assert sum(t.num_rows for t in out.iter_batches(batch_format="pyarrow", batch_size=None)) == 0


@pytest.mark.parametrize("nblocks", [1, 6])
def test_distributed_pca_matches_numpy(ray_session, nblocks):
    """PCA fitted from the streaming ``(n, Σx, X'X)`` partials matches
    numpy's PCA on the gathered matrix at any block layout."""
    import ray.data as rd

    from anomalydetection_ray.functions.vector import streaming_moments

    rng = np.random.default_rng(31)
    n, d, k = 400, 8, 3
    # anisotropic data so the top components are well-separated
    x = rng.normal(size=(n, d)) * np.array([10, 8, 6, 1, 1, 1, 0.5, 0.2])
    tb = pa.table(
        {
            "vec_id": pa.array(range(n), type=pa.int64()),
            "embedding": pa.array(x.tolist(), type=pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(tb).repartition(nblocks)
    cnt, s, xx = streaming_moments(ds, "embedding")
    assert cnt == n
    mean = s / cnt
    _, evecs = np.linalg.eigh(xx / cnt - np.outer(mean, mean))
    w = evecs[:, ::-1][:, :k]
    w = w * np.sign(w[np.abs(w).argmax(axis=0), np.arange(k)])

    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=0, atol=1e-12)
    # reference PCA on the gathered matrix
    xc = x - x.mean(axis=0)
    evals, evecs = np.linalg.eigh(xc.T @ xc / n)
    wref = evecs[:, ::-1][:, :k]
    flip = np.sign(wref[np.abs(wref).argmax(axis=0), np.arange(k)])
    wref = wref * flip
    np.testing.assert_allclose(w, wref, rtol=0, atol=1e-9)
