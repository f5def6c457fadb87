"""Degenerate-input hardening for the validation suite — the shapes a
100 TB run inevitably contains (empty partitions, single rows, pure-dup
shards, heavy unicode, null-riddled keys) must flow through BOTH suite
runners without crashing and with correct verdicts."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

COLS = ["repo", "path", "commit", "lang", "content"]


def _mk(tmp_path, name, rows):
    d = tmp_path / name
    d.mkdir()
    t = pa.table({c: pa.array([r[i] for r in rows], type=pa.string()) for i, c in enumerate(COLS)})
    pq.write_table(t, str(d / "part-0.parquet"))
    return str(d)


@pytest.mark.parametrize("sharded", [False, True])
def test_empty_corpus(ray_session, tmp_path, sharded):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite, run_suite_sharded

    d = _mk(tmp_path, "empty", [])
    runner = run_suite_sharded if sharded else run_suite
    res = runner(d, str(tmp_path / f"out{sharded}"), SuiteConfig(), resume=False)
    assert res.passed and len(res.verdicts) == 0
    for v in res.violations.values():
        assert v.num_rows == 0


@pytest.mark.parametrize("sharded", [False, True])
def test_all_duplicate_corpus(ray_session, tmp_path, sharded):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite, run_suite_sharded

    d = _mk(tmp_path, "dups", [("r", "p", "c", "py", "x")] * 40)
    runner = run_suite_sharded if sharded else run_suite
    res = runner(d, str(tmp_path / f"out{sharded}"), SuiteConfig(), resume=False)
    assert not res.passed
    assert res.violations["uniqueness"].num_rows == 40  # every copy reported


def test_unicode_and_single_row(ray_session, tmp_path):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    uni = _mk(tmp_path, "uni", [("r", f"p{i}", "c", "zh", "漢字テキスト🚀" * 40) for i in range(15)])
    res = run_suite(uni, str(tmp_path / "out_u"), SuiteConfig(), resume=False)
    assert res.passed
    one = _mk(tmp_path, "one", [("r", "p", "c", "py", "hello")])
    res1 = run_suite(one, str(tmp_path / "out_1"), SuiteConfig(), resume=False)
    assert res1.passed


def test_null_riddled_rows(ray_session, tmp_path):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    rows = [("r", None, "c", None, None), (None, "p", "c", None, ""), ("r2", "p2", None, "py", "ok")]
    d = _mk(tmp_path, "nulls", rows)
    res = run_suite(d, str(tmp_path / "out_n"), SuiteConfig(max_null_rate=1.0), resume=False)
    # null lang + empty/null content rows are row-rule violations; no crash
    assert not res.passed
    assert res.violations["rowrules"].num_rows >= 2


def test_operators_on_empty_inputs(ray_session):
    """Every distributed operator must return an empty result — not
    crash — on a zero-row input (the shape of a fully-filtered stream)."""
    import datetime

    import ray.data as rd

    from anomalydetection_ray.dedup import exact_dedup, neardup_pairs
    from anomalydetection_ray.functions.setops import intersect_distinct
    from anomalydetection_ray.functions.shuffle import grouped_exact_quantiles, grouped_topk
    from anomalydetection_ray.functions.split import stratified_split
    from anomalydetection_ray.functions.temporal import asof_join, rolling_window_agg, sessionize
    from anomalydetection_ray.pipelines.queries import as_table
    from anomalydetection_ray.sources.miner import mine_templates

    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array([], type=pa.int64()), "text": pa.array([], type=pa.string())})
    )
    ev = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([], type=pa.int64()),
                "t": pa.array([], type=pa.timestamp("us")),
                "v": pa.array([], type=pa.float64()),
            }
        )
    )
    assert as_table(exact_dedup(docs, "doc_id", "text")).num_rows == 0
    assert neardup_pairs(docs, "doc_id", "text", 0.8).num_rows == 0
    assert mine_templates(docs, "text").num_rows == 0
    assert as_table(sessionize(ev, "k", "t", datetime.timedelta(minutes=5), "v")).num_rows == 0
    assert as_table(rolling_window_agg(ev, "k", "t", "v", datetime.timedelta(minutes=5))).num_rows == 0
    # self-asof-join must rename the right value column: 'v' on both
    # sides would emit a duplicate output field (now rejected up front)
    ev_r = rd.from_arrow(
        pa.table({
            "k": pa.array([], type=pa.int64()),
            "t": pa.array([], type=pa.timestamp("us")),
            "w": pa.array([], type=pa.float64()),
        })
    )
    assert as_table(
        asof_join(ev, ev_r, key="k", left_ts="t", right_ts="t", right_values=["w"])
    ).num_rows == 0
    import pytest as _pytest

    with _pytest.raises(ValueError, match="collide"):
        asof_join(ev, ev, key="k", left_ts="t", right_ts="t", right_values=["v"])
    assert as_table(intersect_distinct(ev, ev, ["k"])).num_rows == 0
    assert as_table(grouped_exact_quantiles(ev, ["k"], "v", [0.5])).num_rows == 0
    assert as_table(grouped_topk(ev, ["k"], "v", 3)).num_rows == 0
    assert as_table(stratified_split(ev, "k", [0.5, 0.5])[0]).num_rows == 0

    # round-4 additions
    from anomalydetection_ray.functions.shuffle import rollup_agg
    from anomalydetection_ray.functions.split import grouped_fixed_count_sample
    from anomalydetection_ray.functions.temporal import range_join_agg, window_rank
    from anomalydetection_ray.functions.text import tfidf_top_terms

    assert as_table(
        range_join_agg(ev, ev, key="k", left_ts="t", right_ts="t",
                       lo=datetime.timedelta(0), hi=datetime.timedelta(minutes=5), right_value="v")
    ).num_rows == 0
    assert as_table(window_rank(ev, "k", ["v"], kinds=("rank",), ntile=4)).num_rows == 0
    assert as_table(grouped_fixed_count_sample(ev, key="k", on="v", n=5)).num_rows == 0
    assert tfidf_top_terms(docs, n_docs=0, k=5).num_rows == 0
    assert len(rollup_agg(ev, ["k"], {"cnt": (None, "count")})) == 0


def test_local_group_map_null_keys(ray_session):
    """Ray's sort rejects null keys outright (TypeError in boundary
    sampling), which the old hash shuffle tolerated — the null-coalesced
    sort-key path must keep null-key groups whole and distinct from the
    fill value's real group ('' here)."""
    import numpy as np
    import pyarrow as pa
    import polars as pl
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import grouped_sum, local_group_map

    tables = [
        pa.table({"k": ["a", None, "", "b"], "v": [1, 2, 3, 4]}),
        pa.table({"k": [None, "", "a", None], "v": [5, 6, 7, 8]}),
    ]
    ds = rd.from_arrow(tables)
    out = grouped_sum(ds, ["k"], "v", "s").materialize()
    got = {r["k"]: r["s"] for b in out.iter_batches(batch_format="pyarrow", batch_size=None) for r in b.to_pylist()}
    assert got == {"a": 8, None: 15, "": 9, "b": 4}

    # nullable int keys through the generic path
    ds2 = rd.from_arrow([pa.table({"k": pa.array([1, None, 0], type=pa.int64()), "v": [10, 20, 30]}),
                         pa.table({"k": pa.array([None, 1], type=pa.int64()), "v": [40, 50]})])
    out2 = grouped_sum(ds2, ["k"], "v", "s").materialize()
    got2 = {r["k"]: r["s"] for b in out2.iter_batches(batch_format="pyarrow", batch_size=None) for r in b.to_pylist()}
    assert got2 == {1: 60, None: 60, 0: 30}


def test_rollup_agg_duckdb_parity(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import rollup_agg

    rng = np.random.default_rng(3)
    n = 5000
    t = pa.table(
        {
            "a": pa.array(rng.choice(["x", "y", "z"], n)),
            "b": pa.array(rng.integers(0, 4, n), type=pa.int64()),
            "v": pa.array(rng.normal(50, 20, n)),
        }
    )
    got = rollup_agg(
        rd.from_arrow(t).repartition(6),
        ["a", "b"],
        {
            "cnt": (None, "count"),
            "s": ("v", "sum"),
            "m": ("v", "mean"),
            "sd": ("v", "std"),
            "lo": ("v", "min"),
            "hi": ("v", "max"),
        },
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        """
        SELECT a, b, COUNT(*) AS cnt, SUM(v) AS s, AVG(v) AS m, STDDEV(v) AS sd,
               MIN(v) AS lo, MAX(v) AS hi
        FROM t GROUP BY ROLLUP(a, b)
        """
    ).df()

    def canon(df):
        df = df.copy()
        df["a"] = df["a"].fillna("\x00")
        df["b"] = df["b"].fillna(-1).astype("int64")
        return df.sort_values(["a", "b"]).reset_index(drop=True)

    g, w = canon(got), canon(want)
    # 3 levels: 12 (a,b) + 3 (a) + 1 total
    assert len(g) == len(w) == 16
    pd.testing.assert_frame_equal(
        g[["a", "b", "cnt"]], w[["a", "b", "cnt"]], check_dtype=False
    )
    for c in ("s", "m", "sd", "lo", "hi"):
        np.testing.assert_allclose(g[c].to_numpy(), w[c].to_numpy(), rtol=1e-12)


def test_corr_covar_null_masking_duckdb_parity(ray_session):
    """SQL CORR/COVAR_SAMP drop a row when EITHER side is null — the
    partial pass must mask to pairwise-complete rows, not take
    independent per-column sums."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import driver_grouped_agg

    rng = np.random.default_rng(7)
    n = 4000
    x = rng.normal(100, 15, n)
    y = 3.0 * x + rng.normal(0, 25, n)
    xm = rng.random(n) < 0.15  # nulls on x only
    ym = rng.random(n) < 0.15  # nulls on y only (overlapping sets)
    t = pa.table(
        {
            "g": pa.array(rng.choice(["a", "b", "c"], n)),
            "x": pa.array(np.where(xm, np.nan, x)).cast(pa.float64()),
            "y": pa.array(np.where(ym, np.nan, y)).cast(pa.float64()),
        }
    )
    # arrow NaN != null: rebuild with real nulls
    t = pa.table(
        {
            "g": t["g"],
            "x": pa.array([None if m else v for m, v in zip(xm, x)], type=pa.float64()),
            "y": pa.array([None if m else v for m, v in zip(ym, y)], type=pa.float64()),
        }
    )
    got = driver_grouped_agg(
        rd.from_arrow(t).repartition(5),
        ["g"],
        {
            "r": (("x", "y"), "corr"),
            "cv": (("x", "y"), "covar"),
            "n": (None, "count"),
        },
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT g, corr(x, y) AS r, covar_samp(x, y) AS cv, COUNT(*) AS n FROM t GROUP BY g"
    ).df()
    g = got.sort_values("g").reset_index(drop=True)
    w = want.sort_values("g").reset_index(drop=True)
    assert list(g["g"]) == list(w["g"])
    np.testing.assert_allclose(g["r"].to_numpy(), w["r"].to_numpy(), rtol=1e-10)
    np.testing.assert_allclose(g["cv"].to_numpy(), w["cv"].to_numpy(), rtol=1e-10)
    assert list(g["n"].astype(int)) == list(w["n"].astype(int))


def test_grouped_mad_duckdb_parity(ray_session):
    """MAD inside the grouped-quantile block pass matches DuckDB mad()
    (interpolated medians, even and odd group sizes, null values
    dropped)."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import grouped_exact_quantiles

    rng = np.random.default_rng(11)
    n = 3001
    vals = rng.normal(10, 4, n)
    nullmask = rng.random(n) < 0.1
    t = pa.table(
        {
            "g": pa.array(rng.choice(["p", "q", "r", "s"], n)),
            "v": pa.array([None if m else float(v) for m, v in zip(nullmask, vals)], type=pa.float64()),
        }
    )
    out = grouped_exact_quantiles(
        rd.from_arrow(t).repartition(7), ["g"], "v", [0.5], mad_col="mad"
    )
    got = {
        r["g"]: (r["q50"], r["mad"])
        for b in out.iter_batches(batch_format="pyarrow", batch_size=None)
        for r in b.to_pylist()
    }
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT g, quantile_cont(v, 0.5) AS q50, mad(v) AS mad FROM t GROUP BY g"
    ).df()
    assert set(got) == set(want["g"])
    for _, row in want.iterrows():
        q, m = got[row["g"]]
        np.testing.assert_allclose(q, row["q50"], rtol=1e-12)
        np.testing.assert_allclose(m, row["mad"], rtol=1e-12)


def test_cube_grouping_sets_duckdb_parity(ray_session):
    """Arbitrary GROUPING SETS from one scan match DuckDB row-for-row
    (set emission order is normalized away by sorting)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import grouping_sets_agg

    rng = np.random.default_rng(5)
    n = 4000
    t = pa.table(
        {
            "a": pa.array(rng.choice(["x", "y"], n)),
            "b": pa.array(rng.integers(0, 3, n), type=pa.int64()),
            "v": pa.array(rng.normal(7, 3, n)),
        }
    )
    con = duckdb.connect()
    con.register("t", t)

    def canon(df):
        df = df.copy()
        df["a"] = df["a"].fillna("\x00")
        df["b"] = pd.to_numeric(df["b"]).fillna(-1).astype("int64")
        return df.sort_values(["a", "b", "cnt"]).reset_index(drop=True)

    # arbitrary (non-prefix) set: GROUP BY GROUPING SETS ((b), ())
    raw2 = grouping_sets_agg(
        rd.from_arrow(t).repartition(5),
        ["a", "b"],
        [("b",), ()],
        {"cnt": (None, "count"), "s": ("v", "sum"), "m": ("v", "mean")},
    )
    assert raw2["a"].isna().all()  # `a` is in no set: NULL everywhere
    got2 = canon(raw2)
    want2 = canon(
        con.execute(
            "SELECT b, COUNT(*) AS cnt, SUM(v) AS s, AVG(v) AS m FROM t GROUP BY GROUPING SETS ((b), ())"
        ).df()
        .assign(a="\x00")
    )
    assert len(got2) == len(want2) == 4
    pd.testing.assert_frame_equal(got2[["b", "cnt"]], want2[["b", "cnt"]], check_dtype=False)
    np.testing.assert_allclose(got2["s"].to_numpy(), want2["s"].to_numpy(), rtol=1e-12)


def test_regr_ops_duckdb_parity_and_asymmetry(ray_session):
    """regr_slope/intercept/r2 spec ops: (y, x) SQL argument order (the
    fit is ASYMMETRIC — regressing y on x != x on y), pairwise-complete
    null masking, DuckDB parity at any layout."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import driver_grouped_agg

    rng = np.random.default_rng(11)
    n = 3000
    x = rng.normal(10, 2, n)
    y = 4.0 * x - 7.0 + rng.normal(0, 3, n)
    xm = rng.random(n) < 0.1
    ym = rng.random(n) < 0.1
    t = pa.table(
        {
            "g": pa.array(rng.choice(["a", "b"], n)),
            "x": pa.array([None if m else v for m, v in zip(xm, x)], type=pa.float64()),
            "y": pa.array([None if m else v for m, v in zip(ym, y)], type=pa.float64()),
        }
    )
    for nb in (1, 6):
        got = driver_grouped_agg(
            rd.from_arrow(t).repartition(nb),
            ["g"],
            {
                "sl": (("y", "x"), "regr_slope"),
                "ic": (("y", "x"), "regr_intercept"),
                "r2": (("y", "x"), "regr_r2"),
                "sl_rev": (("x", "y"), "regr_slope"),
            },
        ).sort_values("g").reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", t)
        want = con.execute(
            """SELECT g, regr_slope(y, x) AS sl, regr_intercept(y, x) AS ic,
                      regr_r2(y, x) AS r2, regr_slope(x, y) AS sl_rev
               FROM t GROUP BY g ORDER BY g"""
        ).df()
        for c in ("sl", "ic", "r2", "sl_rev"):
            np.testing.assert_allclose(got[c].to_numpy(), want[c].to_numpy(), rtol=1e-10)
        # asymmetry really exercised: y-on-x slope ~4, x-on-y ~1/4-ish
        assert abs(got["sl"][0] - 4.0) < 0.3 and got["sl_rev"][0] < 1.0


def test_round4f_ops_empty_and_degenerate_inputs(ray_session):
    """Round-4f operators on empty/degenerate inputs: streaming ops emit
    empty tables with the right schema; fit-based scorers raise loudly."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.anomaly import isolation_forest_scores, mahalanobis_scores
    from anomalydetection_ray.functions.shuffle import grouped_kll_quantiles, robust_outlier_flags
    from anomalydetection_ray.functions.text import decontaminate
    from anomalydetection_ray.pipelines.queries import as_table

    empty_kv = rd.from_arrow(pa.table({"g": pa.array([], type=pa.string()), "v": pa.array([], type=pa.float64())}))
    # (schema degrades to no-columns on fully-empty shuffles repo-wide —
    # the existing exact-quantile edge test asserts rows only; same here)
    out = as_table(grouped_kll_quantiles(empty_kv, ["g"], "v", [0.5]))
    assert out.num_rows == 0

    out2 = as_table(robust_outlier_flags(empty_kv, ["g"], "v"))
    assert out2.num_rows == 0

    docs = rd.from_arrow(pa.table({"doc_id": pa.array([1], type=pa.int64()), "text": ["a b c"]}))
    empty_docs = rd.from_arrow(pa.table({"doc_id": pa.array([], type=pa.int64()), "text": pa.array([], type=pa.string())}))
    # empty bench -> nothing contaminated; empty corpus -> empty out
    assert decontaminate(docs, "text", empty_docs, n=2).to_pandas()["doc_id"].tolist() == [1]
    assert len(decontaminate(empty_docs, "text", docs, n=2).to_pandas()) == 0

    empty_vec = rd.from_arrow(
        pa.table({"vec_id": pa.array([], type=pa.int64()), "embedding": pa.array([], type=pa.list_(pa.float64()))})
    )
    import pytest as _pytest

    with _pytest.raises(ValueError):
        mahalanobis_scores(empty_vec, "embedding")
    with _pytest.raises(ValueError):
        isolation_forest_scores(empty_vec, "vec_id", "embedding")


def test_round4g_ops_empty_and_degenerate_inputs(ray_session, tmp_path):
    """Round-4g operators on empty/degenerate inputs: streaming ops emit
    empty results; allocation math degrades cleanly; the sink writes a
    valid empty layout."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.split import (
        grouped_quota_sample,
        rebalance_mixture,
    )
    from anomalydetection_ray.functions.text import (
        dsir_weights,
        normalize_text_batch,
    )
    from anomalydetection_ray.sources.writer import write_partitioned

    empty_docs = rd.from_arrow(
        pa.table({"doc_id": pa.array([], type=pa.int64()), "text": pa.array([], type=pa.string())})
    )
    one_doc = rd.from_arrow(pa.table({"doc_id": pa.array([1], type=pa.int64()), "text": ["a b c"]}))

    # DSIR with an empty TARGET: the target model is uniform (smoothing)
    # while raw has mass on the doc's buckets, so the score is a finite
    # negative log-ratio — no crash, no nan
    out = dsir_weights(one_doc, "text", empty_docs, n_buckets=64).to_pandas()
    assert len(out) == 1 and np.isfinite(out["dsir_logratio"].iloc[0])
    assert out["dsir_logratio"].iloc[0] < 0
    assert len(dsir_weights(empty_docs, "text", one_doc, n_buckets=64).to_pandas()) == 0

    # normalization kernels on empty tables
    et = pa.table({"text": pa.array([], type=pa.string())})
    assert normalize_text_batch(et).num_rows == 0

    # quota sampling: empty input, empty quotas
    empty_kv = rd.from_arrow(
        pa.table({"lang": pa.array([], type=pa.string()), "doc_id": pa.array([], type=pa.int64())})
    )
    assert len(grouped_quota_sample(empty_kv, "lang", "doc_id", {"en": 3}).to_pandas()) == 0
    one_kv = rd.from_arrow(pa.table({"lang": ["en"], "doc_id": pa.array([1], type=pa.int64())}))
    assert len(grouped_quota_sample(one_kv, "lang", "doc_id", {}).to_pandas()) == 0
    # mixture over an empty corpus: quotas all zero (availability is zero)
    _, alloc = rebalance_mixture(empty_kv, "lang", "doc_id", {"en": 1.0}, total_n=5)
    assert alloc == {"en": 0}

    # partitioned sink over an empty dataset: no partitions, empty summary
    out_dir = str(tmp_path / "empty_sink")
    s = write_partitioned(empty_kv, out_dir, "lang")
    assert len(s) == 0
    import os

    assert os.path.isdir(out_dir) and not any(os.path.isdir(os.path.join(out_dir, d)) for d in os.listdir(out_dir))


def test_matrix_kernels_survive_empty_blocks(ray_session):
    """A zero-row block (empty parquet file / filter that drains a block)
    must flow through every matmul consumer: the (0, 0) matrix from an
    empty variable-size list column used to crash topk/moments."""
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.dedup.neardup import embedding_neardup_pairs
    from anomalydetection_ray.functions.similarity import (
        ivf_topk_cosine,
        topk_cosine,
    )
    from anomalydetection_ray.functions.vector import streaming_moments

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(60, 8))
    tbl = pa.table({
        "vec_id": pa.array(range(60), type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs], type=pa.list_(pa.float32())),
    })
    # layout with a genuinely EMPTY block in the middle
    ds = rd.from_arrow([tbl.slice(0, 30), tbl.slice(0, 0), tbl.slice(30, 30)])
    q = vecs[:2]

    got = topk_cosine(ds, "vec_id", "embedding", q, k=5)
    want = topk_cosine(rd.from_arrow(tbl), "vec_id", "embedding", q, k=5)
    assert got.equals(want)

    n, s, xx = streaming_moments(ds, "embedding")
    assert n == 60 and np.allclose(s, vecs.sum(axis=0)) and np.allclose(xx, vecs.T @ vecs)

    ivf = ivf_topk_cosine(ds, "vec_id", "embedding", q, k=5, n_cells=4, n_probe=4)
    assert len(ivf) == 10

    pairs = embedding_neardup_pairs(ds, "vec_id", "embedding", dim=8, threshold=0.99)
    assert pairs.num_rows == 0  # random gaussians: no near-dups, no crash


def test_list_column_to_matrix_rejects_nulls():
    """Null embedding rows must fail LOUDLY on both list layouts — the
    fixed-size path used to read undefined buffer bytes as NaN values."""
    import pytest as _pytest

    from anomalydetection_ray.functions.vector import list_column_to_matrix

    var = pa.array([[1.0, 2.0], None, [5.0, 6.0]], type=pa.list_(pa.float64()))
    fixed = pa.array([[1.0, 2.0], None, [5.0, 6.0]], type=pa.list_(pa.float64(), 2))
    for col in (var, fixed):
        with _pytest.raises(ValueError, match="null embedding"):
            list_column_to_matrix(col)


def test_driver_grouped_agg_std_no_int64_overflow(ray_session):
    """Int64 ** 2 stays Int64 in polars and silently wraps: a group whose
    SUM exceeds ~3.04e9 used to get garbage std from the final merge (the
    partial pass cast sumsq but the final expr squared the raw sum).
    Also: n == 1 groups return NULL like SQL stddev_samp, not a 0/0 NaN."""
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import driver_grouped_agg

    n = 40_000
    tb = pa.table({
        "g": pa.array(["a"] * n + ["solo"]),
        "x": pa.array(np.concatenate([np.full(n, 100_000, dtype=np.int64), [7]])),
    })
    out = driver_grouped_agg(rd.from_arrow(tb).repartition(4), ["g"], {"vstd": ("x", "std")}).set_index("g")
    assert abs(out.loc["a", "vstd"]) < 1e-6  # constant column: std 0, not wrapped garbage
    assert out.loc["solo", "vstd"] is None or out.loc["solo", "vstd"] != out.loc["solo", "vstd"]


def test_with_global_rank_nan_rows_null_on_both_plans(ray_session, monkeypatch):
    """Float NaN rows keep NULL ranks on BOTH cost-gated plans (polars
    joins NaN == NaN, the broadcast lookup doesn't — the plans used to
    disagree)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions import shuffle
    from anomalydetection_ray.functions.shuffle import with_global_rank

    df = pd.DataFrame({"id": range(10), "v": [1.0, 2.0, float("nan"), 3.0, 1.0,
                                              float("nan"), 4.0, 2.0, 5.0, 6.0]})
    outs = []
    for max_bytes in (64 << 20, -1):  # broadcast plan, forced join plan
        monkeypatch.setattr(shuffle, "GLOBAL_RANK_MAX_BYTES", max_bytes)
        out = (
            pa.concat_tables(
                with_global_rank(rd.from_pandas(df).repartition(3), "v",
                                 kinds=("rank", "cume_dist"))
                .iter_batches(batch_format="pyarrow", batch_size=None)
            ).to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert out.loc[[2, 5], "rank"].isna().all(), max_bytes  # NaN rows unranked
        assert out.loc[out.index.difference([2, 5]), "rank"].notna().all(), max_bytes
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_exact_dedup_rejects_null_ids(ray_session):
    """Null ids used to crash the distributed rung (range-sort TypeError)
    but silently drop on the broadcast rung — now a loud contract error
    on both."""
    import ray.data as rd

    from anomalydetection_ray.dedup import exact_dedup
    from anomalydetection_ray.pipelines.queries import as_table

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, None, 3], type=pa.int64()),
        "text": pa.array(["a", "a", "b"]),
    }))
    with pytest.raises(Exception, match="null values in id column"):
        as_table(exact_dedup(docs, "doc_id", "text"))


def test_no_schema_divergence_warning_on_empty_sort_partitions(ray_session, caplog):
    """Round-4 verdict #2 + #8: Ray's sort emits schema-less empty range
    partitions, which used to trigger "RefBundle with a different schema"
    warnings on every downstream map/union; pandas-written parquet used
    to trigger per-task "Failed to hash the schemas" warnings. Both must
    be gone: the first via the _raycompat shim + ABSORB_EMPTY_BATCH_SIZE
    lanes, the second via metadata-stripped read schemas."""
    import logging

    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray._raycompat import patch_empty_schema_bundle_divergence

    assert patch_empty_schema_bundle_divergence()  # idempotent, reports active

    with caplog.at_level(logging.WARNING, logger="ray.data"):
        # 5 rows in 8 blocks -> sort produces mostly-empty partitions
        ds = rd.from_arrow(
            pa.table({"k": ["a", "b", "a", "b", "a"], "v": [1, 2, 3, 4, 5]})
        ).repartition(8).sort("k")
        out = ds.map_batches(lambda t: t, batch_format="pyarrow", batch_size=None)
        assert out.count() == 5
    bad = [r.message for r in caplog.records if "different schema" in r.message]
    assert not bad, bad


def test_read_table_strips_pandas_schema_metadata(ray_session):
    """The testdata parquet carries a pandas schema-metadata blob that
    makes pa.Schema unhashable ('unhashable type: dict' inside Ray's
    unify_schemas). read_table must strip it at the scan — with the plan
    root still a bare Read so metadata size estimates keep working."""
    from anomalydetection_ray.functions.shuffle import metadata_size_estimate
    from anomalydetection_ray.sources.readers import read_table

    ds = read_table("/root/testdata/sf0.001", "documents", columns=["doc_id", "lang"])
    assert metadata_size_estimate(ds) is not None
    for tb in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        assert tb.schema.metadata in (None, {})
        assert tb.schema.names == ["doc_id", "lang"]
        break


def test_schema_shim_repairs_empty_bundle_with_tracked_schema(ray_session):
    """The shim must not just silence the warning: the caller assigns
    `self._schema = ref.schema` after the call, so returning the
    zero-field bundle unrepaired would overwrite the operator's tracked
    schema with the empty one and leak schema-less bundles downstream.
    The shim mirrors the original divergence path's repair instead."""
    import ray
    import pyarrow as pa
    from ray.data._internal.execution import streaming_executor_state as _ses
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data.block import BlockAccessor

    from anomalydetection_ray._raycompat import patch_empty_schema_bundle_divergence

    assert patch_empty_schema_bundle_divergence()
    empty = pa.table({})
    meta = BlockAccessor.for_block(empty).get_metadata()
    bundle = RefBundle(
        [(ray.put(empty), meta)], owns_blocks=True, schema=empty.schema
    )
    real = pa.schema([("k", pa.string()), ("v", pa.int64())])
    out, diverged = _ses.dedupe_schemas_with_validation(real, bundle)
    assert not diverged
    assert out.schema == real  # repaired, so the tracked schema survives


def test_schema_shim_repairs_zero_row_bundle_with_stale_schema(ray_session):
    """Round-5: Ray's Project physical op (and the map_batches planner)
    return EMPTY blocks verbatim without calling the transform, so an
    empty block minted upstream of a select_columns keeps its
    PRE-projection schema (the dropped columns included) and used to log
    a schema-divergence warning against its projected siblings (observed
    on mlp_reconstruction_scores' hash_sample->Project at 32 CPUs).
    Zero rows conform to any schema: the shim must repair such a bundle
    with the tracked schema, without flagging divergence."""
    import ray
    import pyarrow as pa
    from ray.data._internal.execution import streaming_executor_state as _ses
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data.block import BlockAccessor

    from anomalydetection_ray._raycompat import patch_empty_schema_bundle_divergence

    assert patch_empty_schema_bundle_divergence()
    # zero rows, STALE schema: still carries the column a projection drops
    stale = pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.string())})
    meta = BlockAccessor.for_block(stale).get_metadata()
    bundle = RefBundle(
        [(ray.put(stale), meta)], owns_blocks=True, schema=stale.schema
    )
    tracked = pa.schema([("embedding", pa.string())])
    out, diverged = _ses.dedupe_schemas_with_validation(tracked, bundle)
    assert not diverged
    assert out.schema == tracked
    # a NON-empty bundle with a genuinely different schema must still warn
    real = pa.table({"vec_id": [1], "embedding": ["x"]})
    bundle2 = RefBundle(
        [(ray.put(real), BlockAccessor.for_block(real).get_metadata())],
        owns_blocks=True, schema=real.schema,
    )
    _, diverged2 = _ses.dedupe_schemas_with_validation(tracked, bundle2)
    assert diverged2


def test_comoment_aggs_null_on_degenerate_groups(ray_session):
    """Round-5 review: covar/corr/regr_* must return NULL (not NaN/inf)
    on n=1 and constant-side groups — DuckDB-verified semantics:
    covar_samp NULL at n<2; corr NULL when either side is constant;
    regr_slope/intercept NULL when x is constant (y-constant is slope 0);
    regr_r2 NULL when x is constant, exactly 1 when only y is."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import driver_grouped_agg

    t = pa.table({
        "g": [1, 2, 2, 2, 3, 3, 3, 4, 4, 4],
        "x": [1.0, 5.0, 5.0, 5.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0],
        "y": [2.0, 1.0, 2.0, 3.0, 7.0, 7.0, 7.0, 1.0, 3.0, 5.0],
    })
    out = driver_grouped_agg(rd.from_arrow(t).repartition(3), ["g"], {
        "cs": (("x", "y"), "covar"), "c": (("x", "y"), "corr"),
        "sl": (("y", "x"), "regr_slope"), "ic": (("y", "x"), "regr_intercept"),
        "r2": (("y", "x"), "regr_r2"),
    }).sort_values("g").reset_index(drop=True)
    exp = pd.DataFrame({
        "cs": [np.nan, 0.0, 0.0, 2.0], "c": [np.nan, np.nan, np.nan, 1.0],
        "sl": [np.nan, np.nan, 0.0, 2.0], "ic": [np.nan, np.nan, 7.0, -1.0],
        "r2": [np.nan, np.nan, 1.0, 1.0],
    })
    for col in exp.columns:
        a, e = out[col].to_numpy(), exp[col].to_numpy()
        assert ((a == e) | (pd.isna(a) & pd.isna(e))).all(), (col, a, e)


def test_grouped_topk_nulls_sort_last(ray_session):
    """Round-5 review: NULL order values must sort LAST (SQL default) —
    polars' nulls-first default would hand the top-k slots to null rows
    and evict real candidates in the combiner unrecoverably."""
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import grouped_topk
    from anomalydetection_ray.pipelines.queries import as_table

    t = pa.table({
        "g": ["a"] * 6, "v": pa.array([None, None, None, 9.0, 5.0, 7.0]),
        "id": [1, 2, 3, 4, 5, 6],
    })
    out = as_table(
        grouped_topk(rd.from_arrow(t).repartition(3), ["g"], "v", 3, tiebreak=["id"])
    ).to_pandas()
    assert sorted(out["v"].dropna().tolist(), reverse=True) == [9.0, 7.0, 5.0]
    assert out["v"].notna().all()


def test_with_global_rank_rejects_final_name_collision(ray_session):
    import pytest
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import with_global_rank

    ds = rd.from_arrow(pa.table({"x": [1.0, 2.0], "rank": [0, 0]}))
    with pytest.raises(ValueError, match="already exist"):
        with_global_rank(ds, "x")
    # a prefix resolves it
    out = with_global_rank(ds, "x", prefix="x_")
    assert "x_rank" in out.schema().names


def test_schema_shim_delegates_under_enforce_schemas(ray_session):
    """Round-5 review: under enforce_schemas=True the original function
    UNIFIES diverging schemas, so a zero-row bundle carrying a NEW
    column must still widen the tracked schema — the shim must delegate,
    not repair."""
    import ray
    import pyarrow as pa
    from ray.data._internal.execution import streaming_executor_state as _ses
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data.block import BlockAccessor

    from anomalydetection_ray._raycompat import patch_empty_schema_bundle_divergence

    assert patch_empty_schema_bundle_divergence()
    extra = pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.string())})
    bundle = RefBundle(
        [(ray.put(extra), BlockAccessor.for_block(extra).get_metadata())],
        owns_blocks=True, schema=extra.schema,
    )
    tracked = pa.schema([("embedding", pa.string())])
    out, diverged = _ses.dedupe_schemas_with_validation(
        tracked, bundle, warn=False, enforce_schemas=True
    )
    assert diverged
    assert set(out.schema.names) == {"embedding", "vec_id"}  # widened, not repaired
