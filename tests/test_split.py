"""Stratified hash split tests (P5): disjoint + exhaustive, per-label
proportion preservation, determinism across parallelism."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from anomalydetection_ray.functions.split import stratified_split


def _labeled_table(n: int = 12_000, seed: int = 4) -> pa.Table:
    rng = np.random.default_rng(seed)
    labels = rng.choice(["a", "b", "c"], size=n, p=[0.6, 0.3, 0.1])
    return pa.table(
        {"row_id": pa.array(range(n), type=pa.int64()), "label": pa.array(labels, type=pa.string())}
    )


def test_split_disjoint_exhaustive_and_stratified(ray_session):
    import ray.data as rd

    t = _labeled_table()
    ds = rd.from_arrow(t).repartition(6)
    splits = stratified_split(ds, "row_id", [0.5, 0.3, 0.2], seed=11)
    dfs = [s.to_pandas() for s in splits]
    ids = [set(df["row_id"]) for df in dfs]
    assert ids[0] | ids[1] | ids[2] == set(range(t.num_rows))
    assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
    # per-label proportions within sampling noise (3 sigma-ish at n=12k)
    for label, frac_label in (("a", 0.6), ("b", 0.3), ("c", 0.1)):
        n_label = sum((df["label"] == label).sum() for df in dfs)
        for df, frac in zip(dfs, (0.5, 0.3, 0.2)):
            got = (df["label"] == label).sum() / n_label
            sigma = np.sqrt(frac * (1 - frac) / n_label)
            assert abs(got - frac) < 4 * sigma, (label, frac, got)


def test_split_deterministic_across_parallelism(ray_session):
    import ray.data as rd

    t = _labeled_table(3000, seed=9)
    a = stratified_split(rd.from_arrow(t).repartition(2), "row_id", [0.7, 0.3])[0].to_pandas()
    b = stratified_split(rd.from_arrow(t).repartition(11), "row_id", [0.7, 0.3])[0].to_pandas()
    assert sorted(a["row_id"]) == sorted(b["row_id"])


def test_split_validates_fractions(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_labeled_table(10))
    with pytest.raises(ValueError):
        stratified_split(ds, "row_id", [0.5, 0.6])


def test_fixed_count_sample_exact_and_layout_invariant(ray_session):
    """P6 viz subsample: exact count, without replacement, and identical
    members at any block layout or parallelism."""
    import ray.data as rd

    from anomalydetection_ray.functions.split import fixed_count_sample

    tbl = pa.table({"id": pa.array(range(1000), type=pa.int64()), "v": [i * 2 for i in range(1000)]})
    layouts = [
        rd.from_arrow(tbl),
        rd.from_arrow([tbl.slice(i, 100) for i in range(0, 1000, 100)]),
        rd.from_arrow([tbl.slice(i, 37) for i in range(0, 1000, 37)]),
    ]
    samples = [fixed_count_sample(ds, "id", 50, seed=7) for ds in layouts]
    ids0 = samples[0]["id"].to_pylist()
    assert len(ids0) == 50 == len(set(ids0))
    for s in samples[1:]:
        assert s["id"].to_pylist() == ids0
    # n >= N returns everything
    assert fixed_count_sample(layouts[1], "id", 5000, seed=7).num_rows == 1000


def test_fixed_count_sample_null_and_string_keys(ray_session):
    """Null keys and string keys must not crash the tie-break, and the
    sampled KEY multiset must be layout-invariant even with duplicates."""
    import ray.data as rd

    from anomalydetection_ray.functions.split import fixed_count_sample

    tbl = pa.table({
        "k": pa.array(["a", "b", None, "d", "e", "a", None, "h"]),
        "v": list(range(8)),
    })
    layouts = [rd.from_arrow(tbl), rd.from_arrow([tbl.slice(i, 3) for i in range(0, 8, 3)])]
    keys = None
    for ds in layouts:
        s = fixed_count_sample(ds, "k", 4, seed=1)
        got = sorted(s["k"].to_pylist(), key=lambda x: (x is None, x))
        assert s.num_rows == 4
        if keys is None:
            keys = got
        assert got == keys


def test_fixed_count_sample_md5_tiebreak_layout_invariant(ray_session):
    """With unit_fn=md5_unit_hash (100k buckets, seed-free) hash ties are
    common; the tie-break must stay layout-invariant (the old 'same fn,
    seed+1' second hash was identical to the first for md5)."""
    import ray.data as rd

    from anomalydetection_ray.functions.split import fixed_count_sample, md5_unit_hash

    tbl = pa.table({"id": pa.array(range(3000), type=pa.int64())})
    layouts = [
        rd.from_arrow(tbl),
        rd.from_arrow([tbl.slice(i, 211) for i in range(0, 3000, 211)]),
        rd.from_arrow([tbl.slice(i, 977) for i in range(0, 3000, 977)]),
    ]
    ids0 = None
    for ds in layouts:
        got = fixed_count_sample(ds, "id", 400, unit_fn=md5_unit_hash)["id"].to_pylist()
        assert len(got) == 400 == len(set(got))
        if ids0 is None:
            ids0 = got
        assert got == ids0


def test_md5_hashes_null_keys_match_sql_semantics(ray_session):
    """Null keys: md5(CAST(NULL AS VARCHAR)) is NULL in DuckDB, so null
    rows join no split interval and order NULLS LAST — not hash('None')."""
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.functions.split import (
        md5_order_hash,
        md5_unit_hash,
        md5_unit_hash_open,
        split_fractions_filter,
    )

    tb = pa.table({"k": pa.array(["None", None, "x"])})
    u = md5_unit_hash(tb, "k")
    uo = md5_unit_hash_open(tb, "k")
    assert not np.isnan(u[0]) and np.isnan(u[1]) and not np.isnan(u[2])
    assert not np.isnan(uo[0]) and np.isnan(uo[1])
    assert u[0] != u[2]  # the real string 'None' hashes normally
    o = md5_order_hash(tb, "k")
    assert o[1] == np.iinfo(np.uint64).max  # NULLS LAST
    # a null-key row lands in NO split
    ds = rd.from_arrow(tb)
    total = sum(
        split_fractions_filter(ds, "k", lo, hi, unit_fn=md5_unit_hash).count()
        for lo, hi in [(0.0, 0.5), (0.5, 1.0)]
    )
    assert total == 2  # both non-null rows, never the null one


def test_grouped_fixed_count_sample_duckdb_parity_and_invariance(ray_session):
    import duckdb
    import ray.data as rd

    from anomalydetection_ray.functions.split import grouped_fixed_count_sample, md5_order_hash
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(9)
    n = 3000
    t = pa.table(
        {
            "row_id": pa.array(range(n), type=pa.int64()),
            "g": pa.array(rng.choice(["a", "b", "c", "tiny"], size=n, p=[0.5, 0.3, 0.199, 0.001])),
        }
    )

    def run(parts, k):
        return (
            as_table(
                grouped_fixed_count_sample(
                    rd.from_arrow(t).repartition(parts), key="g", on="row_id", n=k,
                    unit_fn=md5_order_hash,
                )
            )
            .to_pandas()
            .sort_values(["g", "row_id"])
            .reset_index(drop=True)
        )

    got = run(5, 25)
    # exact per-group counts: min(n, group size)
    sizes = {g: c for g, c in zip(*np.unique(t["g"].to_numpy(zero_copy_only=False), return_counts=True))}
    counts = got.groupby("g").size().to_dict()
    assert counts == {g: min(25, int(c)) for g, c in sizes.items()}
    # layout invariance
    assert got.equals(run(1, 25)) and got.equals(run(11, 25))
    # SQL parity on the md5 order hash
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        """
        SELECT g, row_id FROM (
          SELECT g, row_id, ROW_NUMBER() OVER (
            PARTITION BY g ORDER BY md5_number_lower(CAST(row_id AS VARCHAR)), row_id) AS rn
          FROM t) s WHERE rn <= 25 ORDER BY g, row_id
        """
    ).df()
    assert got["row_id"].tolist() == want["row_id"].tolist()
    assert got["g"].tolist() == want["g"].tolist()

    with pytest.raises(ValueError, match="positive"):
        grouped_fixed_count_sample(rd.from_arrow(t), key="g", on="row_id", n=0)


def test_weighted_fixed_count_sample_invariance_and_bias(ray_session):
    """weighted_fixed_count_sample: exact count, block-layout invariance,
    and the Efraimidis-Spirakis property — across independent seeds, a
    10x-weight item is included ~10x as often as a 1x item (checked as a
    loose monotone band, not an exact ratio)."""
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions.split import weighted_fixed_count_sample

    df = pd.DataFrame({"id": range(200), "w": [10.0 if i < 20 else 1.0 for i in range(200)]})
    base = weighted_fixed_count_sample(rd.from_pandas(df).repartition(7), "id", "w", 30, seed=1)
    assert base.num_rows == 30
    for nb in (1, 13):
        again = weighted_fixed_count_sample(rd.from_pandas(df).repartition(nb), "id", "w", 30, seed=1)
        assert again.equals(base), nb

    heavy_rate = light_rate = 0
    ds = rd.from_pandas(df).repartition(4)
    for seed in range(40):
        t = weighted_fixed_count_sample(ds, "id", "w", 20, seed=seed)
        ids = t["id"].to_pylist()
        heavy_rate += sum(1 for i in ids if i < 20)
        light_rate += sum(1 for i in ids if i >= 20)
    # expected inclusion ~ heavy 20 items at ~... just assert heavies are
    # strongly over-represented per item vs lights
    per_heavy = heavy_rate / 20
    per_light = light_rate / 180
    assert per_heavy > 4 * per_light, (per_heavy, per_light)

    # nulls / non-positive weights never sampled
    df2 = pd.DataFrame({"id": [1, 2, None, 4], "w": [1.0, None, 1.0, -3.0]})
    t = weighted_fixed_count_sample(rd.from_pandas(df2), "id", "w", 10, seed=0)
    assert t["id"].to_pylist() == [1.0]


def test_weighted_fixed_count_sample_duckdb_parity(ray_session):
    """md5 unit/order variant matches DuckDB's -LN(u)/w ROW_NUMBER ranking
    row-exactly on the documents table."""
    import duckdb
    import ray.data as rd

    from anomalydetection_ray.functions.split import (
        md5_order_hash,
        md5_unit_hash_open,
        weighted_fixed_count_sample,
    )

    sf = "/root/testdata/sf0.001"
    ds = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "n_chars"])
    t = weighted_fixed_count_sample(
        ds, "doc_id", "n_chars", 40, unit_fn=md5_unit_hash_open, order_fn=md5_order_hash
    )
    got = t["doc_id"].to_pylist()
    want = duckdb.sql(
        f"""
        SELECT doc_id FROM (
          SELECT doc_id, ROW_NUMBER() OVER (ORDER BY
            -LN((md5_number_lower(CAST(doc_id AS VARCHAR)) % 100000 + 1) / 100001.0)
              / n_chars,
            md5_number_lower(CAST(doc_id AS VARCHAR))) AS rn
          FROM read_parquet('{sf}/documents.parquet')) t
        WHERE rn <= 40 ORDER BY doc_id
        """
    ).df()["doc_id"].tolist()
    assert got == want


def test_largest_remainder_allocation_properties():
    from anomalydetection_ray.functions.split import largest_remainder_allocation

    avail = {"en": 1000, "de": 1000, "fr": 1000}
    # exact proportions when nothing caps
    a = largest_remainder_allocation(avail, {"en": 0.5, "de": 0.3, "fr": 0.2}, 100)
    assert a == {"en": 50, "de": 30, "fr": 20}
    # remainders apportioned: totals always hit total_n
    a = largest_remainder_allocation(avail, {"en": 1, "de": 1, "fr": 1}, 100)
    assert sum(a.values()) == 100 and max(a.values()) - min(a.values()) <= 1
    # capped group redistributes to the others
    a = largest_remainder_allocation({"en": 10, "de": 1000, "fr": 1000},
                                     {"en": 0.5, "de": 0.25, "fr": 0.25}, 100)
    assert a["en"] == 10 and sum(a.values()) == 100 and a["de"] == a["fr"] == 45
    # infeasible total: everything available is taken
    a = largest_remainder_allocation({"en": 3, "de": 4}, {"en": 0.5, "de": 0.5}, 100)
    assert a == {"en": 3, "de": 4}
    # groups absent from target get nothing; zero-weight dropped
    a = largest_remainder_allocation({"en": 10, "xx": 10}, {"en": 1.0, "xx": 0.0}, 5)
    assert a == {"en": 5}
    import pytest as _pytest

    with _pytest.raises(ValueError):
        largest_remainder_allocation(avail, {}, 10)
    with _pytest.raises(ValueError):
        largest_remainder_allocation(avail, {"en": -0.1, "de": 1.1}, 10)


def test_rebalance_mixture_end_to_end(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.split import rebalance_mixture

    rng = np.random.default_rng(3)
    langs = ["en"] * 600 + ["de"] * 300 + ["fr"] * 60 + ["es"] * 40
    n = len(langs)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "lang": pa.array(langs, type=pa.string()),
    })
    target = {"en": 0.4, "de": 0.4, "fr": 0.15, "es": 0.05}
    for parts in (1, 7):
        ds = rd.from_arrow(t).repartition(parts)
        out, alloc = rebalance_mixture(ds, "lang", "doc_id", target, total_n=200)
        df = out.to_pandas()
        got = df["lang"].value_counts().to_dict()
        # feasible mixture -> quotas exactly proportional
        assert alloc == {"en": 80, "de": 80, "fr": 30, "es": 10}
        assert got == alloc
        assert df["doc_id"].is_unique
        if parts == 1:
            first = sorted(df["doc_id"])
        else:  # identical members at any block layout
            assert sorted(df["doc_id"]) == first
    # infeasible leg: fr+es exhausted, surplus water-fills into en/de
    out, alloc = rebalance_mixture(
        rd.from_arrow(t), "lang", "doc_id", {"en": 0.1, "de": 0.1, "fr": 0.4, "es": 0.4},
        total_n=500,
    )
    assert alloc["fr"] == 60 and alloc["es"] == 40 and sum(alloc.values()) == 500
    got = out.to_pandas()["lang"].value_counts().to_dict()
    assert got == {k: v for k, v in alloc.items() if v}


def test_grouped_quota_sample_null_and_missing_groups(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.split import grouped_quota_sample

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
        "lang": pa.array(["en", "en", None, "de", "zz", "en"], type=pa.string()),
    })
    out = grouped_quota_sample(rd.from_arrow(t), "lang", "doc_id", {"en": 2, "de": 5}).to_pandas()
    vc = out["lang"].value_counts().to_dict()
    assert vc == {"en": 2, "de": 1}  # null lang and unlisted 'zz' dropped, de capped by avail
    import pytest as _pytest

    with _pytest.raises(ValueError):
        grouped_quota_sample(rd.from_arrow(t), "lang", "doc_id", {"en": -1})
