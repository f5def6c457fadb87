"""Distributed near-dup tail (dedup/distributed.py): the shuffle plan
must produce results identical to the driver plan, including on a
50%-duplicate stress corpus that the old driver gather would have
materialized almost entirely on the driver."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _stress_corpus(n: int = 400, seed: int = 5) -> pa.Table:
    """~50% duplicates: doc n/2 + i is a near-copy of doc i (one word
    changed), so half the corpus is candidate rows."""
    rng = np.random.default_rng(seed)
    words = [f"tok{j}" for j in range(60)]
    half = n // 2
    base = [
        " ".join(rng.choice(words, size=30).tolist()) + f" uniq{i}tail marker"
        for i in range(half)
    ]
    dups = [t.replace(" marker", " markerx") for t in base]
    texts = base + dups
    return pa.table(
        {"doc_id": pa.array(range(n), type=pa.int64()), "text": pa.array(texts, type=pa.string())}
    )


@pytest.fixture(scope="module")
def stress_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(_stress_corpus()).repartition(8)


def _kept(ds_out):
    from anomalydetection_ray.pipelines.queries import as_table

    return sorted(as_table(ds_out)["doc_id"].to_pylist())


def test_minhash_distributed_matches_driver(ray_session, stress_ds, monkeypatch):
    from anomalydetection_ray.dedup import minhash_lsh_dedup
    from anomalydetection_ray.functions import shuffle

    driver = _kept(
        minhash_lsh_dedup(stress_ds, "doc_id", "text", verify_threshold=0.8, shingle="word")
    )
    monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
    dist = _kept(
        minhash_lsh_dedup(stress_ds, "doc_id", "text", verify_threshold=0.8, shingle="word")
    )
    assert driver == dist
    # every pair (i, i+half) collapsed to its min member
    half = 200
    assert all(i in dist for i in range(half))
    assert all(i + half not in dist for i in range(half))


def test_neardup_pairs_distributed_matches_driver(ray_session, stress_ds, monkeypatch):
    from anomalydetection_ray.dedup import neardup, neardup_pairs
    from anomalydetection_ray.functions import shuffle

    driver = neardup_pairs(stress_ds, "doc_id", "text", threshold=0.8)
    monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
    monkeypatch.setattr(neardup, "LOCAL_PLAN_MAX_BYTES", -1)
    dist = neardup_pairs(stress_ds, "doc_id", "text", threshold=0.8)
    assert driver.to_pydict() == dist.to_pydict()
    assert driver.num_rows == 200


def test_simhash_distributed_matches_driver(ray_session, stress_ds, monkeypatch):
    from anomalydetection_ray.dedup import neardup, simhash_dedup
    from anomalydetection_ray.functions import shuffle

    driver = _kept(simhash_dedup(stress_ds, "doc_id", "text"))
    with monkeypatch.context() as m:
        m.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
        m.setattr(neardup, "_SIMHASH_MERGE_MAX_BYTES", -1)
        dist = _kept(simhash_dedup(stress_ds, "doc_id", "text"))
    assert driver == dist
    # third plan: the size-gated fingerprint-driver pass (stress_ds is
    # transformed → no metadata estimate, so the hint is what engages it)
    fp_driver = _kept(
        simhash_dedup(stress_ds, "doc_id", "text", size_hint_bytes=1)
    )
    assert fp_driver == dist


def test_label_propagation_matches_union_find(ray_session):
    import ray.data as rd
    from anomalydetection_ray.dedup.distributed import cluster_drop_ids
    from anomalydetection_ray.dedup.neardup import UnionFind
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(3)
    # random graph incl. a long chain (worst-case diameter for propagation)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 300, size=(250, 2)) if a != b]
    edges += [(i + 1000, i + 1001) for i in range(40)]  # chain of 41 nodes
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    roots: dict = {}
    for x in list(uf.parent):
        roots.setdefault(uf.find(x), []).append(x)
    expect = sorted(m for ms in roots.values() for m in ms if m != min(ms))

    et = pa.table(
        {
            "a": pa.array([min(e) for e in edges], type=pa.int64()),
            "b": pa.array([max(e) for e in edges], type=pa.int64()),
        }
    )
    got = sorted(as_table(cluster_drop_ids(rd.from_arrow(et).repartition(5)))["id"].to_pylist())
    assert got == expect


def test_exact_dedup_distributed_matches_driver(ray_session, monkeypatch):
    """round-3 verdict item 2: the large-input branch must not collect
    survivor ids on the driver; drop ids are emitted worker-side and
    removed with a shuffle anti-join. Byte-equal to the driver plan on a
    ≥50%-duplicate corpus with the threshold forced both ways."""
    import ray.data as rd
    from anomalydetection_ray.dedup import exact, exact_dedup
    from anomalydetection_ray.pipelines.queries import as_table

    n, half = 400, 200
    texts = [f"exact text {i % half} payload" for i in range(n)]  # every text twice
    t = pa.table(
        {"doc_id": pa.array(range(n), type=pa.int64()), "text": pa.array(texts, type=pa.string())}
    )
    ds = rd.from_arrow(t).repartition(7)
    monkeypatch.setattr(exact, "_DRIVER_MERGE_MAX_BYTES", 1 << 40)
    driver = as_table(exact_dedup(ds, "doc_id", "text"))
    monkeypatch.setattr(exact, "_DRIVER_MERGE_MAX_BYTES", -1)
    dist = as_table(exact_dedup(ds, "doc_id", "text"))
    d = driver.sort_by("doc_id")
    x = dist.sort_by("doc_id")
    assert d.equals(x)
    assert sorted(d["doc_id"].to_pylist()) == list(range(half))


def test_shuffle_anti_join(ray_session):
    import ray.data as rd
    from anomalydetection_ray.functions.relational import shuffle_membership_filter
    from anomalydetection_ray.pipelines.queries import as_table

    rows = pa.table(
        {"doc_id": pa.array(range(20), type=pa.int64()), "text": [f"t{i}" for i in range(20)]}
    )
    drops = pa.table({"id": pa.array([3, 7, 11, 19, 99], type=pa.int64())})
    out = as_table(
        shuffle_membership_filter(
            rd.from_arrow(rows).repartition(4), "doc_id", rd.from_arrow(drops), "id",
            keep=False, keys_non_null=True,
        )
    )
    kept = sorted(out["doc_id"].to_pylist())
    assert kept == [i for i in range(20) if i not in (3, 7, 11, 19)]
    assert set(out.column_names) == {"doc_id", "text"}


def test_exact_dedup_rejects_preexisting_fingerprint_columns(ray_session):
    """Round-5 review: an input already carrying h1/h2 would get
    duplicate fields appended and crash far downstream — the hash stage
    fails loudly instead (checked per batch, not via a driver-side
    schema() probe that would partially execute a lazy chain)."""
    import ray.data as rd

    from anomalydetection_ray.dedup import dedup_against_snapshot, exact_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["a b c", "a b c"], type=pa.string()),
        "h1": pa.array([0, 0], type=pa.uint64()),
    })
    ds = rd.from_arrow(t)
    with pytest.raises(Exception, match="fingerprint column"):
        exact_dedup(ds, "doc_id", "text").materialize()
    snap = rd.from_arrow(pa.table({"text": pa.array(["x"], type=pa.string())}))
    with pytest.raises(Exception, match="fingerprint column"):
        dedup_against_snapshot(ds, "doc_id", "text", snap).materialize()
