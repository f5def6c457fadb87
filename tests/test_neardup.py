"""Near-dup dedup, similarity search, and multimodal plumbing tests —
planted-defect style (SURVEY.md §5): synthesize data with KNOWN near-dup
structure, assert the engine finds exactly it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def exact_jaccard(h1: np.ndarray, h2: np.ndarray) -> float:
    """Reference Jaccard similarity of two hash sets."""
    inter = np.intersect1d(h1, h2, assume_unique=False).size
    union = np.union1d(h1, h2).size
    return inter / union if union else 1.0


def _docs_table():
    """12 docs: (0,1) word-near-dups, (2,3) exact dups, (4,5) char-level
    near-dups, rest distinct. 10/11 empty/None."""
    base = "def parse tokens from the input stream and emit nodes " * 8
    texts = [
        base + "alpha beta gamma",
        base + "alpha beta delta",  # ~0.95 word-jaccard with 0
        "import os import sys value = compute(data) print(value) " * 6,
        "import os import sys value = compute(data) print(value) " * 6,
        "the quick brown fox jumps over the lazy dog repeatedly today " * 5 + "end one",
        "the quick brown fox jumps over the lazy dog repeatedly today " * 5 + "end two",
        "completely different content about databases and indexes",
        "unrelated text regarding network protocols and sockets",
        "short",
        "another entirely distinct document body with unique words qqq zzz",
        "",
        None,
    ]
    return pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts, type=pa.string())})


@pytest.fixture()
def docs_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(_docs_table())


def test_minhash_lsh_dedup_finds_planted(ray_session, docs_ds):
    from anomalydetection_ray.dedup import minhash_lsh_dedup
    from anomalydetection_ray.pipelines.queries import as_table

    out = as_table(minhash_lsh_dedup(docs_ds, "doc_id", "text", verify_threshold=0.8))
    kept = sorted(out["doc_id"].to_pylist())
    # one of each near-dup cluster dropped, min id kept
    assert 0 in kept and 1 not in kept
    assert 2 in kept and 3 not in kept
    assert 4 in kept and 5 not in kept
    for i in (6, 7, 8, 9):
        assert i in kept


def test_neardup_pairs_matches_bruteforce(ray_session, docs_ds):
    from anomalydetection_ray.dedup import neardup_pairs
    from anomalydetection_ray.dedup.neardup import _real_hashes

    got = neardup_pairs(docs_ds, "doc_id", "text", threshold=0.8)
    got_pairs = sorted(zip(got["a"].to_pylist(), got["b"].to_pylist()))

    tbl = _docs_table()
    texts = tbl["text"].to_pylist()
    sets = {i: _real_hashes(t, "word", 5) for i, t in enumerate(texts)}
    want = sorted(
        (i, j)
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
        if sets[i].size and sets[j].size and exact_jaccard(sets[i], sets[j]) >= 0.8
    )
    assert got_pairs == want
    assert (0, 1) in got_pairs and (2, 3) in got_pairs


def test_simhash_dedup_finds_planted(ray_session, docs_ds):
    from anomalydetection_ray.dedup import simhash_dedup
    from anomalydetection_ray.pipelines.queries import as_table

    out = as_table(simhash_dedup(docs_ds, "doc_id", "text"))
    kept = sorted(out["doc_id"].to_pylist())
    # exact dups (2,3) must collapse; near-dups (0,1) likely within 3 bits
    assert 2 in kept and 3 not in kept
    assert 6 in kept and 7 in kept and 9 in kept


def test_simhash_hamming_properties():
    from anomalydetection_ray.sketches.simhash import batch_simhash_fnv, hamming_distance

    a, b, c = batch_simhash_fnv(np.array([
        "the quick brown fox jumps over the lazy dog " * 10,
        "the quick brown fox jumps over the lazy dogs " * 10,
        "entirely unrelated words about compilers and parsers zebra",
    ], dtype=object))
    d_ab = int(hamming_distance(np.array([a]), np.array([b]))[0])
    d_ac = int(hamming_distance(np.array([a]), np.array([c]))[0])
    assert d_ab < d_ac
    assert d_ab <= 12


def _emb_table(n=60, d=16, seed=7):
    rng = np.random.RandomState(seed)
    m = rng.standard_normal((n, d))
    # plant near-dups: 1 ≈ 0, 11 ≈ 10
    m[1] = m[0] + rng.standard_normal(d) * 0.01
    m[11] = m[10] + rng.standard_normal(d) * 0.01
    return pa.table(
        {
            "vec_id": pa.array(range(n), type=pa.int64()),
            "embedding": pa.array([row.astype(np.float32).tolist() for row in m], type=pa.list_(pa.float32())),
        }
    ), m


def test_embedding_neardup_and_dedup(ray_session):
    import ray.data as rd

    from anomalydetection_ray.dedup import embedding_neardup_pairs

    tbl, m = _emb_table()
    ds = rd.from_arrow(tbl)
    pairs = embedding_neardup_pairs(ds, "vec_id", "embedding", dim=16, threshold=0.99)
    got = sorted(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()))
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = norm @ norm.T
    want = sorted((i, j) for i in range(len(m)) for j in range(i + 1, len(m)) if sims[i, j] >= 0.99)
    assert got == want
    assert (0, 1) in got and (10, 11) in got


def test_topk_cosine_exact(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.similarity import topk_cosine

    tbl, m = _emb_table(n=100)
    q = m[:3]
    res = topk_cosine(rd.from_arrow(tbl), "vec_id", "embedding", q, k=5)
    # brute force on the float32-roundtripped data the engine actually sees
    m32 = m.astype(np.float32).astype(np.float64)
    n32 = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    for qi in range(3):
        got = res[res["query_id"] == qi]["vec_id"].to_numpy()
        want = np.argsort(-(n32 @ qn[qi]))[:5]
        assert set(got) == set(want)
        assert got[0] == want[0]


def test_ivf_topk_recall(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.similarity import ivf_topk_cosine, topk_cosine

    tbl, m = _emb_table(n=200, seed=3)
    q = m[:5]
    exact = topk_cosine(rd.from_arrow(tbl), "vec_id", "embedding", q, k=10)
    approx = ivf_topk_cosine(
        rd.from_arrow(tbl), "vec_id", "embedding", q, k=10, n_cells=8, n_probe=8
    )
    # n_probe == n_cells degenerates to exact brute force
    for qi in range(5):
        e = exact[exact["query_id"] == qi]["vec_id"].tolist()
        a = approx[approx["query_id"] == qi]["vec_id"].tolist()
        assert e == a

    part = ivf_topk_cosine(rd.from_arrow(tbl), "vec_id", "embedding", q, k=10, n_cells=8, n_probe=4)
    hits = 0
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"].tolist())
        a = set(part[part["query_id"] == qi]["vec_id"].tolist())
        hits += len(e & a)
    assert hits / 50 >= 0.5  # pruned probe keeps most true neighbors


# ---------------------------------------------------------------------------
# Multimodal plumbing
# ---------------------------------------------------------------------------


def test_media_stub_stages(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.multimodal import (
        AudioFeatureStage,
        ImageFeatureStage,
        VideoFrameSampleStage,
        media_features,
        synthesize_media_table,
    )

    tbl = synthesize_media_table(64, seed=1)
    ds = rd.from_arrow(tbl)
    out = media_features(ds, ImageFeatureStage, batch_size=16, concurrency=2, dim=8).take_all()
    assert len(out) == 64
    assert all(len(r["image_feat"]) == 8 for r in out)
    # deterministic across runs (features derive from payload sha)
    out2 = media_features(rd.from_arrow(tbl), ImageFeatureStage, batch_size=16, concurrency=2, dim=8).take_all()
    f1 = {r["media_id"]: tuple(r["image_feat"]) for r in out}
    f2 = {r["media_id"]: tuple(r["image_feat"]) for r in out2}
    assert f1 == f2

    aud = media_features(rd.from_arrow(tbl), AudioFeatureStage, batch_size=16, concurrency=2, dim=4).take_all()
    assert all(len(r["audio_feat"]) == 4 and r["duration_s"] >= 0 for r in aud)

    vid = media_features(rd.from_arrow(tbl), VideoFrameSampleStage, batch_size=16, concurrency=2, dim=4).take_all()
    assert all(r["n_frames_sampled"] >= 1 for r in vid)

    from anomalydetection_ray.functions.multimodal import ImageResizeStage

    rsz = media_features(
        rd.from_arrow(tbl), ImageResizeStage, batch_size=16, concurrency=2, target_w=32, target_h=32
    ).take_all()
    assert all(r["width"] == 32 and r["height"] == 32 for r in rsz)
    assert all(len(r["payload"]) >= 8 for r in rsz)
    # resize composes with feature extraction (payload column preserved);
    # one actor per pool so the two chained pools + tasks fit 4 CPUs
    chained = media_features(
        media_features(rd.from_arrow(tbl), ImageResizeStage, batch_size=16, concurrency=1, target_w=32, target_h=32),
        ImageFeatureStage, batch_size=16, concurrency=1, dim=8,
    ).take_all()
    assert len(chained) == 64 and all(len(r["image_feat"]) == 8 for r in chained)

    with pytest.raises(Exception):  # NotImplementedError surfaces as UserCodeException
        media_features(rd.from_arrow(tbl), ImageFeatureStage, batch_size=16, concurrency=2, mode="real").take_all()


# ---------------------------------------------------------------------------
# Rows-only queries smoke (the driver's weaker check, run here too)
# ---------------------------------------------------------------------------


def _rows_only_items():
    from anomalydetection_ray.pipelines.queries import registry

    return [(n, fn) for n, (fn, sql) in registry().items() if sql is None]


@pytest.mark.parametrize("name,fn", _rows_only_items(), ids=[n for n, _ in _rows_only_items()])
def test_rows_only_query_runs(ray_session, sf_smoke, name, fn):
    res = fn(sf_smoke)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    assert res is not None and len(res) >= 0


def test_union_find_min_root():
    from anomalydetection_ray.dedup.neardup import UnionFind, _survivors_from_edges

    drop = _survivors_from_edges(None, [(5, 3), (3, 1), (9, 8), (2, 7)])
    assert drop == {3, 5, 9, 7}


def test_ivf_recall_on_clustered_unshuffled_input(ray_session, monkeypatch):
    """round-3 verdict item 4: centroid training must sample the WHOLE
    corpus, not a prefix. Fixture: two far-apart clusters stored
    cluster-A-first (like a corpus sorted by repo/lang), IVF_TRAIN_SAMPLE
    smaller than cluster A — a prefix sample would train every centroid
    on A and collapse recall for cluster-B queries; the deterministic
    hash-rate sample keeps recall ≥ 0.9."""
    import ray.data as rd

    import pyarrow as pa

    from anomalydetection_ray.functions import similarity
    from anomalydetection_ray.functions.similarity import ivf_topk_cosine, topk_cosine

    rng = np.random.default_rng(9)
    half, dim = 500, 16
    a = rng.standard_normal((half, dim)) * 0.05 + np.eye(dim)[0] * 10  # tight cluster at +e0
    b = rng.standard_normal((half, dim)) * 0.5 - np.eye(dim)[1] * 10  # spread cluster at -e1
    m = np.vstack([a, b]).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(2 * half), type=pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(pa.array(m.ravel(), type=pa.float32()), dim),
        }
    )
    q = m[half : half + 6].astype(np.float64)  # cluster-B queries
    exact = topk_cosine(rd.from_arrow(tbl), "vec_id", "embedding", q, k=10)
    monkeypatch.setattr(similarity, "IVF_TRAIN_SAMPLE", 200)  # < |cluster A|
    approx = ivf_topk_cosine(rd.from_arrow(tbl), "vec_id", "embedding", q, k=10, n_cells=8, n_probe=2)
    hits = total = 0
    for qi in range(len(q)):
        e = set(exact[exact["query_id"] == qi]["vec_id"].tolist())
        x = set(approx[approx["query_id"] == qi]["vec_id"].tolist())
        hits += len(e & x)
        total += len(e)
    assert hits / total >= 0.9, f"recall {hits / total:.3f} < 0.9 on clustered input"


def test_ivf_recall_gate_on_testdata(ray_session):
    """Recall gate on the REAL sf0.001 embeddings (not synthetic): IVF at
    the ann_topk_cosine query's IVF settings (n_cells=64, n_probe=32) must keep
    >= 0.9 of the exact top-10 neighbor sets. Near-uniform embeddings are
    IVF's worst case, hence the high probe fraction at this tiny scale."""
    import ray.data as rd

    from anomalydetection_ray.functions.similarity import ivf_topk_cosine, topk_cosine
    from anomalydetection_ray.functions.vector import list_column_to_matrix

    import pyarrow.parquet as pq

    tbl = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    m = list_column_to_matrix(tbl["embedding"]).astype(np.float64)
    q = m[:8]
    k = 10
    exact = topk_cosine(rd.from_arrow(tbl), "vec_id", "embedding", q, k=k)
    approx = ivf_topk_cosine(
        rd.from_arrow(tbl), "vec_id", "embedding", q, k=k, n_cells=64, n_probe=32
    )
    hits = total = 0
    for qi in range(len(q)):
        e = set(exact[exact["query_id"] == qi]["vec_id"].tolist())
        a = set(approx[approx["query_id"] == qi]["vec_id"].tolist())
        hits += len(e & a)
        total += len(e)
    recall = hits / total
    assert recall >= 0.9, f"IVF recall {recall:.3f} < 0.9 at n_cells=64 n_probe=32"


def test_batch_jaccard_keep_matches_exact():
    from anomalydetection_ray.dedup.neardup import _batch_jaccard_keep

    rng = np.random.default_rng(1)
    sets = [
        np.sort(np.unique(rng.integers(0, 50, size=rng.integers(0, 30)).astype(np.uint64)))
        for _ in range(200)
    ]
    ia = rng.integers(0, 200, 5000)
    ib = rng.integers(0, 200, 5000)
    for t in [0.0, 0.3, 0.5, 0.8, 1.0]:
        keep = _batch_jaccard_keep(sets, ia, ib, t)
        ref = np.array(
            [
                bool(len(sets[a]) and len(sets[b]) and exact_jaccard(sets[a], sets[b]) >= t)
                for a, b in zip(ia, ib)
            ]
        )
        assert np.array_equal(keep, ref), t


def test_verified_dedup_collapse_invariance(ray_session):
    """The J=1 collapse must not change survivors — J=1 group reps are
    the group minima, so component minima over reps equal component
    minima over all members. Fixture plants word-identical docs
    (reordered and recounted tokens: same SET) inside and across near-dup
    clusters."""
    import ray.data as rd

    from anomalydetection_ray.dedup import minhash_lsh_dedup_verified

    base = "def parse tokens from the input stream and emit nodes " * 8
    texts = [
        base + "alpha beta gamma",
        "alpha " + base + "beta gamma",  # same token SET as 0 (J=1)
        base + "alpha beta gamma alpha",  # same SET again (counts differ)
        base + "alpha beta delta",  # near-dup of 0 (J >= 0.8)
        "import os import sys value = compute(data) print(value) " * 6,
        "completely different content about databases and indexes",
        "",
        None,
    ]
    tb = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": pa.array(texts, type=pa.string())}
    )
    out = minhash_lsh_dedup_verified(rd.from_arrow(tb), "doc_id", "text", threshold=0.8, shingle="word")
    got = out.to_pandas().sort_values("doc_id")["doc_id"].tolist()
    # 1, 2, 3 all merge into doc 0's component; every other doc survives
    assert got == [0, 4, 5, 6, 7]


def test_verified_dedup_distributed_plan_with_collapse(ray_session, docs_ds, monkeypatch):
    """All three plan rungs must produce the same survivors: the
    in-process small-input plan (round 4), the stage-graph driver-edges
    plan (small plan gated off via LOCAL_PLAN_MAX_BYTES=-1), and the
    fully-distributed tail (DRIVER_MAX_ROWS=-1 as well)."""
    from anomalydetection_ray.dedup import minhash_lsh_dedup_verified, neardup
    from anomalydetection_ray.functions import shuffle

    local = (neardup, "LOCAL_PLAN_MAX_BYTES")
    rows = (shuffle, "DRIVER_MAX_ROWS")
    plans = [
        [],  # small-input in-process plan (docs_ds has a size estimate)
        [local],  # stage-graph driver-edges plan
        [local, rows],  # distributed
    ]
    ref = None
    for forced in plans:
        with monkeypatch.context() as m:
            for mod, name in forced:
                m.setattr(mod, name, -1)
            out = minhash_lsh_dedup_verified(docs_ds, "doc_id", "text", threshold=0.8, shingle="word")
            got = sorted(out.to_pandas()["doc_id"].tolist())
        if ref is None:
            ref = got
        assert got == ref, forced


def test_verified_local_rounds_path_matches_matrix_path(ray_session, docs_ds, monkeypatch):
    """The in-process plan has two kernels: the candidacy bit-matrix fast
    path (small doc counts) and the center-batched rounds fallback (doc
    counts above the matrix cap). Test corpora never exceed the cap, so
    force the rounds path by zeroing it — survivors must be identical."""
    from anomalydetection_ray.dedup import minhash_lsh_dedup_verified
    from anomalydetection_ray.dedup import neardup

    want = sorted(
        minhash_lsh_dedup_verified(docs_ds, "doc_id", "text", threshold=0.8, shingle="word")
        .to_pandas()["doc_id"].tolist()
    )
    monkeypatch.setattr(neardup, "_PAIR_MATRIX_MAX_DOCS", 0)
    got = sorted(
        minhash_lsh_dedup_verified(docs_ds, "doc_id", "text", threshold=0.8, shingle="word")
        .to_pandas()["doc_id"].tolist()
    )
    assert got == want


def test_driver_verify_byte_cap_aborts_to_distributed(ray_session, docs_ds, monkeypatch):
    """Round-3 verdict item 4: the driver verify plan gates on edge COUNT;
    with multi-KB documents the candidate-text gather must stream under a
    byte cap and abort to the distributed plans — output unchanged."""
    from anomalydetection_ray.dedup import neardup
    from anomalydetection_ray.dedup import minhash_lsh_dedup_verified, neardup_pairs
    from anomalydetection_ray.pipelines.queries import as_table

    want_pairs = neardup_pairs(docs_ds, "doc_id", "text", threshold=0.8)
    want_kept = sorted(
        as_table(minhash_lsh_dedup_verified(docs_ds, "doc_id", "text", threshold=0.8, shingle="word"))[
            "doc_id"
        ].to_pylist()
    )
    # 64 bytes: the 10-doc fixture's texts blow the cap immediately, so the
    # in-process plan, the driver plan AND the broadcast-store plan all
    # abort; the shuffle pair_payload_join tail must produce
    # byte-identical results
    monkeypatch.setattr(neardup, "LOCAL_PLAN_MAX_BYTES", 64)
    monkeypatch.setattr(neardup, "BROADCAST_VERIFY_MAX_BYTES", 64)
    got_pairs = neardup_pairs(docs_ds, "doc_id", "text", threshold=0.8)
    assert sorted(zip(got_pairs["a"].to_pylist(), got_pairs["b"].to_pylist())) == sorted(
        zip(want_pairs["a"].to_pylist(), want_pairs["b"].to_pylist())
    )
    got_kept = sorted(
        as_table(minhash_lsh_dedup_verified(docs_ds, "doc_id", "text", threshold=0.8, shingle="word"))[
            "doc_id"
        ].to_pylist()
    )
    assert got_kept == want_kept


def test_sort_distinct_skew(ray_session):
    """sorted_distinct's contract: Ray's range-partition sort assigns
    equal keys to ONE output block even under extreme skew (the partition
    index is a pure function of the key), so the consecutive-compare
    unique is globally exact. Adversarial input: one value dominating the
    stream, spread across many input blocks."""
    import ray.data as rd

    from anomalydetection_ray.dedup.neardup import sorted_distinct

    rng = np.random.default_rng(3)
    vals = np.concatenate(
        [np.full(200_000, 42, dtype=np.int64), rng.integers(0, 1 << 40, size=50_000, dtype=np.int64)]
    )
    rng.shuffle(vals)
    tables = [pa.Table.from_pydict({"p": vals[i::16]}) for i in range(16)]
    out = sorted_distinct(rd.from_arrow(tables), ["p"]).materialize()
    got = np.sort(
        np.concatenate(
            [b["p"].to_numpy(zero_copy_only=False) for b in out.iter_batches(batch_format="pyarrow", batch_size=None)]
        )
    )
    assert np.array_equal(got, np.unique(vals))

    # two-column variant (the (a, b) pair layout)
    a = np.repeat(np.arange(50, dtype=np.int64), 2000)
    b = np.tile(np.arange(40, dtype=np.int64), 2500)
    tables = [pa.Table.from_pydict({"a": a[i::8], "b": b[i::8]}) for i in range(8)]
    out = sorted_distinct(rd.from_arrow(tables), ["a", "b"]).materialize()
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    got_pairs = sorted(zip(t["a"].to_pylist(), t["b"].to_pylist()))
    want_pairs = sorted({(int(x), int(y)) for x, y in zip(a, b)})
    assert got_pairs == want_pairs


def test_local_plans_reject_duplicate_ids(ray_session):
    """Duplicate ids would silently alias docs in the dense-index local
    plans — both must raise the same loud error the broadcast store does."""
    import ray.data as rd

    from anomalydetection_ray.dedup import minhash_lsh_dedup_verified, neardup_pairs

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 1, 2], type=pa.int64()),
        "text": pa.array(["a b c d e", "f g h i j", "a b c d e"]),
    }))
    with pytest.raises(ValueError, match="duplicate"):
        minhash_lsh_dedup_verified(ds, "doc_id", "text", threshold=0.8, shingle="word")
    with pytest.raises(ValueError, match="duplicate"):
        neardup_pairs(ds, "doc_id", "text", threshold=0.8)


def test_rounds_path_above_matrix_cap_matches_distributed(ray_session, monkeypatch):
    """Scale-correctness: 12k docs exceed the candidacy-matrix doc cap,
    so the in-process plan takes the center-batched rounds kernel for
    real (no monkeypatch) — survivors must equal the fully-distributed
    plan's on a corpus with 40 dense near-dup clusters + unique tails."""
    import ray.data as rd

    from anomalydetection_ray.dedup import minhash_lsh_dedup_verified, neardup
    from anomalydetection_ray.dedup.neardup import _PAIR_MATRIX_MAX_DOCS
    from anomalydetection_ray.functions import shuffle

    n = 12000
    assert n > _PAIR_MATRIX_MAX_DOCS
    rng = np.random.default_rng(11)
    words = ["w%d" % i for i in range(400)]
    texts = []
    for i in range(n):
        if i % 3 == 0:
            base = np.random.default_rng(i % 40)
            toks = [words[int(j)] for j in base.integers(0, 400, 30)]
            m = np.random.default_rng(i)
            for p in m.integers(0, 30, 2):
                toks[int(p)] = words[int(m.integers(0, 400))]
            texts.append(" ".join(toks))
        else:
            texts.append(" ".join(words[int(j)] for j in rng.integers(0, 400, 25)))
    tbl = pa.table({"doc_id": pa.array(range(n), type=pa.int64()), "text": pa.array(texts)})
    ds = rd.from_arrow([tbl.slice(i, 1000) for i in range(0, n, 1000)])
    got = sorted(
        minhash_lsh_dedup_verified(ds, "doc_id", "text", threshold=0.8, shingle="word")
        .to_pandas()["doc_id"].tolist()
    )
    monkeypatch.setattr(neardup, "LOCAL_PLAN_MAX_BYTES", -1)
    monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
    want = sorted(
        minhash_lsh_dedup_verified(ds, "doc_id", "text", threshold=0.8, shingle="word")
        .to_pandas()["doc_id"].tolist()
    )
    assert got == want
    # clusters genuinely collapsed: well under n survivors
    assert len(got) < n - 2000


def test_duplicate_ids_raise_on_every_verify_plan(ray_session, monkeypatch):
    """Round-5 review: duplicate corpus ids used to raise only on the
    in-process plans; the broadcast-store verify plan silently verified
    pairs against an arbitrary duplicate's hash set. Every plan that
    maps ids to dense positions must fail loudly and identically."""
    import ray.data as rd

    from anomalydetection_ray.dedup import neardup
    from anomalydetection_ray.functions import shuffle

    base = " ".join(f"w{i}" for i in range(40))
    texts = [base + " a", base + " b",          # near-dup pair
             base + " c zzz", base + " d zzz", # near-dup pair
             "totally different text one two three four five six",
             "another unrelated document seven eight nine ten eleven"]
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 3, 5, 6], type=pa.int64()),  # dup id 3
        "text": pa.array(texts, type=pa.string()),
    })
    ds = rd.from_arrow(t).repartition(2)
    # in-process plan (size hint keeps the driver gather)
    with pytest.raises(Exception, match="duplicate 'doc_id'"):
        neardup.minhash_lsh_dedup_verified(
            ds, "doc_id", "text", 0.8, size_hint_bytes=1024
        )
    # broadcast-store plan (both budgets forced: no in-process rung, no
    # driver verify)
    monkeypatch.setattr(neardup, "LOCAL_PLAN_MAX_BYTES", -1)
    monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
    with pytest.raises(Exception, match="duplicate 'doc_id'"):
        neardup.minhash_lsh_dedup_verified(ds, "doc_id", "text", 0.8, size_hint_bytes=1024)
