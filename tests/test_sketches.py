"""Unit tests for the mergeable sketches: error bounds + merge invariance.

These are the properties the engine's correctness rests on (SURVEY.md §5):
sketch estimates within published bounds vs exact answers, and
order-independent merges (partials from map_batches can arrive in any
order).
"""

from __future__ import annotations

import numpy as np
import pytest

from anomalydetection_ray.sketches import BloomFilter, FixedHistogram, HyperLogLog, KLL
from anomalydetection_ray.sketches.histogram import ks_statistic, psi
from anomalydetection_ray.sketches.minhash import (
    MinHasher,
    band_keys,
    batch_band_keys,
    concat_hash_sets,
    exact_jaccard,
    shingle_hashes,
    word_hashes,
)
from anomalydetection_ray.sketches.simhash import (
    batch_simhash_fnv,
    hamming_distance,
    popcount64,
    simhash_text,
)


# ---------------- HLL ----------------


@pytest.mark.parametrize("n", [100, 10_000, 200_000])
def test_hll_error_bound(n):
    sk = HyperLogLog(p=12)
    sk.update(np.arange(n))
    rel_err = abs(sk.estimate() - n) / n
    # 1.04/sqrt(2^12) ~= 1.6%; allow 3 sigma
    assert rel_err < 0.05, rel_err


def test_hll_strings_and_duplicates():
    sk = HyperLogLog(p=12)
    vals = np.array([f"repo{i % 500}" for i in range(5000)], dtype=object)
    sk.update(vals)
    assert abs(sk.estimate() - 500) / 500 < 0.05


def test_hll_merge_equals_union():
    a, b = HyperLogLog(p=10), HyperLogLog(p=10)
    a.update(np.arange(0, 3000))
    b.update(np.arange(2000, 6000))
    merged = HyperLogLog.from_bytes(a.to_bytes()).merge(b)
    direct = HyperLogLog(p=10).update(np.arange(0, 6000))
    assert merged.estimate() == direct.estimate()  # register-exact


def test_hll_merge_order_invariance():
    parts = [np.arange(i * 1000, (i + 1) * 1000) for i in range(8)]
    sks = [HyperLogLog(p=10).update(p_) for p_ in parts]
    f = HyperLogLog(p=10)
    for s in sks:
        f.merge(s)
    r = HyperLogLog(p=10)
    for s in reversed(sks):
        r.merge(s)
    assert np.array_equal(f.registers, r.registers)


# ---------------- KLL ----------------


@pytest.mark.parametrize("dist", ["uniform", "normal", "sorted", "zipf"])
def test_kll_rank_error(dist):
    rng = np.random.RandomState(7)
    n = 100_000
    if dist == "uniform":
        data = rng.uniform(0, 1, n)
    elif dist == "normal":
        data = rng.normal(0, 1, n)
    elif dist == "sorted":
        data = np.arange(n, dtype=float)
    else:
        data = rng.zipf(1.5, n).astype(float)
    sk = KLL(k=256)
    for chunk in np.array_split(data, 37):
        sk.update(chunk)
    srt = np.sort(data)
    for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99]:
        est = sk.quantile(q)
        # with duplicate-heavy data the CDF jumps: the estimate's true rank
        # is an interval [lo, hi]; error = distance from q to that interval
        lo = np.searchsorted(srt, est, side="left") / n
        hi = np.searchsorted(srt, est, side="right") / n
        err = 0.0 if lo <= q <= hi else min(abs(q - lo), abs(q - hi))
        assert err < 0.02, (dist, q, lo, hi)


def test_kll_merge_matches_single():
    rng = np.random.RandomState(3)
    data = rng.normal(0, 1, 50_000)
    parts = np.array_split(data, 9)
    sks = [KLL(k=200).update(p) for p in parts]
    merged = sks[0]
    for s in sks[1:]:
        merged.merge(s)
    assert merged.n == 50_000
    srt = np.sort(data)
    for q in [0.1, 0.5, 0.9]:
        est = merged.quantile(q)
        true_rank = np.searchsorted(srt, est, side="right") / len(data)
        assert abs(true_rank - q) < 0.03


def test_kll_exact_when_small():
    sk = KLL(k=256)
    sk.update(np.arange(100, dtype=float))
    assert sk.quantile(0.5) in (49.0, 50.0)
    assert sk.quantile(0.0) == 0.0
    assert sk.quantile(1.0) == 99.0


def test_kll_serialization_roundtrip():
    sk = KLL(k=64).update(np.arange(10_000, dtype=float))
    sk2 = KLL.from_bytes(sk.to_bytes())
    assert sk2.quantile(0.5) == sk.quantile(0.5)
    assert sk2.n == sk.n


# ---------------- Bloom ----------------


def test_bloom_no_false_negatives():
    keys = np.array([f"org{i}/repo{i}" for i in range(10_000)], dtype=object)
    bf = BloomFilter(capacity=10_000, fp_rate=0.01)
    bf.update(keys)
    assert bf.contains(keys).all()


def test_bloom_fp_rate():
    bf = BloomFilter(capacity=5_000, fp_rate=0.01)
    bf.update(np.arange(5_000))
    probe = np.arange(5_000, 55_000)
    fp = bf.contains(probe).mean()
    assert fp < 0.03, fp


def test_bloom_merge_and_roundtrip():
    a = BloomFilter(capacity=1000, fp_rate=0.01).update(np.arange(500))
    b = BloomFilter(capacity=1000, fp_rate=0.01).update(np.arange(500, 1000))
    a.merge(b)
    a2 = BloomFilter.from_bytes(a.to_bytes())
    assert a2.contains(np.arange(1000)).all()


# ---------------- Histogram / PSI / KS ----------------


def test_histogram_merge_is_sum():
    edges = np.linspace(0, 1, 11)
    rng = np.random.RandomState(0)
    d1, d2 = rng.uniform(0, 1, 1000), rng.uniform(0, 1, 2000)
    h1 = FixedHistogram(edges).update(d1)
    h2 = FixedHistogram(edges).update(d2)
    both = FixedHistogram(edges).update(np.concatenate([d1, d2]))
    h1.merge(h2)
    assert np.array_equal(h1.counts, both.counts)


def test_psi_ks_detect_shift():
    edges = np.linspace(-5, 5, 51)
    rng = np.random.RandomState(1)
    base = FixedHistogram(edges).update(rng.normal(0, 1, 20_000))
    same = FixedHistogram(edges).update(rng.normal(0, 1, 20_000))
    shifted = FixedHistogram(edges).update(rng.normal(1.0, 1, 20_000))
    assert psi(base, same) < 0.02
    assert psi(base, shifted) > 0.2
    assert ks_statistic(base, same) < 0.03
    assert ks_statistic(base, shifted) > 0.3


# ---------------- MinHash / SimHash ----------------


def test_minhash_estimates_jaccard():
    mh = MinHasher(num_perm=256)
    t1 = "the quick brown fox jumps over the lazy dog " * 20
    t2 = "the quick brown fox leaps over the lazy dog " * 20
    t3 = "completely different content with nothing shared at all zzz " * 20
    h1, h2, h3 = shingle_hashes(t1), shingle_hashes(t2), shingle_hashes(t3)
    s1, s2, s3 = mh.signature(h1), mh.signature(h2), mh.signature(h3)
    true12 = exact_jaccard(h1, h2)
    assert abs(MinHasher.jaccard(s1, s2) - true12) < 0.1
    assert MinHasher.jaccard(s1, s3) < 0.1


def test_minhash_band_collision_for_near_dups():
    mh = MinHasher(num_perm=128)
    rng = np.random.RandomState(5)
    words = [f"tok{i}" for i in range(2000)]
    t1 = " ".join(rng.choice(words, 800))  # long, varied → many unique shingles
    t2 = t1 + " trailing comment"
    s1, s2 = mh.signature(shingle_hashes(t1)), mh.signature(shingle_hashes(t2))
    b1, b2 = band_keys(s1, bands=16), band_keys(s2, bands=16)
    assert (b1 == b2).any()  # near-dups share at least one band


def test_word_hashes_set_semantics():
    a = word_hashes("a b c a b")
    b = word_hashes("c b a")
    assert np.array_equal(np.sort(a), np.sort(b))


def test_simhash_near_vs_far():
    t1 = "import numpy as np\n" * 50 + "x = 1\n"
    t2 = "import numpy as np\n" * 50 + "x = 2\n"
    t3 = "SELECT * FROM completely_other_table WHERE z > 9\n" * 50
    f1, f2, f3 = simhash_text(t1), simhash_text(t2), simhash_text(t3)
    d12 = hamming_distance(np.array([f1]), np.array([f2]))[0]
    d13 = hamming_distance(np.array([f1]), np.array([f3]))[0]
    assert d12 <= 8
    assert d13 > 12


def test_popcount():
    x = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert popcount64(x).tolist() == [0, 1, 2, 64]


def test_hll_merge_many_bytes_equals_pairwise():
    import numpy as np

    from anomalydetection_ray.sketches import HyperLogLog

    rng = np.random.default_rng(5)
    parts = [rng.integers(0, 50_000, size=20_000) for _ in range(8)]
    sks = [HyperLogLog(12).update(p) for p in parts]
    pairwise = HyperLogLog(12)
    for s in sks:
        pairwise.merge(s)
    nary = HyperLogLog.merge_many_bytes([s.to_bytes() for s in sks])
    assert (nary.registers == pairwise.registers).all()
    assert HyperLogLog.merge_many_bytes([]).estimate() == 0.0


def test_kll_merge_many_rank_bound():
    import numpy as np

    from anomalydetection_ray.sketches import KLL

    rng = np.random.default_rng(11)
    data = rng.lognormal(3, 1.5, size=200_000)
    chunks = np.array_split(data, 137)
    merged = KLL.merge_many([KLL(256).update(c) for c in chunks])
    assert merged.n == len(data)
    srt = np.sort(data)
    for q in (0.1, 0.5, 0.95, 0.99):
        est = merged.quantile(q)
        rank = np.searchsorted(srt, est, side="right") / len(srt)
        assert abs(rank - q) < 2.5 / 256, (q, rank)
    # empty-input edges
    assert np.isnan(KLL.merge_many([]).quantile(0.5))
    assert np.isnan(KLL.merge_many([KLL(256)]).quantile(0.5))


def test_stats_partials_merge_grouping_invariance():
    """Exact stat fields must be identical no matter how the partial rows
    are grouped into tables before merging (the property per-shard
    checkpointing relies on)."""
    import numpy as np
    import pyarrow as pa

    from anomalydetection_ray.checks.stats import (
        PARTIAL_SCHEMA,
        make_stats_partial_fn,
        merge_partials_to_stats,
    )

    rng = np.random.default_rng(3)
    n = 5000
    tbl = pa.table(
        {
            "lang": pa.array(np.array(["py", "go", "rs"], dtype=object)[rng.integers(0, 3, n)]),
            "content": pa.array([("x" * int(k)) or None for k in rng.integers(0, 50, n)]),
        }
    )
    fn = make_stats_partial_fn(["content"], ["lang"])
    # batching A: 7 uneven slices; batching B: 23 slices
    def partials(n_slices):
        bounds = np.linspace(0, n, n_slices + 1).astype(int)
        return [fn(tbl.slice(bounds[i], bounds[i + 1] - bounds[i])) for i in range(n_slices)]

    a = merge_partials_to_stats(partials(7))
    b = merge_partials_to_stats(partials(23))
    exact = ["part", "column", "count", "nulls", "null_rate", "distinct_est", "vmin", "vmax", "smin", "smax"]
    assert a[exact].equals(b[exact])
    assert np.allclose(a["mean"], b["mean"], rtol=1e-12)
    assert np.allclose(a["std"], b["std"], rtol=1e-9)


# ---------------- batch-vectorized signature paths ----------------

_PARITY_TEXTS = [
    "",
    "a",
    "a a a b",
    "\t\nx  y\r",
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumps over the lazy dog!",
    "def f(x):\n    return x * 2\n" * 10,
    "unicode éèê 中文 tokens éèê",
    "x" * 300,
    " ".join(f"tok{i % 37}" for i in range(500)),
]


@pytest.mark.parametrize("shingle", ["char", "word"])
def test_batch_signatures_bit_identical_to_per_doc(shingle):
    mh = MinHasher(num_perm=128, seed=42)
    hasher = (lambda t: shingle_hashes(t, 5)) if shingle == "char" else word_hashes
    hs = [hasher(t) for t in _PARITY_TEXTS]
    ref_sigs = np.stack([mh.signature(h) for h in hs])
    ref_keys = np.stack([band_keys(s, 32) for s in ref_sigs])
    values, offsets = concat_hash_sets(hs)
    sigs = mh.batch_signatures(values, offsets)
    keys = batch_band_keys(sigs, 32)
    assert np.array_equal(ref_sigs, sigs)
    assert np.array_equal(ref_keys, keys)


def test_batch_signatures_empty_and_guard():
    mh = MinHasher(num_perm=16, seed=1)
    values, offsets = concat_hash_sets([])
    assert mh.batch_signatures(values, offsets).shape == (0, 16)
    # an empty per-doc hash set would silently corrupt reduceat output
    values, offsets = concat_hash_sets([word_hashes("a"), np.empty(0, dtype=np.uint64)])
    with pytest.raises(ValueError):
        mh.batch_signatures(values, offsets)


def test_batch_signatures_odd_slab_boundaries():
    # num_perm that does not divide the slab budget evenly + docs larger
    # than one slab must still be bit-identical across slab boundaries
    mh = MinHasher(num_perm=96, seed=7)
    rng = np.random.default_rng(0)
    hs = [
        np.unique(rng.integers(1, 1 << 60, size=int(k)).astype(np.uint64))
        for k in rng.integers(1, 5000, size=40)
    ]
    ref = np.stack([mh.signature(h) for h in hs])
    values, offsets = concat_hash_sets(hs)
    assert np.array_equal(ref, mh.batch_signatures(values, offsets))


def test_batch_simhash_fnv_bit_identical():
    texts = np.array(_PARITY_TEXTS + [None], dtype=object)
    ref = np.array(
        [np.uint64(simhash_text(t if t is not None else "", "fnv")) for t in texts],
        dtype=np.uint64,
    )
    assert np.array_equal(ref, batch_simhash_fnv(texts))
    assert batch_simhash_fnv(np.array([], dtype=object)).shape == (0,)


def test_batch_simhash_md5_bit_identical():
    from anomalydetection_ray.sketches.simhash import batch_simhash_md5

    texts = np.array(_PARITY_TEXTS + [None], dtype=object)
    ref = np.array(
        [np.uint64(simhash_text(t if t is not None else "", "md5")) for t in texts],
        dtype=np.uint64,
    )
    assert np.array_equal(ref, batch_simhash_md5(texts))
    assert batch_simhash_md5(np.array([], dtype=object)).shape == (0,)


def test_misra_gries_bound_and_merge_order_invariance():
    """MG guarantee n(x)-err <= est(x) <= n(x), err <= N/(k+1), presence of
    every key above the bound — under single-stream AND both merge orders."""
    from anomalydetection_ray.sketches.heavy import MisraGries

    rng = np.random.default_rng(7)
    vals = rng.zipf(1.5, 100000)
    vals = vals[vals < 5000]
    uniq, cnt = np.unique(vals, return_counts=True)
    exact = dict(zip(uniq.tolist(), cnt.tolist()))

    shards = np.array_split(vals, 23)
    parts = [MisraGries(64).update(s) for s in shards]
    merged_fwd = MisraGries.merge_many(parts)
    merged_rev = MisraGries.merge_many([MisraGries(64).update(s) for s in reversed(shards)])
    single = MisraGries(64).update(vals)

    for mg in (single, merged_fwd, merged_rev):
        assert mg.n == len(vals)
        assert mg.err <= mg.error_bound()
        for key, n in exact.items():
            est = mg.estimate(key)
            assert est <= n and n - est <= mg.err
        hot = [key for key, n in exact.items() if n > mg.error_bound()]
        assert hot, "fixture must plant real heavy hitters"
        for key in hot:
            assert mg.estimate(key) > 0
        assert set(hot) <= set(mg.candidates(mg.error_bound() + 1).tolist())


def test_misra_gries_string_keys_and_vectorized_estimates():
    from anomalydetection_ray.sketches.heavy import MisraGries

    sv = np.array([f"w{i % 13}" for i in range(5000)] + ["hot"] * 3000, dtype=object)
    mg = MisraGries(8).update(sv)
    assert mg.estimate("hot") >= 3000 - mg.err
    keys = np.array(["hot", "w0", "absent"], dtype=object)
    ests = mg.estimates(keys)
    assert [int(e) for e in ests] == [mg.estimate("hot"), mg.estimate("w0"), 0]
    assert mg.estimate("absent") == 0


def test_dataset_heavy_hitters_matches_exact_within_bound(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import dataset_heavy_hitters

    rng = np.random.default_rng(11)
    vals = np.where(rng.random(40000) < 0.3, 5, rng.integers(0, 3000, 40000)).astype("int64")
    tbl = pa.table({"k": vals})
    tbl = pa.concat_tables([tbl, pa.table({"k": pa.array([None] * 10, type=pa.int64())})])
    ds = rd.from_arrow(tbl).repartition(16)
    mg = dataset_heavy_hitters(ds, "k", k=128)
    assert mg.n == 40000  # nulls excluded
    assert mg.err <= mg.error_bound()
    uniq, cnt = np.unique(vals, return_counts=True)
    ests = mg.estimates(uniq)
    assert np.all(ests <= cnt) and np.all(cnt - ests <= mg.err)
    assert mg.estimate(5) >= int(cnt[uniq == 5][0]) - mg.err > 0


def test_tdigest_rank_error_bound_across_distributions():
    """t-digest (delta=200) keeps interval rank error <= 0.02 at every
    tested quantile, for single-stream AND merged builds, on smooth,
    heavy-tailed, pre-sorted and tie-heavy inputs (ties make the CDF
    jump, so the error is measured against the tie INTERVAL)."""
    from anomalydetection_ray.sketches.tdigest import TDigest

    rng = np.random.default_rng(0)
    datasets = [
        rng.normal(0, 1, 200000),
        rng.lognormal(0, 2, 200000),
        np.sort(rng.random(100000)),
        np.concatenate([np.zeros(100000), rng.random(50000)]),
    ]
    for data in datasets:
        parts = [TDigest(200).update(c) for c in np.array_split(data, 37)]
        merged = TDigest.merge_many(parts)
        single = TDigest(200)
        for c in np.array_split(data, 11):
            single.update(c)
        s = np.sort(data)
        for td in (single, merged):
            assert td.n == len(data)
            for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999]:
                est = td.quantile(q)
                lo = np.searchsorted(s, est, "left") / len(s)
                hi = np.searchsorted(s, est, "right") / len(s)
                err = 0.0 if lo <= q <= hi else min(abs(q - lo), abs(q - hi))
                assert err <= 0.02, (q, est, err)


def test_tdigest_serialization_roundtrip_and_extremes():
    from anomalydetection_ray.sketches.tdigest import TDigest

    rng = np.random.default_rng(1)
    data = rng.normal(5, 3, 50000)
    td = TDigest(100).update(data)
    t2 = TDigest.from_bytes(td.to_bytes())
    for q in [0.001, 0.5, 0.999]:
        assert abs(td.quantile(q) - t2.quantile(q)) < 1e-12
    # extreme quantiles clamp to the observed min/max
    assert td.quantile(0.0) == data.min()
    assert td.quantile(1.0) == data.max()
    # empty sketch
    assert np.isnan(TDigest().quantile(0.5))


def test_categorical_profile_mode_entropy_nulls_and_layout(ray_session):
    """categorical_profile: exact mode with smallest-value tie-break, null
    values dropped, null partitions kept, entropy = ln T - sum(c ln c)/T,
    and invariance to block layout (the fold is associative)."""
    import math

    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.checks.stats import categorical_profile

    df = pd.DataFrame(
        {
            "lang": ["en"] * 6 + ["fr"] * 4 + [None] * 2,
            "src": ["a", "a", "b", "b", "c", None, "x", "x", "y", "z", "q", "q"],
        }
    )
    expect_en = math.log(5) - (4 * math.log(2)) / 5
    expect_fr = math.log(4) - (2 * math.log(2)) / 4
    for nblocks in (1, 3, 12):
        out = categorical_profile(rd.from_pandas(df).repartition(nblocks), "src", ["lang"])
        by = {r["lang"]: r for _, r in out.iterrows()}
        assert by["en"]["mode"] == "a" and by["en"]["mode_count"] == 2  # tie a/b -> smallest
        assert by["en"]["n_distinct"] == 3
        assert abs(by["en"]["entropy"] - expect_en) < 1e-12
        assert abs(by["fr"]["entropy"] - expect_fr) < 1e-12
        assert by[None]["mode"] == "q" and by[None]["entropy"] == 0.0

    glob = categorical_profile(rd.from_pandas(df).repartition(4), "src")
    assert len(glob) == 1
    assert glob.loc[0, "mode"] == "a" and glob.loc[0, "n_distinct"] == 7
    T = 11.0
    assert abs(glob.loc[0, "entropy"] - (math.log(T) - (8 * math.log(2)) / T)) < 1e-12


def test_categorical_profile_empty(ray_session):
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.checks.stats import categorical_profile

    empty = rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype=str), "v": pd.Series([], dtype=str)}))
    out = categorical_profile(empty, "v", ["k"])
    assert len(out) == 0 and list(out.columns) == ["k", "mode", "mode_count", "n_distinct", "entropy"]


def test_mutual_information_dependence_independence_nulls(ray_session):
    """mutual_information: MI = ln 2 for a perfectly dependent binary pair,
    0 for independence, null rows dropped, layout invariant, empty safe."""
    import math

    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.checks.stats import mutual_information

    dep = pd.DataFrame({"a": ["x", "x", "y", "y"] * 10, "b": ["p", "p", "q", "q"] * 10})
    for nb in (1, 3, 8):
        r = mutual_information(rd.from_pandas(dep).repartition(nb), "a", "b")
        assert abs(r["mi"] - math.log(2)) < 1e-12 and abs(r["nmi"] - 1.0) < 1e-12, (nb, r)

    ind = pd.DataFrame({"a": ["x", "x", "y", "y"] * 10, "b": ["p", "q", "p", "q"] * 10})
    r = mutual_information(rd.from_pandas(ind).repartition(4), "a", "b")
    assert abs(r["mi"]) < 1e-12 and r["n"] == 40

    # null rows in either column are excluded
    withnull = pd.concat([dep, pd.DataFrame({"a": [None, "x"], "b": ["p", None]})])
    r2 = mutual_information(rd.from_pandas(withnull).repartition(3), "a", "b")
    assert r2["n"] == 40 and abs(r2["mi"] - math.log(2)) < 1e-12

    empty = mutual_information(rd.from_pandas(dep.iloc[:0]), "a", "b")
    assert empty == {"n": 0, "h_a": 0.0, "h_b": 0.0, "h_ab": 0.0, "mi": 0.0, "nmi": 0.0}


def test_grouped_kll_quantiles_rank_error(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import grouped_kll_quantiles
    from anomalydetection_ray.pipelines.queries import as_table

    rng = np.random.default_rng(21)
    keys = rng.choice(["x", "y", "z"], size=30_000, p=[0.6, 0.3, 0.1])
    vals = np.where(keys == "x", rng.standard_normal(30_000) * 50,
                    rng.exponential(10.0, 30_000))
    t = pa.table({"g": keys, "v": vals})
    for parts in (2, 9):
        out = (
            as_table(grouped_kll_quantiles(rd.from_arrow(t).repartition(parts), ["g"], "v", [0.5, 0.95]))
            .to_pandas()
            .set_index("g")
        )
        assert sorted(out.index) == ["x", "y", "z"]
        for g in ("x", "y", "z"):
            sub = np.sort(vals[keys == g])
            for q, col in ((0.5, "q50"), (0.95, "q95")):
                est = out.loc[g, col]
                lo = np.searchsorted(sub, est, side="left") / len(sub)
                hi = np.searchsorted(sub, est, side="right") / len(sub)
                err = max(lo - q, 0.0) + max(q - hi, 0.0)
                assert err <= 0.02, (g, col, err)
    # null values drop; an all-null group vanishes (exact-op parity)
    t2 = pa.table({"g": ["a", "a", "b"], "v": pa.array([1.0, None, None], type=pa.float64())})
    out2 = as_table(grouped_kll_quantiles(rd.from_arrow(t2), ["g"], "v", [0.5])).to_pandas()
    assert out2["g"].tolist() == ["a"] and out2["q50"].tolist() == [1.0]


def test_hash64_arrow_value_pure_across_null_presence():
    """The hash of a value must not depend on whether its BLOCK contains a
    null: to_numpy silently converts null-bearing int columns to float64,
    which used to route through the float bit-pattern path (and collapse
    ints >= 2^53)."""
    import numpy as np
    import pyarrow as pa

    from anomalydetection_ray.sketches.hll import hash64_arrow

    a = hash64_arrow(pa.array([42, 7], type=pa.int64()))
    b = hash64_arrow(pa.array([42, 7, None], type=pa.int64()))
    assert a[0] == b[0] and a[1] == b[1]
    big = 2**60 + 1
    c = hash64_arrow(pa.array([big, big + 1, None], type=pa.int64()))
    assert c[0] != c[1]  # no float64 precision collapse
    ts_n = hash64_arrow(pa.array([1, 2, None], type=pa.timestamp("us")))
    ts = hash64_arrow(pa.array([1, 2], type=pa.timestamp("us")))
    assert ts_n[0] == ts[0] and ts_n[1] == ts[1]
    assert len({c[2], b[2]}) == 1  # nulls share one sentinel hash


def test_kll_weight_exact_and_min_preserved():
    """Compaction must conserve total sample weight (the off=1 odd-length
    branch used to discard the level MINIMUM outright — 4% of weight
    vanished and low quantiles biased up)."""
    import numpy as np

    from anomalydetection_ray.sketches.kll import KLL

    rng = np.random.default_rng(2)
    sk = KLL(16)
    for _ in range(200):
        sk.update(rng.random(97))
    total_w = sum(len(lv) * 2**i for i, lv in enumerate(sk.levels))
    assert total_w == sk.n == 19400


def test_hash64_floats_bit_pattern_not_truncated():
    """hash64 on floats must hash the IEEE bit pattern: the old int64
    value cast collapsed every float in [k, k+1) onto one hash (a
    uniform(0,1) column distinct-counted as 1). -0.0 == 0.0 and all NaNs
    collapse (SQL equality); HLL on a fractional column is sane again."""
    import numpy as np

    from anomalydetection_ray.sketches.hll import HyperLogLog, hash64

    h = hash64(np.array([0.25, 0.75, 1.25]))
    assert len(set(h.tolist())) == 3
    assert hash64(np.array([-0.0]))[0] == hash64(np.array([0.0]))[0]
    assert hash64(np.array([float("nan")]))[0] == hash64(np.array([np.float64("nan") * -1]))[0]
    rng = np.random.default_rng(3)
    vals = rng.random(20_000)
    hl = HyperLogLog(12).update_hashed(hash64(vals))
    assert abs(hl.estimate() - 20_000) / 20_000 < 0.05


def test_tdigest_delta_mismatch_and_stable_requeries():
    import numpy as np
    import pytest as _pytest

    from anomalydetection_ray.sketches.tdigest import TDigest

    t = TDigest(64).update(np.random.default_rng(1).random(50_000))
    with _pytest.raises(ValueError, match="delta"):
        t.merge(TDigest(128))
    # repeated queries must not keep recompressing (coarsening) the digest
    q1 = [t.quantile(q) for q in (0.5, 0.99, 0.999)]
    for _ in range(50):
        t.quantile(0.5)
    q2 = [t.quantile(q) for q in (0.5, 0.99, 0.999)]
    assert q1 == q2


def test_kll_merge_rejects_k_mismatch():
    """Round-5 review: every sibling sketch raises on parameter mismatch;
    KLL silently merged different-k sketches, degrading the 2.5/k bound."""
    from anomalydetection_ray.sketches.kll import KLL

    a, b = KLL(256), KLL(16)
    a.update(np.arange(100.0))
    b.update(np.arange(100.0))
    with pytest.raises(ValueError, match="different k"):
        a.merge(b)
    with pytest.raises(ValueError, match="different k"):
        KLL.merge_many([a, b])


def test_histogram_merge_bytes_rejects_different_ranges():
    """Round-5 review: merge_many_bytes validated only the bin COUNT, so
    histograms over different ranges with the same bin count merged
    silently — wrong PSI/KS scores with no error."""
    from anomalydetection_ray.sketches.histogram import FixedHistogram

    a = FixedHistogram(np.linspace(0.0, 1.0, 51))
    b = FixedHistogram(np.linspace(0.0, 100.0, 51))
    a.update(np.array([0.5])); b.update(np.array([50.0]))
    with pytest.raises(ValueError, match="different bin edges"):
        FixedHistogram.merge_many_bytes([a.to_bytes(), b.to_bytes()])
    # same edges still merge
    c = FixedHistogram(np.linspace(0.0, 1.0, 51)); c.update(np.array([0.25]))
    m = FixedHistogram.merge_many_bytes([a.to_bytes(), c.to_bytes()])
    assert m.total == 2


def test_hll_rank_exact_at_float_rounding_boundary():
    """Round-5 review: float64 log2 rounded an all-ones remainder UP to
    2^64 (rank 0 — the value silently dropped). The integer shift-check
    repairs the exponent exactly; parity vs pure-python bit_length."""
    from anomalydetection_ray.sketches.hll import HyperLogLog

    h = HyperLogLog(12)
    h.update_hashed(np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
    assert h.registers.max() == 1  # all-ones remainder: zero leading zeros
    rng = np.random.default_rng(3)
    hs = rng.integers(0, 2**64, size=50_000, dtype=np.uint64)
    p = 10
    a = HyperLogLog(p)
    a.update_hashed(hs)
    regs = np.zeros(1 << p, dtype=int)
    for v in hs.tolist():
        rest = ((v << p) & ((1 << 64) - 1)) | (1 << (p - 1))
        rank = 64 - (rest.bit_length() - 1)
        idx = v >> (64 - p)
        regs[idx] = max(regs[idx], rank)
    assert (a.registers == regs).all()
