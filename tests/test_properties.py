"""Property-based tests (hypothesis) for the engine's algebraic
contracts — the invariants that make distributed execution correct at
ANY block boundaries:

- sketch partials merge associatively/commutatively (HLL, KLL);
- the template miner's partial is a join-semilattice element (any shard
  split → identical templates);
- windowed/rolling kernels equal their brute-force per-row definitions;
- SimHash Hamming candidates via prefix blocks are complete (pigeonhole).

No Ray needed: these exercise the pure kernels the distributed stages
wrap, so shrinking works and the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

_token = st.text(alphabet="ab1 ", min_size=0, max_size=12)
_lines = st.lists(_token, min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_lines, st.integers(min_value=1, max_value=5))
def test_miner_semilattice_any_split(lines, n_cuts):
    """Mining shard partials at ANY boundaries and merging them in any
    grouping equals mining the whole corpus at once."""
    from anomalydetection_ray.sources.miner import (
        combine_partials_batch,
        merge_partial_tables,
        mine_partial_batch,
    )

    t = pa.table({"text": pa.array(lines, type=pa.string())})
    whole = merge_partial_tables([mine_partial_batch(t)])
    rng = np.random.default_rng(len(lines) * 31 + n_cuts)
    cuts = sorted({0, len(lines), *map(int, rng.integers(0, len(lines) + 1, n_cuts))})
    parts = [mine_partial_batch(t.slice(a, b - a)) for a, b in zip(cuts, cuts[1:])]
    assert merge_partial_tables(parts).equals(whole)
    if parts:
        recombined = combine_partials_batch(pa.concat_tables(parts))
        assert merge_partial_tables([recombined]).equals(whole)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="xyz0189 ", min_size=0, max_size=30), min_size=0, max_size=60))
def test_hll_merge_order_invariant(texts):
    from anomalydetection_ray.sketches import HyperLogLog as HLL

    full = HLL(p=10)
    for t in texts:
        full = full.update(np.array([t], dtype=object))
    # split into 3 partials, merge in reverse
    sks = [HLL(p=10) for _ in range(3)]
    for i, t in enumerate(texts):
        sks[i % 3] = sks[i % 3].update(np.array([t], dtype=object))
    merged = sks[2].merge(sks[1]).merge(sks[0])
    assert merged.estimate() == full.estimate()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=400),
    st.integers(min_value=2, max_value=5),
)
def test_kll_merge_matches_single_stream_bounds(values, n_parts):
    """Merging KLL partials built from any split keeps rank error within
    the sketch's documented bound vs exact quantiles."""
    from anomalydetection_ray.sketches import KLL

    arr = np.asarray(values, dtype=np.float64)
    parts = np.array_split(arr, n_parts)
    sk = KLL(128)
    for p in parts[::-1]:
        other = KLL(128).update(p)
        sk = sk.merge(other)
    for q in (0.1, 0.5, 0.9):
        est = sk.quantile(q)
        # duplicates make the rank of est an INTERVAL [(arr < est), (arr <= est)];
        # the estimate is correct if that interval comes within the bound of q
        r_lo = (arr < est).mean()
        r_hi = (arr <= est).mean()
        assert r_lo - q <= 0.15 and q - r_hi <= 0.15  # k=128 bound with slack


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 500), st.floats(0, 10, allow_nan=False)),
        min_size=1,
        max_size=120,
    ),
    st.integers(min_value=1, max_value=100),
)
def test_rolling_window_matches_bruteforce(rows, win_s):
    """The binary-search rolling kernel equals the O(n²) definition."""
    import datetime

    import polars as pl

    from anomalydetection_ray.functions.temporal import rolling_window_agg

    base = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], type=pa.int64()),
            "t": pa.array([base + np.timedelta64(r[1], "s") for r in rows], type=pa.timestamp("us")),
            "v": pa.array([r[2] for r in rows], type=pa.float64()),
            "rid": pa.array(range(len(rows)), type=pa.int64()),
        }
    )
    # run the block kernel directly (no Ray): one block holding all keys
    # is exactly what each shuffled partition sees
    import anomalydetection_ray.functions.temporal as tmod

    block_fn_holder = {}
    orig = tmod.local_group_map

    def capture(ds, keys, fn, num_blocks=None):
        block_fn_holder["fn"] = fn
        return None

    tmod.local_group_map = capture
    try:
        rolling_window_agg(_FakeDs(t), "k", "t", "v", datetime.timedelta(seconds=win_s), carry=["rid"])
    finally:
        tmod.local_group_map = orig
    out = block_fn_holder["fn"](t).to_pandas().set_index("rid").sort_index()

    ks = np.array([r[0] for r in rows])
    ts = np.array([r[1] for r in rows], dtype=np.int64)
    vs = np.array([r[2] for r in rows])
    for i in range(len(rows)):
        m = (ks == ks[i]) & (ts >= ts[i] - win_s) & (ts <= ts[i])
        assert out.loc[i, "w_count"] == m.sum()
        assert np.isclose(out.loc[i, "w_sum"], vs[m].sum())


class _FakeDs:
    """Minimal Dataset stand-in for kernel-level property tests."""

    def __init__(self, tbl: pa.Table):
        self._t = tbl

    def schema(self, **_kw):
        t = self._t

        class S:
            base_schema = t.schema

        return S()

    def select_columns(self, cols):
        return _FakeDs(self._t.select(cols))

    def map_batches(self, fn, **kw):
        return self


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=2, max_size=30))
def test_simhash_prefix_blocks_complete(fps):
    """Pigeonhole completeness: any two fingerprints within Hamming
    distance n_blocks-1 share at least one prefix block key."""
    from anomalydetection_ray.sketches.simhash import hamming_distance, prefix_blocks

    arr = np.array(fps, dtype=np.uint64)
    n_blocks = 4
    blocks = prefix_blocks(arr, n_blocks)
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            d = int(hamming_distance(arr[i : i + 1], arr[j : j + 1])[0])
            if d <= n_blocks - 1:
                assert (blocks[i] == blocks[j]).any(), (arr[i], arr[j], d)


_WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
_doc = st.lists(st.sampled_from(_WORDS), min_size=0, max_size=18).map(" ".join)


@settings(max_examples=12, deadline=None)
@given(docs=st.lists(_doc, min_size=1, max_size=24), n_clones=st.integers(0, 3))
def test_verified_dedup_plans_agree_on_random_corpora(ray_session, docs, n_clones):
    """Plan-choice must never change the answer: the in-process
    candidacy-matrix plan, the rounds fallback, and the fully-distributed
    plan produce identical survivors on arbitrary corpora — including
    cloned docs (dense J=1 mass), empty docs, and tiny word vocabularies
    that force extreme bucket densities."""
    import ray.data as rd

    import pytest

    from anomalydetection_ray.dedup import minhash_lsh_dedup_verified
    from anomalydetection_ray.dedup import neardup
    from anomalydetection_ray.functions import shuffle

    docs = docs + docs[:n_clones]  # planted exact dups
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(docs)), type=pa.int64()), "text": pa.array(docs)})
    )
    want = None
    for forced in (False, True):
        with pytest.MonkeyPatch.context() as m:
            if forced:
                m.setattr(neardup, "LOCAL_PLAN_MAX_BYTES", -1)
                m.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
            got = sorted(
                minhash_lsh_dedup_verified(ds, "doc_id", "text", threshold=0.8, shingle="word")
                .to_pandas()["doc_id"].tolist()
            )
        if want is None:
            want = got
        assert got == want, forced


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.text(alphabet="abc ", min_size=0, max_size=40)),
             min_size=1, max_size=12),
    st.integers(min_value=1, max_value=8),
)
def test_substring_mark_kernel_matches_byte_reference(texts, k):
    """The broadcast-rung marking kernel (hash membership + span merge)
    equals the byte-level reference (ACTUAL substrings, not hashes) on
    arbitrary corpora — pins hash-kernel, offsets, and island merging."""
    from test_substrings import ref_stats

    from anomalydetection_ray.dedup.substrings import _mark_batch
    from anomalydetection_ray.functions.text import kgram_hashes

    per_doc = []
    for t in texts:
        if t is None:
            per_doc.append(np.empty(0, dtype=np.uint64))
        else:
            b = np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
            per_doc.append(np.unique(kgram_hashes(b, k)))
    flat = np.concatenate(per_doc) if per_doc else np.empty(0, dtype=np.uint64)
    vals, cnt = np.unique(flat, return_counts=True)
    dup_sorted = vals[cnt >= 2]

    tb = pa.table({"text": pa.array(texts, type=pa.string())})
    out = _mark_batch(tb, "text", k, dup_sorted, emit_spans=False)
    got = list(zip(out["dup_gram_count"].to_pylist(),
                   out["dup_span_count"].to_pylist(),
                   out["dup_span_bytes"].to_pylist()))
    assert got == ref_stats(texts, k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=1, max_value=6),
)
def test_hash_gaussian_pure_per_id(ids, tag, dims):
    """The trainers' reparameterization noise is a pure function of
    (id, tag, column): any block slicing, duplication, or reordering of
    the id array yields exactly the per-id rows — the invariant that
    makes the distributed VAE gradient layout-independent."""
    from anomalydetection_ray.functions.trainers import hash_gaussian

    a = np.array(ids, dtype=np.uint64)
    g = hash_gaussian(a, tag, dims)
    assert g.shape == (len(a), dims)
    assert np.isfinite(g).all()
    for i in (0, len(a) // 2, len(a) - 1):
        np.testing.assert_array_equal(hash_gaussian(a[i : i + 1], tag, dims)[0], g[i])
    doubled = hash_gaussian(np.concatenate([a, a]), tag, dims)
    np.testing.assert_array_equal(doubled[: len(a)], doubled[len(a) :])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),   # rows
    st.integers(min_value=1, max_value=3),   # input dim
    st.integers(min_value=1, max_value=3),   # latent
    st.integers(min_value=1, max_value=4),   # hidden
    st.floats(min_value=0.0, max_value=2.0),  # beta
    st.integers(min_value=0, max_value=999),  # seed
)
def test_vae_gradients_hold_at_degenerate_shapes(n, d, k, hidden, beta, seed):
    """Finite-difference check across random tiny shapes — n=1 rows,
    1-wide layers, beta=0 — where reduction-axis bugs hide."""
    from anomalydetection_ray.functions.trainers import NumpyVAE, hash_gaussian

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    eps = hash_gaussian(np.arange(n, dtype=np.uint64), seed, k)
    params = NumpyVAE._init_params(d, hidden, k, seed=seed)
    _, _, _, grads = NumpyVAE._loss_and_grads(params, x, eps, beta)
    h = 1e-6
    for name in NumpyVAE.PARAM_NAMES:
        p = params[name]
        idx = np.unravel_index(int(rng.integers(p.size)), p.shape)
        orig = p[idx]
        p[idx] = orig + h
        lp, *_ = NumpyVAE._loss_and_grads(params, x, eps, beta)
        p[idx] = orig - h
        lm, *_ = NumpyVAE._loss_and_grads(params, x, eps, beta)
        p[idx] = orig
        num = (lp - lm) / (2 * h)
        assert abs(num - grads[name][idx]) <= 1e-4 * max(1.0, abs(num)), name
