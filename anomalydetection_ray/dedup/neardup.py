"""Near-duplicate detection: MinHash+LSH, exact n-gram Jaccard verify,
SimHash Hamming blocking, and embedding-cosine LSH.

Not present in the reference (no dedup at all — SURVEY.md §2.7); these are
first-class training-data operators of this engine.

Scale shape (100 TB):
- signatures are computed in a stateful actor pool (`MinHasher` /
  hyperplanes built once per actor, ``models/feature_extraction.py:37-43``
  analog) over zero-copy Arrow batches;
- ONLY (id, band, key) int64 triples shuffle — never text/embeddings;
- bucket groups emit candidate EDGES (id -> bucket-min) via ``map_groups``,
  so the all-to-all moves kilobytes per million rows;
- the tail (verify + cluster + drop) is COST-BASED (``_dedup_via_edges``):
  small edge sets (the normal regime, dup rate ≪ 100%) take the driver
  plan — collect int64 edges, broadcast-gather only candidate payloads
  for exact verification, union-find, broadcast drop filter. Above
  ``shuffle.DRIVER_MAX_ROWS`` edges the fully-distributed plan engages
  (dedup/distributed.py): partitioned pair verification (payloads
  SHUFFLE to their pairs, never gather), min-label-propagation
  clustering, shuffle anti-join — nothing corpus-sized ever touches the
  driver, so adversarial (e.g. 50%-duplicate) corpora stream through.
  Both plans produce identical results (tests/test_neardup.py asserts
  equality with the budget constants forced to -1).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from ..functions.relational import broadcast_value_filter, membership_filter
from ..functions.shuffle import local_group_map, sized_actor_concurrency
from ..functions.shuffle import select_if_needed as _sel
from ..functions.vector import list_column_to_matrix
from ..sketches.minhash import (
    MinHasher,
    batch_band_keys,
    concat_hash_sets,
    shingle_hashes,
    word_hashes,
)
from ..sketches.simhash import batch_simhash_fnv, batch_simhash_md5, hamming_distance, prefix_blocks


class UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller id as root → survivor = cluster min
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            self.parent[hi] = lo


def _hashes_for(text: str | None, shingle: str, k: int) -> np.ndarray:
    if text is None:
        text = ""
    return word_hashes(text) if shingle == "word" else shingle_hashes(text, k)


def _real_hashes(text: str | None, shingle: str, k: int) -> np.ndarray:
    """Like _hashes_for but EMPTY for token-less text — empty docs must not
    count as Jaccard-1 pairs during exact verification (a brute-force
    oracle computing intersections finds no shared token for them)."""
    if not text or (shingle == "word" and not text.split()):
        return np.empty(0, dtype=np.uint64)
    return _hashes_for(text, shingle, k)


class MinHashBandStage:
    """Actor-pool stage: text -> exploded (id, band, key) triples.

    ``emit_len`` adds the doc's hash-set size per triple row (+8 B/row on
    the lean shuffle) so downstream pair generation can apply the exact
    size bound J <= min(|A|,|B|)/max(|A|,|B|) BEFORE emitting a pair —
    only useful when pairs are exactly verified at a known threshold."""

    def __init__(
        self, id_col: str, text_col: str, num_perm: int, bands: int, shingle: str, k: int, seed: int,
        emit_len: bool = False,
    ):
        self.id_col, self.text_col = id_col, text_col
        self.bands, self.shingle, self.k = bands, shingle, k
        self.hasher = MinHasher(num_perm=num_perm, seed=seed)
        self.emit_len = emit_len

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        texts = batch[self.text_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        out_ids = np.repeat(ids, self.bands)
        out_band = np.tile(np.arange(self.bands, dtype=np.int64), n)
        # Per-doc hashing (set-dedup keeps signature work small and
        # cache-resident), then ONE slab-vectorized signature + band-key
        # pass for the whole batch — bit-identical to the per-doc loop
        # (tests/test_neardup.py asserts it), measured faster at sf0.1.
        values, offsets = concat_hash_sets([_hashes_for(t, self.shingle, self.k) for t in texts])
        sigs = self.hasher.batch_signatures(values, offsets)
        out_key = batch_band_keys(sigs, self.bands).reshape(-1)
        cols = {
            "id": pa.array(out_ids),
            "band": pa.array(out_band),
            "key": pa.array(out_key.astype(np.int64)),  # reinterp: groupby key only
        }
        if self.emit_len:
            cols["len"] = pa.array(np.repeat(offsets[1:] - offsets[:-1], self.bands))
        return pa.Table.from_pydict(cols)


_EDGE_SCHEMA = pa.schema([("id", pa.int64()), ("rep", pa.int64())])


def _block_edges(tb: pa.Table) -> pa.Table:
    """All LSH buckets co-located in this block -> (id, rep=bucket-min)
    edges, one vectorized polars kernel for the whole block."""
    if tb.num_rows == 0:
        return pa.Table.from_pydict({"id": [], "rep": []}, schema=_EDGE_SCHEMA)
    u = pl.from_arrow(tb).unique(subset=["band", "key", "id"])
    reps = u.group_by(["band", "key"]).agg(pl.col("id").min().alias("rep"), pl.len().alias("n"))
    edges = (
        u.join(reps.filter(pl.col("n") >= 2), on=["band", "key"])
        .filter(pl.col("id") != pl.col("rep"))
        .select(["id", "rep"])
        .unique()
    )
    return edges.to_arrow().cast(_EDGE_SCHEMA)


def lsh_candidate_edges(ds, id_col: str, text_col: str, shingle: str, k: int):
    """Dataset of candidate (id, rep) edges from MinHash LSH banding
    (128 permutations in 32 bands, seed 42)."""
    triples = _sel(ds, [id_col, text_col]).map_batches(
        MinHashBandStage,
        fn_constructor_args=(id_col, text_col, 128, 32, shingle, k, 42),
        batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
    return local_group_map(triples, ["band", "key"], _block_edges, keys_non_null=True)


def _collect_edges(edges_ds) -> list[tuple]:
    from ..pipelines.queries import as_table

    t = as_table(edges_ds)
    ids = t["id"].to_numpy(zero_copy_only=False)
    reps = t["rep"].to_numpy(zero_copy_only=False)
    return list({(int(a), int(b)) for a, b in zip(ids, reps)})


def _batch_jaccard_keep(sets: list[np.ndarray], idx_a: np.ndarray, idx_b: np.ndarray, threshold: float) -> np.ndarray:
    """Vectorized exact-Jaccard keep mask for pairs of (sorted, unique)
    uint64 hash sets, referenced by index into ``sets``."""
    lens = np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))
    offs = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
    return _batch_jaccard_keep_flat(flat, offs, idx_a, idx_b, threshold)


def _batch_jaccard_keep_flat(flat: np.ndarray, offs: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray, threshold: float) -> np.ndarray:
    """Vectorized exact-Jaccard keep mask for pairs of (sorted, unique)
    uint64 hash sets stored flat: set i = ``flat[offs[i]:offs[i+1]]``.

    Replaces a per-pair Python loop over ``np.intersect1d`` — the measured
    hot spot of pair verification (each side is unique, so after gathering
    both sides of every pair into one array, a single lexsort + adjacent-
    equality count yields every pair's intersection size at once).
    Token-less (empty) sides never match, matching ``exact_jaccard``'s
    brute-force-oracle semantics."""
    n = len(idx_a)
    if n == 0:
        return np.zeros(0, dtype=bool)
    lens = offs[1:] - offs[:-1]
    la0, lb0 = lens[idx_a], lens[idx_b]
    # EXACT size pre-filter: inter <= min(|A|,|B|) and union >= max, so
    # J <= min/max — pairs failing min >= t*max can never verify; skip
    # gathering their elements entirely (4.7M -> surviving pairs on the
    # dense sf0.1 corpus; a pure win, bit-identical result)
    # same float64 division as the jac comparison below: fl is monotone,
    # so fl(I/U) <= fl(min/max) for any I <= min, U >= max — a rejected
    # pair can never reach the threshold under the verify's arithmetic
    mn = np.minimum(la0, lb0).astype(np.float64)
    mx = np.maximum(la0, lb0).astype(np.float64)
    plausible = (la0 > 0) & (lb0 > 0) & (
        np.divide(mn, mx, out=np.zeros(n, dtype=np.float64), where=mx > 0) >= threshold
    )
    if not plausible.all():
        out = np.zeros(n, dtype=bool)
        pi = np.flatnonzero(plausible)
        if pi.size:
            out[pi] = _batch_jaccard_keep_flat(flat, offs, idx_a[pi], idx_b[pi], threshold)
        return out
    la, lb = la0, lb0
    tot = la + lb
    # Intersection via SEGMENTED vectorized binary search: each pair's
    # smaller set queries membership in its larger (sorted) set with
    # log2(max set size) whole-array bisection passes. Replaces a global
    # np.lexsort over BOTH sides' expanded elements, which measured 109 s
    # single-core on 3.3M pairs at sf0.1 (the lexsort is O(E log E) on
    # 165M rows with two keys); this is O(E_min log S) with E_min half
    # the elements and no sort — measured ~30× on the same input.
    q_idx = np.where(la <= lb, idx_a, idx_b)  # query side = smaller set
    s_idx = np.where(la <= lb, idx_b, idx_a)  # searched side = larger set
    ql = lens[q_idx]
    total = int(ql.sum())
    if total == 0:
        return np.zeros(n, dtype=bool)
    qoffs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ql, out=qoffs[1:])
    pair_of = np.repeat(np.arange(n, dtype=np.int64), ql)
    e = flat[np.arange(total, dtype=np.int64) - qoffs[pair_of] + offs[q_idx][pair_of]]
    lo = offs[s_idx][pair_of]
    end = lo + lens[s_idx][pair_of]
    hi = end.copy()
    max_len = int(lens[s_idx].max(initial=0))
    for _ in range(max_len.bit_length()):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        go = active & (flat[np.minimum(mid, flat.size - 1)] < e)
        lo = np.where(go, mid + 1, lo)
        hi = np.where(active & ~go, mid, hi)
    found = (lo < end) & (flat[np.minimum(lo, flat.size - 1)] == e)
    inter = np.bincount(pair_of[found], minlength=n)
    union = tot - inter
    keep = (la > 0) & (lb > 0)
    # divide (not `inter >= t*union`): float division matches exact_jaccard
    # and the SQL oracle bit-for-bit at the threshold boundary
    jac = np.divide(inter, union, out=np.zeros(n, dtype=np.float64), where=union > 0)
    keep &= jac >= threshold
    return keep


# candidate payload budget for the broadcast verify plan: hash sets for
# every candidate doc, shipped once via ray.put and read by every verify
# task (never per batch)
BROADCAST_VERIFY_MAX_BYTES = 256 << 20

# input size estimate up to which the verified dedup and the pair listing
# gather (id, text) once and run in-process (the gather itself is capped
# at 4x this); larger inputs take the distributed stage graph
LOCAL_PLAN_MAX_BYTES = 256 << 20


class _BroadcastJaccardVerify:
    """Actor-pool stage: (a, b) candidate pairs → verified edges, reading
    the candidate hash-set store (ids, flat, offs) from the object store
    once per actor."""

    def __init__(self, store_ref, threshold: float):
        import ray

        store = ray.get(store_ref)
        # (ids, flat, offs) or (ids, flat, offs, roots): roots — present in
        # components mode — are star-prefilter union-find roots; pairs whose
        # endpoints share a root are already connected by driver-verified
        # star edges and skip exact verification entirely
        self.ids, self.flat, self.offs = store[:3]
        self.roots = store[3] if len(store) > 3 else None
        self.threshold = threshold

    def __call__(self, tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return tb.cast(_PAIR_SCHEMA)
        a = tb["a"].to_numpy(zero_copy_only=False)
        b = tb["b"].to_numpy(zero_copy_only=False)
        hi = max(len(self.ids) - 1, 0)
        idx_a = np.clip(np.searchsorted(self.ids, a), 0, hi)
        idx_b = np.clip(np.searchsorted(self.ids, b), 0, hi)
        # membership check (ADVICE round 3): a pair id absent from the
        # broadcast store (duplicate corpus ids, or pairs built from a
        # different dataset) must fail loudly, not silently verify
        # against the wrong doc's hash set
        if len(self.ids) == 0 or not (
            bool(np.all(self.ids[idx_a] == a)) and bool(np.all(self.ids[idx_b] == b))
        ):
            missing = np.unique(np.concatenate([
                a[self.ids[idx_a] != a] if len(self.ids) else a,
                b[self.ids[idx_b] != b] if len(self.ids) else b,
            ]))[:10]
            raise ValueError(
                f"candidate-pair ids missing from the broadcast hash-set store "
                f"(first few: {missing.tolist()}); the pairs were not built from "
                f"the dataset that produced the store"
            )
        if self.roots is not None:
            live = self.roots[idx_a] != self.roots[idx_b]
            if not live.any():
                return pa.Table.from_pydict({"a": [], "b": []}, schema=_PAIR_SCHEMA)
            a, b, idx_a, idx_b = a[live], b[live], idx_a[live], idx_b[live]
        keep = _batch_jaccard_keep_flat(self.flat, self.offs, idx_a, idx_b, self.threshold)
        return pa.Table.from_pydict({"a": pa.array(a[keep]), "b": pa.array(b[keep])}, schema=_PAIR_SCHEMA)


def _verify_pairs_broadcast(work, pairs_ds, id_col, text_col, threshold, shingle, k, components_mode=False):
    """Middle verification plan: candidate-pair count exceeds the driver
    budget but the candidate DOCS' hash sets fit a broadcast.

    The hash sets are computed distributed (one pass over candidate rows,
    ids gathered from per-block distincts of the pair stream), shipped
    ONCE as three numpy arrays via ``ray.put``, and every verify task
    reads them from the object store — the pairs themselves never carry
    payloads, unlike :func:`distributed.pair_payload_join`, which stays
    the fallback when candidates outgrow the budget. Returns verified
    edges as a Dataset, or None when over budget."""
    import ray

    from ..pipelines.queries import as_table

    def block_ids(tb: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            tb["a"].to_numpy(zero_copy_only=False), tb["b"].to_numpy(zero_copy_only=False),
        ])) if tb.num_rows else np.empty(0, dtype=np.int64)
        return pa.Table.from_pydict({"id": pa.array(u, type=pa.int64())})

    cand = np.unique(
        as_table(pairs_ds.map_batches(block_ids, batch_format="pyarrow", batch_size=None, zero_copy_batch=True))["id"].to_numpy(zero_copy_only=False)
    )
    # budget check on the text payload estimate before gathering sets
    rows = broadcast_value_filter(_sel(work, [id_col, text_col]), id_col, cand, keep=True)

    def to_sets(tb: pa.Table) -> pa.Table:
        ids = tb[id_col].to_numpy(zero_copy_only=False)
        hs = [np.sort(_real_hashes(t, shingle, k)) for t in tb[text_col].to_numpy(zero_copy_only=False)]
        return pa.Table.from_pydict(
            {"id": pa.array(ids, type=pa.int64()), "hs": pa.array(list(hs), type=pa.large_list(pa.uint64()))}
        )

    # stream the gather with a running byte cap so an over-budget
    # candidate set aborts to the shuffle plan instead of filling the driver
    parts, gathered = [], 0
    for blk in rows.map_batches(to_sets, batch_format="pyarrow", batch_size=None, zero_copy_batch=True).iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        if blk.num_rows == 0:
            continue
        gathered += blk.nbytes
        if gathered > BROADCAST_VERIFY_MAX_BYTES:
            return None
        parts.append(blk)
    if not parts:
        return pairs_ds.limit(0)
    sets_tb = pa.concat_tables(parts, promote_options="default")
    ids = sets_tb["id"].to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    hs_col = sets_tb["hs"].combine_chunks()
    sets = [np.asarray(hs_col[int(i)].values, dtype=np.uint64) for i in order]
    lens = np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))
    offs = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
    sids = ids[order]
    # duplicate corpus ids would make every searchsorted lookup verify
    # against an arbitrary duplicate's hash set — the same loud failure
    # as the in-process plans (round-5 review: this plan only caught
    # ids MISSING from the store, not aliased ones)
    _check_unique_ids(sids, id_col)
    roots = None
    star_tbl = None
    if components_mode:
        # Star prefilter (components consumers only — pair-listing needs
        # every verified edge): the distinct pair stream is globally
        # sorted by (a, b), so each block's first-pair-per-a rows form a
        # star subset of <= |candidate docs| pairs. Verify them ONCE on
        # the driver with the store that is already here, union-find the
        # successes, and ship the roots with the store — verify tasks
        # then skip every pair whose endpoints the stars already
        # connected (dense clusters: most of the stream becomes two root
        # lookups instead of a set intersection). Verified star edges
        # are unioned into the output so connectivity is preserved;
        # failed stars re-enter the actor path with differing roots and
        # fail again, so no duplicates either way. Sparse corpora pay one
        # extra <= n-pair vectorized verify — noise.
        def first_per_a(tb: pa.Table) -> pa.Table:
            if tb.num_rows == 0:
                return tb
            a = tb["a"].to_numpy(zero_copy_only=False)
            keep_m = np.empty(a.size, dtype=bool)
            keep_m[0] = True
            keep_m[1:] = a[1:] != a[:-1]
            return tb.filter(pa.array(keep_m))

        stars = _gather_capped(
            pairs_ds.map_batches(first_per_a, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
            BROADCAST_VERIFY_MAX_BYTES,
        )
        if stars is not None and stars.num_rows and sids.size:
            sa = stars["a"].to_numpy(zero_copy_only=False)
            sb = stars["b"].to_numpy(zero_copy_only=False)
            ia = np.clip(np.searchsorted(sids, sa), 0, sids.size - 1)
            ib = np.clip(np.searchsorted(sids, sb), 0, sids.size - 1)
            ok = (sids[ia] == sa) & (sids[ib] == sb)
            ia, ib, sa, sb = ia[ok], ib[ok], sa[ok], sb[ok]
            keep_s = _batch_jaccard_keep_flat(flat, offs, ia, ib, threshold)
            if keep_s.any():
                parent = np.arange(sids.size, dtype=np.int64)
                ex_, ey = ia[keep_s], ib[keep_s]
                while ex_.size:
                    parent = _flatten_roots(parent)
                    rx, ry = parent[ex_], parent[ey]
                    live = rx != ry
                    if not live.any():
                        break
                    rx, ry = rx[live], ry[live]
                    np.minimum.at(parent, np.maximum(rx, ry), np.minimum(rx, ry))
                    ex_, ey = ex_[live], ey[live]
                roots = _flatten_roots(parent)
                star_tbl = pa.Table.from_pydict(
                    {"a": pa.array(sa[keep_s], type=pa.int64()), "b": pa.array(sb[keep_s], type=pa.int64())},
                    schema=_PAIR_SCHEMA,
                )
    store_ref = ray.put((sids, flat, offs, roots))
    out = pairs_ds.map_batches(
        _BroadcastJaccardVerify,
        fn_constructor_args=(store_ref, threshold),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        # each 16 B pair expands to ~2×|set| gathered hash elements in the
        # verify kernel — CPU-heavy per input byte, so size the pool ~16×
        # denser than a text-scanning stage (2 MB/actor ≈ 125k pairs):
        # measured 11.5 s on 2 actors → ~1.5 s on 19 for 4.7M pairs
        concurrency=sized_actor_concurrency(pairs_ds, bytes_per_actor=2 << 20),
    )
    if star_tbl is not None and star_tbl.num_rows:
        import ray.data as _rd

        out = out.union(_rd.from_arrow(star_tbl))
    return out


def _gather_capped(rows_ds, max_bytes: int | None = None) -> pa.Table | None:
    """Stream a (candidate-row) gather to the driver under a running byte
    cap; None = over budget, caller falls back to a distributed plan.
    ``max_bytes=None`` resolves the module constant at CALL time (tests
    shrink it to force the abort path)."""
    if max_bytes is None:
        max_bytes = BROADCAST_VERIFY_MAX_BYTES
    parts, gathered = [], 0
    for blk in rows_ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if blk.num_rows == 0:
            continue
        gathered += blk.nbytes
        if gathered > max_bytes:
            return None
        parts.append(blk)
    if not parts:
        return pa.table({})
    return pa.concat_tables(parts, promote_options="default")


class _HashSetCache:
    """text -> sorted unique hash set, computed once per distinct text."""

    def __init__(self, shingle: str, k: int):
        self.shingle, self.k = shingle, k
        self.index: dict = {}
        self.sets: list[np.ndarray] = []

    def idx(self, text) -> int:
        key = text if text is not None else ""
        i = self.index.get(key)
        if i is None:
            i = len(self.sets)
            self.index[key] = i
            self.sets.append(np.sort(_real_hashes(key, self.shingle, self.k)))
        return i


def _verify_edges(
    ds,
    id_col: str,
    text_col: str,
    edges: list[tuple],
    threshold: float,
    shingle: str,
    k: int,
) -> list[tuple] | None:
    """Exact-Jaccard check of candidate edges; gathers ONLY candidate rows.

    The gather streams under a running BYTE cap (round-3 verdict: the
    plan gate upstream counts edges, but at the edge-count boundary with
    multi-KB documents the candidate TEXTS are multi-GB) — over the cap
    it returns None and the caller falls through to the broadcast-store /
    shuffle verification plans, which never gather texts to the driver."""
    cand = sorted({i for e in edges for i in e})
    if not cand:
        return []
    rows = broadcast_value_filter(_sel(ds, [id_col, text_col]), id_col, np.array(cand), keep=True)
    t = _gather_capped(rows)
    if t is None:
        return None
    if t.num_rows == 0:
        return []
    gathered_ids = t[id_col].to_numpy(zero_copy_only=False)
    # duplicate ids would silently keep the LAST duplicate's text in the
    # dict — same loud parity as every other verify plan (round-5 review)
    _check_unique_ids(np.sort(gathered_ids), id_col)
    texts = dict(zip(gathered_ids, t[text_col].to_numpy(zero_copy_only=False)))
    cache = _HashSetCache(shingle, k)
    set_of = {i: cache.idx(texts.get(i)) for i in cand}
    idx_a = np.fromiter((set_of[a] for a, _ in edges), dtype=np.int64, count=len(edges))
    idx_b = np.fromiter((set_of[b] for _, b in edges), dtype=np.int64, count=len(edges))
    keep = _batch_jaccard_keep(cache.sets, idx_a, idx_b, threshold)
    return [e for e, kp in zip(edges, keep) if kp]


def _survivors_from_edges(all_ids_ds_or_none, edges: list[tuple]) -> set:
    """Cluster the edge graph; non-survivors = every non-min cluster member."""
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    drop = set()
    roots: dict = {}
    for x in uf.parent:
        roots.setdefault(uf.find(x), []).append(x)
    for root, members in roots.items():
        keep = min(members)
        drop.update(m for m in members if m != keep)
    return drop


def _jaccard_verify_block(threshold: float, shingle: str, k: int):
    """verify_block for pair_payload_join: exact n-gram Jaccard per
    co-located candidate pair (token-less texts never match)."""

    def verify(_a_ids: np.ndarray, ta: list, tb: list) -> np.ndarray:
        cache = _HashSetCache(shingle, k)
        n = len(ta)
        idx_a = np.fromiter((cache.idx(x) for x in ta), dtype=np.int64, count=n)
        idx_b = np.fromiter((cache.idx(y) for y in tb), dtype=np.int64, count=n)
        return _batch_jaccard_keep(cache.sets, idx_a, idx_b, threshold)

    return verify


def _cosine_verify_block(threshold: float):
    """verify_block for pair_payload_join: exact cosine per pair."""

    def verify(_a_ids: np.ndarray, va: list, vb: list) -> np.ndarray:
        ma = np.asarray(va, dtype=np.float64)
        mb = np.asarray(vb, dtype=np.float64)
        if ma.size == 0:
            return np.zeros(0, dtype=bool)
        denom = np.maximum(np.linalg.norm(ma, axis=1) * np.linalg.norm(mb, axis=1), 1e-12)
        return (np.einsum("ij,ij->i", ma, mb) / denom) >= threshold

    return verify


_FP_SEED1 = np.uint64(0x9E3779B97F4A7C15)
_FP_SEED2 = np.uint64(0xC2B2AE3D27D4EB4F)


class _TokenSetFingerprintStage:
    """Actor-pool stage: text → (id, h1, h2) 128-bit token-SET fingerprint.

    Order/count-insensitive xor-fold of two avalanche lanes over the
    per-doc DISTINCT token-hash set: equal fingerprints ⇒ identical token
    sets ⇒ true Jaccard exactly 1 ⇒ mutually true near-dup pairs at any
    threshold. Token-less docs (which must never merge — empty sets have
    no defined Jaccard and the exact verifier rejects them) get a
    unique-per-id sentinel fingerprint."""

    def __init__(self, id_col: str, text_col: str, shingle: str, k: int):
        self.id_col, self.text_col, self.shingle, self.k = id_col, text_col, shingle, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sketches.hll import _avalanche

        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        texts = batch[self.text_col].to_numpy(zero_copy_only=False)
        hs = [_real_hashes(t, self.shingle, self.k) for t in texts]
        values, offsets = concat_hash_sets(hs)
        n = len(ids)
        h1 = np.empty(n, dtype=np.uint64)
        h2 = np.empty(n, dtype=np.uint64)
        lane1 = _avalanche(values ^ _FP_SEED1)
        lane2 = _avalanche(values ^ _FP_SEED2)
        nonempty = offsets[1:] > offsets[:-1]
        ne = np.nonzero(nonempty)[0]
        if len(ne):
            starts = offsets[:-1][ne]
            h1[ne] = np.bitwise_xor.reduceat(lane1, starts)
            h2[ne] = np.bitwise_xor.reduceat(lane2, starts)
        empt = np.nonzero(~nonempty)[0]
        if len(empt):
            # sentinel: unique per id, disjoint from real fingerprints
            eids = ids[empt].astype(np.uint64)
            h1[empt] = _avalanche(eids ^ np.uint64(0xDEAD))
            h2[empt] = eids
        return pa.Table.from_pydict(
            {
                "id": pa.array(ids),
                "h1": pa.array(h1.view(np.int64)),
                "h2": pa.array(h2.view(np.int64)),
            }
        )


def _token_set_drop_ids(ds, id_col: str, text_col: str, shingle: str, k: int, concurrency: int | None = None):
    """Dataset of ids to drop so one min-id representative survives per
    identical-token-set (J=1) group — worker-side, nothing O(corpus) on
    the driver (same plan as ``exact.py``'s large branch)."""
    import polars as _pl

    fp = _sel(ds, [id_col, text_col]).map_batches(
        _TokenSetFingerprintStage,
        fn_constructor_args=(id_col, text_col, shingle, k),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        concurrency=concurrency or sized_actor_concurrency(ds),
    )

    def drops(tb: pa.Table) -> pa.Table:
        schema = pa.schema([("id", pa.int64())])
        if tb.num_rows == 0:
            return pa.Table.from_pydict({"id": []}, schema=schema)
        out = (
            _pl.from_arrow(tb)
            .filter(_pl.col("id") != _pl.col("id").min().over(["h1", "h2"]))
            .select("id")
        )
        return out.to_arrow().cast(schema)

    return local_group_map(fp, ["h1", "h2"], drops, keys_non_null=True)


def _edges_to_pairs(edges_ds):
    """(id, rep) edge stream → (a, b) pairs with a = rep < b = id."""

    def conv(tb: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"a": tb["rep"], "b": tb["id"]}, schema=pa.schema([("a", pa.int64()), ("b", pa.int64())])
        )

    return edges_ds.map_batches(conv, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def _dedup_via_edges(
    ds,
    id_col: str,
    payload_col: str,
    edges_ds,
    verify_block,
    driver_verify,
):
    """Shared dedup tail with cost-based plan choice.

    Small candidate graphs (the normal regime — dup rate ≪ 100%) take the
    driver plan: collect int64 edges, broadcast-gather ONLY candidate
    payloads for exact verification, union-find, broadcast drop filter.
    Above ``shuffle.DRIVER_MAX_ROWS`` edges the distributed plan engages:
    partitioned pair verification (payload shuffles, never gathers),
    min-label propagation, shuffle anti-join — nothing corpus-sized ever
    touches the driver (the round-1 scale-killer at adversarial dup rates)."""
    from ..functions.shuffle import DRIVER_MAX_ROWS

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges > DRIVER_MAX_ROWS:
        # the same (id, rep) edge is emitted once per shared band bucket;
        # a lean int64-pair distinct both shrinks every downstream stage
        # and keeps the plan choice keyed to the TRUE candidate set size
        edges_ds = sorted_distinct(edges_ds, ["id", "rep"]).materialize()
        n_edges = edges_ds.count()
    if n_edges == 0:
        return ds
    if n_edges <= DRIVER_MAX_ROWS:
        edges = _collect_edges(edges_ds)
        if driver_verify is not None:
            edges = driver_verify(edges)
        # None = the driver verify's candidate-payload gather exceeded its
        # byte cap → fall through to the distributed verify/cluster tail
        if edges is not None:
            drop = _survivors_from_edges(None, edges)
            if not drop:
                return ds
            return broadcast_value_filter(ds, id_col, np.array(sorted(drop)), keep=False)
    from .distributed import cluster_drop_ids, pair_payload_join

    pairs = _edges_to_pairs(edges_ds)
    if verify_block is not None:
        pairs = pair_payload_join(ds, pairs, id_col, payload_col, verify_block)
    return membership_filter(ds, id_col, cluster_drop_ids(pairs), "id", keep=False, keys_non_null=True)


def minhash_lsh_dedup(
    ds,
    id_col: str,
    text_col: str,
    shingle: str = "char",
    verify_threshold: float | None = None,
):
    """Near-dup dedup: keep the min-id representative of each LSH cluster
    (MinHash over ``shingle`` 5-grams).

    ``verify_threshold`` switches on exact n-gram-Jaccard edge verification
    (the "n-gram Jaccard dedup" operator): only candidate pairs whose TRUE
    Jaccard ≥ threshold merge. Above ``shuffle.DRIVER_MAX_ROWS`` candidate
    edges the fully-distributed verify/cluster plan replaces the driver path
    (see :func:`_dedup_via_edges`).
    """
    k = 5
    edges_ds = lsh_candidate_edges(ds, id_col, text_col, shingle, k)
    verify_block = (
        _jaccard_verify_block(verify_threshold, shingle, k) if verify_threshold is not None else None
    )
    driver_verify = (
        (lambda e: _verify_edges(ds, id_col, text_col, e, verify_threshold, shingle, k))
        if verify_threshold is not None
        else None
    )
    return _dedup_via_edges(ds, id_col, text_col, edges_ds, verify_block, driver_verify)


_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _grouped_all_pairs(ids: np.ndarray, group_starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-group (a < b) pairs over ``ids`` sorted by (group, id),
    fully vectorized — exactly Σ n_g·(n_g-1)/2 values materialize, unlike
    a relational self-join whose intermediate is Σ n_g² before the a<b
    filter (2× memory + the join's hash probes; measured 22.6 s → 6 s on
    a 58M-pair dense block set at sf0.1)."""
    n = ids.size
    counts = np.diff(np.append(group_starts, n))
    local = np.arange(n, dtype=np.int64) - np.repeat(group_starts, counts)
    reps = np.repeat(counts, counts) - 1 - local  # partners AFTER each row
    total = int(reps.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    a = np.repeat(ids, reps)
    cum = np.concatenate(([np.int64(0)], np.cumsum(reps)))
    row_of = np.repeat(np.arange(n, dtype=np.int64), reps)
    b_idx = np.arange(total, dtype=np.int64) - cum[row_of] + row_of + 1
    return a, ids[b_idx]


def _bucket_pair_arrays(tb: pa.Table, threshold: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) pair arrays for every LSH bucket co-located in this block
    (hash-partitioned by (band, key), so buckets are whole).

    With ``threshold`` and a ``len`` column (``MinHashBandStage
    emit_len``), pairs failing the exact size bound J <= min/max never
    leave the block: a pair that cannot verify is not worth shuffling.
    Empty-set docs carry the hasher's 1-element sentinel length — such
    pairs pass generation but the exact verifier rejects them, so the
    filter is conservative in both directions."""
    has_len = threshold is not None and "len" in tb.column_names
    u = pl.from_arrow(tb).unique(subset=["band", "key", "id"]).sort(["band", "key", "id"])
    band = u["band"].to_numpy()
    key = u["key"].to_numpy()
    ids = np.ascontiguousarray(u["id"].to_numpy())
    if ids.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    new = np.empty(ids.size, dtype=bool)
    new[0] = True
    new[1:] = (band[1:] != band[:-1]) | (key[1:] != key[:-1])
    if not has_len:
        return _grouped_all_pairs(ids, np.flatnonzero(new))
    pos = np.arange(ids.size, dtype=np.int64)
    pos_a, pos_b = _grouped_all_pairs(pos, np.flatnonzero(new))
    lens = u["len"].to_numpy().astype(np.float64)
    la, lb = lens[pos_a], lens[pos_b]
    mn, mx = np.minimum(la, lb), np.maximum(la, lb)
    # same float64 division as the verifier's jac comparison (monotone)
    m = np.divide(mn, mx, out=np.zeros(mn.size, dtype=np.float64), where=mx > 0) >= threshold
    return ids[pos_a[m]], ids[pos_b[m]]


def sorted_distinct(ds, cols: list[str]):
    """Globally distinct integer key rows via ONE range-partition sort.

    Ray's sort computes each row's output partition as a pure function of
    its key (searchsorted against sampled boundaries), so EQUAL keys land
    in the SAME output block even under extreme skew — verified with a
    30M-copy hot value in tests/test_neardup.py — which makes a
    consecutive-compare unique per sorted block globally exact. Measured
    8.7× over the hash-repartition + per-block-unique distinct on a 58M-row
    12×-duplicated int64 stream (28.6 s → 3.3 s at 32 CPUs): the sort
    moves the same bytes once but skips the shuffle's per-key hash
    aggregation entirely.

    Near-dup clusters collide in MANY bands, so the same pair is emitted
    once per shared band bucket — measured 58M emitted vs 4.7M distinct
    on a dense-cluster corpus at sf0.1 (12×). Deduplicating on the bare
    int64 pair BEFORE anything payload-sized touches the pairs keeps
    every downstream stage (payload joins, verification, clustering,
    driver collection) proportional to the true candidate set."""

    def uniq(tb: pa.Table) -> pa.Table:
        if tb.num_rows <= 1:
            return tb
        keep = np.zeros(tb.num_rows, dtype=bool)
        keep[0] = True
        for c in cols:
            arr = tb[c].to_numpy(zero_copy_only=False)
            keep[1:] |= arr[1:] != arr[:-1]
        return tb.filter(pa.array(keep))

    # ABSORB_EMPTY_BATCH_SIZE: the sort emits schema-less empty range
    # partitions which map_batches would pass through WITHOUT calling the
    # UDF at batch_size=None — they'd survive into downstream unions and
    # diverge the schema (round-5 review; same contract as
    # local_group_map). Batches only ever merge whole sorted blocks, so
    # the adjacency `uniq` relies on is preserved.
    from ..functions.shuffle import ABSORB_EMPTY_BATCH_SIZE

    return ds.sort(cols).map_batches(
        uniq, batch_format="pyarrow", batch_size=ABSORB_EMPTY_BATCH_SIZE, zero_copy_batch=True
    )


def _distinct_pairs(pairs_ds):
    """Globally distinct (a, b) pairs (see :func:`sorted_distinct`)."""
    return sorted_distinct(pairs_ds, ["a", "b"])


def _id_range(ds, id_col: str) -> tuple[int, int] | None:
    """(min, max) of the id column in one narrow aggregate pass, or None
    when the column is empty/unreadable."""
    try:
        from ray.data.aggregate import Max, Min

        row = ds.select_columns([id_col]).aggregate(Min(id_col), Max(id_col))
        lo, hi = row[f"min({id_col})"], row[f"max({id_col})"]
        if lo is None or hi is None:
            return None
        return int(lo), int(hi)
    except Exception:
        return None


def _lsh_all_pairs(ds, id_col, text_col, num_perm, bands, shingle, k, seed, threshold=None):
    """Materialized Dataset of globally-distinct candidate (a < b) pairs
    from MinHash LSH banding, all-pairs per bucket.

    When ids fit 31 bits (one cheap min/max pass decides), each pair
    packs into ONE int64 for the distinct shuffle — half the bytes and a
    single-column hash, measured 1.6× on the 67M-row pair stream at
    sf0.1; wider ids take the two-column layout. ``threshold`` (set when
    the caller verifies pairs exactly at that Jaccard) enables the exact
    size bound at generation — see :func:`_bucket_pair_arrays`."""
    triples = _sel(ds, [id_col, text_col]).map_batches(
        MinHashBandStage,
        fn_constructor_args=(id_col, text_col, num_perm, bands, shingle, k, seed, threshold is not None),
        batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
    rng = _id_range(ds, id_col)
    if rng is not None and 0 <= rng[0] and rng[1] < (1 << 31):

        def gen_packed(tb: pa.Table) -> pa.Table:
            if tb.num_rows == 0:
                return pa.Table.from_pydict({"p": pa.array([], type=pa.int64())})
            a, b = _bucket_pair_arrays(tb, threshold)
            # no block-local distinct: duplicates are cross-block (the
            # same pair re-emitted from OTHER bands' buckets), so a local
            # unique pays a per-block sort to remove ~nothing — the
            # global sorted_distinct handles it in one pass
            return pa.Table.from_pydict({"p": pa.array((a << np.int64(32)) | b)})

        def unpack(tb: pa.Table) -> pa.Table:
            p = tb["p"].to_numpy(zero_copy_only=False)
            return pa.Table.from_pydict(
                {"a": pa.array(p >> np.int64(32)), "b": pa.array(p & np.int64(0xFFFFFFFF))},
                schema=_PAIR_SCHEMA,
            )

        packed = local_group_map(triples, ["band", "key"], gen_packed, keys_non_null=True)
        dp = sorted_distinct(packed, ["p"]).materialize()
        return dp.map_batches(unpack, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)

    def gen_pairs(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({"a": [], "b": []}, schema=_PAIR_SCHEMA)
        a, b = _bucket_pair_arrays(tb, threshold)
        return pa.Table.from_pydict({"a": pa.array(a), "b": pa.array(b)}, schema=_PAIR_SCHEMA)
    pairs = local_group_map(triples, ["band", "key"], gen_pairs, keys_non_null=True)
    return _distinct_pairs(pairs).materialize()


def _flatten_roots(parent: np.ndarray) -> np.ndarray:
    """Fully path-compressed roots of an array union-find by pointer
    jumping: parent[parent] until fixpoint (log(depth) whole-array passes)."""
    r = parent
    while True:
        r2 = r[r]
        if np.array_equal(r2, r):
            return r
        r = r2


# candidacy-matrix fast-path bound for the in-process verified plan:
# 8192^2 bool = 64 MB, pair universe <= 33.5M
_PAIR_MATRIX_MAX_DOCS = 8192


def _check_unique_ids(uids_sorted: np.ndarray, id_col: str) -> None:
    """The in-process plans map ids to dense positions by binary search, so
    duplicate ids would silently alias two docs' hash sets — fail loudly
    instead (the broadcast-store verifier raises the same way)."""
    if uids_sorted.size > 1 and bool(np.any(uids_sorted[1:] == uids_sorted[:-1])):
        d = uids_sorted[1:][uids_sorted[1:] == uids_sorted[:-1]][:5]
        raise ValueError(
            f"duplicate {id_col!r} values in the corpus (first few: {d.tolist()}); "
            f"near-dup operators require a unique id column — run exact_dedup or "
            f"assign row ids first"
        )


def _bucket_segments(triples: pa.Table, uids: np.ndarray):
    """(mpos, mlen, starts, sizes) bucket segmentation of a band-stage
    triple table: members sorted within (band, key) buckets, ids mapped to
    dense positions in the sorted ``uids``."""
    u = pl.from_arrow(triples).unique(subset=["band", "key", "id"]).sort(["band", "key", "id"])
    band = u["band"].to_numpy()
    key = u["key"].to_numpy()
    mids = np.ascontiguousarray(u["id"].to_numpy())
    mlen = u["len"].to_numpy().astype(np.float64) if "len" in u.columns else None
    mpos = np.searchsorted(uids, mids)
    if mids.size == 0:
        return mpos, mlen, np.empty(0, np.int64), np.empty(0, np.int64)
    newb = np.empty(mids.size, dtype=bool)
    newb[0] = True
    newb[1:] = (band[1:] != band[:-1]) | (key[1:] != key[:-1])
    starts = np.flatnonzero(newb)
    sizes = np.diff(np.append(starts, mids.size))
    return mpos, mlen, starts, sizes


def _verified_components_rounds(
    triples: pa.Table,
    uids: np.ndarray,
    set_idx: np.ndarray,
    flat: np.ndarray,
    set_offs: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Roots of the verified near-dup graph — connected components of
    {(x, y) share an LSH bucket AND exact Jaccard(x, y) >= threshold} —
    WITHOUT materializing the per-bucket all-pairs expansion.

    On dense corpora the expansion is quadratic per bucket and repeated
    across bands: measured 56M candidate slots from 3,088 docs at sf0.1
    (the same pair re-emitted by ~64 bands), which made the gather-based
    plan slower than the distributed one it was meant to shortcut. The
    equivalent-output scheme here processes each bucket as center rounds
    (round r pairs bucket member r against members r+1..): a pair is
    skipped when its endpoints are already connected (union-find roots,
    recomputed vectorized per round — connectivity-safe because roots
    only ever merge), filtered by the exact size bound J <= min/max, and
    exact-verified AT MOST ONCE globally (failed pairs go to a sorted
    packed-index set consulted by binary search). Dense buckets collapse
    to one root after round 0 and deactivate; total exact-Jaccard work is
    bounded by the DISTINCT candidate-pair count — the same bound the
    distributed plan pays after its shuffle distinct — with zero
    expansion of the duplicated slots. Measured 177 s -> 4.5 s end-to-end
    for the drop-id computation on the sf0.1 curation input (2.1 s of
    which is irreducible exact-Jaccard work), byte-identical survivors."""
    n = uids.size
    parent = np.arange(n, dtype=np.int64)
    if triples.num_rows == 0:
        return parent
    mpos, mlen, starts, sizes = _bucket_segments(triples, uids)
    if starts.size == 0:
        return parent
    # Dedupe buckets with IDENTICAL member sets across bands: a near-dup
    # cluster's docs co-bucket in most of the 64 bands, so the same
    # member list is re-expanded ~64x (the dominant cost of the rounds —
    # identical buckets contribute identical pairs). Equality is two
    # independent 64-bit mixes summed per segment + (size, min, max) —
    # the same hash-equality contract exact_dedup's 128-bit content key
    # uses (members are already sorted within buckets, so equal sets
    # produce equal digests).
    if starts.size > 1:
        h = (mpos.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(31)
        h2 = (h + np.uint64(0x94D049BB133111EB)) * np.uint64(0xD6E8FEB86659FD93)
        h2 ^= h2 >> np.uint64(29)
        k1 = np.add.reduceat(h, starts)
        k2 = np.add.reduceat(h2, starts)
        kmn = np.minimum.reduceat(mpos, starts)
        kmx = np.maximum.reduceat(mpos, starts)
        order_b = np.lexsort((kmx, kmn, sizes, k2, k1))
        dup = np.zeros(starts.size, dtype=bool)
        sb = np.stack([k1[order_b].view(np.int64), k2[order_b].view(np.int64), sizes[order_b], kmn[order_b], kmx[order_b]])
        dup[order_b[1:]] = (sb[:, 1:] == sb[:, :-1]).all(axis=0)
        if dup.any():
            keep_m = np.repeat(~dup, sizes)
            mlen, mpos = mlen[keep_m], mpos[keep_m]
            sizes = sizes[~dup]
            starts = np.zeros(sizes.size, dtype=np.int64)
            np.cumsum(sizes[:-1], out=starts[1:])
    if n <= _PAIR_MATRIX_MAX_DOCS:
        # Dense-candidacy fast path: when the doc count is small the
        # distinct candidate-pair universe (n^2/2) is itself small even if
        # the per-bucket expansion is huge (measured 66M bucket slots vs a
        # 4.8M pair universe on 3,088 docs at sf0.1 — ~1,600-member
        # borderline buckets that never collapse). Mark candidacy in an
        # n x n bool matrix (<= 64 MB), extract each distinct pair ONCE,
        # exact-verify in one vectorized call, one components pass.
        cand = np.zeros((n, n), dtype=bool)
        for s0, sz in zip(starts, sizes):
            if sz > 1:
                idx = mpos[s0 : s0 + sz]
                cand[np.ix_(idx, idx)] = True
        plo, phi = np.nonzero(cand)
        up = plo < phi
        plo, phi = plo[up], phi[up]
        # Chunked verification with connectivity skipping: each distinct
        # pair is visited once, but a chunk's pairs are root-filtered
        # before the (expensive) exact check — once a cluster connects,
        # its remaining internal pairs cost two root lookups, not a
        # set-intersection (verifying all distinct pairs up front measured
        # 50 s vs ~1 s with the skip on the sf0.1 curation input).
        chunk = 1 << 18
        for c0 in range(0, plo.size, chunk):
            clo, chi_ = plo[c0 : c0 + chunk], phi[c0 : c0 + chunk]
            parent = _flatten_roots(parent)
            live = parent[clo] != parent[chi_]
            if not live.any():
                continue
            clo, chi_ = clo[live], chi_[live]
            keep = _batch_jaccard_keep_flat(flat, set_offs, set_idx[clo], set_idx[chi_], threshold)
            ex_, ey = clo[keep], chi_[keep]
            while ex_.size:
                parent = _flatten_roots(parent)
                rx, ry = parent[ex_], parent[ey]
                live = rx != ry
                if not live.any():
                    break
                rx, ry = rx[live], ry[live]
                np.minimum.at(parent, np.maximum(rx, ry), np.minimum(rx, ry))
                ex_, ey = ex_[live], ey[live]
        return _flatten_roots(parent)
    alive = sizes > 1
    failed = np.empty(0, dtype=np.int64)  # sorted packed lo*n+hi of exact-verify failures
    # Center-batch schedule: iteration i processes centers [r0, r0+width).
    # width doubles each iteration, so a bucket of s members finishes in
    # O(log s) vectorized iterations instead of s rounds (measured 1,493
    # rounds -> 12 on a 1.5k-member mostly-dissimilar bucket at sf0.1,
    # 13.4 s -> sub-second). Iteration 0 is width=1 — a pure star pass —
    # so dense-similar buckets collapse to one root and deactivate before
    # any wide batch can emit their quadratic pair mass.
    r0, width = 0, 1
    while True:
        parent = _flatten_roots(parent)
        mroot = parent[mpos]
        # deactivate buckets whose members already share one root
        if alive.any():
            alive &= np.minimum.reduceat(mroot, starts) != np.maximum.reduceat(mroot, starts)
        act = np.flatnonzero(alive & (sizes - 1 > r0))
        if act.size == 0:
            break
        # expand centers r0..min(r0+width, size-1) per active bucket
        ncent = np.minimum(r0 + width, sizes[act] - 1) - r0
        cb = np.repeat(np.arange(act.size, dtype=np.int64), ncent)
        coffs = np.zeros(act.size + 1, dtype=np.int64)
        np.cumsum(ncent, out=coffs[1:])
        crel = r0 + (np.arange(cb.size, dtype=np.int64) - coffs[cb])
        cabs = starts[act][cb] + crel
        # expand (center, j) for j = crel+1 .. size-1 within each bucket
        cnt = sizes[act][cb] - 1 - crel
        bidx = np.repeat(np.arange(cabs.size, dtype=np.int64), cnt)
        offs = np.zeros(cabs.size + 1, dtype=np.int64)
        np.cumsum(cnt, out=offs[1:])
        cpos = cabs[bidx]
        jpos = cpos + 1 + (np.arange(bidx.size, dtype=np.int64) - offs[bidx])
        m = mroot[cpos] != mroot[jpos]
        la, lb = mlen[cpos], mlen[jpos]
        mnl, mxl = np.minimum(la, lb), np.maximum(la, lb)
        # same float64 division as the verifier (monotone bound, see
        # _batch_jaccard_keep_flat) — a rejected pair can never verify
        m &= np.divide(mnl, mxl, out=np.zeros(mnl.size), where=mxl > 0) >= threshold
        cp, jp = mpos[cpos[m]], mpos[jpos[m]]
        lo, hi = np.minimum(cp, jp), np.maximum(cp, jp)
        packed = np.unique(lo * n + hi)
        if failed.size and packed.size:
            pos = np.searchsorted(failed, packed)
            hit = (pos < failed.size) & (failed[np.minimum(pos, failed.size - 1)] == packed)
            packed = packed[~hit]
        if packed.size:
            plo, phi = packed // n, packed % n
            keep = _batch_jaccard_keep_flat(flat, set_offs, set_idx[plo], set_idx[phi], threshold)
            ex_, ey = plo[keep], phi[keep]
            # vectorized min-label propagation over this batch's verified
            # edges (a per-edge Python union loop measured 9 s on a batch
            # where a dissimilar star center hid a mutually-similar mass)
            while ex_.size:
                parent = _flatten_roots(parent)
                rx, ry = parent[ex_], parent[ey]
                live = rx != ry
                if not live.any():
                    break
                rx, ry = rx[live], ry[live]
                np.minimum.at(parent, np.maximum(rx, ry), np.minimum(rx, ry))
                ex_, ey = ex_[live], ey[live]
            nf = packed[~keep]
            if nf.size:
                failed = np.union1d(failed, nf)
        r0 += width
        width *= 2
    return _flatten_roots(parent)


def _verified_drop_ids_local(
    t: pa.Table,
    id_col: str,
    text_col: str,
    threshold: float,
    num_perm: int,
    bands: int,
    shingle: str,
    k: int,
    seed: int,
) -> np.ndarray:
    """Drop ids for the verified-MinHash dedup, computed in-process over a
    gathered (id, text) table with the SAME kernels the distributed plan
    runs per block (fingerprint stage, band stage, exact Jaccard) — so the
    two plans' outputs are identical (asserted in tests/test_neardup.py).
    The distributed plan's stage graph (two actor pools, two hash
    shuffles, one sort) costs seconds of fixed spawn/exchange overhead at
    32 CPUs, which dwarfs small corpora. Candidate connectivity runs via
    :func:`_verified_components_rounds` — bucket all-pairs semantics
    without the quadratic expansion."""
    drops: set = set()
    fp = _TokenSetFingerprintStage(id_col, text_col, shingle, k)(t)
    u = pl.from_arrow(fp)
    j1 = u.filter(pl.col("id") != pl.col("id").min().over(["h1", "h2"]))["id"].to_numpy()
    if j1.size:
        drops.update(int(i) for i in j1)
        keep_mask = ~np.isin(t[id_col].to_numpy(zero_copy_only=False), j1)
        t = t.filter(pa.array(keep_mask))
    ids_arr = t[id_col].to_numpy(zero_copy_only=False)
    order = np.argsort(ids_arr, kind="stable")
    uids = np.ascontiguousarray(ids_arr[order])
    _check_unique_ids(uids, id_col)
    texts = t[text_col].to_numpy(zero_copy_only=False)[order]
    cache = _HashSetCache(shingle, k)
    set_idx = np.fromiter((cache.idx(x) for x in texts), dtype=np.int64, count=uids.size)
    set_lens = np.fromiter((len(s) for s in cache.sets), dtype=np.int64, count=len(cache.sets))
    set_offs = np.zeros(len(cache.sets) + 1, dtype=np.int64)
    np.cumsum(set_lens, out=set_offs[1:])
    flat = np.concatenate(cache.sets) if cache.sets else np.empty(0, dtype=np.uint64)
    triples = MinHashBandStage(id_col, text_col, num_perm, bands, shingle, k, seed, emit_len=True)(t)
    roots = _verified_components_rounds(triples, uids, set_idx, flat, set_offs, threshold)
    if uids.size:
        # non-minimum member ids of every multi-node component
        o2 = np.argsort(roots, kind="stable")  # uids ascending within each root
        rs = roots[o2]
        first = np.empty(rs.size, dtype=bool)
        first[0] = True
        first[1:] = rs[1:] != rs[:-1]
        reps = np.cumsum(first) - 1
        minid = uids[o2][np.flatnonzero(first)][reps]
        dropped = uids[o2][uids[o2] != minid]
        drops.update(int(i) for i in dropped)
    return np.array(sorted(drops), dtype=np.int64)


def minhash_lsh_dedup_verified(
    ds,
    id_col: str,
    text_col: str,
    threshold: float,
    shingle: str = "word",
    size_hint_bytes: int | None = None,
):
    """Near-dup dedup with EXACT connectivity semantics: clusters are the
    connected components of the true Jaccard ≥ threshold pair graph
    (all-pairs per bucket + per-pair exact verification), survivors are
    component minima — byte-matchable against a brute-force SQL oracle
    with a recursive-CTE closure (queries.dedup_minhash_word_docs).

    Contrast :func:`minhash_lsh_dedup` (verify_threshold), which verifies
    only (member, bucket-min) representative edges — cheaper (O(bucket)
    vs O(bucket²) candidate edges) but can sever a true pair whose bucket
    representative resembles neither member; its clusters are a refinement
    of this function's. Same cost-based driver/distributed tail.

    Identical-token-set (J=1) groups first collapse to their min-id
    member, and LSH + verification run on the representatives only —
    semantics-preserving (a J=1 group's rep IS
    its min, and component minima over reps equal component minima over
    all members) and the production-standard composition for web corpora,
    where exact-duplicate clusters dominate the quadratic in-bucket pair
    generation. Measured at sf0.1 (dense-cluster corpus): 5000 → 3935
    banding docs and the largest clique (248 docs) leaves the pair stage
    entirely."""
    import ray

    from ..functions.shuffle import DRIVER_MAX_ROWS, metadata_size_estimate

    num_perm, bands, k, seed = 256, 64, 5, 42

    # Cost-based small-input plan (same gate every sibling has): when the
    # input's metadata size estimate — or the caller's upper bound for a
    # transformed input — fits LOCAL_PLAN_MAX_BYTES, gather (id, text)
    # ONCE (byte-capped; overflow falls through to the distributed stages)
    # and run the identical kernels in-process, skipping the actor-pool
    # spawn + two shuffles + sort whose fixed cost dwarfs small corpora.
    est = size_hint_bytes if size_hint_bytes is not None else metadata_size_estimate(ds)
    if est is not None and est <= LOCAL_PLAN_MAX_BYTES:
        t = _gather_capped(_sel(ds, [id_col, text_col]), 4 * LOCAL_PLAN_MAX_BYTES)
        if t is not None:
            if t.num_rows == 0:
                return ds
            drop = _verified_drop_ids_local(
                t, id_col, text_col, threshold, num_perm, bands, shingle, k, seed
            )
            if drop.size == 0:
                return ds
            return broadcast_value_filter(ds, id_col, drop, keep=False)

    work = _sel(ds, [id_col, text_col])
    drop_sets = []
    # size the fingerprint actor pool from the RAW input (a projected
    # plan has no metadata estimate and would fall back to the cap)
    conc = sized_actor_concurrency(ds)
    j1_drops = _token_set_drop_ids(work, id_col, text_col, shingle, k, concurrency=conc).materialize()
    if j1_drops.count() > 0:
        drop_sets.append(j1_drops)
        work = membership_filter(work, id_col, j1_drops, "id", keep=False, keys_non_null=True).materialize()
    pairs_ds = _lsh_all_pairs(work, id_col, text_col, num_perm, bands, shingle, k, seed, threshold=threshold)
    n_pairs = pairs_ds.count()
    kept = None
    if n_pairs > 0 and n_pairs <= DRIVER_MAX_ROWS:
        from ..pipelines.queries import as_table

        t = as_table(pairs_ds)
        cand = list(
            {(int(a), int(b)) for a, b in zip(t["a"].to_numpy(zero_copy_only=False), t["b"].to_numpy(zero_copy_only=False))}
        )
        # None = candidate texts exceeded the driver byte cap → fall
        # through to the broadcast-store plan below (round-3 verdict)
        kept = _verify_edges(work, id_col, text_col, cand, threshold, shingle, k)
        if kept is not None:
            drop = _survivors_from_edges(None, kept)
            if drop:
                drop_sets.append(
                    ray.data.from_arrow(pa.Table.from_pydict({"id": pa.array(sorted(drop), type=pa.int64())}))
                )
    if n_pairs > 0 and (n_pairs > DRIVER_MAX_ROWS or kept is None):
        from .distributed import cluster_drop_ids, pair_payload_join

        # middle plan: pairs exceed the driver budget but candidate hash
        # sets fit a broadcast — pairs never carry payloads; components
        # mode adds the star prefilter (connectivity skip)
        verified = _verify_pairs_broadcast(
            work, pairs_ds, id_col, text_col, threshold, shingle, k, components_mode=True
        )
        if verified is None:
            verified = pair_payload_join(
                work, pairs_ds, id_col, text_col, _jaccard_verify_block(threshold, shingle, k)
            )
        drop_sets.append(cluster_drop_ids(verified))
    if not drop_sets:
        return ds
    drops = drop_sets[0]
    for extra in drop_sets[1:]:
        drops = drops.union(extra)
    return membership_filter(ds, id_col, drops, "id", keep=False, keys_non_null=True)


def neardup_pairs(
    ds,
    id_col: str,
    text_col: str,
    threshold: float,
):
    """All (id_a < id_b) pairs with exact Jaccard ≥ threshold, found via
    LSH candidates (256 permutations in 64 bands over word 5-grams) +
    exact verification. The LSH recall at J=threshold≥0.5 is
    >1-1e-6 (1-(1-J^r)^b, r=4, b=64), so the result matches a
    brute-force pairwise oracle on non-adversarial data.

    Within-bucket pairing is all-pairs per bucket (not just to the min) so
    no pair is lost to the representative chain.
    """
    from ..functions.shuffle import DRIVER_MAX_ROWS, metadata_size_estimate

    num_perm, bands, shingle, k, seed = 256, 64, "word", 5, 42
    # Cost-gated in-process plan (same gate as the dedup siblings), with
    # one extra bail: pair LISTING must verify every distinct candidate
    # (no connectivity skip), so after the cheap gather + banding + matrix
    # the plan falls through to the distributed verifiers when the
    # distinct-candidate count exceeds the driver pair budget — only the
    # ~1 s candidate scan is repeated at the boundary.
    est = metadata_size_estimate(ds)
    pairs_ds = None
    if est is not None and est <= LOCAL_PLAN_MAX_BYTES:
        t = _gather_capped(_sel(ds, [id_col, text_col]), 4 * LOCAL_PLAN_MAX_BYTES)
        if t is not None and t.num_rows <= _PAIR_MATRIX_MAX_DOCS:
            if t.num_rows == 0:
                return pa.Table.from_pydict({"a": [], "b": []}, schema=_PAIR_SCHEMA)
            ids_arr = t[id_col].to_numpy(zero_copy_only=False)
            order = np.argsort(ids_arr, kind="stable")
            uids = np.ascontiguousarray(ids_arr[order])
            _check_unique_ids(uids, id_col)
            texts = t[text_col].to_numpy(zero_copy_only=False)[order]
            triples = MinHashBandStage(id_col, text_col, num_perm, bands, shingle, k, seed, emit_len=True)(t)
            mpos, _mlen, starts, sizes = _bucket_segments(triples, uids)
            n = uids.size
            cand = np.zeros((n, n), dtype=bool)
            for s0, sz in zip(starts, sizes):
                if sz > 1:
                    idx = mpos[s0 : s0 + sz]
                    cand[np.ix_(idx, idx)] = True
            plo, phi = np.nonzero(cand)
            up = plo < phi
            plo, phi = plo[up], phi[up]
            if plo.size <= DRIVER_MAX_ROWS:
                cache = _HashSetCache(shingle, k)
                set_idx = np.fromiter((cache.idx(x) for x in texts), dtype=np.int64, count=n)
                lens = np.fromiter((len(s) for s in cache.sets), dtype=np.int64, count=len(cache.sets))
                offs = np.zeros(len(cache.sets) + 1, dtype=np.int64)
                np.cumsum(lens, out=offs[1:])
                flat = np.concatenate(cache.sets) if cache.sets else np.empty(0, dtype=np.uint64)
                keep = _batch_jaccard_keep_flat(flat, offs, set_idx[plo], set_idx[phi], threshold)
                a_ids, b_ids = uids[plo[keep]], uids[phi[keep]]
                lo = np.minimum(a_ids, b_ids)
                hi = np.maximum(a_ids, b_ids)
                o2 = np.lexsort((hi, lo))
                return pa.Table.from_pydict(
                    {"a": pa.array(lo[o2], type=pa.int64()), "b": pa.array(hi[o2], type=pa.int64())}
                )
            # distinct candidates exceed the driver verify budget — hand
            # the LOCALLY-computed distinct pair set to the distributed
            # verifiers below (sliced so the verify actor pool gets real
            # parallelism): the local scan replaces the banding shuffle +
            # global pair distinct rather than being thrown away.
            import ray.data as _rd

            cand_tbl = pa.Table.from_pydict(
                {"a": pa.array(uids[plo], type=pa.int64()), "b": pa.array(uids[phi], type=pa.int64())},
                schema=_PAIR_SCHEMA,
            )
            n_slices = max(1, min(64, cand_tbl.num_rows // 65536))
            step = -(-cand_tbl.num_rows // n_slices)
            pairs_ds = _rd.from_arrow(
                [cand_tbl.slice(i, step) for i in range(0, cand_tbl.num_rows, step)]
            )
    if pairs_ds is None:
        pairs_ds = _lsh_all_pairs(ds, id_col, text_col, num_perm, bands, shingle, k, seed, threshold=threshold)
    from ..pipelines.queries import as_table

    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return pa.Table.from_pydict({"a": [], "b": []}, schema=_PAIR_SCHEMA)
    kept = None
    if n_pairs <= DRIVER_MAX_ROWS:
        t = as_table(pairs_ds)
        cand = list(
            {(int(a), int(b)) for a, b in zip(t["a"].to_numpy(zero_copy_only=False), t["b"].to_numpy(zero_copy_only=False))}
        )
        kept = _verify_edges(ds, id_col, text_col, cand, threshold, shingle, k)
    if kept is None:
        # distributed exact verification (pair count over the budget, or
        # candidate texts over the driver byte cap): broadcast hash-set
        # store when the candidate docs fit the budget, else candidate
        # payloads shuffle to their pairs — neither gathers to the driver
        verified = _verify_pairs_broadcast(ds, pairs_ds, id_col, text_col, threshold, shingle, k)
        if verified is None:
            from .distributed import pair_payload_join

            verified = pair_payload_join(
                ds, pairs_ds, id_col, text_col, _jaccard_verify_block(threshold, shingle, k)
            )
        return as_table(verified).sort_by([("a", "ascending"), ("b", "ascending")])
    kept.sort()
    return pa.Table.from_pydict(
        {
            "a": pa.array([a for a, _ in kept], type=pa.int64()),
            "b": pa.array([b for _, b in kept], type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_fingerprints(ds, id_col: str, text_col: str, token_hash: str = "fnv"):
    """(id, simhash) fingerprint per row — stateless vectorized batch map.
    ``token_hash="md5"`` selects the SQL-reproducible variant (DuckDB
    ``md5_number_lower`` parity) used by the oracle-checked query."""

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        # batch-vectorized, bit-identical to a per-doc SimHash loop
        # (md5 hashes each DISTINCT batch token once — SQL parity kept)
        kernel = batch_simhash_fnv if token_hash == "fnv" else batch_simhash_md5
        out = kernel(["" if t is None else t for t in texts]).view(np.int64)
        return pa.Table.from_pydict({id_col: batch[id_col], "simhash": pa.array(out)})

    return _sel(ds, [id_col, text_col]).map_batches(fp, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def _simhash_bucket_edges(ids: np.ndarray, fp: np.ndarray, n_blocks: int, max_hamming: int):
    """Candidate pairs within prefix-block buckets, exact-Hamming verified.
    One vectorized polars/numpy pass; shared by the driver plan (whole
    fingerprint set) and the distributed plan (one shuffle block)."""
    n = len(ids)
    u = pl.DataFrame(
        {
            "id": np.repeat(ids, n_blocks),
            "fp": np.repeat(fp, n_blocks).astype(np.int64),
            "block": np.tile(np.arange(n_blocks, dtype=np.int64), n),
            "key": prefix_blocks(fp, n_blocks).reshape(-1).astype(np.int64),
        }
    ).unique(subset=["block", "key", "id"])
    j = (
        u.join(u.rename({"id": "id_b", "fp": "fp_b"}), on=["block", "key"])
        .filter(pl.col("id") < pl.col("id_b"))
        .select(["id", "fp", "id_b", "fp_b"])
        .unique(subset=["id", "id_b"])
    )
    if j.height == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    fa = j["fp"].to_numpy().astype(np.uint64)
    fb = j["fp_b"].to_numpy().astype(np.uint64)
    m = hamming_distance(fa, fb) <= max_hamming
    return j["id"].to_numpy()[m], j["id_b"].to_numpy()[m]


# size estimate up to which the (id, simhash) pairs dedup in one driver pass
_SIMHASH_MERGE_MAX_BYTES = 1 << 30


def simhash_dedup(
    ds,
    id_col: str,
    text_col: str,
    token_hash: str = "fnv",
    size_hint_bytes: int | None = None,
):
    """Near-dup dedup via SimHash: Manku-style prefix-block grouping finds
    every pair within Hamming distance 3 (with 4 prefix blocks one block
    of such a pair matches exactly); within-bucket pairs are verified by
    exact Hamming distance.

    Plan choice is cost-based like :func:`~..dedup.exact.exact_dedup`:
    when the input's size estimate (or the caller's ``size_hint_bytes``
    upper bound, for transformed inputs with no estimate) fits
    ``_SIMHASH_MERGE_MAX_BYTES``, the (id, simhash) pairs — 16 B/doc —
    stream to ONE driver pass (bucket self-join + exact Hamming verify +
    union-find + broadcast drop filter), skipping the hash shuffle's
    fixed aggregator-actor spawn that dwarfs small corpora. Larger
    inputs keep the distributed bucket shuffle."""
    n_blocks, max_hamming = 4, 3  # pigeonhole: max_hamming < n_blocks

    fps = simhash_fingerprints(ds, id_col, text_col, token_hash)
    from ..functions.shuffle import metadata_size_estimate

    est = size_hint_bytes if size_hint_bytes is not None else metadata_size_estimate(ds)
    if est is not None and est <= _SIMHASH_MERGE_MAX_BYTES:
        tabs = [
            t
            for t in fps.iter_batches(batch_format="pyarrow", batch_size=None)
            if t.num_rows
        ]
        if not tabs:
            return ds
        t = pa.concat_tables(tabs, promote_options="default")
        ids = t[id_col].to_numpy(zero_copy_only=False)
        fp = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ea, eb = _simhash_bucket_edges(ids, fp, n_blocks, max_hamming)
        if len(ea) == 0:
            return ds
        drop = _survivors_from_edges(None, list(zip(ea.tolist(), eb.tolist())))
        if not drop:
            return ds
        return broadcast_value_filter(ds, id_col, np.array(sorted(drop)), keep=False)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        fp = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        blocks = prefix_blocks(fp, n_blocks)  # (n, n_blocks)
        n = len(ids)
        return pa.Table.from_pydict(
            {
                "id": pa.array(np.repeat(ids, n_blocks)),
                "fp": pa.array(np.repeat(fp, n_blocks).astype(np.int64)),
                "block": pa.array(np.tile(np.arange(n_blocks, dtype=np.int64), n)),
                "key": pa.array(blocks.reshape(-1).astype(np.int64)),
            }
        )

    def block_bucket_edges(tb: pa.Table) -> pa.Table:
        """All (block, key) buckets in this shuffle block: self-join within
        buckets, verify candidate pairs by exact Hamming distance."""
        if tb.num_rows == 0:
            return pa.Table.from_pydict({"id": [], "rep": []}, schema=_EDGE_SCHEMA)
        u = pl.from_arrow(tb).unique(subset=["block", "key", "id"])
        j = (
            u.join(u.rename({"id": "id_b", "fp": "fp_b"}), on=["block", "key"])
            .filter(pl.col("id") < pl.col("id_b"))
            .select(["id", "fp", "id_b", "fp_b"])
            .unique(subset=["id", "id_b"])
        )
        if j.height == 0:
            return pa.Table.from_pydict({"id": [], "rep": []}, schema=_EDGE_SCHEMA)
        fa = j["fp"].to_numpy().astype(np.uint64)
        fb = j["fp_b"].to_numpy().astype(np.uint64)
        m = hamming_distance(fa, fb) <= max_hamming
        return pa.Table.from_pydict(
            {"id": j["id_b"].to_numpy()[m], "rep": j["id"].to_numpy()[m]}, schema=_EDGE_SCHEMA
        )

    edges_ds = local_group_map(
        fps.map_batches(explode, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        ["block", "key"],
        block_bucket_edges,
        keys_non_null=True,
    )
    # edges are already exact-Hamming-verified inside the buckets, so the
    # tail needs only clustering + drop (no payload re-verification)
    return _dedup_via_edges(ds, id_col, text_col, edges_ds, None, None)


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------


class HyperplaneLSHStage:
    """Actor-pool stage: embeddings -> (id, band, key) sign-LSH triples.
    Random hyperplanes are drawn once per actor from a fixed seed."""

    def __init__(self, id_col: str, vec_col: str, dim: int, n_bits: int, bands: int, seed: int):
        self.id_col, self.vec_col, self.bands = id_col, vec_col, bands
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_bits))
        self.rows = n_bits // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # matmul guard for empty blocks
            return pa.Table.from_pydict({
                "id": pa.array([], type=batch.schema.field(self.id_col).type),
                "band": pa.array([], type=pa.int64()),
                "key": pa.array([], type=pa.int64()),
            })
        m = list_column_to_matrix(batch[self.vec_col])
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        bits = (m @ self.planes) > 0  # (n, n_bits)
        n = len(ids)
        keys = np.zeros((n, self.bands), dtype=np.int64)
        for b in range(self.bands):
            seg = bits[:, b * self.rows : (b + 1) * self.rows]
            keys[:, b] = seg @ (1 << np.arange(self.rows, dtype=np.int64))
        return pa.Table.from_pydict(
            {
                "id": pa.array(np.repeat(ids, self.bands)),
                "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int64), n)),
                "key": pa.array(keys.reshape(-1)),
            }
        )


def embedding_neardup_pairs(ds, id_col: str, vec_col: str, dim: int, threshold: float = 0.95) -> pa.Table:
    """All (a < b) pairs with exact cosine ≥ threshold: hyperplane-LSH
    candidates (all-pairs per bucket) + exact verification over the
    gathered candidate vectors. Matches a brute-force pairwise oracle up
    to LSH recall (>99.98% at cos=0.95 with 16 bands × 8 bits; 128 planes,
    seed 42). Above ``shuffle.DRIVER_MAX_ROWS`` candidate pairs the vectors
    shuffle to their pairs instead of gathering on the driver."""
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def block_pairs(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({"a": [], "b": []}, schema=pair_schema)
        u = pl.from_arrow(tb).unique(subset=["band", "key", "id"])
        pairs = (
            u.join(u.rename({"id": "b"}), on=["band", "key"])
            .filter(pl.col("id") < pl.col("b"))
            .select(pl.col("id").alias("a"), "b")
            .unique()
        )
        return pairs.to_arrow().cast(pair_schema)

    triples = _sel(ds, [id_col, vec_col]).map_batches(
        HyperplaneLSHStage,
        fn_constructor_args=(id_col, vec_col, dim, 128, 16, 42),
        batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
    pairs_tbl = local_group_map(triples, ["band", "key"], block_pairs, keys_non_null=True).materialize()
    from ..pipelines.queries import as_table

    rt = None
    cand_pairs: list[tuple] = []
    from ..functions.shuffle import DRIVER_MAX_ROWS

    if pairs_tbl.count() <= DRIVER_MAX_ROWS:
        t = as_table(pairs_tbl)
        cand_pairs = list(
            {(int(a), int(b)) for a, b in zip(t["a"].to_numpy(zero_copy_only=False), t["b"].to_numpy(zero_copy_only=False))}
        )
        if not cand_pairs:
            return pa.Table.from_pydict({"a": [], "b": []}, schema=pair_schema)
        cand = sorted({i for e in cand_pairs for i in e})
        rows = broadcast_value_filter(_sel(ds, [id_col, vec_col]), id_col, np.array(cand), keep=True)
        rt = _gather_capped(rows)
    if rt is None:
        # pair count over the budget, or candidate vectors over the
        # driver byte cap: vectors shuffle to their pairs instead
        from .distributed import pair_payload_join

        verified = pair_payload_join(ds, pairs_tbl, id_col, vec_col, _cosine_verify_block(threshold))
        return as_table(verified).sort_by([("a", "ascending"), ("b", "ascending")])
    mat = list_column_to_matrix(rt[vec_col])
    ids = rt[id_col].to_numpy(zero_copy_only=False)
    norm = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    vec = {int(i): norm[j] for j, i in enumerate(ids)}
    kept = sorted((a, b) for a, b in cand_pairs if float(vec[a] @ vec[b]) >= threshold)
    return pa.Table.from_pydict(
        {"a": pa.array([a for a, _ in kept], type=pa.int64()), "b": pa.array([b for _, b in kept], type=pa.int64())}
    )
