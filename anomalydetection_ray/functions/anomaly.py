"""Multivariate anomaly scorers over embedding (list<float>) columns.

The reference thresholds a UNIVARIATE score — the row L2 norm or the MLP
reconstruction error — at the global 95th percentile
(``end_to_end_prediction.py:444-451``). These are the classic
multivariate generalizations, both from the published literature and both
expressed Ray-Data-first: parameters fit from streaming partials or a
deterministic driver-side sample (never a corpus gather), scoring as one
broadcast + vectorized ``map_batches`` pass.

- **Mahalanobis distance** (Mahalanobis 1936): mean/covariance from the
  one-pass ``(n, Σx, X'X)`` partials (``functions/vector.streaming_moments``)
  — the corpus never moves — then squared distance per row through the
  broadcast precision matrix.
- **Isolation forest** (Liu, Ting & Zhou, ICDM 2008): trees built on a
  deterministic hash-rate sample, scored with a level-synchronous
  vectorized traversal — all trees × all rows advance one depth per
  numpy step, no per-row Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .vector import list_column_to_matrix, streaming_moments

_EULER = 0.5772156649015329


def mahalanobis_scores(
    ds,
    vec_col: str,
    out_col: str = "maha_sq",
    carry: list[str] | None = None,
    ridge: float = 1e-9,
):
    """Squared Mahalanobis distance per row: ``(x−μ)' Σ⁻¹ (x−μ)`` with μ/Σ
    fit from the whole dataset in ONE streaming pass.

    Fit: :func:`~anomalydetection_ray.functions.vector.streaming_moments`
    (per-block ``(n, Σx, X'X)`` partials, driver merge — d×d work on the
    driver, never the corpus). Covariance is the SAMPLE covariance
    (n−1 denominator, SQL ``covar_samp``); ``ridge·I`` is added before
    inversion so collinear/constant dimensions stay solvable — raise it
    if numpy still reports a singular matrix. Scoring broadcasts the tiny
    ``(μ, P)`` closure and appends ``out_col`` via one matmul per batch.

    Returns ``(scored_ds, mean, cov)``; ``carry`` limits the columns kept
    alongside the score (default: all). Under multivariate normality
    ``maha_sq ~ χ²(d)``, so a caller thresholds at a χ² quantile or — the
    engine's usual move — at a global score percentile exactly like the
    reference's p95 rule."""
    from .shuffle import select_if_needed

    n, s, xx = streaming_moments(ds, vec_col)
    if n < 2:
        raise ValueError(f"mahalanobis_scores: need at least 2 rows, got {n}")
    d = s.shape[0]
    mean = s / n
    cov = (xx - n * np.outer(mean, mean)) / (n - 1)
    prec = np.linalg.inv(cov + float(ridge) * np.eye(d))

    src = ds if carry is None else select_if_needed(ds, list(dict.fromkeys(carry + [vec_col])))

    def score(tb: pa.Table) -> pa.Table:
        if out_col in tb.column_names:
            # loud, near the cause: appending a duplicate field crashes
            # far downstream with a confusing error (round-5 review)
            raise ValueError(f"mahalanobis_scores: input already has column {out_col!r}")
        x = (np.empty((0, d)) if tb.num_rows == 0
             else list_column_to_matrix(tb[vec_col]).astype(np.float64))
        dev = x - mean
        m = np.einsum("ij,ij->i", dev @ prec, dev)
        return tb.append_column(out_col, pa.array(m, type=pa.float64()))

    from .shuffle import ABSORB_EMPTY_BATCH_SIZE

    # ABSORB: empty blocks must carry the scored schema (round-5 review)
    scored = src.map_batches(
        score, batch_format="pyarrow", batch_size=ABSORB_EMPTY_BATCH_SIZE, zero_copy_batch=True
    )
    return scored, mean, cov


@dataclass
class IsolationForest:
    """Flattened forest: per-node arrays over all trees. ``feature`` < 0
    marks a leaf whose precomputed path length (depth + c(leaf_size))
    lives in ``leaf_pathlen``. ``roots[t]`` indexes tree t's root."""

    feature: np.ndarray  # int32 (nodes,)
    threshold: np.ndarray  # float64 (nodes,)
    left: np.ndarray  # int32 (nodes,)
    right: np.ndarray  # int32 (nodes,)
    leaf_pathlen: np.ndarray  # float64 (nodes,)
    roots: np.ndarray  # int32 (n_trees,)
    max_depth: int
    c_norm: float  # c(sample_size) normalizer


def _c(m: float) -> float:
    """Average unsuccessful-search path length of a BST with m points
    (Liu et al. 2008, eq. 1). The ln-approximation of H(m-1) only holds
    for m > 2; H(1) = 1 exactly, so c(2) = 1 (the sklearn convention) —
    the approximation gave 0.154 and inflated scores for 2-point leaves."""
    if m <= 1.0:
        return 0.0
    if m <= 2.0:
        return 1.0
    return 2.0 * (np.log(m - 1.0) + _EULER) - 2.0 * (m - 1.0) / m


def isolation_forest_fit(
    sample: np.ndarray, n_trees: int = 100, sample_size: int = 256, seed: int = 42
) -> IsolationForest:
    """Build an isolation forest from a driver-side sample matrix.

    Standard iForest construction: each tree sees ``sample_size`` rows
    drawn without replacement (with, when the sample is smaller), splits
    on a uniform feature at a uniform threshold within the node's value
    range, and stops at ``ceil(log2(sample_size))`` depth or a
    single/constant node. Work is O(n_trees · sample_size · depth) on the
    driver — thousands of nodes, independent of corpus size."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 2 or len(sample) == 0:
        raise ValueError("isolation_forest_fit: need a non-empty (n, d) sample")
    rng = np.random.default_rng(seed)
    size = min(int(sample_size), len(sample))
    max_depth = max(1, int(np.ceil(np.log2(max(size, 2)))))
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_pl: list[float] = []
    roots = []

    def build(rows: np.ndarray, depth: int) -> int:
        idx = len(feature)
        x = sample[rows]
        lo, hi = x.min(axis=0), x.max(axis=0)
        splittable = np.flatnonzero(hi > lo)
        if depth >= max_depth or len(rows) <= 1 or splittable.size == 0:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            leaf_pl.append(depth + _c(float(len(rows))))
            return idx
        f = int(rng.choice(splittable))
        t = float(rng.uniform(lo[f], hi[f]))
        # placeholder; children appended after
        feature.append(f)
        threshold.append(t)
        left.append(-1)
        right.append(-1)
        leaf_pl.append(0.0)
        mask = x[:, f] <= t
        # uniform in the open range can still put every row on one side
        # (ties at the boundary); force a non-degenerate split
        if mask.all() or not mask.any():
            mask = x[:, f] < (lo[f] + hi[f]) / 2.0
            if mask.all() or not mask.any():
                mask = np.zeros(len(rows), dtype=bool)
                mask[0] = True
        left[idx] = build(rows[mask], depth + 1)
        right[idx] = build(rows[~mask], depth + 1)
        return idx

    for _ in range(n_trees):
        rows = rng.choice(len(sample), size=size, replace=False)
        roots.append(build(np.asarray(rows), 0))
    return IsolationForest(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        leaf_pathlen=np.asarray(leaf_pl, dtype=np.float64),
        roots=np.asarray(roots, dtype=np.int32),
        max_depth=max_depth,
        c_norm=_c(float(size)),
    )


def isolation_forest_score_matrix(forest: IsolationForest, x: np.ndarray) -> np.ndarray:
    """Anomaly score in (0, 1) per row of ``x`` (higher = more isolated):
    ``2^(−E[h(x)] / c(ψ))``. Level-synchronous traversal: a
    (n_trees, n_rows) node-index matrix advances one depth per numpy step
    — ``max_depth`` vectorized steps total for the whole batch, every
    tree at once; leaves self-loop via their precomputed path length."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n == 0:
        return np.empty(0)
    node = np.repeat(forest.roots[:, None], n, axis=1)  # (T, n)
    for _ in range(forest.max_depth):
        f = forest.feature[node]  # (T, n)
        interior = f >= 0
        if not interior.any():
            break
        xv = x[np.arange(n)[None, :], np.maximum(f, 0)]
        go_left = xv <= forest.threshold[node]
        nxt = np.where(go_left, forest.left[node], forest.right[node])
        node = np.where(interior, nxt, node)
    mean_path = forest.leaf_pathlen[node].mean(axis=0)
    return np.power(2.0, -mean_path / max(forest.c_norm, 1e-12))


def isolation_forest_scores(
    ds,
    id_col: str,
    vec_col: str,
    out_col: str = "iforest_score",
    n_trees: int = 100,
    sample_size: int = 256,
    seed: int = 42,
    carry: list[str] | None = None,
):
    """Isolation-forest anomaly score per row, fit-on-sample /
    score-distributed.

    FIT — a deterministic hash-rate sample of 10,000 rows (hash of
    ``id_col``, same discipline as IVF/k-means: reproducible at any
    parallelism, never an input prefix), sorted by id so arrival order
    cannot perturb tree construction, builds the forest on the driver.
    SCORE — the flattened forest arrays ship once through the object
    store and every batch runs the level-synchronous matrix traversal
    (``isolation_forest_score_matrix``); the model loads ONCE per actor.

    Returns ``(scored_ds, forest)``."""
    import ray

    from .shuffle import select_if_needed, sized_actor_concurrency
    from .similarity import deterministic_hash_sample

    sample_tbl = deterministic_hash_sample(
        ds, id_col, [id_col, vec_col], 10_000, seed,
        empty_msg="isolation_forest_scores: hash-rate sample came back empty",
    )
    sample = list_column_to_matrix(sample_tbl[vec_col].combine_chunks())
    forest = isolation_forest_fit(sample, n_trees=n_trees, sample_size=sample_size, seed=seed)
    fref = ray.put(forest)

    class _Score:
        def __init__(self, ref, vec_col: str, out_col: str):
            self.forest = ray.get(ref)  # once per actor
            self.vec_col, self.out_col = vec_col, out_col

        def __call__(self, tb: pa.Table) -> pa.Table:
            if self.out_col in tb.column_names:
                # re-running the scorer over already-scored data would
                # append a duplicate field (round-5 review)
                raise ValueError(
                    f"isolation_forest_scores: input already has column {self.out_col!r}"
                )
            if tb.num_rows == 0:
                return tb.append_column(self.out_col, pa.array([], type=pa.float64()))
            x = list_column_to_matrix(tb[self.vec_col])
            s = isolation_forest_score_matrix(self.forest, x)
            return tb.append_column(self.out_col, pa.array(s, type=pa.float64()))

    src = ds if carry is None else select_if_needed(ds, list(dict.fromkeys(carry + [id_col, vec_col])))
    scored = src.map_batches(
        _Score,
        fn_constructor_args=(fref, vec_col, out_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
    return scored, forest
