"""kNN-distance outlier scoring (functions/similarity.py): exact-plan
numpy parity, layout invariance, and the loud guards."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


def _vecs(n, d, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)).astype(np.float32)


def _frame(m):
    return pd.DataFrame(
        {"vec_id": np.arange(len(m)), "embedding": [list(map(float, r)) for r in m]}
    )


def _ref(m, k):
    x = m.astype(np.float64)
    x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    s = x @ x.T
    np.fill_diagonal(s, -np.inf)
    top = -np.partition(-s, k - 1, axis=1)[:, :k]
    return 1 - top.min(axis=1), 1 - top.mean(axis=1)


def _ds(df, n_parts=5):
    import ray.data as rd

    return rd.from_pandas(df).repartition(n_parts)


def _sorted(out_ds) -> pd.DataFrame:
    return out_ds.to_pandas().sort_values("vec_id").reset_index(drop=True)


def test_exact_plan_matches_numpy(ray_session):
    from anomalydetection_ray.functions.similarity import knn_outlier_scores

    m = _vecs(300, 12)
    ref_dist, ref_mean = _ref(m, 7)
    got = _sorted(knn_outlier_scores(_ds(_frame(m)), "vec_id", "embedding", k=7))
    assert len(got) == 300
    np.testing.assert_allclose(got["knn_dist"], ref_dist, atol=1e-12)
    np.testing.assert_allclose(got["knn_mean_dist"], ref_mean, atol=1e-12)


def test_exact_plan_layout_invariance(ray_session):
    from anomalydetection_ray.functions.similarity import knn_outlier_scores

    m = _vecs(120, 8, seed=11)
    a = _sorted(knn_outlier_scores(_ds(_frame(m), 2), "vec_id", "embedding", k=5))
    b = _sorted(knn_outlier_scores(_ds(_frame(m), 9), "vec_id", "embedding", k=5))
    pd.testing.assert_frame_equal(a, b)


def test_k_larger_than_corpus_clamps(ray_session):
    from anomalydetection_ray.functions.similarity import knn_outlier_scores

    m = _vecs(6, 4, seed=5)
    ref_dist, ref_mean = _ref(m, 5)  # clamped to n-1 neighbors
    got = _sorted(knn_outlier_scores(_ds(_frame(m), 2), "vec_id", "embedding", k=50))
    np.testing.assert_allclose(got["knn_dist"], ref_dist, atol=1e-12)
    np.testing.assert_allclose(got["knn_mean_dist"], ref_mean, atol=1e-12)


def test_guards(ray_session, monkeypatch):
    import ray.data as rd

    from anomalydetection_ray.functions import similarity
    from anomalydetection_ray.functions.similarity import knn_outlier_scores

    m = _vecs(10, 4)
    dup = _frame(m)
    dup.loc[5, "vec_id"] = 4
    with pytest.raises(ValueError, match="unique"):
        knn_outlier_scores(_ds(dup, 2), "vec_id", "embedding", k=3)
    with pytest.raises(ValueError, match="at least 2"):
        knn_outlier_scores(_ds(_frame(m[:1]), 1), "vec_id", "embedding", k=3)
    with monkeypatch.context() as mp, pytest.raises(ValueError, match="broadcast budget"):
        mp.setattr(similarity, "KNN_BROADCAST_MAX_BYTES", 16)
        knn_outlier_scores(_ds(_frame(m), 2), "vec_id", "embedding", k=3)
    with pytest.raises(ValueError, match="empty"):
        knn_outlier_scores(
            rd.from_pandas(_frame(m)).filter(expr="vec_id < 0"), "vec_id", "embedding"
        )
