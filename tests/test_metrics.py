"""Classification-metrics tests: exact confusion vs sklearn-free numpy
reference; streaming AUC vs exact rank-based AUC."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _make_ds(ray_session, y, p=None, s=None):
    import ray.data as rd

    cols = {"label": pa.array(y, type=pa.int32())}
    if p is not None:
        cols["pred"] = pa.array(p, type=pa.int32())
    if s is not None:
        cols["score"] = pa.array(s, type=pa.float64())
    return rd.from_arrow(pa.table(cols))


def test_confusion_and_prf_exact(ray_session):
    from anomalydetection_ray.functions.metrics import classification_metrics

    rng = np.random.RandomState(0)
    y = rng.randint(0, 2, 5000)
    p = np.where(rng.rand(5000) < 0.8, y, 1 - y)  # 80% correct
    ds = _make_ds(ray_session, y, p=p)
    m = classification_metrics(ds, "label", "pred")
    tp = int(((y == 1) & (p == 1)).sum())
    fp = int(((y == 0) & (p == 1)).sum())
    tn = int(((y == 0) & (p == 0)).sum())
    fn = int(((y == 1) & (p == 0)).sum())
    assert (m["tp"], m["fp"], m["tn"], m["fn"]) == (tp, fp, tn, fn)
    assert m["accuracy"] == pytest.approx((tp + tn) / 5000)
    assert m["precision"] == pytest.approx(tp / (tp + fp))
    assert m["recall"] == pytest.approx(tp / (tp + fn))


def _exact_auc(y, s):
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_s = s[order]
    # average ranks for ties
    i = 0
    r = np.arange(1, len(s) + 1, dtype=np.float64)
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        r[i : j + 1] = (i + j + 2) / 2.0
        i = j + 1
    ranks[order] = r
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2
    return u / (n_pos * n_neg)


def test_streaming_auc_close_to_exact(ray_session):
    from anomalydetection_ray.functions.metrics import auc_streaming

    rng = np.random.RandomState(7)
    y = rng.randint(0, 2, 8000)
    s = rng.standard_normal(8000) + y * 0.8  # informative scores
    ds = _make_ds(ray_session, y, s=s)
    approx = auc_streaming(ds, "label", "score", float(s.min()), float(s.max()) + 1e-9)
    exact = _exact_auc(y, s)
    assert abs(approx - exact) < 2e-3
    assert 0.6 < approx < 0.85


def test_template_param_extraction():
    from anomalydetection_ray.sources.logs import extract_template_params, mask_template_batch

    batch = pa.table({"Content": ["core 123 dump 45", "no digits here", "x9"]})
    out = extract_template_params(batch)
    assert out["params"].to_pylist() == [["123", "45"], [], ["9"]]
    # masking and params are consistent: re-substituting params into the
    # template reproduces the original content
    tpl = mask_template_batch(batch)["template"].to_pylist()
    for content, t, ps in zip(batch["Content"].to_pylist(), tpl, out["params"].to_pylist()):
        rebuilt = t
        for p in ps:
            rebuilt = rebuilt.replace("<*>", p, 1)
        assert rebuilt == content


def test_auc_drops_null_scores_and_labels(ray_session):
    """Rows with a null score or label have no rank: both AUC paths must
    exclude them (they used to reach numpy as object arrays and crash),
    matching the value computed over only the scored+labeled rows."""
    import ray.data as rd

    from anomalydetection_ray.functions.metrics import auc_exact, auc_streaming

    rng = np.random.default_rng(5)
    y = (rng.random(400) < 0.4).astype(np.int64)
    s = np.round(rng.normal(loc=y * 1.0, scale=1.0), 2)
    yo = pa.array([None if i % 17 == 0 else int(v) for i, v in enumerate(y)], type=pa.int64())
    so = pa.array([None if i % 23 == 0 else float(v) for i, v in enumerate(s)], type=pa.float64())
    ds = rd.from_arrow(pa.table({"label": yo, "score": so})).repartition(5)
    keep = np.array([yo[i].as_py() is not None and so[i].as_py() is not None for i in range(400)])
    want = _exact_auc(y[keep], s[keep])
    assert abs(auc_exact(ds, "label", "score") - want) < 1e-12
    approx = auc_streaming(ds, "label", "score", lo=-4.0, hi=5.0)
    assert abs(approx - want) < 0.02


def test_grouped_centroids_null_group(ray_session):
    """A null group value forms its own centroid group (argsort over an
    object array holding None used to raise TypeError)."""
    import ray.data as rd

    from anomalydetection_ray.functions.vector import grouped_centroids

    tb = pa.table({
        "g": pa.array(["a", None, "a", None], type=pa.string()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 4.0]], type=pa.list_(pa.float64())),
    })
    out = grouped_centroids(rd.from_arrow(tb).repartition(2), "g", "embedding")
    rows = {r["g"]: r for r in out.to_pylist()}
    assert set(rows) == {"a", None}
    assert rows["a"]["n"] == 2 and rows["a"]["centroid"] == [2.0, 0.0]
    assert rows[None]["n"] == 2 and rows[None]["centroid"] == [0.0, 3.0]


def test_auc_exact_matches_sort_based(ray_session):
    """Distributed rank-sum AUC == single-node sort-based exact AUC,
    including tie groups (duplicated scores) that must not split."""
    import ray.data as rd

    from anomalydetection_ray.functions.metrics import auc_exact

    rng = np.random.default_rng(11)
    y = (rng.random(3000) < 0.3).astype(np.int64)
    # quantized scores force heavy ties across block boundaries
    s = np.round(rng.normal(loc=y * 0.8, scale=1.0), 1)
    ds = rd.from_arrow(pa.table({"label": y, "score": s})).repartition(7)
    got = auc_exact(ds, "label", "score")
    assert abs(got - _exact_auc(y, s)) < 1e-12


def test_confusion_counts_null_labels_excluded(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.metrics import classification_metrics, confusion_counts

    t = pa.table({
        "y": pa.array([1, None, 0, 1], type=pa.int64()),
        "p": pa.array([1, 1, 0, None], type=pa.int64()),
    })
    c = confusion_counts(rd.from_arrow(t), "y", "p")
    # only the two fully-labeled rows count (previously the nulls cast
    # to platform-dependent ints and silently corrupted the cells)
    assert c == {"tp": 1, "fp": 0, "tn": 1, "fn": 0}
    m = classification_metrics(rd.from_arrow(t), "y", "p")
    assert m["accuracy"] == 1.0


def test_confusion_counts_empty_dataset(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.metrics import classification_metrics

    t = pa.table({"y": pa.array([], type=pa.int64()), "p": pa.array([], type=pa.int64())})
    m = classification_metrics(rd.from_arrow(t), "y", "p")
    assert m["tp"] == m["fp"] == m["tn"] == m["fn"] == 0
    assert m["accuracy"] == 0.0


def test_auc_streaming_clips_out_of_range_scores(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from anomalydetection_ray.functions.metrics import auc_streaming

    # perfectly separable, but the top positive score sits ABOVE the
    # assumed range: it must clip into the edge bin, not vanish
    t = pa.table({
        "y": pa.array([1, 1, 0, 0], type=pa.int64()),
        "s": pa.array([1.5, 0.9, 0.2, 0.1], type=pa.float64()),
    })
    auc = auc_streaming(rd.from_arrow(t), "y", "s", 0.0, 1.0)
    assert np.isclose(auc, 1.0)
    with pytest.raises(ValueError, match="hi > lo"):
        auc_streaming(rd.from_arrow(t), "y", "s", 0.5, 0.5)
