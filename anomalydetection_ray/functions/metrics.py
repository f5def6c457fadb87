"""Distributed classification metrics — reference parity for A4/A5.

The reference computes accuracy/precision/recall/F1 (+AUC) on the driver
over full label/prediction vectors (``end_to_end_prediction.py:464-466``;
``prediction_pipeline.py:363-373``) and a 2×2 confusion matrix
(``end_to_end_prediction.py:565``). Here the same quantities come from
per-block partial counts (one streaming pass, kilobyte partials):

- confusion counts / accuracy / precision / recall / F1: EXACT — four
  cell counts are fully associative.
- AUC: the reference's exact ROC-AUC needs a global sort; the streaming
  version histograms the scores per class into fine fixed bins and
  computes the rank statistic from the two histograms — error bounded by
  the per-bin tie approximation (≤ 1/n_bins of probability mass per bin;
  tests assert agreement to ~1e-3 on smooth score distributions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data.aggregate import Sum


def confusion_counts(ds, label_col: str, pred_col: str) -> dict:
    """Exact TP/FP/TN/FN via per-block partial sums. Rows with a null
    label or prediction are unscorable and excluded — same contract as
    the AUC paths' ``_drop_unscorable``. Without the filter, Arrow
    int-with-null reaches numpy as float64 NaN and ``astype(int64)``
    casts NaN to PLATFORM-DEPENDENT garbage (INT64_MIN on x86, 0 on
    aarch64 — the latter silently counts null-label rows as negatives;
    round-5 review, reproduced)."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = _drop_unscorable(batch, label_col, pred_col)
        y = batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        p = batch[pred_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "tp": [int(((y == 1) & (p == 1)).sum())],
                "fp": [int(((y == 0) & (p == 1)).sum())],
                "tn": [int(((y == 0) & (p == 0)).sum())],
                "fn": [int(((y == 1) & (p == 0)).sum())],
            }
        )

    row = ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True).aggregate(
        Sum("tp", alias_name="tp"),
        Sum("fp", alias_name="fp"),
        Sum("tn", alias_name="tn"),
        Sum("fn", alias_name="fn"),
    )
    # an empty dataset aggregates to None cells — all-zero counts, not a
    # TypeError mid-pipeline (round-5 review, reproduced)
    return {k: int(v or 0) for k, v in row.items()}


def classification_metrics(ds, label_col: str, pred_col: str) -> dict:
    """accuracy / precision / recall / f1 from exact confusion counts."""
    c = confusion_counts(ds, label_col, pred_col)
    tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
    total = tp + fp + tn + fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        **c,
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": precision,
        "recall": recall,
        "f1_score": f1,
    }


def _drop_unscorable(tb: pa.Table, label_col: str, score_col: str) -> pa.Table:
    """Drop rows with a null label or score: an unscored/unlabeled row has
    no rank and contributes nothing to AUC (sklearn raises there; a
    distributed metric over a model that skips rows must not). Without
    this, null-bearing Arrow columns reach numpy as object arrays and the
    astype/sort paths crash block-side."""
    import pyarrow.compute as pc

    mask = pc.and_(pc.is_valid(tb[label_col]), pc.is_valid(tb[score_col]))
    return tb if pc.all(mask).as_py() in (True, None) else tb.filter(mask)


def auc_streaming(ds, label_col: str, score_col: str, lo: float, hi: float) -> float:
    """Approximate ROC-AUC from per-class fixed-bin score histograms.

    AUC = P(score⁺ > score⁻) + ½·P(score⁺ = score⁻); with histograms the
    within-bin comparison uses the ½-tie convention, bounding the error by
    the mass falling in mixed bins. One streaming pass, partials are two
    int64[n_bins] vectors (4096 bins) per block.

    Scores outside [lo, hi] CLIP into the edge bins (the same policy as
    ``sketches/histogram.py:FixedHistogram.update``, and the same reason:
    ``np.histogram`` silently DROPS out-of-range values, which would make
    the AUC a biased subsample with unbounded error whenever the assumed
    range is stale — round-5 review). Clipped mass still obeys the
    per-bin tie bound only if the out-of-range tail is small; pass the
    true range for tight bounds.
    """
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    n_bins = 4096
    edges = np.linspace(lo, hi, n_bins + 1)

    def partial(batch: pa.Table) -> pa.Table:
        batch = _drop_unscorable(batch, label_col, score_col)
        y = batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = np.clip(batch[score_col].to_numpy(zero_copy_only=False).astype(np.float64), lo, hi)
        pos, _ = np.histogram(s[y == 1], bins=edges)
        neg, _ = np.histogram(s[y == 0], bins=edges)
        return pa.Table.from_pydict({"pos": [pos.tobytes()], "neg": [neg.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True).take_all()
    pos = np.zeros(n_bins, dtype=np.int64)
    neg = np.zeros(n_bins, dtype=np.int64)
    for r in parts:
        pos += np.frombuffer(r["pos"], dtype=np.int64)
        neg += np.frombuffer(r["neg"], dtype=np.int64)
    n_pos, n_neg = pos.sum(), neg.sum()
    if not n_pos or not n_neg:
        return float("nan")
    neg_below = np.concatenate([[0], np.cumsum(neg)[:-1]])
    u = float((pos * (neg_below + 0.5 * neg)).sum())
    return u / (n_pos * n_neg)


def auc_exact(ds, label_col: str, score_col: str) -> float:
    """EXACT ROC-AUC (Mann-Whitney with average-rank ties), distributed —
    the sort-based value the reference computes on the driver
    (``prediction_pipeline.py:363-373``) without ever materializing the
    score column anywhere.

    Plan: (1) ONE hash shuffle co-locates equal scores; each block
    reduces to distinct (score, n_pos, n_tot) rows — after this, a tie
    group is exactly one row, so ties can never span blocks; (2) a range
    sort orders the distinct scores; (3) each sorted block collapses to
    ONE partial row (min_score, count, pos, rank-sum-with-local-offsets);
    (4) the driver orders the per-block partials (blocks hold disjoint
    score ranges) and adds global rank offsets. Driver work is O(blocks),
    not O(rows).
    """
    import polars as pl

    from .shuffle import local_group_map, select_if_needed

    ds = select_if_needed(ds, [score_col, label_col]).map_batches(
        lambda tb: _drop_unscorable(tb, label_col, score_col),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )

    def distinct_counts(tb: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(tb)
            .group_by(score_col)
            .agg(n_pos=pl.col(label_col).cast(pl.Int64).sum(), n_tot=pl.len().cast(pl.Int64))
        )
        return g.to_arrow()

    per_score = local_group_map(ds, [score_col], distinct_counts).sort(score_col)
    out_schema = pa.schema(
        [("min_s", pa.float64()), ("cnt", pa.int64()), ("pos", pa.int64()), ("w", pa.float64())]
    )

    def block_partial(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return out_schema.empty_table()
        s = tb[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(s, kind="mergesort")
        npos = tb["n_pos"].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        ntot = tb["n_tot"].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        prefix = np.concatenate([[0], np.cumsum(ntot)[:-1]])
        w = float(np.sum(npos * (prefix + (ntot + 1) / 2.0)))
        return pa.Table.from_pydict(
            {"min_s": [float(s[order[0]])], "cnt": [int(ntot.sum())], "pos": [int(npos.sum())], "w": [w]},
            schema=out_schema,
        )

    partials = per_score.map_batches(block_partial, batch_format="pyarrow", batch_size=None)
    tables = [t for t in partials.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows]
    if not tables:
        return float("nan")
    df = pa.concat_tables(tables).to_pandas().sort_values("min_s")
    offs = np.concatenate([[0], np.cumsum(df["cnt"].to_numpy())[:-1]])
    rp = float((df["w"].to_numpy() + offs * df["pos"].to_numpy()).sum())
    n_pos, n = int(df["pos"].sum()), int(df["cnt"].sum())
    n_neg = n - n_pos
    if not n_pos or not n_neg:
        return float("nan")
    return (rp - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
