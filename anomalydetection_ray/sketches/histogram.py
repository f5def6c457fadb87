"""Fixed-bin histograms with shared edges — PSI / KS drift primitives.

The reference's drift signal is visual (score histograms,
``end_to_end_prediction.py:546``; per-class recon-error histograms,
``models/VAE_utils.py:297-303``). Here histograms are first-class mergeable
aggregates: every block contributes ``np.histogram`` counts against
*shared* bin edges (so partials sum), and the merged histogram is compared
against a baseline snapshot with PSI (population stability index) and the
two-sample KS statistic — drifted partitions are the anomaly signal.
"""

from __future__ import annotations

import numpy as np


class FixedHistogram:
    __slots__ = ("edges", "counts", "n_nan")

    def __init__(self, edges: np.ndarray):
        self.edges = np.asarray(edges, dtype=np.float64)
        if self.edges.ndim != 1 or len(self.edges) < 2:
            raise ValueError("edges must be a 1-D array of >= 2 values")
        self.counts = np.zeros(len(self.edges) - 1, dtype=np.int64)
        self.n_nan = 0

    def update(self, values) -> "FixedHistogram":
        v = np.asarray(values, dtype=np.float64)
        nan = np.isnan(v)
        self.n_nan += int(nan.sum())
        v = v[~nan]
        if v.size:
            # clip so out-of-range values land in the edge bins instead of
            # silently vanishing (baseline may not cover new extremes)
            v = np.clip(v, self.edges[0], self.edges[-1])
            c, _ = np.histogram(v, bins=self.edges)
            self.counts += c
        return self

    def merge(self, other: "FixedHistogram") -> "FixedHistogram":
        if len(other.edges) != len(self.edges) or not np.allclose(other.edges, self.edges):
            raise ValueError("histograms have different bin edges")
        self.counts += other.counts
        self.n_nan += other.n_nan
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def probs(self) -> np.ndarray:
        """Bin probabilities, floored at 1e-6 to keep PSI finite."""
        t = self.total
        if t == 0:
            return np.full(len(self.counts), 1.0 / len(self.counts))
        p = self.counts / t
        return np.clip(p, 1e-6, None)

    @classmethod
    def merge_many_bytes(cls, blobs) -> "FixedHistogram":
        """n-ary merge from serialized form. Edge compatibility checks
        bin count plus the endpoint VALUES per blob (O(1) — the pairwise
        path's per-merge full-vector ``np.allclose`` dominated large
        driver merges, but a count-only check let histograms over
        different RANGES with the same bin count merge silently, exactly
        the caller bug the check exists for; round-5 review). Interior
        edges are linear in the endpoints for every engine constructor,
        so endpoint equality is sufficient in practice."""
        import pickle

        blobs = list(blobs)
        edges, counts, n_nan = pickle.loads(blobs[0])
        h = cls(edges)
        h.counts = counts.copy()
        h.n_nan = n_nan
        for b in blobs[1:]:
            e2, c2, nn2 = pickle.loads(b)
            if len(e2) != len(edges) or not (
                np.isclose(e2[0], edges[0], equal_nan=True)
                and np.isclose(e2[-1], edges[-1], equal_nan=True)
            ):
                raise ValueError("histograms have different bin edges")
            h.counts += c2
            h.n_nan += nn2
        return h

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps((self.edges, self.counts, self.n_nan), protocol=4)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FixedHistogram":
        import pickle

        edges, counts, n_nan = pickle.loads(data)
        h = cls(edges)
        h.counts = counts.copy()
        h.n_nan = n_nan
        return h


def psi(baseline: FixedHistogram, current: FixedHistogram) -> float:
    """Population stability index; > 0.2 conventionally flags drift."""
    p = baseline.probs()
    q = current.probs()
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum((q - p) * np.log(q / p)))


def ks_statistic(baseline: FixedHistogram, current: FixedHistogram) -> float:
    """Two-sample KS statistic approximated on the shared binning."""
    p = baseline.counts / max(1, baseline.total)
    q = current.counts / max(1, current.total)
    return float(np.max(np.abs(np.cumsum(p) - np.cumsum(q))))
