"""t-digest quantile sketch (Dunning & Ertl, "Computing extremely
accurate quantiles using t-digests") — the merging variant, mergeable
and numpy-vectorized.

The north star names "KLL/t-digest quantile sketches" as the engine's
streaming-quantile surface: KLL (``sketches/kll.py``) carries the
worst-case rank-error guarantee; the t-digest complements it with far
tighter TAIL quantiles (p99/p999 — the interesting end of an anomaly
score distribution) at the same memory, because its k1 scale function
shrinks centroid capacity near q=0 and q=1.

Implementation: centroids are (mean, weight) pairs kept sorted by mean.
``_compress`` is fully vectorized — one argsort, one cumulative-weight
pass, one k1-scale binning (``delta * (asin(2q-1)/pi + 1/2)``), one
``np.add.reduceat`` to merge all points sharing a k-bin. No per-centroid
Python loop. Compression is deterministic for a fixed input order;
across different merge orders results agree to the documented accuracy
(tests assert rank-error bounds, not byte equality — SURVEY §7.4's
"assert rank-error" rule, same as KLL).
"""

from __future__ import annotations

import numpy as np


class TDigest:
    __slots__ = ("delta", "means", "weights", "n", "_buf_m", "_buf_w", "_min", "_max")

    def __init__(self, delta: int = 200):
        if delta < 10:
            raise ValueError("delta must be >= 10")
        self.delta = int(delta)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self.n = 0.0
        self._buf_m: list[np.ndarray] = []
        self._buf_w: list[np.ndarray] = []
        self._min = np.inf
        self._max = -np.inf

    # -- building ---------------------------------------------------------

    def update(self, values) -> "TDigest":
        arr = np.asarray(values, dtype=np.float64)
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return self
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        self._buf_m.append(arr)
        self._buf_w.append(np.ones(arr.size, dtype=np.float64))
        self.n += arr.size
        if sum(a.size for a in self._buf_m) >= 8 * self.delta:
            self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        if self.delta != other.delta:
            # silently re-binning a finer digest at this delta would
            # degrade its accuracy; param mismatch is a caller bug
            raise ValueError(f"cannot merge TDigests with delta {self.delta} != {other.delta}")
        if other.n == 0:
            return self
        if other._buf_m:
            self._buf_m.extend(other._buf_m)
            self._buf_w.extend(other._buf_w)
        if len(other.means):
            self._buf_m.append(other.means)
            self._buf_w.append(other.weights)
        self.n += other.n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress()
        return self

    @classmethod
    def merge_many(cls, sketches) -> "TDigest":
        it = iter(sketches)
        first = next(it, None)
        if first is None:
            return cls()
        out = cls(first.delta)
        out.merge(first)
        for s in it:
            out.merge(s)
        return out

    def _k(self, q: np.ndarray) -> np.ndarray:
        """k1 scale: steep near the tails, so tail centroids stay tiny."""
        return self.delta * (np.arcsin(2.0 * np.clip(q, 0.0, 1.0) - 1.0) / np.pi + 0.5)

    def _compress(self) -> None:
        if self._buf_m:
            m = np.concatenate([self.means] + self._buf_m)
            w = np.concatenate([self.weights] + self._buf_w)
            self._buf_m, self._buf_w = [], []
        else:
            m, w = self.means, self.weights
        if m.size == 0:
            return
        order = np.argsort(m, kind="mergesort")
        m, w = m[order], w[order]
        total = w.sum()
        # midpoint quantile of each point, then its k-bin under the k1 scale
        cum = np.cumsum(w) - 0.5 * w
        bins = np.floor(self._k(cum / total)).astype(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bins[1:] != bins[:-1])))
        wsum = np.add.reduceat(w, starts)
        msum = np.add.reduceat(m * w, starts)
        self.means = msum / wsum
        self.weights = wsum

    # -- queries ----------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Value at quantile q via linear interpolation between centroid
        midpoints, clamped to the observed min/max."""
        if self._buf_m:  # flush pending points only: recompressing the
            # already-compressed centroid set re-merges neighbors that
            # share a k-bin, coarsening the tails a bit on EVERY query
            self._compress()
        if self.n == 0 or len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        cum = np.cumsum(self.weights) - 0.5 * self.weights
        target = q * self.n
        # anchor the interpolation at the true extremes
        xs = np.concatenate(([0.0], cum, [self.n]))
        ys = np.concatenate(([self._min], self.means, [self._max]))
        return float(np.interp(target, xs, ys))

    def quantiles(self, qs) -> list[float]:
        return [self.quantile(q) for q in qs]

    def to_bytes(self) -> bytes:
        self._compress()
        header = np.array([self.delta, self.n, self._min, self._max, len(self.means)], dtype=np.float64)
        return header.tobytes() + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "TDigest":
        header = np.frombuffer(data[:40], dtype=np.float64)
        out = cls(int(header[0]))
        out.n = float(header[1])
        out._min, out._max = float(header[2]), float(header[3])
        k = int(header[4])
        body = np.frombuffer(data[40:], dtype=np.float64)
        out.means = body[:k].copy()
        out.weights = body[k : 2 * k].copy()
        return out
