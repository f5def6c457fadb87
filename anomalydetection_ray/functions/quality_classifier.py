"""Distributed hashed-n-gram logistic-regression quality classifier —
the fastText-style document-quality gate web-scale curation stacks train
on (curated = positive, raw crawl = negative) and then sweep over the
whole corpus (Brown et al. 2020 appendix A's WebText classifier; CCNet's
per-language LM gate is the same shape with a different scorer).

Reference analog: the same learned-model contract as the autoencoder
scorer (``models/VAE_utils.py:214-235`` train loop → snapshot →
per-row score), recast for text: features are the DSIR hashed token
n-gram buckets (:func:`~.text.hashed_ngram_buckets`), the model is a
single (n_buckets,) weight vector + bias, and scoring is one sparse
dot per document.

Scale shape (the part that matters at 100 TB):

- **Featurize once, iterate cheap.** The gram pass (regex tokenize +
  hash) dominates; it runs ONE streaming ``map_batches`` pass that
  emits a compact sparse row per document (list<int64> bucket ids,
  list<float64> L1-normalized values, float64 label) and materializes
  THAT — a few hundred bytes/doc instead of the text. Epochs then scan
  the pinned sparse blocks only.
- **Gradients are sums.** Full-batch logistic loss has
  ``∇w = Xᵀ(σ(Xw+b) − y)/n + λw``; each epoch is one ``map_batches``
  emitting a per-block unscaled (n_buckets+1)-float partial + loss/count
  scalars, summed n-ary on the driver — identical math to the gathered
  single-process step (parity-tested), block summation order the only
  difference. Per-epoch network cost is one ~8·n_buckets-byte ``ray.put``
  broadcast down and one partial vector per block up; the corpus never
  moves.
- **Scoring is the standard actor-pool stage**: snapshot loads once per
  actor in ``__init__``, ``__call__`` scores whole Arrow blocks with one
  vectorized gram pass + one weighted bincount.

At real scale you train on a driver-affordable labeled SAMPLE (classifier
training sets are ~10⁵-10⁶ docs even for 10¹²-doc corpora) and only the
SCORING sweep touches the full corpus — both paths here keep that split.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .text import hashed_ngram_buckets

_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # numerically-stable piecewise form: exp only ever sees -|z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sparse_rows(
    texts: pa.Array | pa.ChunkedArray,
    sizes: tuple[int, ...],
    n_buckets: int,
    token_hash: str,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row L1-normalized hashed-gram features in CSR pieces:
    (lengths, indices, data) — lengths[i] entries of indices/data belong
    to row i. Duplicate (row, bucket) hits collapse to one entry with
    summed count before normalization (the dense ``Xw`` equivalence the
    gradient math needs)."""
    n = len(texts)
    i, b = hashed_ngram_buckets(texts, sizes, n_buckets, token_hash, seed)
    if len(i) == 0:
        return np.zeros(n, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    # collapse duplicates: sort by (row, bucket), run-length encode
    order = np.lexsort((b, i))
    i, b = i[order], b[order]
    new = np.empty(len(i), dtype=bool)
    new[0] = True
    np.logical_or(i[1:] != i[:-1], b[1:] != b[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(i))).astype(np.float64)
    rows, idx = i[starts], b[starts]
    lengths = np.bincount(rows, minlength=n).astype(np.int64)
    totals = np.bincount(rows, weights=counts, minlength=n)
    data = counts / np.repeat(np.maximum(totals, 1.0), lengths)
    return lengths, idx, data


class NumpyLogReg:
    """(n_buckets,) weights + bias over L1-normalized hashed-gram counts.

    Deterministic full-batch gradient descent with L2 regularization —
    small enough to train on a driver-side labeled sample in
    milliseconds, real enough that the probability separates curated
    from junk text (tests plant both and assert recovery)."""

    def __init__(self, w: np.ndarray, b: float, sizes: tuple[int, ...],
                 n_buckets: int, token_hash: str, seed: int):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.sizes = tuple(int(s) for s in sizes)
        self.n_buckets = int(n_buckets)
        self.token_hash = str(token_hash)
        self.seed = int(seed)

    # -- dense reference path (parity target for the distributed trainer)

    @classmethod
    def train(
        cls,
        texts: list[str],
        labels: np.ndarray,
        sizes: tuple[int, ...] = (1, 2),
        n_buckets: int = 4096,
        token_hash: str = "fast",
        seed: int = 17,
        epochs: int = 200,
        lr: float = 2.0,
        l2: float = 1e-4,
    ) -> "NumpyLogReg":
        if not len(texts):
            # same loud contract as train_distributed: an empty labeled
            # sample must not yield a vacuous all-0.5 scorer (round-5
            # review)
            raise ValueError("train_logreg: empty training set")
        y = np.asarray(labels, dtype=np.float64)
        lengths, idx, data = _sparse_rows(pa.array(texts, type=pa.string()),
                                          sizes, n_buckets, token_hash, seed)
        x = np.zeros((len(texts), n_buckets))
        rows = np.repeat(np.arange(len(texts)), lengths)
        x[rows, idx] = data
        n = len(texts)
        w, b = np.zeros(n_buckets), 0.0
        for _ in range(epochs):
            p = _sigmoid(x @ w + b)
            g = p - y
            w -= lr * (x.T @ g / n + l2 * w)
            b -= lr * (g.sum() / n)
        return cls(w, b, sizes, n_buckets, token_hash, seed)

    # -- distributed path

    @classmethod
    def train_distributed(
        cls,
        ds,
        text_col: str = "text",
        label_col: str = "label",
        sizes: tuple[int, ...] = (1, 2),
        n_buckets: int = 4096,
        token_hash: str = "fast",
        seed: int = 17,
        epochs: int = 200,
        lr: float = 2.0,
        l2: float = 1e-4,
    ) -> tuple["NumpyLogReg", list[float]]:
        """Data-parallel full-batch GD over a labeled Ray Dataset.

        One streaming featurize pass → materialized sparse rows; then
        per-epoch partial-gradient passes (math identical to
        :meth:`train` on the gathered matrix — asserted to ~1e-9 in
        tests). Returns ``(model, per-epoch mean log-losses)`` (loss
        BEFORE each update, same pass as the gradients)."""
        import ray

        from .shuffle import ABSORB_EMPTY_BATCH_SIZE, select_if_needed

        def featurize(tb: pa.Table) -> pa.Table:
            texts = tb[text_col]
            if isinstance(texts, pa.ChunkedArray):
                texts = texts.combine_chunks()
            lengths, idx, data = _sparse_rows(texts, sizes, n_buckets, token_hash, seed)
            offsets = np.zeros(tb.num_rows + 1, dtype=np.int32)
            np.cumsum(lengths, out=offsets[1:])
            y = pc.cast(tb[label_col], pa.float64())
            if y.null_count:
                raise ValueError(f"train_logreg: {label_col!r} contains nulls")
            return pa.table({
                "fi": pa.ListArray.from_arrays(pa.array(offsets), pa.array(idx, type=pa.int64())),
                "fx": pa.ListArray.from_arrays(pa.array(offsets), pa.array(data, type=pa.float64())),
                "y": y,
            })

        # ABSORB_EMPTY_BATCH_SIZE, not None: an empty input block would
        # bypass the UDF (Ray returns empty blocks verbatim) and pin its
        # raw (text, label) schema inside the materialized working set,
        # then re-surface unfeaturized in every epoch's gradient pass
        # (round-5 review; same contract as score_quality below)
        work = select_if_needed(ds, [text_col, label_col]).map_batches(
            featurize, batch_format="pyarrow", batch_size=ABSORB_EMPTY_BATCH_SIZE,
            zero_copy_batch=True
        ).materialize()
        n_total = work.count()
        if n_total == 0:
            raise ValueError("train_logreg: empty training set")

        w, b = np.zeros(n_buckets), 0.0
        losses: list[float] = []
        for _ in range(epochs):
            wref = ray.put(w.copy())
            cur_b = b

            def gpart(tb: pa.Table, _wref=wref, _b=cur_b) -> pa.Table:
                cw = ray.get(_wref)
                fi = tb["fi"].combine_chunks()
                idx = fi.values.to_numpy(zero_copy_only=False)
                data = tb["fx"].combine_chunks().values.to_numpy(zero_copy_only=False)
                lens = np.diff(fi.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
                y = tb["y"].to_numpy(zero_copy_only=False)
                z = np.bincount(
                    np.repeat(np.arange(tb.num_rows), lens),
                    weights=data * cw[idx],
                    minlength=tb.num_rows,
                ) + _b
                p = _sigmoid(z)
                g = p - y
                gw = np.bincount(idx, weights=np.repeat(g, lens) * data, minlength=n_buckets)
                # clipped log-loss: p is in (0,1) by construction but the
                # float boundary cases cost nothing to guard
                ls = -(y * np.log(np.maximum(p, _EPS))
                       + (1.0 - y) * np.log(np.maximum(1.0 - p, _EPS))).sum()
                return pa.table({
                    "gw": [gw.tobytes()],
                    "gb": pa.array([float(g.sum())], type=pa.float64()),
                    "loss": pa.array([float(ls)], type=pa.float64()),
                })

            gw_sum = np.zeros(n_buckets)
            gb_sum = 0.0
            loss_sum = 0.0
            for blk in work.map_batches(
                gpart, batch_format="pyarrow", batch_size=ABSORB_EMPTY_BATCH_SIZE,
                zero_copy_batch=True
            ).iter_batches(batch_format="pyarrow", batch_size=None):
                for raw in blk["gw"].to_pylist():
                    gw_sum += np.frombuffer(raw, dtype=np.float64)
                gb_sum += float(pc.sum(blk["gb"]).as_py() or 0.0)
                loss_sum += float(pc.sum(blk["loss"]).as_py() or 0.0)
            losses.append(loss_sum / n_total)
            w -= lr * (gw_sum / n_total + l2 * w)
            b -= lr * (gb_sum / n_total)
        return cls(w, b, sizes, n_buckets, token_hash, seed), losses

    # -- scoring

    def predict_proba(self, texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
        n = len(texts)
        lengths, idx, data = _sparse_rows(texts, self.sizes, self.n_buckets,
                                          self.token_hash, self.seed)
        z = np.bincount(
            np.repeat(np.arange(n), lengths), weights=data * self.w[idx], minlength=n
        ) + self.b
        return _sigmoid(z)

    # -- snapshots (open handle: np.savez appends '.npz' to suffix-less
    #    string paths, breaking save/load symmetry)

    def save_snapshot(self, path: str) -> None:
        with open(path, "wb") as f:
            np.savez(
                f, w=self.w, b=np.float64(self.b),
                sizes=np.asarray(self.sizes, dtype=np.int64),
                n_buckets=np.int64(self.n_buckets),
                token_hash=np.str_(self.token_hash),
                seed=np.int64(self.seed),
            )

    @classmethod
    def load_snapshot(cls, path: str) -> "NumpyLogReg":
        z = np.load(path, allow_pickle=False)
        return cls(z["w"], float(z["b"]), tuple(int(s) for s in z["sizes"]),
                   int(z["n_buckets"]), str(z["token_hash"]), int(z["seed"]))


class LogRegScoreStage:
    """Actor-pool scorer: snapshot loads ONCE per actor; each batch is
    one vectorized gram pass + one weighted bincount + a sigmoid."""

    def __init__(self, snapshot_path: str, text_col: str = "text",
                 out_col: str = "quality_prob"):
        self.model = NumpyLogReg.load_snapshot(snapshot_path)
        self.text_col, self.out_col = text_col, out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.out_col in batch.column_names:
            raise ValueError(f"output column {self.out_col!r} already exists; rename or drop it first")
        if batch.num_rows == 0:
            return batch.append_column(self.out_col, pa.array([], type=pa.float64()))
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        p = self.model.predict_proba(texts)
        # a NULL doc has no content to judge — score null, not σ(bias)
        # (the engine's null-semantics rule: absent input → absent
        # output; empty STRINGS still score at the bias by design)
        col = pa.array(p, type=pa.float64())
        if texts.null_count:
            col = pc.if_else(pc.is_null(texts), pa.scalar(None, pa.float64()), col)
        return batch.append_column(self.out_col, col)


def score_quality(
    ds,
    snapshot_path: str,
    text_col: str = "text",
    out_col: str = "quality_prob",
):
    """Corpus-wide quality scoring as an actor pool sized to the input;
    the batch size absorbs empty blocks (schema-less 0-row
    blocks diverge downstream unions)."""
    from .shuffle import ABSORB_EMPTY_BATCH_SIZE, sized_actor_concurrency

    return ds.map_batches(
        LogRegScoreStage,
        fn_constructor_kwargs={"snapshot_path": snapshot_path,
                               "text_col": text_col, "out_col": out_col},
        batch_format="pyarrow",
        batch_size=ABSORB_EMPTY_BATCH_SIZE,
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
