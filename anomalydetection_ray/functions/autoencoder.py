"""Worked learned-model stage (T3/T5 parity): a small numpy MLP
autoencoder whose weights persist to a snapshot file and load ONCE per
actor, scoring per-row reconstruction error.

Reference analog: the VAE's reconstruction-error anomaly score
(``models/VAE_utils.py:214-235`` training loop, ``:291-294`` per-row
``mean((x - x_hat)**2)`` scoring) and the SimCLR latent transform
(``models/SimCLR_utils.py:142-161``) — re-expressed as the engine's
standard stateful-stage shape: train driver-side on a small sample
(models are MBs; corpora are TBs), ``np.savez`` the weights, then an
actor pool maps the corpus where each actor loads the snapshot in
``__init__`` (the load-once contract of ``EmbeddingModelStage``) and
``__call__`` scores whole Arrow blocks with two matmuls. No torch in
this container — the numpy forward pass IS the worked example; a torch
module drops into the same stage shape by swapping ``load_snapshot`` for
``torch.load`` and the matmuls for ``module.forward``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .vector import list_column_to_matrix


class NumpyAutoencoder:
    """1-hidden-layer tied-bias autoencoder: x → tanh(xW1 + b1) → hW2 + b2.

    Deterministic full-batch gradient descent — small enough to train on
    a driver-side sample in milliseconds, real enough that reconstruction
    error separates inliers from outliers (tests assert this)."""

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.dim = int(w1.shape[0])

    @classmethod
    def train(
        cls,
        x: np.ndarray,
        hidden: int = 8,
        epochs: int = 200,
        lr: float = 0.05,
        seed: int = 0,
    ) -> "NumpyAutoencoder":
        x = np.asarray(x, dtype=np.float64)
        n, d = x.shape
        rng = np.random.default_rng(seed)
        w1 = rng.standard_normal((d, hidden)) / np.sqrt(d)
        b1 = np.zeros(hidden)
        w2 = rng.standard_normal((hidden, d)) / np.sqrt(hidden)
        b2 = np.zeros(d)
        for _ in range(epochs):
            h = np.tanh(x @ w1 + b1)
            xh = h @ w2 + b2
            g_out = 2.0 * (xh - x) / n  # d(mse)/d(xh)
            g_w2 = h.T @ g_out
            g_b2 = g_out.sum(axis=0)
            g_h = (g_out @ w2.T) * (1.0 - h * h)
            g_w1 = x.T @ g_h
            g_b1 = g_h.sum(axis=0)
            w1 -= lr * g_w1
            b1 -= lr * g_b1
            w2 -= lr * g_w2
            b2 -= lr * g_b2
        return cls(w1, b1, w2, b2)

    @classmethod
    def train_distributed(
        cls,
        ds,
        vec_col: str = "embedding",
        hidden: int = 8,
        epochs: int = 200,
        lr: float = 0.05,
        seed: int = 0,
    ) -> tuple["NumpyAutoencoder", list[float]]:
        """Data-parallel full-batch gradient descent over a Ray Dataset
        (A10, `models/VAE_utils.py:124-140` — the reference's per-epoch
        running loss means, recast as distributed partial sums).

        Gradients of the full-batch MSE are SUMS over rows, so each epoch
        is one streaming `map_batches` pass emitting per-block unscaled
        gradient partials + (loss_sum, n); the driver adds them, applies
        the /n scaling and the update — mathematically the same step
        :meth:`train` takes on the gathered matrix (asserted to ~1e-8 in
        tests; block summation order is the only difference). Weights
        ship by value in the task closure — they are a few KB, far below
        the `ray.put` broadcast threshold that matters for MB-scale
        state. The vector projection is materialized ONCE so the epoch
        passes re-read pinned blocks, not the upstream pipeline. At
        100 TB you would sample the training set or switch to minibatch
        SGD per block; the per-epoch network cost here is ~300 floats
        per block either way.

        Returns ``(model, per-epoch mean losses)`` — the loss curve is
        computed from the same pass as the gradients (loss BEFORE each
        update), not a separate scan.
        """
        work = ds.select_columns([vec_col]).materialize()
        first = work.take_batch(1, batch_format="pyarrow")
        d = int(len(first[vec_col][0]))
        rng = np.random.default_rng(seed)
        w1 = rng.standard_normal((d, hidden)) / np.sqrt(d)
        b1 = np.zeros(hidden)
        w2 = rng.standard_normal((hidden, d)) / np.sqrt(hidden)
        b2 = np.zeros(d)
        sizes = (d * hidden, hidden, hidden * d, d)
        losses: list[float] = []
        for _ in range(epochs):
            cur = (w1.copy(), b1.copy(), w2.copy(), b2.copy())

            def gpart(tb: pa.Table, _cur=cur) -> pa.Table:
                cw1, cb1, cw2, cb2 = _cur
                # empty block (e.g. a hash-sample that drained it): a
                # variable-width list column gives a (0, 0) matrix whose
                # matmul against (d, hidden) crashes — emit no partial
                x = (np.zeros((0, d)) if tb.num_rows == 0
                     else list_column_to_matrix(tb[vec_col].combine_chunks()))
                h = np.tanh(x @ cw1 + cb1)
                r = (h @ cw2 + cb2) - x
                g_out = 2.0 * r  # global 1/n applied at the driver merge
                g_h = (g_out @ cw2.T) * (1.0 - h * h)
                flat = np.concatenate(
                    [
                        (x.T @ g_h).ravel(),
                        g_h.sum(axis=0),
                        (h.T @ g_out).ravel(),
                        g_out.sum(axis=0),
                    ]
                )
                return pa.table(
                    {
                        "g": pa.array([flat], type=pa.list_(pa.float64())),
                        "loss_sum": pa.array([float((r * r).mean(axis=1).sum())]),
                        "n": pa.array([tb.num_rows], type=pa.int64()),
                    }
                )

            parts = work.map_batches(
                gpart, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ).take_all()
            n = sum(p["n"] for p in parts)
            if n == 0:
                raise ValueError("cannot train on an empty dataset")
            g = np.sum([np.asarray(p["g"]) for p in parts], axis=0) / n
            losses.append(float(sum(p["loss_sum"] for p in parts)) / n)
            o = 0
            g_w1, g_b1, g_w2, g_b2 = (
                g[o : (o := o + s)].reshape(shape)
                for s, shape in zip(sizes, ((d, hidden), (hidden,), (hidden, d), (d,)))
            )
            w1 -= lr * g_w1
            b1 -= lr * g_b1
            w2 -= lr * g_w2
            b2 -= lr * g_b2
        return cls(w1, b1, w2, b2), losses

    def reconstruction_error(self, x: np.ndarray) -> np.ndarray:
        """Per-row mean squared reconstruction error (the anomaly score,
        ``models/VAE_utils.py:291-294``)."""
        x = np.asarray(x, dtype=np.float64)
        xh = np.tanh(x @ self.w1 + self.b1) @ self.w2 + self.b2
        return ((x - xh) ** 2).mean(axis=1)

    def save_snapshot(self, path: str) -> None:
        # np.savez silently appends '.npz' to suffix-less paths, making
        # save/load asymmetric (save 'm.snap' -> file 'm.snap.npz',
        # load 'm.snap' -> FileNotFoundError). Writing to an open handle
        # keeps the caller's exact path (round-5 review).
        with open(path, "wb") as f:
            np.savez(f, w1=self.w1, b1=self.b1, w2=self.w2, b2=self.b2)

    @classmethod
    def load_snapshot(cls, path: str) -> "NumpyAutoencoder":
        z = np.load(path)
        return cls(z["w1"], z["b1"], z["w2"], z["b2"])


class AutoencoderScoreStage:
    """Actor-pool ``map_batches`` stage: ``embedding`` column →
    ``recon_error`` reconstruction-error column. The snapshot is read from disk exactly once per
    ACTOR (``__init__``), never per batch — the same contract as
    ``EmbeddingModelStage`` (reference load-once,
    ``models/feature_extraction.py:37-43``).

    ``load_hook`` (a picklable zero-arg callable) runs alongside the load
    so tests can count loads-per-actor from outside the actor processes.
    """

    def __init__(self, snapshot_path: str, load_hook=None):
        if load_hook is not None:
            load_hook()
        self.model = NumpyAutoencoder.load_snapshot(snapshot_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "recon_error" in batch.column_names:
            raise ValueError("output column 'recon_error' already exists; rename or drop it first")
        if batch.num_rows == 0:
            return batch.append_column("recon_error", pa.array([], type=pa.float64()))
        x = list_column_to_matrix(batch["embedding"].combine_chunks())
        err = self.model.reconstruction_error(x)
        return batch.append_column("recon_error", pa.array(err, type=pa.float64()))


def score_with_autoencoder(ds, snapshot_path: str):
    """Corpus-wide reconstruction scoring into ``recon_error`` as an actor
    pool sized to the input (tiny inputs don't pay a full pool spawn; at
    scale the pool saturates the cluster cap). The batch size ABSORBS empty
    input blocks (``batch_size=None`` lets Ray pass them through without
    calling the UDF, emitting schema-less 0-row blocks that diverge
    downstream unions — round-5 review, the shim's RefBundle warning)."""
    from .shuffle import ABSORB_EMPTY_BATCH_SIZE, sized_actor_concurrency

    return ds.map_batches(
        AutoencoderScoreStage,
        fn_constructor_kwargs={"snapshot_path": snapshot_path},
        batch_format="pyarrow",
        batch_size=ABSORB_EMPTY_BATCH_SIZE,
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
