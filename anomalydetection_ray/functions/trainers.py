"""Distributed numpy analogs of the reference's two remaining trainers:
the VAE (``models/VAE_utils.py:113-141`` — ``vae_loss`` = mean-MSE
reconstruction + beta * mean-KL, full training loop ``train_vae``) and
the SimCLR projection head (``models/SimCLR_utils.py:59-69`` NT-Xent,
``:107-135`` ``train_final_model``, ``:140-161`` ``transform_data``).

Torch is absent from this container, so — exactly like
``functions/autoencoder.py`` — the numpy forward/backward pass IS the
worked example: the distributed shape (per-block gradient partials
summed at the driver, one synchronous update per epoch; snapshot →
actor-pool scoring/transform stage) is the part that carries to a real
cluster, and a torch module drops in by swapping the math.

Determinism contracts (both asserted in tests):

* The VAE's reparameterization noise is derived per (row id, epoch,
  latent dim) from the same avalanche hash the engine's sketches use —
  NOT from a sequential RNG — so the full-batch gradient is a pure sum
  over rows and is invariant to block layout / repartitioning. The
  gathered trainer and the distributed trainer agree to ~1e-8.
* NT-Xent couples rows through its in-batch softmax, so the contrastive
  trainer uses PER-BLOCK negatives (the per-device-negatives semantic
  of large-scale SimCLR): each block contributes the gradient of its
  own NT-Xent minibatches (contiguous ``batch_rows`` chunks), partials
  are row-weighted and summed at the driver, one update per epoch.
  Deterministic given a fixed partitioning; minibatch membership — like
  any shuffled DataLoader — depends on the layout. The two view
  augmentations are hash-derived per (row id, epoch, view, dim), so
  they at least never depend on layout.

Deliberate deviation from the reference, for the record: the
reference's ``nt_xent_loss`` computes the positive logit from the
UN-normalized projections while the negatives use normalized ones
(``models/SimCLR_utils.py:66``) — an inconsistency that makes the
positive logit scale-dependent. This implementation uses the published
NT-Xent (Chen et al. 2020): all similarities, positive included, are
cosine similarities of the L2-normalized projections.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketches.hll import _avalanche, hash64_arrow
from .vector import list_column_to_matrix

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_TWO_M53 = float(2.0**-53)


def hash_gaussian(ids: np.ndarray, tag: int, dims: int) -> np.ndarray:
    """(n, dims) float64 standard-normal matrix, a pure function of
    (row id, tag, column) — counter-based (Box–Muller over avalanche
    hashes), so any block of rows gets the same noise regardless of
    which block it landed in or how many rows share the block."""
    # tag mixing in Python ints (exact mod-2^64, no numpy scalar
    # overflow warnings), then into the vectorized avalanche
    tag_mix = np.uint64((int(tag) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    base = _avalanche(np.asarray(ids, dtype=np.uint64) ^ tag_mix)
    lanes = (np.arange(1, 2 * dims + 1, dtype=np.uint64) * _GOLD)[None, :]
    m = _avalanche(base[:, None] + lanes)
    # top 53 bits -> uniform (0, 1]; +1 before scaling keeps u1 > 0 so
    # log(u1) is finite
    u = ((m >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_M53
    u1, u2 = u[:, :dims], u[:, dims:]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _ids_from_table(tb: pa.Table, id_col: str) -> np.ndarray:
    return hash64_arrow(tb[id_col])


def _hash_raw_ids(ids) -> np.ndarray:
    """Hash raw per-row identifiers EXACTLY as the distributed trainers
    hash their Arrow id column (:func:`_ids_from_table`). Routing the
    gathered path through plain ``hash64`` broke bit-for-bit noise
    parity for STRING ids: ``hash64`` falls back to FNV-1a per value
    while ``hash64_arrow`` uses polars' xxhash — same values, different
    hashes, different ``hash_gaussian`` noise, different model."""
    return hash64_arrow(pa.array(np.asarray(ids)))


class NumpyVAE:
    """tanh-MLP VAE: x → tanh(xWe+be) → (mu, logvar) → z = mu + eps·σ →
    tanh(zWd+bd) → x̂. Loss per ``models/VAE_utils.py:113-117``:
    ``mean((x̂-x)²) + beta * (-0.5 · mean(1 + lv - mu² - e^lv))`` (both
    means over elements, matching torch's default ``reduction='mean'``).
    """

    PARAM_NAMES = ("we", "be", "wmu", "bmu", "wlv", "blv", "wd", "bd", "wo", "bo")

    def __init__(self, **params: np.ndarray):
        for k in self.PARAM_NAMES:
            setattr(self, k, params[k])
        self.dim = int(self.we.shape[0])
        self.latent = int(self.wmu.shape[1])

    # ---------------------------------------------------------------- init
    @classmethod
    def _init_params(cls, d: int, hidden: int, latent: int, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "we": rng.standard_normal((d, hidden)) / np.sqrt(d),
            "be": np.zeros(hidden),
            "wmu": rng.standard_normal((hidden, latent)) / np.sqrt(hidden),
            "bmu": np.zeros(latent),
            "wlv": rng.standard_normal((hidden, latent)) / np.sqrt(hidden),
            "blv": np.zeros(latent),
            "wd": rng.standard_normal((latent, hidden)) / np.sqrt(latent),
            "bd": np.zeros(hidden),
            "wo": rng.standard_normal((hidden, d)) / np.sqrt(hidden),
            "bo": np.zeros(d),
        }

    # ------------------------------------------------------------- forward
    @staticmethod
    def _loss_and_grads(
        params: dict, x: np.ndarray, eps: np.ndarray, beta: float
    ) -> tuple[float, float, float, dict]:
        """(loss·n, recon·n, kl·n, grads·n) — everything scaled by the
        row count so per-block partials are pure sums; the driver (or
        the gathered trainer) divides by the global n once."""
        n = x.shape[0]
        we, be, wmu, bmu = params["we"], params["be"], params["wmu"], params["bmu"]
        wlv, blv, wd, bd = params["wlv"], params["blv"], params["wd"], params["bd"]
        wo, bo = params["wo"], params["bo"]
        d, k = we.shape[0], wmu.shape[1]

        he = np.tanh(x @ we + be)
        mu = he @ wmu + bmu
        lv = he @ wlv + blv
        sig = np.exp(0.5 * lv)
        z = mu + eps * sig
        hd = np.tanh(z @ wd + bd)
        xh = hd @ wo + bo
        r = xh - x

        recon_n = float((r * r).sum()) / d  # = n · mean((x̂-x)²)
        kl_n = float((-0.5 * (1.0 + lv - mu * mu - np.exp(lv))).sum()) / k

        # backward, all terms carrying the deferred 1/n
        g_xh = 2.0 * r / d
        g_hd = (g_xh @ wo.T) * (1.0 - hd * hd)
        g_z = g_hd @ wd.T
        g_mu = g_z + beta * mu / k
        g_lv = g_z * eps * 0.5 * sig + beta * 0.5 * (np.exp(lv) - 1.0) / k
        g_he = (g_mu @ wmu.T + g_lv @ wlv.T) * (1.0 - he * he)
        grads = {
            "we": x.T @ g_he,
            "be": g_he.sum(axis=0),
            "wmu": he.T @ g_mu,
            "bmu": g_mu.sum(axis=0),
            "wlv": he.T @ g_lv,
            "blv": g_lv.sum(axis=0),
            "wd": z.T @ g_hd,
            "bd": g_hd.sum(axis=0),
            "wo": hd.T @ g_xh,
            "bo": g_xh.sum(axis=0),
        }
        return recon_n + beta * kl_n, recon_n, kl_n, grads

    # ------------------------------------------------------------ training
    @classmethod
    def train(
        cls,
        x: np.ndarray,
        ids: np.ndarray,
        hidden: int = 16,
        latent: int = 4,
        epochs: int = 100,
        lr: float = 0.05,
        beta: float = 1.0,
        seed: int = 0,
    ) -> tuple["NumpyVAE", list[dict]]:
        """Gathered-matrix trainer (``train_vae``'s full-batch analog).
        ``ids`` are the RAW stable per-row identifiers (e.g. doc_id);
        they are hashed here with the same ``hash64_arrow`` the
        distributed trainer applies to its id column, which is what
        makes the two paths agree bit-for-bit on the derived noise."""
        x = np.asarray(x, dtype=np.float64)
        ids = _hash_raw_ids(ids)
        n = x.shape[0]
        params = cls._init_params(x.shape[1], hidden, latent, seed)
        history: list[dict] = []
        for ep in range(epochs):
            eps = hash_gaussian(ids, ep, latent)
            loss_n, recon_n, kl_n, grads = cls._loss_and_grads(params, x, eps, beta)
            history.append({"loss": loss_n / n, "recon": recon_n / n, "kl": kl_n / n})
            for k in cls.PARAM_NAMES:
                params[k] = params[k] - lr * grads[k] / n
        return cls(**params), history

    @classmethod
    def train_distributed(
        cls,
        ds,
        vec_col: str = "embedding",
        id_col: str = "doc_id",
        hidden: int = 16,
        latent: int = 4,
        epochs: int = 100,
        lr: float = 0.05,
        beta: float = 1.0,
        seed: int = 0,
    ) -> tuple["NumpyVAE", list[dict]]:
        """Data-parallel full-batch VAE training over a Ray Dataset —
        the same epoch loop as ``NumpyAutoencoder.train_distributed``
        (one streaming map_batches pass per epoch emitting unscaled
        gradient partials; driver sums, scales by 1/n, updates). The
        id-hash-derived eps makes every per-row term a pure function of
        the row, so partials sum to exactly the gathered gradient
        regardless of block layout (asserted to ~1e-8 in tests). Like
        the autoencoder trainer, the (vec, id) projection materializes
        once so epochs re-read pinned blocks; at 100 TB you train on a
        ``fixed_count_sample`` of the corpus (a few GB of vectors says
        everything a 10-param-per-dim model can absorb), never the
        whole stream."""
        from .shuffle import select_if_needed

        # select_if_needed, not select_columns: a Project op directly
        # after ReadParquet breaks read->map fusion (shuffle.py:46) and
        # the CLI train path already prunes columns at the read
        work = select_if_needed(ds, [vec_col, id_col]).materialize()
        first = work.take_batch(1, batch_format="pyarrow")
        d = int(len(first[vec_col][0]))
        params = cls._init_params(d, hidden, latent, seed)
        names = cls.PARAM_NAMES
        history: list[dict] = []
        for ep in range(epochs):
            cur = {k: v.copy() for k, v in params.items()}

            def gpart(tb: pa.Table, _cur=cur, _ep=ep) -> pa.Table:
                if tb.num_rows == 0:
                    return pa.table(
                        {
                            "g": pa.array([], type=pa.list_(pa.float64())),
                            "recon_n": pa.array([], type=pa.float64()),
                            "kl_n": pa.array([], type=pa.float64()),
                            "n": pa.array([], type=pa.int64()),
                        }
                    )
                x = list_column_to_matrix(tb[vec_col].combine_chunks())
                eps = hash_gaussian(_ids_from_table(tb, id_col), _ep, latent)
                _, recon_n, kl_n, grads = cls._loss_and_grads(_cur, x, eps, beta)
                flat = np.concatenate([grads[k].ravel() for k in names])
                return pa.table(
                    {
                        "g": pa.array([flat], type=pa.list_(pa.float64())),
                        "recon_n": pa.array([recon_n]),
                        "kl_n": pa.array([kl_n]),
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
            recon = float(sum(p["recon_n"] for p in parts)) / n
            kl = float(sum(p["kl_n"] for p in parts)) / n
            history.append({"loss": recon + beta * kl, "recon": recon, "kl": kl})
            o = 0
            for k in names:
                size = params[k].size
                params[k] = params[k] - lr * g[o : o + size].reshape(params[k].shape)
                o += size
        return cls(**params), history

    # ------------------------------------------------------------- scoring
    def reconstruction_error(self, x: np.ndarray) -> np.ndarray:
        """Deterministic per-row anomaly score: encode to mu (no
        sampling at inference — the posterior mean), decode, per-row
        MSE (``models/VAE_utils.py:291-294``'s score, made eps-free)."""
        x = np.asarray(x, dtype=np.float64)
        he = np.tanh(x @ self.we + self.be)
        hd = np.tanh((he @ self.wmu + self.bmu) @ self.wd + self.bd)
        xh = hd @ self.wo + self.bo
        return ((x - xh) ** 2).mean(axis=1)

    def encode_mu(self, x: np.ndarray) -> np.ndarray:
        he = np.tanh(np.asarray(x, dtype=np.float64) @ self.we + self.be)
        return he @ self.wmu + self.bmu

    def save_snapshot(self, path: str) -> None:
        # open handle: keep the caller's exact path (np.savez appends
        # '.npz' to suffix-less string paths, breaking save/load symmetry)
        with open(path, "wb") as f:
            np.savez(f, **{k: getattr(self, k) for k in self.PARAM_NAMES})

    @classmethod
    def load_snapshot(cls, path: str) -> "NumpyVAE":
        z = np.load(path)
        return cls(**{k: z[k] for k in cls.PARAM_NAMES})


class NumpyProjectionHead:
    """tanh-MLP projection head (``ProjectionHeadPCDARTS``'s shape-
    analog): x → tanh(xW1+b1) → hW2+b2, trained with NT-Xent over two
    noise-augmented views (``train_final_model``,
    ``models/SimCLR_utils.py:107-135``)."""

    PARAM_NAMES = ("w1", "b1", "w2", "b2")

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.dim = int(w1.shape[0])
        self.proj = int(w2.shape[1])

    @classmethod
    def _init_params(cls, d: int, hidden: int, proj: int, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "w1": rng.standard_normal((d, hidden)) / np.sqrt(d),
            "b1": np.zeros(hidden),
            "w2": rng.standard_normal((hidden, proj)) / np.sqrt(hidden),
            "b2": np.zeros(proj),
        }

    @staticmethod
    def _forward(params: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.tanh(x @ params["w1"] + params["b1"])
        return h, h @ params["w2"] + params["b2"]

    @classmethod
    def _ntxent_loss_and_grads(
        cls,
        params: dict,
        x: np.ndarray,
        ids: np.ndarray,
        epoch: int,
        temperature: float,
        noise_std: float,
    ) -> tuple[float, dict]:
        """NT-Xent loss and gradients for ONE minibatch of rows.

        Returns (loss · 2B, grads · 2B) — unscaled by the row count so a
        block's minibatches sum, and the driver applies the global
        1/(2n) once (row-weighted averaging across unequal blocks).
        """
        b = x.shape[0]
        if b < 2:
            return 0.0, {k: np.zeros_like(v) for k, v in params.items()}
        x1 = x + noise_std * hash_gaussian(ids, 2 * epoch, x.shape[1])
        x2 = x + noise_std * hash_gaussian(ids, 2 * epoch + 1, x.shape[1])
        xc = np.vstack([x1, x2])
        h, z = cls._forward(params, xc)  # (2B, p)
        norm = np.linalg.norm(z, axis=1, keepdims=True)
        norm = np.maximum(norm, 1e-12)
        u = z / norm
        s = (u @ u.T) / temperature  # (2B, 2B)
        np.fill_diagonal(s, -np.inf)  # self-similarity excluded
        # partner index: row i's positive is i+B (and i-B)
        part = np.concatenate([np.arange(b) + b, np.arange(b)])
        m = s.max(axis=1, keepdims=True)
        e = np.exp(s - m)
        denom = e.sum(axis=1, keepdims=True)
        logp = s - m - np.log(denom)
        loss_2b = float(-logp[np.arange(2 * b), part].sum())
        # dLoss/dS = softmax - onehot(partner); S symmetric in (u_i, u_j)
        p = e / denom
        p[np.arange(2 * b), part] -= 1.0
        np.fill_diagonal(p, 0.0)  # -inf slots contribute nothing
        g_u = ((p + p.T) @ u) / temperature
        # back through L2 normalization: g_z = (g_u - (g_u·u)u) / ||z||
        g_z = (g_u - (g_u * u).sum(axis=1, keepdims=True) * u) / norm
        g_h = (g_z @ params["w2"].T) * (1.0 - h * h)
        return loss_2b, {
            "w1": xc.T @ g_h,
            "b1": g_h.sum(axis=0),
            "w2": h.T @ g_z,
            "b2": g_z.sum(axis=0),
        }

    @classmethod
    def _block_partial(
        cls,
        params: dict,
        x: np.ndarray,
        ids: np.ndarray,
        epoch: int,
        temperature: float,
        noise_std: float,
        batch_rows: int,
    ) -> tuple[float, int, dict]:
        """Sum of minibatch partials over one block (contiguous
        ``batch_rows`` chunks — the block IS the shuffle unit)."""
        loss_sum = 0.0
        rows = 0
        acc = {k: np.zeros_like(v) for k, v in params.items()}
        for lo in range(0, x.shape[0], batch_rows):
            xb, ib = x[lo : lo + batch_rows], ids[lo : lo + batch_rows]
            if xb.shape[0] < 2:
                continue  # a 1-row tail has no negatives; skip, don't crash
            l2b, g = cls._ntxent_loss_and_grads(
                params, xb, ib, epoch, temperature, noise_std
            )
            loss_sum += l2b
            rows += 2 * xb.shape[0]
            for k in acc:
                acc[k] += g[k]
        return loss_sum, rows, acc

    @classmethod
    def train(
        cls,
        blocks: list[tuple[np.ndarray, np.ndarray]],
        hidden: int = 16,
        proj: int = 8,
        epochs: int = 50,
        lr: float = 0.1,
        temperature: float = 0.5,
        noise_std: float = 0.1,
        batch_rows: int = 256,
        seed: int = 0,
    ) -> tuple["NumpyProjectionHead", list[float]]:
        """Gathered trainer over an explicit (x, raw-ids) block list —
        the in-process mirror of the distributed epochs, used by the
        parity tests. Block boundaries matter (negatives are
        per-minibatch); ids are hashed with the distributed path's
        ``hash64_arrow``."""
        d = blocks[0][0].shape[1]
        params = cls._init_params(d, hidden, proj, seed)
        losses: list[float] = []
        for ep in range(epochs):
            loss_sum, rows = 0.0, 0
            acc = {k: np.zeros_like(v) for k, v in params.items()}
            for x, ids in blocks:
                l, r, g = cls._block_partial(
                    params,
                    np.asarray(x, dtype=np.float64),
                    _hash_raw_ids(ids),
                    ep,
                    temperature,
                    noise_std,
                    batch_rows,
                )
                loss_sum += l
                rows += r
                for k in acc:
                    acc[k] += g[k]
            if rows == 0:
                raise ValueError("no minibatch had >= 2 rows; nothing to contrast")
            losses.append(loss_sum / rows)
            for k in cls.PARAM_NAMES:
                params[k] = params[k] - lr * acc[k] / rows
        return cls(**params), losses

    @classmethod
    def train_distributed(
        cls,
        ds,
        vec_col: str = "embedding",
        id_col: str = "doc_id",
        hidden: int = 16,
        proj: int = 8,
        epochs: int = 50,
        lr: float = 0.1,
        temperature: float = 0.5,
        noise_std: float = 0.1,
        batch_rows: int = 256,
        seed: int = 0,
    ) -> tuple["NumpyProjectionHead", list[float]]:
        """Synchronous data-parallel NT-Xent over a Ray Dataset: each
        block computes the gradients of its own minibatches (per-block
        negatives — large-batch SimCLR's per-device semantic), one
        streaming pass per epoch, driver row-weights and updates.
        Deterministic given a fixed block layout; tests assert exact
        agreement with :meth:`train` fed the same blocks. Same 100-TB
        contract as the VAE trainer: train on a sampled projection (the
        materialized pin is the epoch-reread working set), score/
        transform the full corpus with :func:`project_latent`."""
        from .shuffle import select_if_needed

        # select_if_needed, not select_columns: a Project op directly
        # after ReadParquet breaks read->map fusion (shuffle.py:46) and
        # the CLI train path already prunes columns at the read
        work = select_if_needed(ds, [vec_col, id_col]).materialize()
        first = work.take_batch(1, batch_format="pyarrow")
        d = int(len(first[vec_col][0]))
        params = cls._init_params(d, hidden, proj, seed)
        names = cls.PARAM_NAMES
        losses: list[float] = []
        for ep in range(epochs):
            cur = {k: v.copy() for k, v in params.items()}

            def gpart(tb: pa.Table, _cur=cur, _ep=ep) -> pa.Table:
                if tb.num_rows == 0:
                    return pa.table(
                        {
                            "g": pa.array([], type=pa.list_(pa.float64())),
                            "loss_sum": pa.array([], type=pa.float64()),
                            "rows": pa.array([], type=pa.int64()),
                        }
                    )
                x = list_column_to_matrix(tb[vec_col].combine_chunks())
                ids = _ids_from_table(tb, id_col)
                loss_sum, rows, acc = cls._block_partial(
                    _cur, x, ids, _ep, temperature, noise_std, batch_rows
                )
                flat = np.concatenate([acc[k].ravel() for k in names])
                return pa.table(
                    {
                        "g": pa.array([flat], type=pa.list_(pa.float64())),
                        "loss_sum": pa.array([loss_sum]),
                        "rows": pa.array([rows], type=pa.int64()),
                    }
                )

            parts = work.map_batches(
                gpart, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ).take_all()
            rows = sum(p["rows"] for p in parts)
            if rows == 0:
                raise ValueError("no minibatch had >= 2 rows; nothing to contrast")
            g = np.sum([np.asarray(p["g"]) for p in parts], axis=0) / rows
            losses.append(float(sum(p["loss_sum"] for p in parts)) / rows)
            o = 0
            for k in names:
                size = params[k].size
                params[k] = params[k] - lr * g[o : o + size].reshape(params[k].shape)
                o += size
        return cls(**params), losses

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Latent projection of raw embeddings (``transform_data``,
        ``models/SimCLR_utils.py:140-161`` — eval mode: no noise)."""
        _, z = self._forward(
            {k: getattr(self, k) for k in self.PARAM_NAMES},
            np.asarray(x, dtype=np.float64),
        )
        return z

    def save_snapshot(self, path: str) -> None:
        # open handle: keep the caller's exact path (np.savez appends
        # '.npz' to suffix-less string paths, breaking save/load symmetry)
        with open(path, "wb") as f:
            np.savez(f, **{k: getattr(self, k) for k in self.PARAM_NAMES})

    @classmethod
    def load_snapshot(cls, path: str) -> "NumpyProjectionHead":
        z = np.load(path)
        return cls(**{k: z[k] for k in cls.PARAM_NAMES})


class LatentTransformStage:
    """Actor-pool map_batches stage: embedding column → projected latent
    list column via a snapshot loaded ONCE per actor (the same contract
    as ``AutoencoderScoreStage``; reference ``transform_data`` writes
    the projected matrix + labels to .npy — here the corpus streams).

    ``model_cls`` picks the snapshot format: ``NumpyProjectionHead``
    (default, projects via :meth:`transform`) or ``NumpyVAE`` (projects
    to the posterior mean via :meth:`encode_mu`)."""

    def __init__(
        self,
        snapshot_path: str,
        vec_col: str = "embedding",
        out_col: str = "latent",
        model_kind: str = "projection_head",
    ):
        if model_kind == "projection_head":
            self.model = NumpyProjectionHead.load_snapshot(snapshot_path)
            self._fn = self.model.transform
            self._width = self.model.proj
        elif model_kind == "vae":
            self.model = NumpyVAE.load_snapshot(snapshot_path)
            self._fn = self.model.encode_mu
            self._width = self.model.latent
        else:
            raise ValueError(f"unknown model_kind: {model_kind!r}")
        self.vec_col, self.out_col = vec_col, out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.out_col in batch.column_names:
            raise ValueError(
                f"output column {self.out_col!r} already exists; rename or drop it first"
            )
        if batch.num_rows == 0:
            return batch.append_column(
                self.out_col, pa.array([], type=pa.list_(pa.float64(), self._width))
            )
        x = list_column_to_matrix(batch[self.vec_col].combine_chunks())
        z = np.ascontiguousarray(self._fn(x))
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(z.ravel(), type=pa.float64()), self._width
        )
        return batch.append_column(self.out_col, col)


def project_latent(
    ds,
    snapshot_path: str,
    vec_col: str = "embedding",
    out_col: str = "latent",
    model_kind: str = "projection_head",
):
    """Corpus-wide latent projection as a sized actor pool (the
    distributed ``transform_data``); the default batch size absorbs
    empty blocks (an untouched 0-row block would miss the latent column
    and diverge the schema downstream)."""
    from .shuffle import ABSORB_EMPTY_BATCH_SIZE, sized_actor_concurrency

    return ds.map_batches(
        LatentTransformStage,
        fn_constructor_kwargs={
            "snapshot_path": snapshot_path,
            "vec_col": vec_col,
            "out_col": out_col,
            "model_kind": model_kind,
        },
        batch_format="pyarrow",
        batch_size=ABSORB_EMPTY_BATCH_SIZE,
        zero_copy_batch=True,
        concurrency=sized_actor_concurrency(ds),
    )
