"""VAE + NT-Xent projection-head trainers (round-4 verdict "What's
missing" #2 — the reference's last two training loops,
models/VAE_utils.py train_vae and models/SimCLR_utils.py
train_final_model, as distributed numpy analogs).

The load-bearing assertions:
* analytic gradients match finite differences (both losses, including
  NT-Xent back through the L2 normalization),
* the distributed trainer agrees with the gathered trainer to ~1e-8
  (VAE: block-layout INVARIANT thanks to hash-derived eps; NT-Xent:
  exact for the same block list),
* losses decrease and the learned models do their jobs (VAE recon
  error separates outliers; the head pulls augmented views together).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _blob(n: int = 200, dim: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((3, dim))
    x = rng.standard_normal((n, 3)) @ basis + rng.standard_normal((n, dim)) * 0.05
    ids = np.arange(n, dtype=np.int64)
    return x, ids


def _to_ds(x: np.ndarray, ids: np.ndarray, num_blocks: int = 4):
    import ray.data as rd

    col = pa.FixedSizeListArray.from_arrays(
        pa.array(x.ravel(), type=pa.float64()), x.shape[1]
    )
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "embedding": col})
    return rd.from_arrow(t).repartition(num_blocks)


# --------------------------------------------------------------- noise


def test_hash_gaussian_is_deterministic_and_standard_normal():
    from anomalydetection_ray.functions.trainers import hash_gaussian

    ids = np.arange(5000, dtype=np.uint64)
    g1 = hash_gaussian(ids, 3, 8)
    g2 = hash_gaussian(ids, 3, 8)
    np.testing.assert_array_equal(g1, g2)
    # different tag, different draw
    assert not np.array_equal(g1, hash_gaussian(ids, 4, 8))
    # a permuted/resliced id array gets the permuted noise (pure function
    # of the id — the block-layout-invariance primitive)
    perm = np.random.default_rng(0).permutation(len(ids))
    np.testing.assert_array_equal(hash_gaussian(ids[perm], 3, 8), g1[perm])
    flat = g1.ravel()
    assert abs(flat.mean()) < 0.03
    assert abs(flat.std() - 1.0) < 0.03


# ----------------------------------------------------------------- VAE


def test_vae_gradients_match_finite_differences():
    from anomalydetection_ray.functions.trainers import NumpyVAE, hash_gaussian

    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 3))
    eps = hash_gaussian(np.arange(6, dtype=np.uint64), 0, 2)
    params = NumpyVAE._init_params(3, 4, 2, seed=1)
    beta = 0.7
    _, _, _, grads = NumpyVAE._loss_and_grads(params, x, eps, beta)
    h = 1e-6
    for name, g in grads.items():
        p = params[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in range(min(p.size, 6)):  # spot-check a few coords per param
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, *_ = NumpyVAE._loss_and_grads(params, x, eps, beta)
            p[idx] = orig - h
            lm, *_ = NumpyVAE._loss_and_grads(params, x, eps, beta)
            p[idx] = orig
            num = (lp - lm) / (2 * h)
            assert num == pytest.approx(g[idx], rel=1e-4, abs=1e-7), name
            it.iternext()


def test_vae_training_reduces_loss_and_scores_outliers(tmp_path):
    from anomalydetection_ray.functions.trainers import NumpyVAE

    x, ids = _blob(300)
    model, hist = NumpyVAE.train(x, ids, hidden=8, latent=3, epochs=200, lr=0.1, beta=0.05)
    assert hist[-1]["loss"] < hist[0]["loss"] * 0.5
    assert all(set(h) == {"loss", "recon", "kl"} for h in hist)
    outliers = np.random.default_rng(1).standard_normal((20, x.shape[1])) * 4.0
    assert (
        np.median(model.reconstruction_error(outliers))
        > 5 * np.median(model.reconstruction_error(x))
    )
    snap = str(tmp_path / "vae.npz")
    model.save_snapshot(snap)
    loaded = NumpyVAE.load_snapshot(snap)
    np.testing.assert_array_equal(
        model.reconstruction_error(x), loaded.reconstruction_error(x)
    )
    assert loaded.latent == 3


def test_vae_distributed_matches_gathered_and_is_layout_invariant(ray_session):
    from anomalydetection_ray.functions.trainers import NumpyVAE

    x, ids = _blob(180, dim=6)
    ref, ref_hist = NumpyVAE.train(x, ids, hidden=5, latent=2, epochs=8, lr=0.05, beta=0.3)
    for blocks in (3, 7):
        got, hist = NumpyVAE.train_distributed(
            _to_ds(x, ids, blocks), hidden=5, latent=2, epochs=8, lr=0.05, beta=0.3
        )
        for k in NumpyVAE.PARAM_NAMES:
            np.testing.assert_allclose(
                getattr(got, k), getattr(ref, k), rtol=1e-8, atol=1e-10
            )
        np.testing.assert_allclose(
            [h["loss"] for h in hist], [h["loss"] for h in ref_hist], rtol=1e-9
        )


def test_vae_distributed_empty_dataset_raises(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.trainers import NumpyVAE

    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "embedding": pa.array([], type=pa.list_(pa.float64(), 4)),
        }
    )
    with pytest.raises(ValueError, match="empty"):
        NumpyVAE.train_distributed(rd.from_arrow(empty), epochs=1)


# ------------------------------------------------------------- NT-Xent


def test_ntxent_gradients_match_finite_differences():
    from anomalydetection_ray.functions.trainers import NumpyProjectionHead

    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    ids = np.arange(10, 15, dtype=np.uint64)
    params = NumpyProjectionHead._init_params(3, 4, 2, seed=3)
    args = (x, ids, 1, 0.5, 0.1)
    _, grads = NumpyProjectionHead._ntxent_loss_and_grads(params, *args)
    h = 1e-6
    for name, g in grads.items():
        p = params[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in range(min(p.size, 6)):
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = NumpyProjectionHead._ntxent_loss_and_grads(params, *args)
            p[idx] = orig - h
            lm, _ = NumpyProjectionHead._ntxent_loss_and_grads(params, *args)
            p[idx] = orig
            num = (lp - lm) / (2 * h)
            assert num == pytest.approx(g[idx], rel=1e-4, abs=1e-7), name
            it.iternext()


def test_ntxent_training_aligns_views():
    from anomalydetection_ray.functions.trainers import NumpyProjectionHead, hash_gaussian

    x, ids = _blob(128, dim=6, seed=11)
    model, losses = NumpyProjectionHead.train(
        [(x, ids)], hidden=8, proj=4, epochs=60, lr=0.5, noise_std=0.1, batch_rows=64
    )
    assert losses[-1] < losses[0]
    # after training, two fresh augmented views of a row project closer
    # (cosine) than unrelated rows do on average
    from anomalydetection_ray.sketches.hll import hash64

    hids = hash64(ids)
    z1 = model.transform(x + 0.1 * hash_gaussian(hids, 999, x.shape[1]))
    z2 = model.transform(x + 0.1 * hash_gaussian(hids, 998, x.shape[1]))
    u1 = z1 / np.linalg.norm(z1, axis=1, keepdims=True)
    u2 = z2 / np.linalg.norm(z2, axis=1, keepdims=True)
    pos = (u1 * u2).sum(axis=1).mean()
    neg = (u1 @ u2.T).mean()
    assert pos > neg + 0.1


def test_ntxent_distributed_matches_gathered_blocks(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.trainers import NumpyProjectionHead

    x, ids = _blob(160, dim=5, seed=4)
    col = pa.FixedSizeListArray.from_arrays(
        pa.array(x.ravel(), type=pa.float64()), x.shape[1]
    )
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "embedding": col})
    # explicit 4-block layout, mirrored exactly on the gathered side
    slices = [t.slice(i, 40) for i in range(0, 160, 40)]
    ds = rd.from_arrow(slices)
    blocks = [(x[i : i + 40], ids[i : i + 40]) for i in range(0, 160, 40)]
    kw = dict(hidden=6, proj=3, epochs=5, lr=0.2, temperature=0.4, noise_std=0.1, batch_rows=16)
    ref, ref_losses = NumpyProjectionHead.train(blocks, **kw)
    got, losses = NumpyProjectionHead.train_distributed(ds, **kw)
    for k in NumpyProjectionHead.PARAM_NAMES:
        np.testing.assert_allclose(getattr(got, k), getattr(ref, k), rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-9)


def test_ntxent_single_row_blocks_raise(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.trainers import NumpyProjectionHead

    t = pa.table(
        {
            "doc_id": pa.array([0], type=pa.int64()),
            "embedding": pa.array([[1.0, 2.0]], type=pa.list_(pa.float64(), 2)),
        }
    )
    with pytest.raises(ValueError, match="contrast"):
        NumpyProjectionHead.train_distributed(rd.from_arrow(t), epochs=1)


# ---------------------------------------------------- transform stage


def test_latent_transform_stage_both_kinds(ray_session, tmp_path):
    from anomalydetection_ray.functions.trainers import (
        NumpyProjectionHead,
        NumpyVAE,
        project_latent,
    )
    from anomalydetection_ray.pipelines.queries import as_table

    x, ids = _blob(120, dim=6)
    head, _ = NumpyProjectionHead.train([(x, ids)], hidden=6, proj=3, epochs=5, lr=0.2)
    vae, _ = NumpyVAE.train(x, ids, hidden=6, latent=2, epochs=5)
    hsnap, vsnap = str(tmp_path / "head.npz"), str(tmp_path / "vae.npz")
    head.save_snapshot(hsnap)
    vae.save_snapshot(vsnap)
    ds = _to_ds(x, ids, 3)

    out = as_table(project_latent(ds, hsnap)).to_pandas().sort_values("doc_id")
    assert len(out) == 120
    got = np.vstack(out["latent"].to_numpy())
    np.testing.assert_allclose(got, head.transform(x), rtol=1e-12)

    out = as_table(
        project_latent(ds, vsnap, model_kind="vae", out_col="mu")
    ).to_pandas().sort_values("doc_id")
    got = np.vstack(out["mu"].to_numpy())
    assert got.shape == (120, 2)
    np.testing.assert_allclose(got, vae.encode_mu(x), rtol=1e-12)

    with pytest.raises(ValueError, match="model_kind"):
        from anomalydetection_ray.functions.trainers import LatentTransformStage

        LatentTransformStage(hsnap, model_kind="nope")


def test_sweep_recovers_best_vae_architecture():
    """The reference's find_best_vae_architecture workflow
    (models/VAE_utils.py:148-175 — train a VAE per architecture, keep
    the best by final loss) as a plain grid loop: on data that lives on
    a 3-dim subspace, the wide net with latent 3 must win."""
    from itertools import product

    from anomalydetection_ray.functions.trainers import NumpyVAE

    x, ids = _blob(150, dim=6, seed=9)
    losses = {}
    for hidden, latent in product([2, 8], [1, 3]):
        _, hist = NumpyVAE.train(x, ids, hidden=hidden, latent=latent, epochs=40, lr=0.1, beta=0.05)
        losses[(hidden, latent)] = hist[-1]["loss"]
    assert len(losses) == 4
    assert min(losses, key=losses.get) == (8, 3)


def test_cli_train_and_transform_roundtrip(ray_session, tmp_path, capsys):
    """The reference's script-driver workflow (models/SimCLR.py /
    models/VAE.py: train -> snapshot -> transform) through the CLI:
    fit a VAE and a projection head on a sampled training set, then
    stream the table through each snapshot."""
    import json

    import pyarrow.parquet as pq

    from anomalydetection_ray.__main__ import main

    x, ids = _blob(200, dim=6, seed=5)
    src = str(tmp_path / "emb.parquet")
    col = pa.FixedSizeListArray.from_arrays(
        pa.array(x.ravel(), type=pa.float64()), x.shape[1]
    )
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, type=pa.int64()), "embedding": col}), src
    )

    snap = str(tmp_path / "vae")  # extension-less on purpose: CLI must normalize
    rc = main(["train", src, "--out", snap, "--model", "vae", "--hidden", "6",
               "--latent", "2", "--epochs", "10", "--lr", "0.05", "--sample", "150"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["out"].endswith(".npz")
    assert rep["loss_last"] < rep["loss_first"]

    out_dir = str(tmp_path / "latent")
    rc = main(["transform", src, "--out", out_dir, "--snapshot", rep["out"],
               "--model", "vae", "--out-col", "mu"])
    assert rc == 0
    rep2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep2["rows"] == 200
    import ray.data as rd

    got = rd.read_parquet(out_dir).take_batch(200, batch_format="pyarrow")
    assert set(got.column_names) == {"vec_id", "mu"}
    assert len(got["mu"][0]) == 2

    rc = main(["train", src, "--out", str(tmp_path / "head.npz"), "--model", "head",
               "--hidden", "6", "--proj", "3", "--epochs", "5", "--lr", "0.2"])
    assert rc == 0
    rep3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep3["model"] == "head"


def test_vae_string_id_noise_parity(ray_session):
    """Gathered vs distributed parity must hold for STRING ids too: the
    gathered path used to hash raw ids with hash64's FNV fallback while
    the distributed path hashed the Arrow id column with polars xxhash —
    same ids, different noise, silently different models (review
    finding, round 5). Both now route through hash64_arrow."""
    import ray.data as rd

    from anomalydetection_ray.functions.trainers import NumpyVAE

    x, _ = _blob(120, dim=5, seed=11)
    ids = np.array([f"doc-{i:04d}" for i in range(len(x))])
    col = pa.FixedSizeListArray.from_arrays(
        pa.array(x.ravel(), type=pa.float64()), x.shape[1]
    )
    t = pa.table({"doc_id": pa.array(ids.tolist(), type=pa.string()), "embedding": col})

    ref, _ = NumpyVAE.train(x, ids, hidden=4, latent=2, epochs=6, lr=0.05, beta=0.3)
    got, _ = NumpyVAE.train_distributed(
        rd.from_arrow(t).repartition(5), hidden=4, latent=2, epochs=6, lr=0.05, beta=0.3
    )
    for k in NumpyVAE.PARAM_NAMES:
        np.testing.assert_allclose(getattr(got, k), getattr(ref, k), rtol=1e-8, atol=1e-10)


def test_cli_train_rejects_bad_epochs_and_sample(tmp_path, capsys):
    import pyarrow.parquet as pq

    from anomalydetection_ray.__main__ import main

    x, ids = _blob(20, dim=4, seed=3)
    src = str(tmp_path / "emb.parquet")
    col = pa.FixedSizeListArray.from_arrays(
        pa.array(x.ravel(), type=pa.float64()), x.shape[1]
    )
    pq.write_table(pa.table({"vec_id": pa.array(ids, type=pa.int64()), "embedding": col}), src)

    out = str(tmp_path / "m.npz")
    assert main(["train", src, "--out", out, "--model", "vae", "--epochs", "0"]) == 2
    assert main(["train", src, "--out", out, "--model", "vae", "--sample", "-5"]) == 2
    capsys.readouterr()
    assert not list(tmp_path.glob("*.npz")), "no snapshot may be written on invalid args"


def test_latent_stage_collision_guard_and_empty_block_absorb(ray_session, tmp_path):
    """Round-5 review: LatentTransformStage must refuse output-column
    collisions like every sibling stage, and project_latent's default
    batch size must absorb empty blocks (an untouched 0-row block would
    miss the latent column and diverge the schema downstream)."""
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.trainers import (
        LatentTransformStage,
        NumpyProjectionHead,
        project_latent,
    )

    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6))
    m, _ = NumpyProjectionHead.train(
        [(x, np.arange(40))], epochs=2, proj=3, seed=0
    )
    snap = str(tmp_path / "head.npz")
    m.save_snapshot(snap)

    stage = LatentTransformStage(snap)
    clash = pa.table({"embedding": [x[0].tolist()], "latent": [1.0]})
    with pytest.raises(ValueError, match="already exists"):
        stage(clash)

    # 40 rows over 8 blocks + a filter that empties some blocks entirely
    t = pa.table({
        "vec_id": pa.array(np.arange(40), type=pa.int64()),
        "embedding": [row.tolist() for row in x],
    })
    ds = rd.from_arrow(t).repartition(8).filter(
        lambda r: r["vec_id"] < 5, concurrency=1
    )
    out = project_latent(ds, snap)
    tb = pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    assert tb.column_names == ["vec_id", "embedding", "latent"]
    assert tb.num_rows == 5
