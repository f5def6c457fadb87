"""CLI — the engine's user-facing entry points, mirroring the reference's
two script entry points and their knobs (``end_to_end_prediction.py
main() :670-710``; ``prediction_pipeline.py main() :592-651``):

  python -m anomalydetection_ray validate CORPUS --out DIR
      [--repos-dim P] [--baseline SNAP] [--sharded] [--n-shards N]
      [--no-resume]
  python -m anomalydetection_ray baseline CORPUS --out SNAPSHOT
      [--versioned]          # SNAPSHOT is a root dir; writes baseline-NNNN
  python -m anomalydetection_ray predict LOGFILE --out DIR
      [--sample-ratio R] [--max-lines N] [--min-template-count K]
      [--threshold-percentile P] [--threshold-mode exact|kll]
      [--template-mode mask|mined] [--feature-dim D] [--no-resume]
  python -m anomalydetection_ray score PARQUET --out DIR
      [--id-col C] [--vec-col C] [--method l2|mahalanobis|iforest]
      [--threshold-percentile P]
  python -m anomalydetection_ray dedup PARQUET --out DIR
      --method exact|minhash|minhash-verified|simhash
      [--id-col C] [--text-col C] [--threshold J]
  python -m anomalydetection_ray mine-templates PARQUET --out FILE
      [--text-col C]
  python -m anomalydetection_ray curate PARQUET --out DIR
      [--id-col C] [--text-col C] [--partition-col C | --no-partition]
      [--no-normalize] [--min-tokens N] [--min-distinct-pct P]
      [--bench PARQUET] [--decon-mode exact|bloom] [--decon-n N]
      [--dedup none|exact|exact+simhash] [--no-resume]
  python -m anomalydetection_ray train PARQUET --out SNAPSHOT.npz
      --model autoencoder|vae|head [--id-col C] [--vec-col C]
      [--hidden N] [--latent N] [--proj N] [--epochs N] [--lr F]
      [--beta F] [--temperature F] [--noise-std F] [--batch-rows N]
      [--sample N]            # fixed_count_sample the training set
  python -m anomalydetection_ray transform PARQUET --out DIR
      --snapshot SNAPSHOT.npz --model head|vae
      [--id-col C] [--vec-col C] [--out-col C]

(`train`/`transform` are the reference's ``models/SimCLR.py`` /
``models/VAE.py`` script drivers: fit on a — typically sampled —
training set, snapshot the weights, stream the full corpus through the
snapshot-loaded actor pool.)

The CLI owns the Ray session (library code never calls ray.init — the
driver-contract constraint); scripts guard with ``is_initialized``.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(cpus: int | None) -> bool:
    """Init local Ray if nobody else owns a session; returns whether WE
    initialised (and therefore must shut down)."""
    import ray

    if ray.is_initialized():
        return False
    kwargs = {"address": "local", "include_dashboard": False}
    if cpus:
        kwargs["num_cpus"] = cpus
    ray.init(**kwargs)
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="anomalydetection_ray")
    ap.add_argument("--cpus", type=int, default=None, help="local Ray CPU cap")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="run the full validation suite over a corpus")
    v.add_argument("corpus")
    v.add_argument("--out", required=True)
    v.add_argument("--repos-dim", default=None)
    v.add_argument("--baseline", default=None, help="baseline snapshot parquet for drift")
    v.add_argument("--sharded", action="store_true", help="per-input-shard checkpoints")
    v.add_argument("--n-shards", type=int, default=None)
    v.add_argument("--no-resume", action="store_true")
    v.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC[:MIN][:MAX][:COLUMN]",
        help="stat constraint, repeatable — e.g. 'null_rate::0.01' (max) or 'p95:10:5000:content'",
    )
    v.add_argument(
        "--expected-schema",
        default=None,
        metavar="NAME:DTYPE,NAME:DTYPE,...",
        help="declared schema, e.g. 'repo:string,path:string,content:string' "
        "(Arrow type strings; order = expected position)",
    )
    v.add_argument("--allow-added-columns", action="store_true")
    v.add_argument("--check-column-order", action="store_true")
    v.add_argument(
        "--fd",
        action="append",
        default=[],
        metavar="DET[,DET...]->DEP",
        help="functional dependency, repeatable — e.g. 'path->lang' or 'repo,path->commit'",
    )

    b = sub.add_parser("baseline", help="write the drift baseline snapshot")
    b.add_argument("corpus")
    b.add_argument("--out", required=True)
    b.add_argument(
        "--versioned", action="store_true",
        help="treat --out as a snapshot ROOT dir; write the next baseline-NNNN.parquet",
    )

    d = sub.add_parser("dedup", help="deduplicate a parquet table, write survivors")
    d.add_argument("table")
    d.add_argument("--out", required=True)
    d.add_argument("--method", choices=["exact", "minhash", "minhash-verified", "simhash"], default="exact")
    d.add_argument("--id-col", default="doc_id")
    d.add_argument("--text-col", default="text")
    d.add_argument("--threshold", type=float, default=0.8, help="Jaccard threshold (minhash methods)")
    d.add_argument("--shingle", choices=["char", "word"], default="word")

    m = sub.add_parser("mine-templates", help="mine log templates, write (template, cnt) parquet")
    m.add_argument("table")
    m.add_argument("--out", required=True)
    m.add_argument("--text-col", default="text")

    s = sub.add_parser("score", help="embedding parquet -> anomaly scores + verdicts")
    s.add_argument("table")
    s.add_argument("--out", required=True)
    s.add_argument("--id-col", default="vec_id")
    s.add_argument("--vec-col", default="embedding")
    s.add_argument("--method", choices=["l2", "mahalanobis", "iforest"], default="l2")
    s.add_argument("--threshold-percentile", type=float, default=95.0)
    s.add_argument("--threshold-mode", choices=["exact", "kll"], default="exact",
                   help="kll = O(k) driver memory, never gathers the score column")

    c = sub.add_parser("curate", help="normalize -> gate -> decontaminate -> dedup -> partitioned write")
    c.add_argument("table")
    c.add_argument("--out", required=True)
    c.add_argument("--id-col", default="doc_id")
    c.add_argument("--text-col", default="text")
    c.add_argument("--partition-col", default="lang")
    c.add_argument("--no-partition", action="store_true", help="write one unpartitioned dir")
    c.add_argument("--no-normalize", action="store_true")
    c.add_argument("--min-tokens", type=int, default=24)
    c.add_argument("--min-distinct-pct", type=int, default=30)
    c.add_argument("--bench", default=None, help="eval-set parquet for decontamination")
    c.add_argument("--decon-mode", choices=["exact", "bloom"], default="exact")
    c.add_argument("--decon-n", type=int, default=13)
    c.add_argument("--dedup", choices=["none", "exact", "exact+simhash"], default="exact+simhash")
    c.add_argument("--strip-substr", type=int, default=0, metavar="K",
                   help="cut cross-document duplicated spans at k-gram size K (0 = off)")
    c.add_argument("--strip-min-remaining", type=int, default=200,
                   help="drop docs under this many bytes after span cutting")
    c.add_argument("--snapshot", default=None, metavar="DIR",
                   help="prior curated corpus: drop docs it already kept (refresh runs)")
    c.add_argument("--quality-snapshot", default=None, metavar="NPZ",
                   help="trained NumpyLogReg snapshot: learned quality gate after the heuristic gate")
    c.add_argument("--min-quality", type=float, default=0.5,
                   help="keep docs with quality_prob >= this (with --quality-snapshot)")
    c.add_argument("--no-resume", action="store_true")

    t = sub.add_parser("train", help="fit a model snapshot over an embedding parquet")
    t.add_argument("table")
    t.add_argument("--out", required=True, help="snapshot .npz path")
    t.add_argument("--model", choices=["autoencoder", "vae", "head"], default="vae")
    t.add_argument("--id-col", default="vec_id")
    t.add_argument("--vec-col", default="embedding")
    t.add_argument("--hidden", type=int, default=16)
    t.add_argument("--latent", type=int, default=4, help="vae latent width")
    t.add_argument("--proj", type=int, default=8, help="head projection width")
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--lr", type=float, default=0.05)
    t.add_argument("--beta", type=float, default=1.0, help="vae KL weight")
    t.add_argument("--temperature", type=float, default=0.5, help="head NT-Xent temperature")
    t.add_argument("--noise-std", type=float, default=0.1, help="head view-augmentation noise")
    t.add_argument("--batch-rows", type=int, default=256, help="head NT-Xent minibatch rows")
    t.add_argument("--sample", type=int, default=0,
                   help="train on a fixed_count_sample of N rows (0 = the whole table)")
    t.add_argument("--seed", type=int, default=0)

    x = sub.add_parser("transform", help="project embeddings through a trained snapshot")
    x.add_argument("table")
    x.add_argument("--out", required=True)
    x.add_argument("--snapshot", required=True)
    x.add_argument("--model", choices=["head", "vae"], default="head")
    x.add_argument("--id-col", default="vec_id")
    x.add_argument("--vec-col", default="embedding")
    x.add_argument("--out-col", default="latent")

    p = sub.add_parser("predict", help="raw log file -> anomaly verdicts + metrics")
    p.add_argument("logfile")
    p.add_argument("--out", required=True)
    p.add_argument("--sample-ratio", type=float, default=None)
    p.add_argument("--max-lines", type=int, default=None)
    p.add_argument("--min-template-count", type=int, default=5)
    p.add_argument("--threshold-percentile", type=float, default=95.0)
    p.add_argument("--threshold-mode", choices=["exact", "kll"], default="exact")
    p.add_argument("--template-mode", choices=["mask", "mined"], default="mask")
    p.add_argument("--feature-dim", type=int, default=64)
    p.add_argument("--no-resume", action="store_true")

    args = ap.parse_args(argv)
    own_session = _init_ray(args.cpus)
    import ray

    try:
        if args.cmd == "validate":
            from .checks import Tolerance
            from .pipelines.validate import SuiteConfig, run_suite, run_suite_sharded

            tols = []
            for spec in args.tolerance:
                parts = (spec.split(":") + ["", "", ""])[:4]
                metric, lo, hi, col = parts
                tols.append(
                    Tolerance(
                        metric,
                        min_value=float(lo) if lo else None,
                        max_value=float(hi) if hi else None,
                        column=col or None,
                    )
                )
            expected = None
            if args.expected_schema:
                expected = [tuple(p.split(":", 1)) for p in args.expected_schema.split(",")]
            fds = []
            for spec in args.fd:
                det, _, dep = spec.partition("->")
                if not det or not dep:
                    ap.error(f"--fd {spec!r}: expected 'det[,det...]->dep'")
                fds.append((tuple(c.strip() for c in det.split(",")), dep.strip()))
            cfg = SuiteConfig(
                repos_dim_path=args.repos_dim,
                stat_tolerances=tuple(tols),
                expected_schema=expected,
                allow_added_columns=args.allow_added_columns,
                check_column_order=args.check_column_order,
                fd_checks=tuple(fds),
            )
            if args.sharded:
                res = run_suite_sharded(
                    args.corpus, args.out, cfg,
                    baseline_snapshot=args.baseline,
                    resume=not args.no_resume,
                    n_shards=args.n_shards,
                )
            else:
                res = run_suite(
                    args.corpus, args.out, cfg,
                    baseline_snapshot=args.baseline,
                    resume=not args.no_resume,
                )
            n_viol = {k: v.num_rows for k, v in res.violations.items()}
            print(json.dumps({"passed": res.passed, "verdicts": len(res.verdicts), "violations": n_viol}))
            return 0 if res.passed else 1
        if args.cmd == "baseline":
            from .pipelines.validate import write_baseline, write_baseline_versioned

            if args.versioned:
                path = write_baseline_versioned(args.corpus, args.out)
            else:
                write_baseline(args.corpus, args.out)
                path = args.out
            print(json.dumps({"snapshot": path}))
            return 0
        if args.cmd == "dedup":
            import ray.data as rd

            from . import tune_shuffle_to_cluster
            from .sources.readers import read_parquet_clean

            tune_shuffle_to_cluster()  # must precede dataset creation (readers.py)
            ds = read_parquet_clean(args.table)
            if args.method == "exact":
                from .dedup import exact_dedup

                out_ds = exact_dedup(ds, args.id_col, args.text_col)
            elif args.method == "minhash":
                from .dedup import minhash_lsh_dedup

                out_ds = minhash_lsh_dedup(
                    ds, args.id_col, args.text_col, shingle=args.shingle,
                    verify_threshold=args.threshold,
                )
            elif args.method == "minhash-verified":
                from .dedup import minhash_lsh_dedup_verified

                out_ds = minhash_lsh_dedup_verified(
                    ds, args.id_col, args.text_col, threshold=args.threshold, shingle=args.shingle
                )
            else:
                from .dedup import simhash_dedup

                out_ds = simhash_dedup(ds, args.id_col, args.text_col)
            from .sources.writer import clean_parquet_dir

            clean_parquet_dir(args.out)  # re-runs replace, never append
            out_ds.write_parquet(args.out)
            print(json.dumps({"out": args.out, "method": args.method}))
            return 0
        if args.cmd == "mine-templates":
            import pyarrow.parquet as pq
            import ray.data as rd

            from . import tune_shuffle_to_cluster
            from .sources.readers import read_parquet_clean
            from .sources.miner import mine_templates

            tune_shuffle_to_cluster()
            tbl = mine_templates(read_parquet_clean(args.table, columns=[args.text_col]), args.text_col)
            pq.write_table(tbl, args.out)
            print(json.dumps({"out": args.out, "templates": tbl.num_rows}))
            return 0
        if args.cmd == "score":

            import numpy as np
            import pyarrow as paw
            import pyarrow.compute as pcw
            import ray.data as rd

            from . import tune_shuffle_to_cluster
            from .sources.readers import read_parquet_clean

            tune_shuffle_to_cluster()
            ds = read_parquet_clean(args.table, columns=[args.id_col, args.vec_col])
            if args.method == "l2":
                from .functions.vector import l2_norm_batch

                scored = ds.map_batches(
                    lambda t: l2_norm_batch(t, vec_col=args.vec_col).drop_columns([args.vec_col]),
                    batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
                )
            elif args.method == "mahalanobis":
                from .functions.anomaly import mahalanobis_scores

                scored, _mu, _cov = mahalanobis_scores(
                    ds, args.vec_col, out_col="anomaly_score", carry=[args.id_col]
                )
                scored = scored.select_columns([args.id_col, "anomaly_score"])
            else:
                from .functions.anomaly import isolation_forest_scores

                scored, _f = isolation_forest_scores(
                    ds, args.id_col, args.vec_col, out_col="anomaly_score", carry=[]
                )
                scored = scored.select_columns([args.id_col, "anomaly_score"])
            scored = scored.materialize()
            n_rows = scored.count()
            if args.threshold_mode == "kll":
                # scale path: O(k) driver memory — never gather the column
                from .sketches import KLL

                sk = KLL(512)
                for tb in scored.select_columns(["anomaly_score"]).iter_batches(
                    batch_format="pyarrow", batch_size=None
                ):
                    sk = sk.update(np.asarray(tb["anomaly_score"], dtype=np.float64))
                thr = float(sk.quantile(args.threshold_percentile / 100.0))
            else:
                vals = scored.select_columns(["anomaly_score"]).to_pandas()["anomaly_score"].to_numpy()
                thr = float(np.percentile(vals, args.threshold_percentile)) if len(vals) else float("inf")

            def verdict(tb: paw.Table) -> paw.Table:
                return tb.append_column(
                    "anomaly_prediction",
                    pcw.cast(pcw.greater(tb["anomaly_score"], paw.scalar(thr)), paw.int32()),
                )

            from .sources.writer import clean_parquet_dir

            clean_parquet_dir(args.out)  # re-runs replace, never append
            out_ds = scored.map_batches(verdict, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
            out_ds.write_parquet(args.out)
            n_anom = int(
                rd.read_parquet(args.out, columns=["anomaly_prediction"])
                .sum("anomaly_prediction") or 0
            )
            print(json.dumps({"out": args.out, "method": args.method, "rows": n_rows,
                              "threshold": round(thr, 6), "anomalies": n_anom}))
            return 0
        if args.cmd == "curate":
            from .pipelines.curate import curate_corpus

            summary = curate_corpus(
                args.table, args.out,
                id_col=args.id_col, text_col=args.text_col,
                partition_col=None if args.no_partition else args.partition_col,
                normalize=not args.no_normalize,
                min_tokens=args.min_tokens,
                min_distinct_ratio_pct=args.min_distinct_pct,
                bench_path=args.bench, decon_mode=args.decon_mode, decon_n=args.decon_n,
                dedup=args.dedup, strip_substr_k=args.strip_substr,
                strip_min_remaining=args.strip_min_remaining,
                snapshot_path=args.snapshot,
                quality_snapshot=args.quality_snapshot,
                min_quality=args.min_quality,
                resume=not args.no_resume,
            )
            print(json.dumps(summary))
            return 0
        if args.cmd == "train":
            from . import tune_shuffle_to_cluster
            from .sources.readers import read_parquet_clean

            # validate BEFORE any dataset work: --epochs 0 would write a
            # snapshot of pure init weights and crash on losses[0];
            # --sample <0 is truthy and fixed_count_sample returns None
            if args.epochs < 1:
                print(json.dumps({"error": "--epochs must be >= 1"}), file=sys.stderr)
                return 2
            if args.sample < 0:
                print(json.dumps({"error": "--sample must be >= 0 (0 = train on all rows)"}), file=sys.stderr)
                return 2
            tune_shuffle_to_cluster()
            ds = read_parquet_clean(args.table, columns=[args.id_col, args.vec_col])
            if args.sample:
                import ray.data as rd

                from .functions.split import fixed_count_sample

                # returns a pyarrow Table (a training sample is small by
                # contract); re-wrap so epochs parallelize over blocks
                tbl = fixed_count_sample(ds, args.id_col, args.sample, seed=args.seed)
                ds = rd.from_arrow(tbl).repartition(max(1, min(32, tbl.num_rows // 64)))
            if args.model == "autoencoder":
                from .functions.autoencoder import NumpyAutoencoder

                model, losses = NumpyAutoencoder.train_distributed(
                    ds, vec_col=args.vec_col, hidden=args.hidden,
                    epochs=args.epochs, lr=args.lr, seed=args.seed,
                )
                first, last = losses[0], losses[-1]
            elif args.model == "vae":
                from .functions.trainers import NumpyVAE

                model, hist = NumpyVAE.train_distributed(
                    ds, vec_col=args.vec_col, id_col=args.id_col,
                    hidden=args.hidden, latent=args.latent,
                    epochs=args.epochs, lr=args.lr, beta=args.beta, seed=args.seed,
                )
                first, last = hist[0]["loss"], hist[-1]["loss"]
            else:
                from .functions.trainers import NumpyProjectionHead

                model, losses = NumpyProjectionHead.train_distributed(
                    ds, vec_col=args.vec_col, id_col=args.id_col,
                    hidden=args.hidden, proj=args.proj, epochs=args.epochs,
                    lr=args.lr, temperature=args.temperature,
                    noise_std=args.noise_std, batch_rows=args.batch_rows,
                    seed=args.seed,
                )
                first, last = losses[0], losses[-1]
            if not args.out.endswith(".npz"):
                args.out += ".npz"  # np.savez appends it silently; keep the JSON truthful
            model.save_snapshot(args.out)
            print(json.dumps({
                "out": args.out, "model": args.model, "epochs": args.epochs,
                "loss_first": round(float(first), 6), "loss_last": round(float(last), 6),
            }))
            return 0
        if args.cmd == "transform":
            from . import tune_shuffle_to_cluster
            from .functions.trainers import project_latent
            from .sources.readers import read_parquet_clean
            from .sources.writer import clean_parquet_dir, count_parquet_rows

            tune_shuffle_to_cluster()
            ds = read_parquet_clean(args.table, columns=[args.id_col, args.vec_col])
            kind = "projection_head" if args.model == "head" else "vae"
            out_ds = project_latent(
                ds, args.snapshot, vec_col=args.vec_col,
                out_col=args.out_col, model_kind=kind,
            ).select_columns([args.id_col, args.out_col])
            clean_parquet_dir(args.out)  # re-runs replace, never append
            out_ds.write_parquet(args.out)
            rows = count_parquet_rows(args.out)
            print(json.dumps({"out": args.out, "model": args.model, "rows": rows}))
            return 0
        if args.cmd == "predict":
            from .pipelines.predict import PredictConfig, end_to_end_predict

            cfg = PredictConfig(
                max_lines=args.max_lines,
                sample_ratio=args.sample_ratio,
                min_template_count=args.min_template_count,
                threshold_percentile=args.threshold_percentile,
                threshold_mode=args.threshold_mode,
                template_mode=args.template_mode,
                feature_dim=args.feature_dim,
            )
            res = end_to_end_predict(args.logfile, args.out, cfg, resume=not args.no_resume)
            print(json.dumps({"rows": res.n_rows, "threshold": res.threshold, "final": res.final_path, "metrics": res.metrics}))
            return 0
        raise SystemExit(2)
    finally:
        if own_session:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
