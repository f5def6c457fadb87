"""Per-layer measurements for a traced run.

Three sources, all recorded as spans by the benchmark around its own calls
into the engine (nothing inside the package is instrumented):

- ``op_targets``: wrappers installed during traced ops on the names the
  suite looks up on the driver — the reader (bound into ``validate`` at
  import, so it is patched there), the uniqueness pass, the driver-side
  stats merge, drift scoring and the checkpoint markers.
- ``replay``: the fused scan's kernels run in this process over the same
  blocks (one per file), with the sketch kernels and SHA-256 wrapped as
  child spans. Worker-side layers have no driver-side call to wrap, so this
  is where their self times come from.
- ``read_pass``, ``ablation`` and ``rerun_spill_finalize``: Ray pipelines
  built from public kernels — the stage-at-a-time sweep of the fused scan
  and the spill path's distributed finalize over an op's own spill shards.
"""

from __future__ import annotations

import glob
import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from suitebench.spans import Tracer, patched

ABLATION_STAGES = ("read", "keyhash", "partials", "rowcheck", "combine")
SKETCHES = ("hash64", "hll", "kll", "hist")


def op_targets(tracer: Tracer) -> list:
    from anomalydetection_ray.checks import uniqueness
    from anomalydetection_ray.pipelines import validate
    from anomalydetection_ray.state.checkpoint import RunState

    def on_read(args, kwargs, result):
        tracer.count("readers.calls")

    def on_mark_done(args, kwargs, result):
        tracer.count("checkpoint.units_computed")
        metrics = args[2] if len(args) > 2 else kwargs.get("metrics")
        if metrics and "duplicate_key_hashes" in metrics:
            tracer.count("uniqueness.dup_hashes", metrics["duplicate_key_hashes"])

    def on_done_check(args, kwargs, result):
        if result:
            tracer.count("checkpoint.units_reused")

    def on_dup_hashes(args, kwargs, result):
        tracer.count("uniqueness.dup_hashes", len(result))

    def wrap(owner, attr, name, on_result=None):
        return (owner, attr, tracer.wrap(getattr(owner, attr), name, on_result))

    return [
        wrap(validate, "read_parquet_clean", "readers.read_parquet_clean", on_read),
        wrap(uniqueness, "duplicate_key_hashes", "uniqueness"),
        wrap(uniqueness, "uniqueness_partial_table", "uniqueness"),
        wrap(uniqueness, "duplicate_hashes_from_partials", "uniqueness", on_dup_hashes),
        wrap(validate, "merge_partials_to_stats", "stats.merge"),
        wrap(validate, "partition_drift", "drift"),
        wrap(RunState, "mark_done", "checkpoint.mark_done", on_mark_done),
        wrap(RunState, "is_done_compat", "checkpoint.is_done", on_done_check),
    ]


def _rowpass_refs(cfg, dup_hashes: np.ndarray):
    # the broadcast state (dup-hash set, dimension Bloom filter and exact
    # keys) the row check reads; the suite builds it with this helper, and
    # no public function returns it
    from anomalydetection_ray.pipelines.validate import _prepare_rowpass_refs

    return _prepare_rowpass_refs(cfg, dup_hashes)


def replay(tracer: Tracer, files: list[str], cfg) -> dict:
    """Run the fused scan's kernels in process, one block per file, and
    return the counts and ratios the spans cannot carry."""
    import ray

    from anomalydetection_ray.checks import stats
    from anomalydetection_ray.checks.uniqueness import hash_key_rows
    from anomalydetection_ray.pipelines import validate
    from anomalydetection_ray.sketches import KLL, BloomFilter, HyperLogLog
    from anomalydetection_ray.sketches.histogram import FixedHistogram

    tracer.op = "replay"
    key = list(cfg.key)
    with tracer.span("replay.read"):
        blocks = [pq.read_table(f) for f in files]
    with tracer.span("replay.keyhash"):
        hashes = np.concatenate([hash_key_rows(b, key) for b in blocks])
    uniq, counts = np.unique(hashes, return_counts=True)
    refs = _rowpass_refs(cfg, np.sort(uniq[counts >= 2]))
    partial_fn = stats.make_stats_partial_fn(
        blocks[0].column_names, [cfg.partition_by], cfg.hll_p, cfg.kll_k,
        {cfg.content_col: cfg.hist_edges},
    )
    row_fn = validate.make_row_violations_fn(cfg, refs)

    def on_sha(args, kwargs, result):
        tracer.count("sha256.rows", result.num_rows)

    kernels = [
        (stats, "hash64_arrow", tracer.wrap(stats.hash64_arrow, "sketches.hash64")),
        (HyperLogLog, "update_hashed", tracer.wrap(HyperLogLog.update_hashed, "sketches.hll")),
        (KLL, "update", tracer.wrap(KLL.update, "sketches.kll")),
        (FixedHistogram, "update", tracer.wrap(FixedHistogram.update, "sketches.hist")),
        (validate, "sha256_hex_batch", tracer.wrap(validate.sha256_hex_batch, "sha256", on_sha)),
    ]
    partials = []
    with patched(kernels):
        for b in blocks:
            with tracer.span("stats.partials"):
                partials.append(partial_fn(b))
        for b in blocks:
            with tracer.span("rowcheck"):
                row_fn(b)
    # the engine combines each fused-map output block; with whole-block
    # batches that block holds one input block's partial rows
    with tracer.span("stats.combine"):
        combined = [stats.merge_partial_rows(p) for p in partials]

    bloom = BloomFilter.view_bytes(ray.get(refs.bloom_ref))
    dim_keys = ray.get(refs.exact_ref)
    probes = hits = rejected = 0
    for b in blocks:
        values = np.asarray(pc.drop_null(b[cfg.repo_col]))
        hit = bloom.contains(values)
        cand = values[hit]
        idx = np.clip(np.searchsorted(dim_keys, cand), 0, max(len(dim_keys) - 1, 0))
        probes += len(values)
        hits += int(hit.sum())
        rejected += int((dim_keys[idx] != cand).sum()) if len(dim_keys) else len(cand)
    rows_in = sum(p.num_rows for p in partials)
    return {
        "stats.combine_ratio": sum(c.num_rows for c in combined) / rows_in,
        "bloom.probes": probes,
        "bloom.fp_rate": rejected / hits if hits else 0.0,
    }


def _drain(ds) -> None:
    for _ in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        pass


def _row_count(batch: pa.Table) -> pa.Table:
    return pa.table({"rows": [batch.num_rows]})


def read_pass(corpus_path: str, reps: int = 3) -> float:
    """Median wall time of a Ray pass that reads and decodes every column
    and ships back only a row count per block."""
    from anomalydetection_ray.sources.readers import read_parquet_clean

    times = []
    for _ in range(reps):
        t = time.perf_counter()
        _drain(read_parquet_clean(corpus_path).map_batches(_row_count, batch_format="pyarrow", batch_size=None))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def ablation(corpus_path: str, cfg, columns: list[str]) -> dict[str, float]:
    """Wall time of the fused scan rebuilt on Ray one stage at a time (read,
    + key hashing, + stats partials, + row checks, + worker-side combine),
    read the way the suite reads it. Each stage includes the ones before."""
    from anomalydetection_ray.checks.stats import make_stats_partial_fn, merge_partial_rows
    from anomalydetection_ray.checks.uniqueness import hash_key_rows
    from anomalydetection_ray.functions.shuffle import default_num_blocks
    from anomalydetection_ray.pipelines.validate import make_row_violations_fn
    from anomalydetection_ray.sources.readers import read_parquet_clean

    key = list(cfg.key)
    stats_fn = make_stats_partial_fn(
        columns, [cfg.partition_by], cfg.hll_p, cfg.kll_k, {cfg.content_col: cfg.hist_edges}
    )
    row_fn = make_row_violations_fn(cfg, _rowpass_refs(cfg, np.array([], dtype=np.int64)))

    def keyhash(b: pa.Table) -> pa.Table:
        hash_key_rows(b, key)
        return _row_count(b)

    def partials(b: pa.Table) -> pa.Table:
        hash_key_rows(b, key)
        return stats_fn(b)

    def rowcheck(b: pa.Table) -> pa.Table:
        # the row check hashes the key itself (duplicate probe)
        row_fn(b)
        return stats_fn(b)

    maps = {
        "read": [_row_count],
        "keyhash": [keyhash],
        "partials": [partials],
        "rowcheck": [rowcheck],
        "combine": [rowcheck, merge_partial_rows],
    }
    out = {}
    for stage in ABLATION_STAGES:
        ds = read_parquet_clean(corpus_path, override_num_blocks=default_num_blocks())
        for i, fn in enumerate(maps[stage]):
            ds = ds.map_batches(
                fn, batch_format="pyarrow", batch_size=cfg.batch_size if i == 0 else None,
                zero_copy_batch=True,
            )
        t = time.perf_counter()
        _drain(ds)
        out[stage] = time.perf_counter() - t
    return out


def spill_shards(out_dir: str) -> list[str]:
    """Violation shards written by scan tasks (and by the driver's own
    overflow flush) when the suite spills."""
    return sorted(glob.glob(os.path.join(out_dir, "**", "viol-*.parquet"), recursive=True))


def rerun_spill_finalize(shards: list[str], cfg, dest: str) -> float:
    """Wall time of the spill path's finalize over ``shards``: exact
    duplicate recount on key co-located blocks (``local_group_map``), the
    global sort, the parquet write and the per-(kind, partition) counts."""
    import ray.data as rd

    from anomalydetection_ray.functions.shuffle import driver_grouped_agg, local_group_map

    key = list(cfg.key)
    out_cols = key + [cfg.partition_by]

    def recount(tb: pa.Table) -> pa.Table:
        import polars as pl

        if tb.num_rows == 0:
            return tb
        df = pl.from_arrow(tb)
        is_dup = pl.col("violation_kind") == "duplicate_key"
        dup = df.filter(is_dup).filter(pl.len().over(key) >= 2)
        return pl.concat([df.filter(~is_dup), dup]).to_arrow().cast(tb.schema)

    t = time.perf_counter()
    verified = local_group_map(rd.read_parquet(shards), key, recount)
    verified.sort(["violation_kind"] + out_cols + ["content_sha256"]).write_parquet(dest)
    driver_grouped_agg(rd.read_parquet(dest), ["violation_kind", cfg.partition_by], {"cnt": (None, "count")})
    return time.perf_counter() - t
