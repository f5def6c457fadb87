"""The flagship pipeline: full schema + constraint validation suite over a
source-code corpus ``(repo, path, commit, lang, content)``.

North-rule semantics (BASELINE.json): per-partition pass/fail verdicts +
exact violation rows, every violation row carrying ``sha256(content)`` so
it can be verified byte-equal against the input; resumable from
checkpoints with lineage + metrics (state/checkpoint.py). Both entry
points run ONE executor (:func:`_run_units`) over checkpoint units:
:func:`run_suite` scans the corpus as one unit, :func:`run_suite_sharded`
as one unit per input shard.

Pass layout (each pass prunes columns at the read — the wide ``content``
column is never shuffled, SURVEY.md M6/§7.4):

  uniqueness   key cols only    per-block combiner → hash shuffle of int64
                                (key-hash, cnt) pairs only → dup-hash set
  broadcast    dim key col      driver-side, no Ray pipeline: the dim key
                                column is read with pyarrow and becomes a
                                Bloom filter + sorted exact keys, shipped
                                beside the dup-hash set via ray.put. The
                                exact keys reach every task anyway, and a
                                Ray execution costs ~0.1 s CPU of fixed
                                overhead even on a few hundred dim rows
  fused scan   all columns      ONE content scan per unit (read → one
                                map stage) computing BOTH the per-block stats
                                partials (moments + HLL/KLL/histogram
                                sketches, merged on the driver) AND every
                                row-level check:
                                null-lang / empty-content rules, dup-key
                                row recovery (broadcast dup-hash probe,
                                exact post-verify), Bloom referential
                                probe; violating rows stream out of the
                                scan to the driver as (key, partition,
                                sha256, kind) — scan tasks write no file
  drift        (stats output)   PSI/KS vs baseline snapshot, driver-side on
                                the small merged table

Content — the dominant corpus bytes — is read and decompressed exactly
ONCE per suite run; every exchange moves kilobytes-per-block partials or
16-byte key-hash pairs, never data rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..checks.drift import load_snapshot, partition_drift, write_snapshot
from ..sources.readers import read_parquet_clean
from ..checks.stats import column_stats, merge_partials_to_stats
from ..functions.text import sha256_hex_batch
from ..state import RunState

# ray.data's path resolution lazily tries `from fsspec.implementations.http
# import HTTPFileSystem` (absent here: no aiohttp) inside a try/except —
# harmless sequentially, but two concurrent read_parquet calls from worker
# threads (stats ∥ uniqueness below) race the failing import and one of
# them observes a half-initialized module, escaping ray's except clause.
# Resolve it once in the MAIN thread; if unavailable, pin a stub module so
# later imports fail deterministically (ImportError, caught by ray) without
# re-running the racy import machinery.
try:  # pragma: no cover - optional dependency surface
    from fsspec.implementations.http import HTTPFileSystem as _HTTPFS  # noqa: F401
except Exception:
    import sys as _sys
    import types as _types

    _stub = _types.ModuleType("fsspec.implementations.http")

    class _StubHTTPFileSystem:  # real one unusable here (aiohttp absent);
        pass  # isinstance checks against it are simply False

    _stub.HTTPFileSystem = _StubHTTPFileSystem
    _sys.modules.setdefault("fsspec.implementations.http", _stub)


@dataclass
class SuiteConfig:
    key: tuple = ("repo", "path", "commit")
    partition_by: str = "lang"
    content_col: str = "content"
    repo_col: str = "repo"
    repos_dim_path: str | None = None  # parquet with a `repo` column
    dim_key: str = "repo"
    max_null_rate: float = 0.0
    min_rows_per_partition: int = 1
    psi_threshold: float = 0.25
    ks_threshold: float = 0.2
    hll_p: int = 12
    kll_k: int = 256
    # log-spaced length bins: content lengths are long-tailed
    hist_edges: np.ndarray = field(
        default_factory=lambda: np.concatenate([[0.0], np.logspace(0, 5, 40)])
    )
    batch_size: int | None = None  # None = whole blocks, no rebatching copies
    # cost gate for driver-held violation rows (round-3 verdict item 3):
    # adversarial inputs (e.g. 50% duplicate keys) concentrate O(rows)
    # violation rows; above this bound the driver flushes them to parquet
    # shards and the suite finalizes from the files, with only
    # per-(kind, partition) counts on the driver
    max_driver_violation_rows: int = 2_000_000
    # user-composable constraints (checks/base.py Tolerance): each bounds a
    # stats-table metric per (partition, column); evaluated driver-side
    # against the fused scan's output — adding one never adds a scan
    stat_tolerances: tuple = ()
    # declared EXPECTED schema (checks/schema.py spec_from_any input:
    # pa.Schema | spec frame | (name, dtype_str) pairs). None = skip the
    # explicit schema check. Metadata-only — never adds a scan. When a
    # baseline snapshot is given the suite ALSO diffs the live schema
    # against the snapshot's recorded dtypes (check "schema_drift"),
    # independent of this field.
    expected_schema: Any = None
    allow_added_columns: bool = False
    check_column_order: bool = False
    # functional dependencies ((determinant cols...), dependent col): each
    # runs as its own column-pruned pass (checks/dependency.py — the
    # 24-bytes/row pair exchange, never the content column unless named),
    # checkpointed per FD, one global verdict row per FD + exact violating
    # bindings in the violations dict
    fd_checks: tuple = ()


@dataclass
class SuiteResult:
    out_dir: str
    verdicts: pd.DataFrame
    stats: pd.DataFrame
    violations: dict[str, pa.Table]
    passed: bool
    # set when violations exceeded max_driver_violation_rows: the exact
    # rows live as sorted parquet shards under this directory and the
    # ``violations`` tables above are schema-correct but EMPTY (the
    # driver held only counts)
    violations_dir: str | None = None


def _corpus_schema(corpus_path: str) -> pa.Schema:
    """Schema straight from parquet footer metadata — no Ray pipeline
    needed just to learn column names. Recurses into subdirectories
    (round-5 review: the engine's OWN partitioned writer emits
    ``lang=xx/part-*.parquet`` layouts, which raised a bare IndexError
    here) and raises a named error when no parquet exists at all."""
    files = _corpus_files(corpus_path)
    if not files:
        raise FileNotFoundError(f"no parquet files under {corpus_path!r}")
    return pq.read_schema(files[0])


def _corpus_files(corpus_path: str) -> list[str]:
    """Sorted parquet file list — the stable shard basis for
    :func:`run_suite_sharded` (same input → same shard composition).
    Walks one level of partition subdirectories (the resumable writer's
    hive layout); `_DONE` markers and dotfiles are ignored."""
    if not os.path.isdir(corpus_path):
        return [corpus_path]
    out = []
    for name in sorted(os.listdir(corpus_path)):
        p = os.path.join(corpus_path, name)
        if name.endswith(".parquet"):
            out.append(p)
        elif os.path.isdir(p):
            out.extend(_parquet_files(p))
    return out


def _parquet_files(d: str) -> list[str]:
    """Sorted parquet files directly under directory ``d``."""
    return [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def _add_violation_counts(counts: dict[str, dict[str, int]], viol, part: str) -> dict[str, dict[str, int]]:
    """Add the per-(kind, partition) row counts of a violation table or
    record batch into ``counts``. Partitions are labelled by their value
    as a string, ``<null>`` for null — the one labelling of the driver-held
    and the spilled suite."""
    t = pa.table(
        {
            "k": viol.column("violation_kind"),
            "p": pc.fill_null(pc.cast(viol.column(part), pa.string()), "<null>"),
        }
    )
    g = t.group_by(["k", "p"]).aggregate([([], "count_all")])
    for k, p, c in zip(*(g[n].to_pylist() for n in ("k", "p", "count_all"))):
        by_part = counts.setdefault(k, {})
        by_part[p] = by_part.get(p, 0) + c
    return counts


# ---------------------------------------------------------------------------
# the fused scan's building blocks
# ---------------------------------------------------------------------------


def _viol_schema(schema: pa.Schema, out_cols: list[str]) -> pa.Schema:
    """Schema of a violation table: the key + partition columns with their
    input types, then the row's content digest and the violation kind."""
    return pa.schema(
        [(c, schema.field(c).type) for c in out_cols]
        + [("content_sha256", pa.string()), ("violation_kind", pa.string())]
    )


@dataclass
class _RowpassRefs:
    """Broadcast state for the combined row pass: object-store refs shipped
    ONCE (`ray.put`) and read inside every map task — never re-serialized
    per batch (SURVEY.md J1 broadcast pattern)."""

    out_cols: list[str]
    dup_ref: object
    bloom_ref: object | None
    exact_ref: object | None
    have_ref: bool


def _prepare_rowpass_refs(cfg: SuiteConfig, dup_hashes: np.ndarray) -> _RowpassRefs:
    import ray

    have_ref = bool(cfg.repos_dim_path)
    dup_ref = ray.put(dup_hashes)
    bloom_ref = exact_ref = None
    if have_ref:
        from ..checks.referential import dim_key_broadcast

        # the dim key column is read on the DRIVER, not by a Ray pipeline:
        # the exact key set ships to every task anyway, and each Ray
        # execution over the few-hundred-row dim cost ~0.1 s CPU of fixed
        # overhead, three of them per fresh suite op and per resume
        col = pq.read_table(_corpus_files(cfg.repos_dim_path), columns=[cfg.dim_key])[cfg.dim_key]
        bloom, exact = dim_key_broadcast(col)
        bloom_ref, exact_ref = ray.put(bloom.to_bytes()), ray.put(exact)
    return _RowpassRefs(
        out_cols=list(cfg.key) + [cfg.partition_by],
        dup_ref=dup_ref,
        bloom_ref=bloom_ref,
        exact_ref=exact_ref,
        have_ref=have_ref,
    )


def make_row_violations_fn(cfg: SuiteConfig, refs: _RowpassRefs):
    """The ONE content scan: null-partition + empty-content row rules,
    duplicate-key row recovery (broadcast dup-hash probe) and the Bloom
    referential probe all evaluate over the same batch; violating rows
    leave the task as (key, partition, sha256, kind) — content itself
    never leaves the scan."""
    import ray

    from ..checks.uniqueness import hash_key_rows, sorted_isin

    key = list(cfg.key)
    part = cfg.partition_by
    out_cols = refs.out_cols

    def row_violations(batch: pa.Table) -> pa.Table:
        null_part = np.asarray(pc.is_null(batch[part]))
        empty = np.asarray(pc.equal(pc.coalesce(batch[cfg.content_col], ""), ""))
        # dup-key CANDIDATES by 64-bit key hash (collisions verified
        # exactly after collection — _verify_dup_candidates)
        dup = sorted_isin(ray.get(refs.dup_ref), hash_key_rows(batch, key))
        masks = [(f"null_{part}", null_part), ("empty_content", empty & ~null_part), ("duplicate_key", dup)]
        if refs.have_ref:
            from ..sketches import BloomFilter

            # view_bytes: zero-copy probe view (from_bytes copied the
            # multi-MB bit array on every content-scan batch; round-5
            # review — referential.py already probes through the view)
            bf = BloomFilter.view_bytes(ray.get(refs.bloom_ref))
            col = batch[cfg.repo_col].combine_chunks()
            present = np.zeros(batch.num_rows, dtype=bool)
            # dtype-preserving extraction (round-5 review): np.asarray
            # on a null-bearing INT column yields float64, whose bit-
            # pattern hashes miss the int-built Bloom — every valid
            # key in the batch would be flagged orphan. drop_null
            # FIRST keeps ints int64, exactly as the build side does.
            vv = np.asarray(pc.drop_null(col))
            if len(vv):
                hit = bf.contains(vv)
                # Bloom hits are re-verified exactly against the dim keys
                hit[hit] = sorted_isin(ray.get(refs.exact_ref), vv[hit])
                present[np.asarray(pc.is_valid(col))] = hit
            masks.append(("orphan_repo", ~present))
        any_bad = np.zeros(batch.num_rows, dtype=bool)
        for _, m in masks:
            any_bad |= m
        if not any_bad.any():
            return _viol_schema(batch.schema, out_cols).empty_table()
        pieces = []
        for kind, m in masks:
            if not m.any():
                continue
            sub = batch.filter(pa.array(m))
            sub = sha256_hex_batch(sub, cfg.content_col, "content_sha256")
            sub = sub.select(out_cols + ["content_sha256"])
            pieces.append(sub.append_column("violation_kind", pa.array([kind] * sub.num_rows)))
        return pa.concat_tables(pieces)

    return row_violations


def _fused_scan(ds, cfg: SuiteConfig, refs: _RowpassRefs, schema: pa.Schema, spill_dir: str):
    """ONE content scan computing BOTH the stats partials and the row
    violations — the corpus's dominant cost is reading/decompressing the
    wide ``content`` column, so the per-check version's two content scans
    (stats, rowpass) fuse into one union-schema map:

      map: batch → [stat partial rows (tagged 's')] ∪ [violation rows
           (tagged 'v', columns prefixed to avoid any name collision)]
      driver: split by tag → (stats PARTIAL_SCHEMA table, violations)

    No worker-side combine stage: with whole-block batches each map
    output already holds one partial row per (partition, column), so a
    combine would merge nothing and only re-serialize every sketch.

    Returns ``(stats_partials, violations)`` — partials stay unmerged so
    each scan unit can checkpoint them associatively; the executor merges
    every unit's via ``merge_partials_to_stats``.

    Violation-volume guard (round-3 verdict item 3): on a sane corpus
    violations are rare, but an adversarial input (50% duplicate keys)
    makes them O(rows). Every violation row streams to the driver through
    Ray's output stream — scan tasks stay side-effect free, so a
    lineage-retried task cannot leave or double-count a file. The driver
    holds at most ``cfg.max_driver_violation_rows`` plus one block's rows:
    past the cap it flushes what it holds to a ``viol-driver-*`` shard
    under ``spill_dir`` and keeps flushing.

    When anything spilled, ``violations`` is ``spill_dir`` (the shards
    live there); otherwise it is the driver-held table. The caller wipes
    ``spill_dir`` before any fresh (non-resumed) scan, so stale shards
    from a crashed attempt never double-count.
    """
    from ..checks.stats import PARTIAL_SCHEMA, make_stats_partial_fn

    stats_fn = make_stats_partial_fn(
        schema.names, [cfg.partition_by], cfg.hll_p, cfg.kll_k, {cfg.content_col: cfg.hist_edges}
    )
    row_fn = make_row_violations_fn(cfg, refs)
    viol_schema = _viol_schema(schema, refs.out_cols)
    pref_names = [f"viol__{c}" for c in viol_schema.names]
    partial_names = PARTIAL_SCHEMA.names

    def to_union(st: pa.Table, vtp: pa.Table) -> pa.Table:
        n_s, n_v = st.num_rows, vtp.num_rows
        data: dict = {"rec": pa.array(["s"] * n_s + ["v"] * n_v, type=pa.string())}
        for f in PARTIAL_SCHEMA:
            col = st[f.name].combine_chunks() if n_s else pa.nulls(0, f.type)
            data[f.name] = pa.concat_arrays([col.cast(f.type), pa.nulls(n_v, f.type)])
        for c in pref_names:
            t = vtp.schema.field(c).type
            col = vtp[c].combine_chunks() if n_v else pa.nulls(0, t)
            data[c] = pa.concat_arrays([pa.nulls(n_s, t), col])
        return pa.table(data)

    def fused(batch: pa.Table) -> pa.Table:
        return to_union(stats_fn(batch), row_fn(batch).rename_columns(pref_names))

    fused_ds = ds.map_batches(
        fused, batch_format="pyarrow", batch_size=cfg.batch_size, zero_copy_batch=True
    )

    stats_parts: list[pa.Table] = []
    viol_parts: list[pa.Table] = []
    viol_held = 0
    n_flushed = 0

    def flush_to_spill() -> None:
        nonlocal viol_parts, viol_held, n_flushed
        if not viol_parts:
            return
        os.makedirs(spill_dir, exist_ok=True)
        pq.write_table(
            pa.concat_tables(viol_parts),
            os.path.join(spill_dir, f"viol-driver-{n_flushed:05d}.parquet"),
        )
        n_flushed += 1
        viol_parts, viol_held = [], 0

    for tb in fused_ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if tb.num_rows == 0:
            continue
        s_mask = pc.equal(tb["rec"], "s")
        stats_parts.append(tb.filter(s_mask).select(partial_names).cast(PARTIAL_SCHEMA))
        vt = tb.filter(pc.invert(s_mask)).select(pref_names).rename_columns(viol_schema.names)
        if vt.num_rows:
            viol_parts.append(vt)
            viol_held += vt.num_rows
        if viol_held > cfg.max_driver_violation_rows:
            flush_to_spill()
    if n_flushed:
        flush_to_spill()
    stats_partials = pa.concat_tables(stats_parts) if stats_parts else PARTIAL_SCHEMA.empty_table()
    if n_flushed:
        return stats_partials, spill_dir
    # zero violations: the empty table keeps the REAL column types — an
    # inferred null-typed empty breaks later concats with typed tables
    return stats_partials, pa.concat_tables(viol_parts) if viol_parts else viol_schema.empty_table()


def _uniq_ckpt_fmt() -> str:
    """Format tag for checkpoints embedding polars row hashes: the hash
    function is not guaranteed stable across polars versions, so a resume
    under a different build must recompute rather than mix hash spaces
    (where true duplicates would be silently missed)."""
    import polars as pl

    return f"uniq-hashes/v2/polars-{pl.__version__}"


def _verify_dup_candidates(tb: pa.Table, key: list[str]) -> pa.Table:
    """Exact dup verification: candidate rows carry their REAL keys, so a
    per-key recount over every candidate of a key drops 64-bit
    hash-collision artifacts — the reported duplicate set is exact at any
    scale. Other violation kinds pass through unchanged. The one recount
    kernel: the driver rung runs it on the whole table, the distributed
    rung on each key co-located block."""
    import polars as pl

    if tb.num_rows == 0:
        return tb
    df = pl.from_arrow(tb)
    is_dup = pl.col("violation_kind") == "duplicate_key"
    # polars groups null key values together, so a duplicate whose key
    # holds a null still forms a group and is recounted
    dup = df.filter(is_dup).filter(pl.len().over(key) >= 2)
    return pl.concat([df.filter(~is_dup), dup]).to_arrow().cast(tb.schema)


def _verify_dup_candidates_ds(viol_ds, key: list[str]):
    """:func:`_verify_dup_candidates` on the distributed rung: co-partition
    the violation stream by key so all candidate rows of one key share a
    block, then recount per block."""
    from functools import partial

    from ..functions.shuffle import local_group_map

    return local_group_map(viol_ds, key, partial(_verify_dup_candidates, key=key))


def _spill_violation_counts(files: list[str], part: str) -> dict[str, dict[str, int]]:
    """Per-(kind, partition) violation counts of the sorted violation files
    — the only violation-derived state the driver holds in spill mode.
    Streams just the two columns batch by batch on the driver, so no
    violation table materializes."""
    counts: dict[str, dict[str, int]] = {}
    for f in files:
        for b in pq.ParquetFile(f).iter_batches(columns=["violation_kind", part]):
            _add_violation_counts(counts, b, part)
    return counts


def _sort_violations(viol_all: pa.Table, out_cols: list[str]) -> pa.Table:
    """Deterministic byte-stable order regardless of block arrival.

    content_sha256 is part of the key: the two copies of a duplicated key
    tie on every other column, and without it their relative order would
    follow block arrival — nondeterministic across runs and parallelism
    levels."""
    if viol_all.num_rows == 0:
        return viol_all
    return viol_all.sort_by(
        [("violation_kind", "ascending")]
        + [(c, "ascending") for c in out_cols]
        + [("content_sha256", "ascending")]
    )


def _finish_violations(
    state: RunState,
    unit_names: list[str],
    files: list[str],
    n_rows: int,
    max_driver_rows: int,
    viol_schema: pa.Schema,
    key: list[str],
    part: str,
) -> tuple[pa.Table, str | None, dict[str, dict[str, int]]]:
    """The ONE violation finalize of the suite, over every scan unit's
    rows: exact dup recount, deterministic sort and write, checkpointed as
    unit ``rowpass``.

    ``files`` are the units' violation files (held tables and spill
    shards), ``n_rows`` their total row count. At most
    ``max_driver_rows`` rows are recounted, sorted and written to
    ``rowpass/violations.parquet`` on the driver. Otherwise every file
    takes the distributed path — key co-partitioned recount, global
    multi-column sort, partitioned parquet under
    ``rowpass/violations_sorted`` — so violations never materialize on
    the driver — and the driver streams the per-(kind, partition) counts
    out of the sorted files.

    The marker records the units it covers, the path taken and, on the
    distributed path, the counts. A resume whose units were all reused
    (any recomputed unit drops the marker first) reads the result back
    instead of finalizing again; a distributed marker without counts is
    not trusted.

    Returns ``(violations, violations_dir, counts)`` as
    :func:`_finalize_suite` takes them: the sorted table, ``None`` and
    its counts, or a schema-correct EMPTY table, the sorted directory and
    its counts."""
    out_dir = state.unit_dir("rowpass")
    sorted_dir = os.path.join(out_dir, "violations_sorted")
    held_path = os.path.join(out_dir, "violations.parquet")
    distributed = n_rows > max_driver_rows
    inputs = {"units": unit_names, "distributed": distributed}
    meta = (state.done_metrics("rowpass") or {}).get("metrics", {})
    done_file = "violations_sorted" if meta.get("sorted") else "violations.parquet"
    if (
        all(meta.get(k) == v for k, v in inputs.items())
        and (not meta.get("sorted") or "counts" in meta)
        and state.is_done_compat("rowpass", files=(done_file,))
    ):
        if meta.get("sorted"):
            return viol_schema.empty_table(), sorted_dir, meta["counts"]
        viol = pq.read_table(held_path)
        return viol, None, _add_violation_counts({}, viol, part)
    state.invalidate("rowpass")
    out_cols = viol_schema.names[:-2]
    viol = viol_schema.empty_table()
    if distributed:
        import shutil

        if os.path.isdir(sorted_dir):
            shutil.rmtree(sorted_dir)
        os.makedirs(sorted_dir)
        verified = _verify_dup_candidates_ds(rd.read_parquet(files), key)
        verified.sort(["violation_kind"] + out_cols + ["content_sha256"]).write_parquet(sorted_dir)
        sorted_files = _parquet_files(sorted_dir)
        if sorted_files:
            counts = _spill_violation_counts(sorted_files, part)
            state.mark_done("rowpass", {**inputs, "sorted": True, "counts": counts})
            return viol, sorted_dir, counts
        # the dup recount dropped EVERY spilled row (all candidates were
        # key-collision artifacts) and write_parquet produced a shard-less
        # directory — finalize through the empty driver table instead of
        # read_parquet-ing an empty dir
    elif files:
        viol = pa.concat_tables([pq.read_table(p) for p in files])
    viol = _sort_violations(_verify_dup_candidates(viol, key), out_cols)
    pq.write_table(viol, held_path)
    state.mark_done("rowpass", {**inputs, "sorted": False})
    return viol, None, _add_violation_counts({}, viol, part)


# ---------------------------------------------------------------------------
# verdict assembly (shared)
# ---------------------------------------------------------------------------


def _fd_unit_name(det: list[str], dep: str) -> str:
    return "fd-" + "-".join(det) + "--" + dep


def _run_fd_checks(
    state: RunState, cfg: SuiteConfig, corpus_path: str, resume: bool
) -> dict[str, pa.Table]:
    """One column-pruned :func:`fd_violations` pass per configured FD,
    checkpointed per FD (unit ``fd-<det>--<dep>``). Returns unit name →
    exact violating bindings (determinant..., dependent, n_rows)."""
    from ..checks.dependency import fd_violations
    from ..functions.shuffle import default_num_blocks
    from .queries import as_table

    out: dict[str, pa.Table] = {}
    for det, dep in cfg.fd_checks:
        det = [det] if isinstance(det, str) else list(det)
        unit = _fd_unit_name(det, dep)
        vp = os.path.join(state.unit_dir(unit), "violations.parquet")
        if resume and state.is_done_compat(unit, files=("violations.parquet",)):
            out[unit] = pq.read_table(vp)
            continue
        cols = det + [dep]
        vt = as_table(
            fd_violations(
                read_parquet_clean(corpus_path, columns=cols, override_num_blocks=default_num_blocks()),
                det,
                dep,
            )
        )
        pq.write_table(vt, vp)
        state.mark_done(unit, {"violating_bindings": vt.num_rows})
        out[unit] = vt
    return out


def _finalize_suite(
    state: RunState,
    out_dir: str,
    cfg: SuiteConfig,
    stats_df: pd.DataFrame,
    viol_all: pa.Table,
    baseline_snapshot: str | None,
    violations_dir: str | None,
    viol_counts: dict[str, dict[str, int]],
    corpus_schema: pa.Schema,
    fd_results: dict[str, pa.Table],
) -> SuiteResult:
    """stats table + violation rows → per-(check, partition) verdicts,
    drift scoring, lineage, and the verdicts.parquet artifact.

    Verdict counts come from ``viol_counts``, the per-(kind, partition)
    violation counts. Spill mode (``violations_dir`` given): ``viol_all``
    is schema-correct but EMPTY and ``viol_counts`` counts the exact rows
    under ``violations_dir``."""
    from ..checks.schema import schema_verdicts, spec_from_stats

    part = cfg.partition_by
    verdict_rows: list[dict] = []
    violations: dict[str, pa.Table] = {}

    # schema check (metadata-only, no scan): live schema vs the declared
    # expectation — missing / added / type-changed / moved columns each
    # become a verdict row (checks/schema.py)
    if cfg.expected_schema is not None:
        sv = schema_verdicts(
            corpus_schema,
            cfg.expected_schema,
            allow_added=cfg.allow_added_columns,
            check_order=cfg.check_column_order,
        )
        verdict_rows.extend(sv.to_dict("records"))
        state.lineage_append(
            {"unit": "schema", "metrics": {"failed": int((~sv["passed"]).sum())}}
        )

    for _, r in stats_df.iterrows():
        issues = []
        if r["null_rate"] > cfg.max_null_rate:
            issues.append(f"null_rate {r['null_rate']:.4f} > {cfg.max_null_rate}")
        verdict_rows.append(
            {
                "check": "stats",
                "partition": r["part"],
                "column": r["column"],
                "passed": not issues,
                "metric": r["null_rate"],
                "detail": "; ".join(issues),
            }
        )
    for tol in cfg.stat_tolerances:
        sub = stats_df if tol.column is None else stats_df[stats_df["column"] == tol.column]
        for _, r in sub.iterrows():
            raw = r.get(tol.metric)
            # A tolerance may name a non-numeric stats column (smin/smax/
            # dtype — freely specifiable via the CLI); emit a failed verdict
            # rather than crashing the suite after the expensive scans.
            try:
                val = None if raw is None or (isinstance(raw, float) and np.isnan(raw)) else float(raw)
            except (TypeError, ValueError):
                verdict_rows.append(
                    {
                        "check": f"tolerance:{tol.metric}",
                        "partition": r["part"],
                        "column": r["column"],
                        "passed": False,
                        "metric": np.nan,
                        "detail": f"{tol.metric}={raw!r} is not numeric; tolerance not evaluable",
                    }
                )
                continue
            ok = tol.passes(val)
            verdict_rows.append(
                {
                    "check": f"tolerance:{tol.metric}",
                    "partition": r["part"],
                    "column": r["column"],
                    "passed": ok,
                    "metric": val if val is not None else np.nan,
                    "detail": "" if ok else f"{tol.metric}={raw} outside [{tol.min_value}, {tol.max_value}]",
                }
            )
    part_counts = (
        stats_df[stats_df["column"] == cfg.content_col][["part", "count"]]
        .set_index("part")["count"]
        .to_dict()
    )
    for p, c in part_counts.items():
        verdict_rows.append(
            {
                "check": "min_rows",
                "partition": p,
                "column": "",
                "passed": bool(c >= cfg.min_rows_per_partition),
                "metric": float(c),
                "detail": "",
            }
        )

    # check -> (violation kinds, verdict detail)
    row_checks = {
        "rowrules": ([f"null_{part}", "empty_content"], "row-rule violations"),
        "uniqueness": (["duplicate_key"], "duplicate-key rows"),
    }
    if cfg.repos_dim_path:
        row_checks["referential"] = (["orphan_repo"], "orphan rows")
    n_viol: dict[str, int] = {}
    kind_col = viol_all["violation_kind"]
    for check, (kinds, what) in row_checks.items():
        violations[check] = viol_all.filter(pc.is_in(kind_col, value_set=pa.array(kinds)))
        by_part: dict[str, int] = {}
        for k in kinds:
            for p, c in viol_counts.get(k, {}).items():
                by_part[p] = by_part.get(p, 0) + c
        n_viol[check] = sum(by_part.values())
        for p, c in by_part.items():
            verdict_rows.append(
                {"check": check, "partition": p, "column": "", "passed": False, "metric": float(c), "detail": f"{c} {what}"}
            )

    # functional dependencies: GLOBAL verdicts (a determinant's bindings
    # may span partitions, so per-partition pass/fail would be misleading)
    for unit, vt in fd_results.items():
        violations[unit] = vt
        n_viol[unit] = vt.num_rows
        n_bad_det = (
            vt.group_by(vt.column_names[:-2]).aggregate([]).num_rows if vt.num_rows else 0
        )
        verdict_rows.append(
            {
                "check": unit,
                "partition": "",
                "column": vt.column_names[-2],
                "passed": vt.num_rows == 0,
                "metric": float(n_bad_det),
                "detail": "" if vt.num_rows == 0 else f"{n_bad_det} determinants with conflicting bindings ({vt.num_rows} bindings)",
            }
        )

    # ---------------- drift vs baseline snapshot ----------------
    # a DIRECTORY means "the latest snapshot under this root" (S7
    # latest-artifact convention; find_latest_snapshot)
    if baseline_snapshot and os.path.isdir(baseline_snapshot):
        baseline_snapshot = find_latest_snapshot(baseline_snapshot)
    if baseline_snapshot:
        base_df = load_snapshot(baseline_snapshot)
        # schema DRIFT vs the snapshot's recorded per-column dtypes: a
        # column that appeared, vanished or changed type since the
        # baseline is an anomaly signal even when every value-level stat
        # passes (the structural sibling of the PSI/KS check below)
        if "dtype" in base_df.columns:
            # (snapshots written before the dtype column existed simply
            # skip the structural diff; value-level drift still runs)
            sdv = schema_verdicts(
                corpus_schema, spec_from_stats(base_df), check="schema_drift"
            )
            verdict_rows.extend(sdv.to_dict("records"))
            state.lineage_append(
                {"unit": "schema_drift", "metrics": {"failed": int((~sdv["passed"]).sum())}}
            )
        drift = partition_drift(
            stats_df,
            base_df,
            cfg.content_col,
            cfg.psi_threshold,
            cfg.ks_threshold,
        )
        drift_path = os.path.join(state.unit_dir("drift"), "drift.parquet")
        pq.write_table(pa.Table.from_pandas(drift, preserve_index=False), drift_path)
        state.lineage_append({"unit": "drift", "metrics": {"failed": int((~drift["passed"]).sum())}})
        for _, r in drift.iterrows():
            verdict_rows.append(
                {
                    "check": "drift",
                    "partition": r["part"],
                    "column": r["column"],
                    "passed": bool(r["passed"]),
                    "metric": float(r["psi"]) if np.isfinite(r["psi"]) else 1e9,
                    "detail": r["reason"] or f"psi={r['psi']:.4f} ks={r['ks']:.4f}",
                }
            )

    # partitions with no violation rows get explicit passing verdicts
    flagged = {(v["check"], v["partition"]) for v in verdict_rows}
    for check in row_checks:
        for p in part_counts:
            if (check, p) not in flagged:
                verdict_rows.append(
                    {"check": check, "partition": p, "column": "", "passed": True, "metric": 0.0, "detail": ""}
                )

    verdict_cols = ["check", "partition", "column", "passed", "metric", "detail"]
    verdicts = (
        pd.DataFrame(verdict_rows, columns=verdict_cols)  # schema-stable when EMPTY
        .sort_values(["check", "partition", "column"])
        .reset_index(drop=True)
    )
    verdicts_path = os.path.join(out_dir, "verdicts.parquet")
    pq.write_table(pa.Table.from_pandas(verdicts, preserve_index=False), verdicts_path)
    # an empty corpus yields zero verdicts: vacuously passing (there is
    # nothing to violate), and the row-count signal lives in lineage
    passed = bool(verdicts["passed"].all())
    state.lineage_append(
        {
            "unit": "suite",
            "metrics": {
                "passed": passed,
                "n_verdicts": len(verdicts),
                "n_violations": n_viol,
                **({"violations_dir": violations_dir} if violations_dir else {}),
            },
        }
    )
    return SuiteResult(
        out_dir=out_dir,
        verdicts=verdicts,
        stats=stats_df,
        violations=violations,
        passed=passed,
        violations_dir=violations_dir,
    )


# ---------------------------------------------------------------------------
# the suite executor
# ---------------------------------------------------------------------------


def _run_units(
    corpus_path: str,
    out_dir: str,
    cfg: SuiteConfig | None,
    baseline_snapshot: str | None,
    resume: bool,
    units: list[tuple[str, Callable[[], Any]]],
) -> SuiteResult:
    """The ONE suite executor. ``units`` are (checkpoint unit name,
    dataset factory) pairs that together cover the corpus once.

      1. uniqueness key pass over the whole corpus → global dup-hash set
      2. per unit: ONE fused content scan (stats partials + every row
         check, the dup-hash probe included); the unit checkpoints its
         stats partials and its raw violations (a table, or its spill
         shards under ``<unit>/violations_spill``)
      3. one stats merge, one violation finalize over every unit's rows
         (checkpointed as unit ``rowpass``)
      4. FD checks, verdicts, drift

    A unit is reused only when the uniqueness pass was: the dup-hash set
    is an input to every unit's scan. Stats partials merge associatively
    and the exact dup recount and deterministic sort run once, on all
    units' rows, so the unit decomposition never changes the output. The
    finalized violations are reused only when every unit was: any
    recomputed unit or uniqueness pass drops the ``rowpass`` marker
    first."""
    import shutil

    from .. import tune_shuffle_to_cluster
    from ..functions.shuffle import default_num_blocks
    from ..checks.uniqueness import duplicate_key_hashes

    tune_shuffle_to_cluster()
    cfg = cfg or SuiteConfig()
    state = RunState(out_dir)
    key = list(cfg.key)
    corpus_schema = _corpus_schema(corpus_path)
    viol_schema = _viol_schema(corpus_schema, key + [cfg.partition_by])

    # ---------------- pass 1: uniqueness key detection ----------------
    # key columns ONLY — the wide content column is untouched, so this
    # pass is cheap relative to the scans it gates (each fused scan needs
    # the global duplicate-hash set as a broadcast input).
    uqk_path = os.path.join(state.unit_dir("uniqueness"), "dup_key_hashes.parquet")
    # the checkpoint embeds polars row hashes (not guaranteed stable
    # across polars builds) — the fmt tag invalidates a checkpoint written
    # under a different layout or hash environment instead of misreading it
    uniq_reused = resume and state.is_done_compat(
        "uniqueness", files=("dup_key_hashes.parquet",), fmt=_uniq_ckpt_fmt()
    )
    if uniq_reused:
        dup_hash_tbl = pq.read_table(uqk_path)
    else:
        # no unit scanned with the old dup-hash set may be trusted past
        # this point, even if the run crashes before recomputing it
        for unit in [u for u, _ in units] + ["rowpass"]:
            state.invalidate(unit)
        # coalesce the key-only read to ~2 blocks/CPU: many tiny source
        # files otherwise fan the 16-byte/row shuffle into thousands of
        # mini-objects (measured 2× slower than the coalesced read)
        keys_ds = read_parquet_clean(corpus_path, columns=key, override_num_blocks=default_num_blocks())
        dup_hash_tbl = duplicate_key_hashes(keys_ds, key)
        pq.write_table(dup_hash_tbl, uqk_path)
        state.mark_done(
            "uniqueness", {"duplicate_key_hashes": dup_hash_tbl.num_rows}, fmt=_uniq_ckpt_fmt()
        )
    dup_hashes = np.sort(dup_hash_tbl["h"].to_numpy(zero_copy_only=False))

    # ---------------- pass 2: ONE fused content scan per unit ----------
    # content is read and decompressed ONCE per suite run (it dominates
    # corpus bytes)
    refs = None  # built once, and only if some unit must be computed
    # a unit's violations include the duplicate-key rows its scan found
    # with the global dup-hash probe; shard units of the earlier two-phase
    # layout held none, so their tag differs and a resume recomputes them.
    # Embeds the uniqueness tag: the probe used those polars row hashes.
    unit_fmt = f"scan-unit/v3/{_uniq_ckpt_fmt()}"
    stats_parts: list[pa.Table] = []
    # violations stay ON DISK until the total is known (round-5 review:
    # reading every unit's table into a driver list defeated
    # max_driver_violation_rows): each unit's held table or spill shards
    viol_files: list[str] = []
    n_viol_total = 0
    for unit, dataset in units:
        udir = state.unit_dir(unit)
        sp = os.path.join(udir, "stats_partials.parquet")
        vp = os.path.join(udir, "violations.parquet")
        spill_dir = os.path.join(udir, "violations_spill")
        meta = (state.done_metrics(unit) or {}).get("metrics", {})
        was_spilled = bool(meta.get("spilled"))
        viol_file = "violations_spill" if was_spilled else "violations.parquet"
        if state.is_done_compat(unit, files=("stats_partials.parquet", viol_file), fmt=unit_fmt):
            st, n_viol = pq.read_table(sp), int(meta["violations"])
        else:
            state.invalidate(unit)
            state.invalidate("rowpass")
            # stale shards from a crashed attempt would double-count
            if os.path.isdir(spill_dir):
                shutil.rmtree(spill_dir)
            if refs is None:
                refs = _prepare_rowpass_refs(cfg, dup_hashes)
            st, viol = _fused_scan(dataset(), cfg, refs, corpus_schema, spill_dir)
            was_spilled = not isinstance(viol, pa.Table)
            if was_spilled:
                n_viol = sum(pq.read_metadata(f).num_rows for f in _parquet_files(spill_dir))
            else:
                viol = _sort_violations(viol, refs.out_cols)  # stable checkpoint bytes
                pq.write_table(viol, vp)
                n_viol = viol.num_rows
            pq.write_table(st, sp)
            content_rows = pc.sum(st.filter(pc.equal(st["column"], cfg.content_col))["count"]).as_py()
            state.mark_done(
                unit,
                {"rows": int(content_rows or 0), "violations": n_viol, "spilled": was_spilled},
                fmt=unit_fmt,
            )
        stats_parts.append(st)
        n_viol_total += n_viol
        if was_spilled:
            # files, not the directory: rd.read_parquet raises on a path
            # list that holds a directory
            viol_files.extend(_parquet_files(spill_dir))
        elif n_viol:
            viol_files.append(vp)

    stats_df = merge_partials_to_stats(stats_parts)
    stats_path = os.path.join(state.unit_dir("stats"), "stats.parquet")
    pq.write_table(pa.Table.from_pandas(stats_df, preserve_index=False), stats_path)
    viol_all, violations_dir, viol_counts = _finish_violations(
        state, [u for u, _ in units], viol_files, n_viol_total, cfg.max_driver_violation_rows,
        viol_schema, key, cfg.partition_by,
    )
    fd_results = _run_fd_checks(state, cfg, corpus_path, resume) if cfg.fd_checks else {}
    return _finalize_suite(
        state, out_dir, cfg, stats_df, viol_all, baseline_snapshot,
        violations_dir, viol_counts, corpus_schema, fd_results,
    )


def run_suite(
    corpus_path: str,
    out_dir: str,
    cfg: SuiteConfig | None = None,
    baseline_snapshot: str | None = None,
    resume: bool = True,
) -> SuiteResult:
    """Run every check; returns verdicts + violations. Re-running with
    ``resume=True`` skips checks whose ``_DONE`` marker exists and reloads
    their outputs (checkpoint semantics; see tests/test_validate.py).
    The whole corpus is one scan unit, ``scan``."""
    from ..functions.shuffle import default_num_blocks

    def scan():
        return read_parquet_clean(corpus_path, override_num_blocks=default_num_blocks())

    return _run_units(corpus_path, out_dir, cfg, baseline_snapshot, resume, [("scan", scan)])


def run_suite_sharded(
    corpus_path: str,
    out_dir: str,
    cfg: SuiteConfig | None = None,
    baseline_snapshot: str | None = None,
    resume: bool = True,
    n_shards: int | None = None,
) -> SuiteResult:
    """Same checks and identical final output as :func:`run_suite`, but
    checkpointed per input shard instead of per pass — the resume
    granularity for long runs over many-file corpora (north rule:
    resumable from per-partition checkpoints).

    Shard = contiguous group of the sorted input files (stable across
    reruns); each shard is one scan unit ``shard-NNNN-partials`` of the
    shared executor. A resume recomputes only the shards whose
    checkpoint is missing — every shard when the uniqueness pass had to
    be recomputed, since its dup-hash set feeds every shard's scan."""
    files = _corpus_files(corpus_path)
    if n_shards is None:
        n_shards = min(len(files), 16)
    n_shards = max(1, min(n_shards, len(files)))
    bounds = np.linspace(0, len(files), n_shards + 1).astype(int)
    units = [
        (f"shard-{i:04d}-partials", lambda fs=files[bounds[i]:bounds[i + 1]]: read_parquet_clean(fs))
        for i in range(n_shards)
    ]
    return _run_units(corpus_path, out_dir, cfg, baseline_snapshot, resume, units)


def find_latest_snapshot(root_dir: str) -> str | None:
    """Latest-artifact discovery (S7 analog of the reference's
    search-latest-MLflow-run, ``end_to_end_prediction.py:118-192``):
    snapshots written by :func:`write_baseline_versioned` are
    ``baseline-NNNN.parquet`` under one root; the highest index is the
    current baseline. Returns None when the root has no snapshots."""
    if not os.path.isdir(root_dir):
        return None
    snaps = sorted(
        f for f in os.listdir(root_dir)
        if f.startswith("baseline-") and f.endswith(".parquet")
    )
    return os.path.join(root_dir, snaps[-1]) if snaps else None


def write_baseline_versioned(corpus_path: str, root_dir: str) -> str:
    """Write the next ``baseline-NNNN.parquet`` under ``root_dir`` (the
    append-only snapshot convention :func:`find_latest_snapshot`
    discovers) and return its path. Existing snapshots are immutable —
    a re-baseline is a NEW artifact, so drift scores stay reproducible
    against any historical snapshot."""
    os.makedirs(root_dir, exist_ok=True)
    latest = find_latest_snapshot(root_dir)
    nxt = 0 if latest is None else int(os.path.basename(latest)[len("baseline-"):-len(".parquet")]) + 1
    path = os.path.join(root_dir, f"baseline-{nxt:04d}.parquet")
    write_baseline(corpus_path, path)
    return path


def write_baseline(corpus_path: str, snapshot_path: str) -> None:
    """Compute and persist the baseline snapshot (per-partition stats +
    histogram/sketch bytes) under the default :class:`SuiteConfig` — the
    artifact drift checks score against."""
    cfg = SuiteConfig()
    all_cols = [f.name for f in _corpus_schema(corpus_path)]
    stats_df = column_stats(
        read_parquet_clean(corpus_path),
        columns=all_cols,
        partition_by=[cfg.partition_by],
        hll_p=cfg.hll_p,
        kll_k=cfg.kll_k,
        hist_edges={cfg.content_col: cfg.hist_edges},
        batch_size=cfg.batch_size,
    ).to_pandas()
    write_snapshot(stats_df, snapshot_path)


def verify_violation_invariant(
    violations: pa.Table, corpus_path: str, cfg: SuiteConfig | None = None
) -> bool:
    """The per-row invariant (input_hint): every violation row's
    content_sha256 equals sha256 of the input row with the same key."""
    cfg = cfg or SuiteConfig()
    if violations.num_rows == 0 or "content_sha256" not in violations.column_names:
        return True
    key = list(cfg.key)
    sep = "\x1f"

    def _joined_keys(tb: pa.Table) -> list[str]:
        # ONE canonicalization for both sides — the Arrow cast the scan
        # mask uses (round-5 review: the want side used Python str(),
        # which diverges from Arrow for bool/float/timestamp keys —
        # str(True)='True' vs 'true' — so the is_in mask matched nothing
        # and valid violations spuriously failed the invariant)
        parts = [pc.fill_null(pc.cast(tb[k], pa.string()), "None") for k in key]
        j = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(*parts, sep)
        return j.to_pylist()

    # duplicate keys may record >1 hash — keep them ALL (round-5 review:
    # a dict collapsed them to the last, leaving earlier rows unchecked)
    want: dict[str, set] = {}
    for k_, h_ in zip(_joined_keys(violations), violations["content_sha256"].to_pylist()):
        want.setdefault(k_, set()).add(h_)
    ds = read_parquet_clean(corpus_path, columns=key + [cfg.content_col])
    import ray

    ref = ray.put(pa.array(sorted(want.keys())))

    def pick(batch: pa.Table) -> pa.Table:
        value_set = ray.get(ref)
        parts = [pc.fill_null(pc.cast(batch[k], pa.string()), "None") for k in key]
        joined = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(*parts, sep)
        mask = pc.is_in(joined, value_set=value_set)
        return sha256_hex_batch(batch.filter(mask), cfg.content_col, "content_sha256")

    from .queries import as_table

    got_tbl = as_table(ds.map_batches(pick, batch_format="pyarrow", batch_size=None, zero_copy_batch=True))
    got: dict[str, set] = {}
    for k_, h_ in zip(_joined_keys(got_tbl), got_tbl["content_sha256"].to_pylist()):
        got.setdefault(k_, set()).add(h_)
    # EVERY recorded hash for a key must be among the input hashes for
    # that key (subset, not membership of one)
    return all(hs <= got.get(k, set()) for k, hs in want.items())
