"""Distributed per-column statistics — the engine's core stats suite.

Reference analogs: array summary stats ``mean/std/min/max``
(`mlflow_utils.py:79-93`), null-drop projections
(`models/feature_extraction.py:79`), exact global percentile
(`end_to_end_prediction.py:447`) and the distinct-template set
(`models/preprocessing.py:7`). All are re-expressed as ONE pass of
mergeable partials:

    ds.map_batches(partials)                 # tiny rows: (part, col) → moments + sketches
      .groupby(["part", "column"]).map_groups(merge)   # kilobyte shuffle

- count / nulls / min / max: exact.
- mean / std: exact via Chan et al. parallel (count, mean, M2) merge —
  numerically stable, order-independent.
- distinct: HyperLogLog (exact distinct would shuffle every row).
- p50/p95/p99: KLL sketch (exact global quantiles don't stream).
- optional fixed-bin histogram partial for the drift snapshot.

String columns: numeric stats/KLL run over ``utf8_length(col)``;
``smin``/``smax`` hold the lexicographic min/max of the raw strings.
Timestamps are cast to epoch microseconds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches import HyperLogLog, KLL
from ..sketches.histogram import FixedHistogram
from ..sketches.hll import hash64_arrow

PARTIAL_SCHEMA = pa.schema(
    [
        ("part", pa.string()),
        ("column", pa.string()),
        ("dtype", pa.string()),
        ("count", pa.int64()),
        ("nulls", pa.int64()),
        ("nmean", pa.float64()),
        ("m2", pa.float64()),
        ("vmin", pa.float64()),
        ("vmax", pa.float64()),
        ("smin", pa.string()),
        ("smax", pa.string()),
        ("hll", pa.binary()),
        ("kll", pa.binary()),
        ("hist", pa.binary()),
    ]
)


def partition_key_array(batch: pa.Table, partition_by: list[str]) -> np.ndarray:
    """String partition key per row, e.g. 'python|small'. Vectorized."""
    parts = [pc.cast(batch[c], pa.string()) for c in partition_by]
    if len(parts) == 1:
        key = parts[0]
    else:
        key = pc.binary_join_element_wise(*parts, "|", null_handling="replace", null_replacement="<null>")
    return np.asarray(pc.fill_null(key, "<null>"))


def _numeric_view(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """→ (float64 values with NaN at nulls — None for a type with no
    numeric projection —, valid bool mask, raw strings or None)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    valid = np.asarray(pc.is_valid(arr))
    t = arr.type
    strings = None
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        strings = arr.to_numpy(zero_copy_only=False)
        lengths = pc.utf8_length(arr)
        vals = np.asarray(pc.cast(lengths, pa.float64())).astype(np.float64)
    elif pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t):
        vals = np.asarray(pc.cast(arr, pa.int64())).astype(np.float64)
    elif pa.types.is_boolean(t):
        vals = np.asarray(pc.cast(arr, pa.float64())).astype(np.float64)
    elif (
        pa.types.is_binary(t) or pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t)
    ):
        # binary payloads profile by byte length (the string-length rule)
        vals = np.asarray(pc.cast(pc.binary_length(arr), pa.float64())).astype(np.float64)
    else:
        try:
            vals = np.asarray(pc.cast(arr, pa.float64())).astype(np.float64)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            # nested / opaque types have no numeric projection: profile
            # null structure + distinct hashes only (round-5 review — a
            # list/struct column used to abort the whole fused scan); they
            # feed no values to the moments, extrema or KLL
            return None, valid, None
    vals = np.where(valid, vals, np.nan)
    return vals, valid, strings


def make_stats_partial_fn(
    columns: list[str],
    partition_by: list[str] | None = None,
    hll_p: int = 12,
    kll_k: int = 256,
    hist_edges: dict[str, np.ndarray] | None = None,
):
    """Build the map_batches partial function (stateless; cheap closures)."""
    hist_edges = hist_edges or {}

    def partials(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if partition_by:
            keys = partition_key_array(batch, partition_by)
            uniq, inv = np.unique(keys, return_inverse=True)
        else:
            uniq, inv = np.array([""], dtype=object), np.zeros(n, dtype=np.int64)

        out: dict[str, list] = {f.name: [] for f in PARTIAL_SCHEMA}
        for c in columns:
            col = batch[c]
            vals, valid, strings = _numeric_view(col)
            # hash the whole column ONCE (vectorized; strings via polars
            # xxhash), then slice per group — never per-row Python hashing
            col_hashes = hash64_arrow(col)
            dtype = str(col.type)
            for g, part in enumerate(uniq):
                m = inv == g
                gvalid = valid[m]
                gclean = vals[m][gvalid] if vals is not None else np.empty(0)
                ghashes = col_hashes[m][gvalid]
                cnt, nulls = int(m.sum()), int((~gvalid).sum())
                if gclean.size:
                    nmean = float(gclean.mean())
                    m2 = float(((gclean - nmean) ** 2).sum())
                    vmin, vmax = float(gclean.min()), float(gclean.max())
                else:
                    nmean = m2 = 0.0
                    vmin, vmax = np.nan, np.nan
                if strings is not None:
                    gs = strings[m][gvalid]
                    smin = str(gs.min()) if gs.size else None
                    smax = str(gs.max()) if gs.size else None
                else:
                    smin = smax = None
                hll = HyperLogLog(hll_p).update_hashed(ghashes)
                kll = KLL(kll_k).update(gclean)
                hist = None
                if c in hist_edges:
                    hist = FixedHistogram(hist_edges[c]).update(gclean).to_bytes()
                out["part"].append(str(part))
                out["column"].append(c)
                out["dtype"].append(dtype)
                out["count"].append(cnt)
                out["nulls"].append(nulls)
                out["nmean"].append(nmean)
                out["m2"].append(m2)
                out["vmin"].append(vmin)
                out["vmax"].append(vmax)
                out["smin"].append(smin)
                out["smax"].append(smax)
                out["hll"].append(hll.to_bytes())
                out["kll"].append(kll.to_bytes())
                out["hist"].append(hist)
        return pa.Table.from_pydict(out, schema=PARTIAL_SCHEMA)

    return partials


def _combine_partial_group(g: pd.DataFrame) -> dict:
    """Vectorized n-ary combine of all PARTIAL rows of one (part, column)
    group: grouped numpy reductions for counts/moments/extrema, one
    register-matrix max for HLL, one concat-and-compress for KLL. The
    driver folds (blocks × groups) partial rows — tens of thousands —
    and the per-row pairwise path (deserialize, merge, loop) took ~4×
    the wall time of the entire distributed scan it was merging."""
    counts = g["count"].to_numpy(dtype=np.int64)
    nulls = g["nulls"].to_numpy(dtype=np.int64)
    klls = [KLL.from_bytes(b) for b in g["kll"]]
    # each partial's KLL holds exactly the values its moments saw — not
    # count - nulls: a nested column's valid values feed none
    nb = np.array([k.n for k in klls], dtype=np.float64)
    seen = float(nb.sum())
    if seen:
        means = g["nmean"].to_numpy(dtype=np.float64)
        # one-shot Chan combination: algebraically identical to the
        # iterated pairwise form, one vector pass
        mean = float((means * nb).sum() / seen)
        m2 = float(g["m2"].to_numpy(dtype=np.float64).sum() + (nb * (means - mean) ** 2).sum())
        vmin = float(np.nanmin(g["vmin"].to_numpy(dtype=np.float64)))
        vmax = float(np.nanmax(g["vmax"].to_numpy(dtype=np.float64)))
    else:
        mean = m2 = 0.0
        vmin = vmax = np.nan
    smins = g["smin"].dropna()
    smaxs = g["smax"].dropna()
    hll = HyperLogLog.merge_many_bytes([b for b in g["hll"] if b is not None])
    kll = KLL.merge_many(klls)
    hist = None
    hist_blobs = [b for b in g["hist"] if b is not None]
    if hist_blobs:
        hist = FixedHistogram.merge_many_bytes(hist_blobs)
    return {
        "dtype": g["dtype"].iloc[0],
        "count": int(counts.sum()),
        "nulls": int(nulls.sum()),
        "mean": mean,
        "m2": m2,
        "seen": int(seen),
        "vmin": vmin,
        "vmax": vmax,
        "smin": smins.min() if len(smins) else None,
        "smax": smaxs.max() if len(smaxs) else None,
        "hll": hll,
        "kll": kll,
        "hist": hist,
    }


def merge_partial_rows(tb: pa.Table) -> pa.Table:
    """Combine partial rows within one block: one PARTIAL row per
    (part, column) present — the intermediate level of the tree reduce.
    Keeps the PARTIAL_SCHEMA so merges stay associative."""
    if tb.num_rows == 0:
        return tb
    df = tb.to_pandas()
    out: dict[str, list] = {f.name: [] for f in PARTIAL_SCHEMA}
    for (part, col), g in df.groupby(["part", "column"], sort=False):
        c = _combine_partial_group(g)
        out["part"].append(part)
        out["column"].append(col)
        out["dtype"].append(c["dtype"])
        out["count"].append(c["count"])
        out["nulls"].append(c["nulls"])
        out["nmean"].append(c["mean"])
        out["m2"].append(c["m2"])
        out["vmin"].append(c["vmin"])
        out["vmax"].append(c["vmax"])
        out["smin"].append(c["smin"])
        out["smax"].append(c["smax"])
        out["hll"].append(c["hll"].to_bytes())
        out["kll"].append(c["kll"].to_bytes())
        out["hist"].append(c["hist"].to_bytes() if c["hist"] else None)
    return pa.Table.from_pydict(out, schema=PARTIAL_SCHEMA)


def column_stats(
    ds,
    columns: list[str] | None = None,
    partition_by: list[str] | None = None,
    hll_p: int = 12,
    kll_k: int = 256,
    hist_edges: dict[str, np.ndarray] | None = None,
    batch_size: int | None = 8192,
):
    """Full stats suite as a Dataset → Dataset of one row per (part, column).

    The input dataset streams once; NO keyed shuffle anywhere. Per-block
    partial rows (one per (partition, column) per block — kilobytes)
    stream back to the driver via ``iter_batches`` and merge into a
    constant-memory :class:`StatsAccumulator` per group. The merge is
    associative, so arrival order is irrelevant.
    """
    from .. import tune_shuffle_to_cluster

    tune_shuffle_to_cluster()
    if columns is None:
        columns = [f.name for f in ds.schema().base_schema]
    need = list(dict.fromkeys(columns + (partition_by or [])))
    from ..functions.shuffle import select_if_needed

    # prune before the scan fans out (M6 analog); skipped when the read is
    # already pruned — a no-op Project would break read->map fusion
    ds = select_if_needed(ds, need)
    partials = ds.map_batches(
        make_stats_partial_fn(columns, partition_by, hll_p, kll_k, hist_edges),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    # worker-side combine: each task's partial block (one row per
    # (partition, column) per INPUT batch) collapses to one row per group
    # BEFORE streaming to the driver — the sketch deserialization cost
    # moves into the parallel phase and the driver merge shrinks ~20×
    partials = partials.map_batches(
        merge_partial_rows, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )

    import ray.data as rd

    out = merge_partials_to_stats(
        partials.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return rd.from_pandas(out) if len(out) else rd.from_items([])


def merge_partials_to_stats(partial_tables) -> pd.DataFrame:
    """Associatively merge PARTIAL_SCHEMA tables (any order, any grouping)
    into the final one-row-per-(part, column) stats frame.

    Vectorized: ONE concat + pandas groupby, then the n-ary group combine
    (:func:`_combine_partial_group`). The previous per-row accumulator
    deserialized and pairwise-merged each sketch individually — measured
    13 s for 72k partial rows on the driver vs 3.6 s for the whole
    distributed scan; this path does the same merge in ~0.5 s."""
    stat_cols = [
        "part", "column", "dtype", "count", "nulls", "null_rate", "distinct_est",
        "vmin", "vmax", "mean", "std", "p50", "p95", "p99", "smin", "smax",
        "hll", "kll", "hist",
    ]
    tabs = [tb for tb in partial_tables if tb.num_rows]
    if not tabs:
        # schema-complete empty frame: an EMPTY corpus (or all-empty
        # shards) must flow through verdict assembly, not KeyError
        return pd.DataFrame(columns=stat_cols)
    df = pa.concat_tables([t.cast(PARTIAL_SCHEMA) for t in tabs]).to_pandas()
    rows = []
    for (part, col), g in df.groupby(["part", "column"], sort=True):
        c = _combine_partial_group(g)
        n_valid = c["seen"]
        std = float(np.sqrt(c["m2"] / (n_valid - 1))) if n_valid > 1 else 0.0
        kll = c["kll"]
        rows.append(
            {
                "part": part,
                "column": col,
                "dtype": c["dtype"],
                "count": c["count"],
                "nulls": c["nulls"],
                "null_rate": c["nulls"] / c["count"] if c["count"] else 0.0,
                "distinct_est": c["hll"].estimate(),
                "vmin": c["vmin"] if n_valid else np.nan,
                "vmax": c["vmax"] if n_valid else np.nan,
                "mean": float(c["mean"]) if n_valid else np.nan,
                # no values (all null, or a nested column): no spread either
                "std": std if n_valid else np.nan,
                "p50": kll.quantile(0.5),
                "p95": kll.quantile(0.95),
                "p99": kll.quantile(0.99),
                "smin": c["smin"],
                "smax": c["smax"],
                "hll": c["hll"].to_bytes(),
                "kll": kll.to_bytes(),
                "hist": c["hist"].to_bytes() if c["hist"] else None,
            }
        )
    return pd.DataFrame(rows)


def categorical_profile(
    ds,
    column: str,
    partition_by: list[str] | None = None,
    batch_size: int | None = 65536,
) -> pd.DataFrame:
    """Per-partition categorical profile: exact mode (ties break to the
    smallest value), its count, the distinct-value count and the Shannon
    entropy (natural log) of the value distribution.

    Reference analog: the distinct-template frequency table preprocessing
    builds before feature extraction (`models/preprocessing.py:7`) — this
    is its "how skewed is this categorical column" summary.

    Plan: ONE distributed exact count pass (``key_counts``: map-side
    combiner, then a hash shuffle of tiny (keys, cnt) partials — one row
    per distinct (partition, value) GLOBALLY), then an associative
    per-block fold of those distinct rows. Entropy decomposes as
    ``H = ln(T) - (sum c*ln c) / T`` with ``T = sum c``, so the fold only
    carries ``(sum c, sum c*ln c, n_distinct, argmax-by-(cnt, -value))``
    partials; the driver merges one candidate row per (partition, block),
    never a value distribution. The block-local mode candidate is exact
    because count rows are globally distinct: the global winner's count
    equals its block's max, so it always survives the block fold.

    NULL values of ``column`` are dropped (SQL ``WHERE col IS NOT NULL``
    convention); NULL partition keys are kept as their own group.
    """
    import polars as pl

    from ..functions.shuffle import select_if_needed
    from .uniqueness import key_counts

    keys = list(partition_by or [])
    need = keys + [column]
    base = select_if_needed(ds, need).map_batches(
        lambda tb: tb.filter(pc.is_valid(tb.column(column))),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    counts = key_counts(base, need, batch_size=batch_size)

    g = keys or ["__g__"]

    def partial(tb: pa.Table) -> pa.Table:
        df = pl.from_arrow(tb)
        if not keys:
            df = df.with_columns(pl.lit(0).alias("__g__"))
        cf = pl.col("cnt").cast(pl.Float64)
        out = df.group_by(g).agg(
            pl.col("cnt").sum().alias("_tot"),
            (cf * cf.log()).sum().alias("_clnc"),
            pl.len().cast(pl.Int64).alias("_ndist"),
            pl.col("cnt").max().alias("_mcnt"),
            pl.col(column).filter(pl.col("cnt") == pl.col("cnt").max()).min().alias("_mval"),
        )
        return out.to_arrow()

    blocks = [
        tb
        for tb in counts.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if tb.num_rows
    ]
    cols = keys + ["mode", "mode_count", "n_distinct", "entropy"]
    if not blocks:
        return pd.DataFrame(columns=cols)
    merged = pl.from_arrow(pa.concat_tables(blocks, promote_options="default"))
    fin = merged.group_by(g).agg(
        pl.col("_tot").sum().alias("_tot"),
        pl.col("_clnc").sum().alias("_clnc"),
        pl.col("_ndist").sum().alias("n_distinct"),
        pl.col("_mcnt").max().alias("mode_count"),
        pl.col("_mval").filter(pl.col("_mcnt") == pl.col("_mcnt").max()).min().alias("mode"),
    )
    fin = fin.with_columns(
        pl.when(pl.col("_tot") > 0)
        .then(pl.col("_tot").cast(pl.Float64).log() - pl.col("_clnc") / pl.col("_tot"))
        .otherwise(None)
        .alias("entropy")
    )
    if keys:
        return fin.sort(g).select(cols).to_pandas()
    return fin.select(["mode", "mode_count", "n_distinct", "entropy"]).to_pandas()


def mutual_information(ds, col_a: str, col_b: str, batch_size: int | None = 65536) -> dict:
    """Exact mutual information between two categorical columns, plus the
    marginal and joint Shannon entropies (natural log) — the
    "is this metadata column informative about that one" dependence
    check (e.g. does ``source`` predict ``lang``; a cross-column sibling
    of :func:`categorical_profile`).

    Fully decomposed into streaming sums — NO join anywhere:

        H(X)  = ln N - Σ_a c_a ln c_a / N        (marginal counts)
        H(XY) = ln N - Σ_ab c_ab ln c_ab / N     (joint counts)
        MI    = H(X) + H(Y) - H(XY)

    so the plan is ONE distributed joint count (``key_counts`` — the only
    exchange; one row per distinct (a, b) pair globally), two
    ``grouped_sum`` reductions of that joint to the marginals, and three
    streaming ``Σ c ln c`` scalar aggregates. Nothing corpus-sized or
    distinct-pair-sized ever reaches the driver. Rows where either
    column is null are dropped (SQL GROUP BY + join-free convention).

    Returns ``{"n", "h_a", "h_b", "h_ab", "mi", "nmi"}`` with ``nmi`` =
    MI / max(H(X), H(Y)) (0 when both entropies are 0).
    """
    from ray.data.aggregate import Sum

    from ..functions.shuffle import grouped_sum, select_if_needed
    from .uniqueness import key_counts

    base = select_if_needed(ds, [col_a, col_b]).map_batches(
        lambda tb: tb.filter(
            pc.and_(pc.is_valid(tb[col_a]), pc.is_valid(tb[col_b]))
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    joint = key_counts(base, [col_a, col_b], batch_size=batch_size)

    def clnc_sums(cnt_col):
        def partial(tb: pa.Table) -> pa.Table:
            c = tb[cnt_col].to_numpy(zero_copy_only=False).astype(np.float64)
            return pa.table(
                {"clnc": [float((c * np.log(c)).sum())], "ctot": [float(c.sum())]}
            )

        return partial

    def reduce_clnc(count_ds, cnt_col):
        agg = count_ds.map_batches(
            clnc_sums(cnt_col), batch_format="pyarrow", batch_size=None
        ).aggregate(Sum("clnc", alias_name="clnc"), Sum("ctot", alias_name="ctot"))
        return float(agg["clnc"] or 0.0), float(agg["ctot"] or 0.0)

    jln, n = reduce_clnc(joint, "cnt")
    aln, _ = reduce_clnc(grouped_sum(joint, [col_a], "cnt", "ca"), "ca")
    bln, _ = reduce_clnc(grouped_sum(joint, [col_b], "cnt", "cb"), "cb")

    if n <= 0:
        return {"n": 0, "h_a": 0.0, "h_b": 0.0, "h_ab": 0.0, "mi": 0.0, "nmi": 0.0}
    ln_n = float(np.log(n))
    h_a = ln_n - aln / n
    h_b = ln_n - bln / n
    h_ab = ln_n - jln / n
    mi = h_a + h_b - h_ab
    denom = max(h_a, h_b)
    return {
        "n": int(n),
        "h_a": h_a,
        "h_b": h_b,
        "h_ab": h_ab,
        "mi": mi,
        "nmi": mi / denom if denom > 0 else 0.0,
    }
