"""Stratified dataset splitting (P5, ``models/feature_extraction.py:
84-97`` analog).

The reference chains two sklearn ``train_test_split(stratify=label)``
calls on a collected DataFrame — a driver-side operation. The engine's
version is a DETERMINISTIC HASH split that never collects: each row's
64-bit key hash (seeded per split-run) maps to [0, 1), and the row
belongs to split j iff the hash falls in that split's cumulative
fraction interval. Stratification comes for free from hash uniformity
WITHIN each label stratum (the hash is independent of the label), so
per-label proportions match the requested fractions to sampling noise —
asserted in tests — while the assignment is reproducible at any
parallelism, block order, or cluster size (unlike ``random_sample``'s
per-block RNG) and each split is a streaming filter, never a
materialization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _hash_unit(batch: pa.Table, on: str, seed: int) -> np.ndarray:
    """Per-row hash of ``on`` mapped to [0, 1)."""
    import polars as pl

    col = batch[on]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    h = pl.from_arrow(pa.table({"k": col}))["k"].hash(seed=seed).to_numpy()
    return h / 2.0**64


def md5_unit_hash(batch: pa.Table, on: str, seed: int = 0) -> np.ndarray:
    """SQL-REPRODUCIBLE unit hash: ``(md5_number_lower(CAST(key AS
    VARCHAR)) % 100000) / 100000`` — DuckDB parity, so a split/sample
    built on it can be oracle-checked exactly (same convention as the
    ``dedup_simhash_md5_docs`` variant). Both engines compute the same
    integer modulo then the same double division, so boundary rows land
    identically. hashlib stays per distinct key value (the id column is
    typically unique, but values are short); the fast default path
    remains the vectorized xxhash ``_hash_unit``. ``seed`` is ignored —
    md5 parity has no seed; vary the modulus window upstream if
    independent splits are needed."""
    from ..sketches.simhash import _md5_token_hash

    del seed
    col = batch[on]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_pylist()
    # null keys hash to NaN, not str(None)=="None": in DuckDB
    # md5_number_lower(CAST(NULL AS VARCHAR)) is NULL, so null-key rows
    # satisfy no split interval and rank NULLS LAST — NaN reproduces both
    h = np.fromiter((_md5_token_hash(str(v)) if v is not None else 0 for v in vals),
                    dtype=np.uint64, count=len(vals))
    u = (h % np.uint64(100000)).astype(np.float64) / 100000.0
    if col.null_count:
        u[np.array([v is None for v in vals])] = np.nan
    return u


def md5_order_hash(batch: pa.Table, on: str, seed: int = 0) -> np.ndarray:
    """SQL-reproducible ORDERING hash: the raw 64-bit
    ``md5_number_lower(CAST(key AS VARCHAR))`` value (uint64, no modulus
    — :func:`md5_unit_hash`'s 100k-bucket unit is fine for split
    membership but collides constantly under ORDER BY). A sample ranked
    on it matches DuckDB ``ORDER BY md5_number_lower(...)`` exactly.
    Null keys rank LAST (uint64 max — DuckDB's default NULLS LAST).
    ``seed`` is ignored (md5 parity has no seed)."""
    from ..sketches.simhash import _md5_token_hash

    del seed
    col = batch[on]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_pylist()
    return np.fromiter(
        (_md5_token_hash(str(v)) if v is not None else np.iinfo(np.uint64).max for v in vals),
        dtype=np.uint64, count=len(vals),
    )


def grouped_fixed_count_sample(ds, key: str, on: str, n: int, unit_fn=None):
    """Deterministic PER-GROUP fixed-count without-replacement sample:
    for every distinct ``key`` value, the ``n`` rows with the smallest
    unit hash of ``on`` (the grouped sibling of
    :func:`fixed_count_sample` — e.g. "20 documents per language" for a
    stratified eval set).

    Returns a lazy Dataset (group count is unbounded — unlike the global
    sample, the result is NOT small by contract and never touches the
    driver). Distributed shape: a per-block combiner keeps each group's
    n smallest-hash rows (≤ n rows per group per block enter the
    shuffle), ONE range-partition shuffle co-locates each group, and the
    same kernel picks the exact per-group sample. Identical members at
    any parallelism or block layout; hash ties break on a second hash
    then the ``on`` value itself, so the selected set is a total-order
    cut (with ``unit_fn=md5_order_hash`` it equals SQL
    ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY md5_number_lower(on),
    on) <= n``)."""
    import polars as pl

    from .shuffle import local_group_map

    if n <= 0:
        raise ValueError("n must be positive")
    fn = unit_fn or _hash_unit
    out_names = [f.name for f in ds.schema().base_schema]

    def topn(tb: pa.Table, keep_hash: bool) -> pa.Table:
        if "__u" not in tb.column_names:
            # compute on empty tables too: the hash dtype (uint64 md5 vs
            # float64 xxhash-unit) must agree across blocks for the union
            u = fn(tb, on, 42)
            u2 = fn(tb, on, 43)
            tb = tb.append_column("__u", pa.array(u)).append_column("__u2", pa.array(u2))
        if tb.num_rows:
            tb = (
                pl.from_arrow(tb)
                .sort([key, "__u", "__u2", on])
                .group_by(key, maintain_order=True)
                .head(n)
                .select(tb.column_names)  # group_by.head moves the key first
                .to_arrow()
                .cast(tb.schema)
            )
        return tb if keep_hash else tb.drop_columns(["__u", "__u2"])

    partial = ds.map_batches(
        lambda tb: topn(tb, keep_hash=True),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
    out = local_group_map(partial, [key], lambda tb: topn(tb, keep_hash=False))
    return out.map_batches(
        lambda tb: tb.select(out_names),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )


def split_fractions_filter(ds, on: str, lo: float, hi: float, seed: int = 42, unit_fn=None):
    """Rows whose unit hash of ``on`` falls in [lo, hi) — one split.
    ``unit_fn(batch, on, seed) -> float64[0,1)`` swaps the hash (e.g.
    :func:`md5_unit_hash` for SQL-oracle parity)."""
    fn = unit_fn or _hash_unit

    def keep(batch: pa.Table) -> pa.Table:
        u = fn(batch, on, seed)
        return batch.filter(pa.array((u >= lo) & (u < hi)))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def stratified_split(ds, on: str, fractions: list[float], seed: int = 42, unit_fn=None):
    """Split ``ds`` into ``len(fractions)`` disjoint, exhaustive datasets
    by deterministic key hash; proportions hold within every label
    stratum. Fractions must sum to 1. Each split is lazy (a filter over
    the input) — consuming all splits scans the input once per split,
    the streaming-correct trade against materializing N copies."""
    f = np.asarray(fractions, dtype=np.float64)
    if f.min() < 0 or abs(f.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    cum = np.concatenate([[0.0], np.cumsum(f)])
    cum[-1] = 1.0 + 1e-12  # hash == max stays in the last split
    return [
        split_fractions_filter(ds, on, cum[i], cum[i + 1], seed, unit_fn=unit_fn)
        for i in range(len(f))
    ]


def fixed_count_sample(ds, on: str, n: int, seed: int = 42, unit_fn=None):
    """Deterministic fixed-COUNT without-replacement sample: the n rows
    with the smallest unit hash of ``on`` (P6, the reference's viz
    subsample ``np.random.choice(N, min(2000, N), replace=False)`` at
    ``models/SimCLR_utils.py:170``, made reproducible and distributed).

    Per-block partial top-n by hash is the combiner — each block emits at
    most n candidate ROWS, so the driver merge sees ≤ n x blocks rows no
    matter the corpus size — then one final top-n picks the global
    sample. Unlike ``ds.random_sample`` (per-block RNG, rate-based, count
    varies), the result is exact-count and identical at any parallelism
    or block layout (asserted in tests). Hash ties break on the unit
    value, so duplicate ``on`` values cannot make the cut nondeterministic
    across layouts. Returns a pyarrow Table (a viz sample is small by
    definition); compose upstream filters lazily before calling."""
    if n <= 0:
        return None
    hash_fn = unit_fn or _hash_unit

    # ties (possible only among EQUAL key values — a 64-bit hash collision
    # between distinct keys is negligible) break on a second independent
    # hash, never the raw key: object comparisons crash on None/str mixes,
    # and equal keys are interchangeable by the sampling contract, so the
    # selected KEY multiset is deterministic at any layout (the usual
    # `on` = unique row id makes the full rows deterministic too).
    # the md5 family ignores its seed, so "same fn, seed+1" would give
    # u2 == u and ties would fall back to block layout; the full-width
    # md5_order_hash is the SQL-reproducible tie-break for those
    # (equivalent to ORDER BY md5 % 100000, md5). It stays uint64 end to
    # end: a float64 cast would collapse order hashes differing only in
    # the low ~11 bits (53-bit mantissa) and silently fall back to block
    # layout on those ties (ADVICE round 4).
    md5_tie = hash_fn in (md5_unit_hash, md5_unit_hash_open)
    tie_type = pa.uint64() if md5_tie else pa.float64()

    def tie_fn(batch: pa.Table) -> np.ndarray:
        if md5_tie:
            return md5_order_hash(batch, on, seed)
        return hash_fn(batch, on, seed + 1)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("__u", pa.array([], type=pa.float64())).append_column(
                "__u2", pa.array([], type=tie_type)
            )
        u = hash_fn(batch, on, seed)
        u2 = tie_fn(batch)
        t = batch.append_column("__u", pa.array(u, type=pa.float64())).append_column(
            "__u2", pa.array(u2, type=tie_type)
        )
        if t.num_rows <= n:
            return t
        return t.take(np.lexsort((u2, u))[:n])

    cands = pa.concat_tables(
        [
            t
            for t in ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
            .iter_batches(batch_format="pyarrow", batch_size=None)
            if t.num_rows
        ]
        or [partial(pa.Table.from_pydict({on: []}))],
        promote_options="default",
    )
    if cands.num_rows > n:
        order = np.lexsort(
            (cands["__u2"].to_numpy(zero_copy_only=False), cands["__u"].to_numpy(zero_copy_only=False))
        )[:n]
        cands = cands.take(order)
    return cands.drop_columns(["__u", "__u2"]).sort_by([(on, "ascending")])


def md5_unit_hash_open(batch: pa.Table, on: str, seed: int = 0) -> np.ndarray:
    """SQL-reproducible unit hash on (0, 1]:
    ``(md5_number_lower(CAST(key AS VARCHAR)) % 100000 + 1) / 100001.0``.
    Both engines compute the same exact integer, then the same single
    double division, so values match bit-for-bit — and u can never be 0,
    which makes it safe under ``ln`` (the weighted-sampling key)."""
    from ..sketches.simhash import _md5_token_hash

    del seed
    col = batch[on]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_pylist()
    h = np.fromiter((_md5_token_hash(str(v)) if v is not None else 0 for v in vals),
                    dtype=np.uint64, count=len(vals))
    u = ((h % np.uint64(100000)).astype(np.float64) + 1.0) / 100001.0
    if col.null_count:
        u[np.array([v is None for v in vals])] = np.nan  # NULL semantics
    return u


def weighted_fixed_count_sample(
    ds,
    on: str,
    weight_col: str,
    n: int,
    seed: int = 42,
    unit_fn=None,
    order_fn=None,
):
    """Deterministic WEIGHTED without-replacement sample of exactly n rows
    (Efraimidis & Spirakis 2006): keep the n rows with the smallest
    ``key = -ln(u) / w`` where u is a per-row unit hash of ``on`` in
    (0, 1] and w the row's weight — inclusion probability is
    proportional-to-weight without replacement, the token-budget-aware
    sampling a training-data pipeline wants (sample documents by length,
    clusters by size, ...).

    Same scale shape as :func:`fixed_count_sample`: the per-block partial
    top-n is the combiner (each block emits at most n rows), the driver
    merge sees ≤ n × blocks candidate rows, and the result is identical
    at any parallelism or block layout. Ties on the float key break on a
    raw 64-bit order hash of ``on`` — SQL-expressible for the md5
    variant, so with ``unit_fn=md5_unit_hash_open`` /
    ``order_fn=md5_order_hash`` the selected rows match DuckDB's

        ROW_NUMBER() OVER (ORDER BY
          -LN((md5_number_lower(CAST(on AS VARCHAR)) % 100000 + 1)
              / 100001.0) / w,
          md5_number_lower(CAST(on AS VARCHAR))) <= n

    row-exactly. Rows with null ``on``, null weight or weight <= 0 are
    dropped up front (they have no defined inclusion probability).
    """
    import pyarrow.compute as pc

    if n <= 0:
        return None

    def units(batch: pa.Table) -> np.ndarray:
        if unit_fn is not None:
            return unit_fn(batch, on, seed)
        # fast default: xxhash unit flipped onto (0, 1]
        return 1.0 - _hash_unit(batch, on, seed)

    def orders(batch: pa.Table) -> np.ndarray:
        if order_fn is not None:
            return order_fn(batch, on, seed)
        import polars as pl

        col = batch[on]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pl.from_arrow(pa.table({"k": col}))["k"].hash(seed=seed + 1).to_numpy()

    def partial(batch: pa.Table) -> pa.Table:
        w = pc.cast(batch[weight_col], pa.float64())
        keep = pc.and_kleene(pc.is_valid(batch[on]), pc.greater(w, 0.0))
        batch = batch.filter(pc.coalesce(keep, False))
        if batch.num_rows == 0:
            return batch.append_column("__k", pa.array([], type=pa.float64())).append_column(
                "__t", pa.array([], type=pa.uint64())
            )
        w = pc.cast(batch[weight_col], pa.float64()).to_numpy(zero_copy_only=False)
        key = -np.log(units(batch)) / w
        tie = orders(batch).astype(np.uint64)
        t = batch.append_column("__k", pa.array(key, type=pa.float64())).append_column(
            "__t", pa.array(tie, type=pa.uint64())
        )
        if t.num_rows <= n:
            return t
        return t.take(np.lexsort((tie, key))[:n])

    cands = pa.concat_tables(
        [
            t
            for t in ds.map_batches(
                partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ).iter_batches(batch_format="pyarrow", batch_size=None)
            if t.num_rows
        ]
        or [partial(pa.Table.from_pydict({on: [], weight_col: []}))],
        promote_options="default",
    )
    if cands.num_rows > n:
        order = np.lexsort(
            (cands["__t"].to_numpy(zero_copy_only=False), cands["__k"].to_numpy(zero_copy_only=False))
        )[:n]
        cands = cands.take(order)
    return cands.drop_columns(["__k", "__t"]).sort_by([(on, "ascending")])


# ---------------------------------------------------------------------------
# Domain-mixture rebalancing (training-data mixture control)
# ---------------------------------------------------------------------------


def largest_remainder_allocation(avail: dict, target: dict, total_n: int) -> dict:
    """Integer per-group quotas for ``total_n`` rows matching ``target``
    proportions as closely as integers allow (Hamilton's largest-
    remainder method, deterministic tie-break on the group key's repr),
    capped at each group's available row count. Capacity lost to capped
    groups is re-allocated among groups with spare rows — water-filling,
    at most ``len(target)`` rounds — so the sample reaches ``total_n``
    whenever Σ avail over target groups allows it."""
    if total_n < 0:
        raise ValueError("total_n must be >= 0")
    weights = {k: float(v) for k, v in target.items() if float(v) > 0}
    if not weights:
        raise ValueError("target mixture needs at least one positive proportion")
    if any(float(v) < 0 for v in target.values()):
        raise ValueError("target proportions must be >= 0")

    def apportion(groups: dict, n: int) -> dict:
        tot = sum(groups.values())
        ideal = {k: n * w / tot for k, w in groups.items()}
        base = {k: int(np.floor(v)) for k, v in ideal.items()}
        left = n - sum(base.values())
        order = sorted(groups, key=lambda k: (-(ideal[k] - base[k]), repr(k)))
        for k in order[:left]:
            base[k] += 1
        return base

    alloc = {k: 0 for k in weights}
    remaining, active = total_n, dict(weights)
    for _ in range(len(weights)):
        if remaining <= 0 or not active:
            break
        step = apportion(active, remaining)
        capped = {}
        for k, q in step.items():
            room = int(avail.get(k, 0)) - alloc[k]
            take = min(q, room)
            alloc[k] += take
            if take < q:
                capped[k] = True
        remaining = total_n - sum(alloc.values())
        active = {k: w for k, w in active.items() if k not in capped and alloc[k] < int(avail.get(k, 0))}
    return alloc


def grouped_quota_sample(ds, key: str, on: str, quotas: dict, unit_fn=None):
    """Deterministic per-group sample with a DIFFERENT quota per group —
    the variable-n sibling of :func:`grouped_fixed_count_sample` (same
    total-order hash cut, same combiner → one co-locating exchange →
    exact per-group head; identical members at any block layout). The
    quota table is group-count-sized (mixture keys are domains/languages
    — small by contract) and ships inside the map closure. Rows whose
    group is absent from ``quotas`` (or quota 0), or whose ``key``/``on``
    is null, are dropped."""
    import polars as pl

    from .shuffle import local_group_map

    if any(int(v) < 0 for v in quotas.values()):
        raise ValueError("quotas must be >= 0")
    fn = unit_fn or _hash_unit
    out_names = [f.name for f in ds.schema().base_schema]
    keys_l, qs_l = list(quotas.keys()), [int(v) for v in quotas.values()]

    def topq(tb: pa.Table, keep_hash: bool) -> pa.Table:
        if "__u" not in tb.column_names:
            u = fn(tb, on, 42)
            u2 = fn(tb, on, 43)
            tb = tb.append_column("__u", pa.array(u)).append_column("__u2", pa.array(u2))
        if tb.num_rows:
            kt = tb.schema.field(key).type
            qf = pl.from_arrow(
                pa.table({key: pa.array(keys_l, type=kt), "__q": pa.array(qs_l, type=pa.int64())})
            )
            tb = (
                pl.from_arrow(tb)
                .drop_nulls([key, on])
                .join(qf, on=key, how="inner")
                .sort([key, "__u", "__u2", on])
                .with_columns(__r=pl.int_range(pl.len()).over(key))
                .filter(pl.col("__r") < pl.col("__q"))
                .select(tb.column_names)
                .to_arrow()
                .cast(tb.schema)
            )
        return tb if keep_hash else tb.drop_columns(["__u", "__u2"])

    partial = ds.map_batches(
        lambda tb: topq(tb, keep_hash=True),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
    out = local_group_map(partial, [key], lambda tb: topq(tb, keep_hash=False))
    return out.map_batches(
        lambda tb: tb.select(out_names),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )


def rebalance_mixture(
    ds,
    key: str,
    on: str,
    target: dict,
    total_n: int,
    unit_fn=None,
):
    """Resample a corpus to a TARGET DOMAIN MIXTURE: pick ``total_n``
    rows whose per-``key`` (language/domain/source) composition matches
    ``target`` proportions as closely as availability allows — the
    mixture-control step of LLM pretraining data assembly (the knob
    DoReMi / Pile-style recipes tune; here the deterministic
    without-replacement version).

    Plan: ONE small grouped count (per-block combiner, group-count-sized
    result — mixture keys are low-cardinality by contract), a driver-side
    largest-remainder quota allocation capped at availability (with
    water-filling redistribution of capped surplus), then ONE
    :func:`grouped_quota_sample` pass — corpus rows cross the exchange
    at most once, nothing corpus-sized touches the driver. Returns
    ``(dataset, quotas_dict)`` so callers can audit the realized
    allocation."""
    from ..checks.uniqueness import key_counts

    count_parts = [
        t
        for t in key_counts(ds, [key]).iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if count_parts:
        counts_tb = pa.concat_tables(count_parts)
        avail = dict(zip(counts_tb[key].to_pylist(), counts_tb["cnt"].to_pylist()))
        avail.pop(None, None)
    else:  # empty corpus: every quota caps at zero availability
        avail = {}
    alloc = largest_remainder_allocation(avail, target, total_n)
    return grouped_quota_sample(ds, key, on, alloc, unit_fn=unit_fn), alloc
