"""Uniqueness / duplicate-key checks — hash-shuffle groupby with a map-side
combiner and optional key salting for hot groups.

The from-scratch dual of the reference's frequency count
(``value_counts()`` at ``models/preprocessing.py:7``; SURVEY.md §2.7): keys
appearing more than once violate the primary-key constraint
(north rule: uniqueness on ``(repo, path, commit)``).

Scale design: the per-batch combiner collapses each block to one row per
distinct key in that block BEFORE the shuffle, so the all-to-all moves
(distinct keys per block) rows, not data rows. For skewed key prefixes the
salted variant appends ``hash(key) % n_salt`` to the shuffle key, merging
unsalted afterwards — two small shuffles instead of one hot one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _key_combiner(keys: list[str]):
    """map_batches fn: one (key-cols..., cnt_partial) row per distinct key per block."""

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.select(keys).group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + ["cnt_partial"])

    return combine


def key_counts(ds, keys: list[str], batch_size: int | None = 65536):
    """Exact per-key counts: map-side combiner → hash-shuffle of the
    (keys, cnt_partial) partials → per-block local sum.

    High-cardinality safe: the final reduce is one vectorized kernel per
    block (functions/shuffle.py), not per-group Python state — measured
    ~10× faster than ``groupby().aggregate()`` at 300k distinct keys."""
    from ..functions.shuffle import grouped_sum, select_if_needed

    partials = select_if_needed(ds, keys).map_batches(
        _key_combiner(keys), batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True
    )
    return grouped_sum(partials, keys, "cnt_partial", "cnt")


_HASH_PAIR_SCHEMA = pa.schema([("h", pa.int64()), ("cnt_partial", pa.int64())])
_DUP_HASH_SCHEMA = pa.schema([("h", pa.int64()), ("cnt", pa.int64())])


def hash_key_rows(batch: pa.Table, keys: list[str], seed: int = 0) -> np.ndarray:
    """Vectorized 64-bit row hash of the key columns (polars xxhash)."""
    import polars as pl

    return pl.from_arrow(batch.select(keys)).hash_rows(seed=seed).to_numpy().view(np.int64)


def sorted_isin(sorted_vals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bool mask: which ``values`` occur in the ascending ``sorted_vals``.

    One vectorized searchsorted — the probe every broadcast membership
    check (dup-hash sets, dimension keys) runs per batch. ``values`` must
    hold no nulls: extract them with ``drop_null`` first, because
    ``np.asarray`` on a null-bearing int64 column widens it to float64 and
    keys above 2**53 then compare equal to their neighbours."""
    if len(sorted_vals) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.clip(np.searchsorted(sorted_vals, values), 0, len(sorted_vals) - 1)
    return sorted_vals[idx] == values


def _hash_combine_fn(keys: list[str], seed: int = 0):
    """map_batches fn: one (h, cnt_partial) row per distinct key hash per
    block — the 16-bytes/row combiner feeding both the shuffled
    (duplicate_key_hashes) and per-slice (uniqueness_partial_table)
    paths."""
    import polars as pl

    def combine(batch: pa.Table) -> pa.Table:
        h = hash_key_rows(batch, keys, seed)
        out = pl.DataFrame({"h": h}).group_by("h").len().rename({"len": "cnt_partial"})
        return out.to_arrow().cast(_HASH_PAIR_SCHEMA)

    return combine


def duplicate_key_hashes(
    ds,
    keys: list[str],
    min_count: int = 2,
    batch_size: int | None = 65536,
    seed: int = 0,
    driver_merge_max_bytes: int = 8 << 30,
) -> pa.Table:
    """``(h, cnt)`` table of the int64 hashes of keys appearing >=
    min_count times, collected on the driver.

    The scale path for uniqueness: the shuffle moves (hash, cnt) int64
    pairs — 16 bytes/row — instead of the full (possibly wide) string key
    tuple. Hash collisions can only ADD candidates, never lose a real
    duplicate; callers recover the candidate ROWS (which carry the real
    keys) and drop collision artifacts with an exact per-key recount
    (pipelines/validate.py does this), so the final result is exact.

    Cost-based plan choice: when the input's metadata size estimate is
    under ``driver_merge_max_bytes`` (~20M rows of pairs), the per-block
    (hash, cnt) partials stream to ONE driver-side polars group-sum —
    the hash shuffle's fixed aggregator-actor spawn costs more than the
    entire merge at that scale. Above the threshold the all-to-all
    engages."""
    from ..functions.shuffle import grouped_sum, select_if_needed

    partials = select_if_needed(ds, keys).map_batches(
        _hash_combine_fn(keys, seed), batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True
    )
    # metadata-only estimate: ds.size_bytes() on a transformed lazy plan
    # can execute the whole upstream pipeline just to learn the size —
    # the hazard metadata_size_estimate exists for (checks/dependency.py)
    from ..functions.shuffle import metadata_size_estimate

    est = metadata_size_estimate(ds)
    if est is not None and est <= driver_merge_max_bytes:
        import polars as pl

        tabs = [
            t
            for t in partials.iter_batches(batch_format="pyarrow", batch_size=None)
            if t.num_rows
        ]
        if not tabs:
            return _DUP_HASH_SCHEMA.empty_table()
        # the driver keeps polars' FULL thread pool (only workers are
        # capped — package __init__), so this grouped merge of ~8M pair
        # rows runs parallel in ~0.2 s; a numpy argsort alternative
        # measured 5.5 s single-threaded. The serial driver section is
        # the partial COLLECTION above, not this merge.
        dup = (
            pl.from_arrow(pa.concat_tables(tabs))
            .group_by("h")
            .agg(pl.col("cnt_partial").sum().alias("cnt"))
            .filter(pl.col("cnt") >= min_count)
            .sort("h")
        )
        return dup.to_arrow().cast(_DUP_HASH_SCHEMA)
    from ..pipelines.queries import as_table

    counts = grouped_sum(partials, ["h"], "cnt_partial", "cnt", keys_non_null=True)
    thresh = min_count
    return as_table(
        counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], thresh)), batch_format="pyarrow", batch_size=None
        )
    )


def uniqueness_partial_table(ds, keys: list[str], batch_size: int | None = 65536, seed: int = 0) -> pa.Table:
    """One (h, cnt_partial) table per dataset slice — a checkpointable
    uniqueness partial: hash-count partials from different slices sum
    associatively at any later merge (:func:`duplicate_hashes_from_partials`). Pre-collapsed to one row per
    distinct key hash so the checkpoint stays ~16 bytes × distinct keys."""
    import polars as pl

    from ..functions.shuffle import select_if_needed

    partials = select_if_needed(ds, keys).map_batches(
        _hash_combine_fn(keys, seed), batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True
    )
    tabs = [
        tb
        for tb in partials.iter_batches(batch_format="pyarrow", batch_size=None)
        if tb.num_rows
    ]
    if not tabs:
        return pa.Table.from_pydict({"h": [], "cnt_partial": []}, schema=_HASH_PAIR_SCHEMA)
    merged = (
        pl.from_arrow(pa.concat_tables(tabs))
        .group_by("h")
        .agg(pl.col("cnt_partial").sum())
        .sort("h")
    )
    return merged.to_arrow().cast(_HASH_PAIR_SCHEMA)


def duplicate_hashes_from_partials(partial_tables, min_count: int = 2) -> np.ndarray:
    """Merge uniqueness partial tables → SORTED int64 duplicate-hash array
    (the broadcast probe set for the row pass). Associative: any grouping
    of shards into partials gives the same result."""
    import polars as pl

    tabs = [t for t in partial_tables if t.num_rows]
    if not tabs:
        return np.array([], dtype=np.int64)
    df = pl.from_arrow(pa.concat_tables(tabs)).group_by("h").agg(pl.col("cnt_partial").sum())
    dup = df.filter(pl.col("cnt_partial") >= min_count)["h"].to_numpy()
    return np.sort(dup.astype(np.int64, copy=False))


def duplicate_keys(ds, keys: list[str], min_count: int = 2):
    """Keys whose total count >= min_count (uniqueness violations)."""
    counts = key_counts(ds, keys)
    thresh = min_count  # capture as int for the closure
    return counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cnt"], thresh)), batch_format="pyarrow", batch_size=None
    )


def salted_key_counts(ds, keys: list[str], n_salt: int = 16, batch_size: int | None = 65536):
    """Two-phase salted count for hot keys (SURVEY.md §7.3).

    Phase 1 groups by (keys..., salt) — hot keys spread over n_salt
    reducers; phase 2 sums the per-salt partials by the bare keys. With the
    map-side combiner already collapsing blocks, this matters when the
    distinct-key count itself is dominated by a few giant groups.
    """

    from ..functions.shuffle import select_if_needed

    def combine_salted(batch: pa.Table) -> pa.Table:
        t = batch.select(keys)
        # deterministic salt from the first key column's hash
        h = np.asarray(pc.cast(pc.binary_length(pc.cast(t[keys[0]], pa.string())), pa.int64()))
        idx = np.arange(len(h))
        salt = ((h + idx) % n_salt).astype(np.int64)  # idx spreads identical keys
        t = t.append_column("salt", pa.array(salt))
        g = t.group_by(keys + ["salt"]).aggregate([([], "count_all")])
        return g.rename_columns(keys + ["salt", "cnt_partial"])

    from ..functions.shuffle import grouped_sum

    partials = select_if_needed(ds, keys).map_batches(
        combine_salted, batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True
    )
    phase1 = grouped_sum(partials, keys + ["salt"], "cnt_partial", "cnt_salted")
    return grouped_sum(phase1, keys, "cnt_salted", "cnt")


def duplicate_rows(ds, keys: list[str], max_dup_keys: int = 5_000_000):
    """Exact full rows belonging to duplicated keys.

    The duplicate-key table is small by constraint (violations are the
    exception), so it's collected and broadcast; the second streaming pass
    filters rows by membership. Raises if the dup-key set exceeds
    ``max_dup_keys`` (at that point the data has no meaningful primary key
    and per-key violation *rows* stop being a useful artifact).
    """
    import ray

    sep = "\x1f"
    null_sent = "\x00<null>"  # collision needs a real value holding NUL

    def canon_keys(tb: pa.Table) -> pa.ChunkedArray | pa.Array:
        # ONE canonicalization for the member set AND the probe — Arrow's
        # cast-to-string on both sides (str(True)='True' vs Arrow 'true'
        # silently matched nothing for bool keys), nulls to a sentinel so
        # duplicated null-key rows recover (binary_join emits null rows
        # straight past is_in otherwise)
        parts = [pc.fill_null(pc.cast(tb[k], pa.string()), null_sent) for k in keys]
        return parts[0] if len(parts) == 1 else pc.binary_join_element_wise(*parts, sep)

    dup_tabs = [
        t for t in duplicate_keys(ds, keys).iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if not dup_tabs:
        return ds.limit(0)
    dups = pa.concat_tables(dup_tabs, promote_options="default")
    if dups.num_rows > max_dup_keys:
        raise ValueError(f"{dups.num_rows} duplicate keys exceeds max_dup_keys={max_dup_keys}")
    members = pc.unique(canon_keys(dups))
    members = members.combine_chunks() if isinstance(members, pa.ChunkedArray) else members
    ref = ray.put(members)

    def filter_members(batch: pa.Table) -> pa.Table:
        value_set = ray.get(ref)
        return batch.filter(pc.is_in(canon_keys(batch), value_set=value_set))

    return ds.map_batches(filter_members, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
