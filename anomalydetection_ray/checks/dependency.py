"""Functional-dependency check: determinant columns → dependent column.

The suite's structural checks so far bound single columns (stats,
uniqueness, referential). An FD check bounds a RELATIONSHIP: every
distinct determinant tuple must map to exactly one dependent value —
e.g. a file extension determines ``lang``, a ``repo`` has one owner, a
template id has one template string (the reference's Drain state keeps
exactly that invariant implicitly: one template string per cluster id,
``models/drain.py:56-66``; here it becomes a declared, checkable
constraint).

Scale plan (same 16-bytes/row discipline as ``checks/uniqueness.py``):

1. **Pair combine** (per block, vectorized): distinct
   ``(hash(determinant), hash2x64(determinant+dependent))`` int64
   triples — the only bytes that leave the scan, regardless of how
   wide the real columns are.
2. **Distinct-count per determinant hash**: under the cost gate the
   block-distinct pairs stream to ONE driver-side polars merge;
   above it they co-partition by ``hx`` (range-sort — every pair of
   one determinant lands in one block) and count distinct locally.
   A determinant hash with ≥2 distinct pair hashes is a CANDIDATE.
3. **Recover + exact verify**: candidate rows (which carry the real
   column values) are membership-filtered from a column-pruned read —
   broadcast probe when the candidate set is small, tagged-union
   shuffle otherwise — then co-partitioned by the REAL determinant and
   recounted exactly over real values, so determinant-hash collisions
   (which only ADD candidates) are dropped; the binding hash is 128
   effective bits, so a masked violation needs a 2^-128 double
   collision.

A NULL dependent value counts as a distinct binding: ``lang ∈ {null,
"go"}`` for one path IS an inconsistency a validator must surface
(documented divergence from SQL ``COUNT(DISTINCT)``, which ignores
nulls — the oracle comparison in tests/test_dependency.py adds the
null term explicitly). NULL determinant tuples form a group like any
other value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .uniqueness import hash_key_rows, sorted_isin

_PAIR_SCHEMA = pa.schema([("hx", pa.int64()), ("h1", pa.int64()), ("h2", pa.int64())])


def _pair_combine_fn(determinant: list[str], dependent: str):
    import polars as pl

    cols = list(determinant) + [dependent]

    def combine(batch: pa.Table) -> pa.Table:
        # TWO independently-seeded 64-bit binding hashes = 128 effective
        # bits: a collision that MASKS a distinct binding (the one error
        # the row-recovery recount cannot repair, since recovery probes
        # hx alone) needs both to collide — ~2^-128 per pair, vs ~2^-64
        # had we shipped one. hx collisions merely ADD candidates and
        # are dropped exactly by the recount.
        hx = hash_key_rows(batch, determinant, seed=0)
        h1 = hash_key_rows(batch, cols, seed=1)
        h2 = hash_key_rows(batch, cols, seed=2)
        out = pl.DataFrame({"hx": hx, "h1": h1, "h2": h2}).unique()
        return out.to_arrow().cast(_PAIR_SCHEMA)

    return combine


def fd_candidate_hashes(
    ds,
    determinant: list[str],
    dependent: str,
    batch_size: int | None = 65536,
    driver_merge_max_bytes: int = 8 << 30,
):
    """Dataset of int64 ``hx`` determinant hashes bound to ≥2 distinct
    dependent values (hash-level; exact verification happens on the
    recovered rows). Cost-gated like ``duplicate_key_hashes``: small
    inputs merge on the driver, large inputs co-partition by ``hx``."""
    import polars as pl
    import ray.data as rd

    from ..functions.shuffle import local_group_map, select_if_needed

    cols = list(determinant) + [dependent]
    pairs = select_if_needed(ds, cols).map_batches(
        _pair_combine_fn(determinant, dependent),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    # metadata-only estimate: ds.size_bytes() on a transformed lazy plan
    # can execute the entire upstream pipeline just to learn the size
    # (the hazard metadata_size_estimate exists for); None -> shuffle plan
    from ..functions.shuffle import metadata_size_estimate

    est = metadata_size_estimate(ds)
    cand_schema = pa.schema([("hx", pa.int64())])
    if est is not None and est <= driver_merge_max_bytes:
        tabs = [
            t
            for t in pairs.iter_batches(batch_format="pyarrow", batch_size=None)
            if t.num_rows
        ]
        if not tabs:
            return rd.from_arrow(cand_schema.empty_table())
        cand = (
            pl.from_arrow(pa.concat_tables(tabs))
            .unique()
            .group_by("hx")
            .len()
            .filter(pl.col("len") >= 2)
            .select("hx")
            .sort("hx")
        )
        return rd.from_arrow(cand.to_arrow().cast(cand_schema))

    def block_distinct(tb: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(tb)
            .unique()
            .group_by("hx")
            .len()
            .filter(pl.col("len") >= 2)
            .select("hx")
        )
        return out.to_arrow().cast(cand_schema)

    return local_group_map(pairs, ["hx"], block_distinct, keys_non_null=True)


def fd_violations(
    ds,
    determinant: list[str],
    dependent: str,
    batch_size: int | None = 65536,
    driver_merge_max_bytes: int = 8 << 30,
    broadcast_max_candidates: int = 2_000_000,
):
    """Exact FD violations as a Dataset of distinct
    ``determinant... , dependent, n_rows`` bindings — every determinant
    tuple present maps to ≥2 distinct dependent values (nulls distinct).

    ``broadcast_max_candidates`` gates the recovery plan: a candidate
    hash set under it gathers + broadcasts (sorted searchsorted probe,
    the suite's duplicate-key probe pattern); above it the candidate set
    stays distributed and recovery is a co-partitioned semi-join
    (``shuffle_membership_filter``). ``<=0`` forces the shuffle plan
    (plan-equivalence tests)."""
    import polars as pl
    import ray
    import ray.data as rd

    from ..functions.relational import shuffle_membership_filter
    from ..functions.shuffle import arrow_schema, local_group_map, select_if_needed

    if dependent in determinant:
        raise ValueError(f"dependent {dependent!r} is part of the determinant — the FD is vacuous")
    cols = list(determinant) + [dependent]
    work = select_if_needed(ds, cols)
    base = arrow_schema(work)
    out_schema = pa.schema(
        [(c, base.field(c).type) for c in cols] + [("n_rows", pa.int64())]
    )

    cand_ds = fd_candidate_hashes(
        ds, determinant, dependent, batch_size=batch_size,
        driver_merge_max_bytes=driver_merge_max_bytes,
    ).materialize()
    n_cand = cand_ds.count()  # metadata read on the materialized set
    if n_cand == 0:
        return rd.from_arrow(out_schema.empty_table())

    hx_col = "__fd_hx"

    def add_hx(tb: pa.Table) -> pa.Table:
        return tb.append_column(hx_col, pa.array(hash_key_rows(tb, determinant, seed=0)))

    rows = work.map_batches(add_hx, batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)
    if broadcast_max_candidates > 0 and n_cand <= broadcast_max_candidates:
        cand = np.sort(
            np.concatenate(
                [np.asarray(t["hx"]) for t in cand_ds.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows]
            )
        )
        ref = ray.put(cand)

        def probe(tb: pa.Table) -> pa.Table:
            ch = ray.get(ref)
            h = np.asarray(tb[hx_col].combine_chunks())
            return tb.filter(pa.array(sorted_isin(ch, h))).drop_columns([hx_col])

        candidates = rows.map_batches(probe, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    else:
        candidates = shuffle_membership_filter(rows, hx_col, cand_ds, "hx", keep=True).map_batches(
            lambda tb: tb.drop_columns([hx_col]),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )

    def verify_block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return out_schema.empty_table()
        agg = (
            pl.from_arrow(tb)
            .group_by(cols)
            .agg(pl.len().alias("n_rows"))
            # exact recount over REAL values: hash-collision artifacts
            # (hx collision merging two determinants, each with one
            # binding) have n_unique == 1 here and drop
            .filter(pl.col(dependent).n_unique().over(determinant) >= 2)
            .sort(cols)
        )
        return agg.to_arrow().cast(out_schema)

    return local_group_map(candidates, determinant, verify_block)
