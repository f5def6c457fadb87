"""Distributed set operations — INTERSECT / EXCEPT with DISTINCT
semantics (SQL parity; absent from both the reference (SURVEY.md §2.7)
and Ray Data's Dataset API).

Shape: per-batch local DISTINCT (the map-side combiner — only distinct
key rows per block enter the exchange) → tag the side → one hash shuffle
co-locates every key tuple → per-block polars group decides membership.
One exchange total, rows = distinct keys per block per side.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from .shuffle import local_group_map, select_if_needed

_SIDE = "__side"


def _tagged_distinct(ds, cols: list[str], side: int, schema: pa.Schema):
    def fn(tb: pa.Table) -> pa.Table:
        u = pl.from_arrow(tb.select(cols)).unique()
        out = u.to_arrow().cast(pa.schema([schema.field(c) for c in cols]))
        return out.append_column(_SIDE, pa.array(np.full(out.num_rows, side, dtype=np.int8)))

    return select_if_needed(ds, cols).map_batches(
        fn, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def _set_op(a_ds, b_ds, cols: list[str], keep: str):
    from .shuffle import arrow_schema

    # arrow_schema, not ds.schema().base_schema.field(): the latter has no
    # .field on pandas-block datasets and can execute a lazy upstream plan
    # just to learn the schema
    base = arrow_schema(a_ds)
    schema = pa.schema([base.field(c) for c in cols])
    tagged = _tagged_distinct(a_ds, cols, 0, schema).union(_tagged_distinct(b_ds, cols, 1, schema))

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({c: [] for c in cols}, schema=schema)
        g = (
            pl.from_arrow(tb)
            .group_by(cols)
            .agg(
                in_a=(pl.col(_SIDE) == 0).any(),
                in_b=(pl.col(_SIDE) == 1).any(),
            )
        )
        if keep == "intersect":
            g = g.filter(pl.col("in_a") & pl.col("in_b"))
        else:  # except
            g = g.filter(pl.col("in_a") & ~pl.col("in_b"))
        return g.select(cols).to_arrow().cast(schema)

    return local_group_map(tagged, cols, block)


def intersect_distinct(a_ds, b_ds, cols: list[str]):
    """SQL ``INTERSECT``: distinct key tuples present in BOTH datasets."""
    return _set_op(a_ds, b_ds, cols, "intersect")


def except_distinct(a_ds, b_ds, cols: list[str]):
    """SQL ``EXCEPT``: distinct key tuples of ``a_ds`` absent from ``b_ds``."""
    return _set_op(a_ds, b_ds, cols, "except")
