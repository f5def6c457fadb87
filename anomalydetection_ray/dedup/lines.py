"""Cross-document LINE/PARAGRAPH deduplication (boilerplate removal).

The sub-document sibling of ``dedup/exact.py``: instead of dropping whole
duplicate documents, drop duplicated *lines* across the corpus — the
CCNet / RefinedWeb curation step (Wenzek et al. 2019, Penedo et al. 2023)
that strips navigation bars, license headers and other boilerplate the
document-level passes cannot see. (Reference analog: the template
frequency filter ``models/preprocessing.py:7-10`` drops whole rows whose
template is rare; this operator applies the same corpus-frequency idea at
sub-row granularity and REWRITES the row instead of dropping it.)

Two policies:

- ``mode="drop_common"``: a line occurring in ``>= min_docs`` DISTINCT
  documents is boilerplate — remove every occurrence from every document.
- ``mode="keep_first"``: global first-occurrence dedup — a line occurring
  ``>= 2`` times (within or across documents) survives only at its
  lexicographically smallest ``(id, position)``; all later occurrences are
  removed. Requires an integer id column (the owner min is computed
  vectorized over ``(id, idx)`` pairs).

Scale shape (nothing O(corpus) ever touches the driver):

1. ONE narrow pass explodes each document into per-line 128-bit hash
   triples ``(h1, h2, id, idx)`` — ~32 B/line; the text never leaves its
   block. The triples co-partition by ``h1`` (range-sort exchange,
   ``local_group_map``) and each block emits the DROP occurrences
   ``(id, idx)`` for its fully-co-located line groups with one vectorized
   polars pass.
2. The drop pairs apply back to the corpus. Cost-gated like every
   sibling: a drop set under ``shuffle.DRIVER_MAX_ROWS`` gathers once and
   ships via ``ray.put`` — each batch then re-splits its own text and filters
   locally with one exact polars hash join, so the corpus NEVER shuffles.
   Above the budget the corpus and the drop pairs co-partition by ``id``
   (tagged-union sort exchange — one payload move) and each block applies
   its local drops with the same vectorized kernel.

Lines compare with surrounding whitespace stripped. Lines that are
empty after stripping (blank lines, separator runs) are structural:
never counted, never dropped. Rows with a null id or
null text pass through unchanged. Output keeps every input column, with
``text`` rewritten in place plus ``n_lines``/``n_lines_kept`` counters
(null for pass-through rows) so downstream gates can drop gutted
documents.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.shuffle import arrow_schema, local_group_map

_MODES = ("drop_common", "keep_first")


def _triple_schema(id_type: pa.DataType) -> pa.Schema:
    return pa.schema(
        [("h1", pa.int64()), ("h2", pa.int64()), ("id", id_type), ("idx", pa.int64())]
    )


def _explode_lines(id_col: str, text_col: str, sep: str):
    """Per-batch narrow explode: (h1, h2, id, idx) per non-empty-key line;
    a line's key is the line with surrounding whitespace stripped.

    idx is the line's 0-based position within its document. Only rows
    with a valid id AND text contribute (pass-through rows can never be
    rewritten, so counting them would skew drop decisions one-sidedly).
    """
    import polars as pl

    def fn(tb: pa.Table) -> pa.Table:
        schema = _triple_schema(tb.schema.field(id_col).type)
        t = tb.select([id_col, text_col])
        t = t.filter(pc.and_(pc.is_valid(t[id_col]), pc.is_valid(t[text_col])))
        if t.num_rows == 0:
            return pa.Table.from_pydict({"h1": [], "h2": [], "id": [], "idx": []}, schema=schema)
        lf = (
            pl.from_arrow(t)
            .with_columns(pl.col(text_col).str.split(sep).alias("__lines"))
            .select(pl.col(id_col).alias("id"), "__lines")
            .with_columns(pl.int_ranges(pl.col("__lines").list.len()).alias("__idxs"))
            .explode(["__lines", "__idxs"])
            .rename({"__lines": "line", "__idxs": "idx"})
            .with_columns(pl.col("line").str.strip_chars().alias("__key"))
            .filter(pl.col("__key").str.len_bytes() > 0)
            .with_columns(
                pl.col("__key").hash(seed=0x51ED).reinterpret(signed=True).alias("h1"),
                pl.col("__key").hash(seed=0xB0B5).reinterpret(signed=True).alias("h2"),
            )
            .select("h1", "h2", "id", "idx")
        )
        return lf.to_arrow().cast(schema)

    return fn


def _drops_block(mode: str, min_docs: int, id_type: pa.DataType):
    """Per co-partitioned block (all occurrences of any (h1, h2) line
    group are present): emit the (id, idx) occurrences to REMOVE."""
    import polars as pl

    out_schema = pa.schema([("id", id_type), ("idx", pa.int64())])

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({"id": [], "idx": []}, schema=out_schema)
        lf = pl.from_arrow(tb)
        if mode == "drop_common":
            bad = (
                lf.unique(["h1", "h2", "id"])
                .group_by(["h1", "h2"])
                .len()
                .filter(pl.col("len") >= min_docs)
                .select("h1", "h2")
            )
            out = lf.join(bad, on=["h1", "h2"], how="semi").select("id", "idx")
        else:  # keep_first: every occurrence after the (id, idx)-min one
            out = (
                lf.filter(pl.len().over(["h1", "h2"]) >= 2)
                .sort(["id", "idx"])
                .with_columns(pl.col("idx").cum_count().over(["h1", "h2"]).alias("__rn"))
                .filter(pl.col("__rn") > 1)
                .select("id", "idx")
            )
        return out.to_arrow().cast(out_schema)

    return block


def line_drop_pairs(
    ds,
    id_col: str,
    text_col: str,
    sep: str = "\n",
    mode: str = "drop_common",
    min_docs: int = 2,
):
    """The (id, idx) occurrences :func:`line_dedup` would remove, as a
    lazy Dataset — the narrow pass alone, exposed for inspection/audit."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "drop_common" and min_docs < 1:
        raise ValueError("min_docs must be >= 1")
    id_type = arrow_schema(ds).field(id_col).type
    if mode == "keep_first" and not pa.types.is_integer(id_type):
        raise ValueError("keep_first mode requires an integer id column")
    triples = ds.map_batches(
        _explode_lines(id_col, text_col, sep),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    return local_group_map(
        triples, ["h1"], _drops_block(mode, min_docs, id_type), keys_non_null=True
    )


def _apply_drops(id_col: str, text_col: str, sep: str):
    """Batch kernel: re-split text, remove the (id, idx) occurrences
    present in ``drops_df`` (polars frame, columns __did/__didx) via one
    exact vectorized hash join, rejoin with ``sep``.

    Pass-through rows (null id/text) keep their text and get null
    counters. Returns the full input schema + n_lines + n_lines_kept.
    """
    import polars as pl

    def apply(tb: pa.Table, drops_df) -> pa.Table:
        if tb.num_rows == 0:
            return tb.append_column("n_lines", pa.array([], pa.int64())).append_column(
                "n_lines_kept", pa.array([], pa.int64())
            )
        lf = pl.from_arrow(tb.select([id_col, text_col])).with_row_index("__row")
        ex = (
            lf.filter(pl.col(id_col).is_not_null() & pl.col(text_col).is_not_null())
            .with_columns(pl.col(text_col).str.split(sep).alias("__lines"))
            .select("__row", pl.col(id_col).alias("__id"), "__lines")
            .with_columns(pl.int_ranges(pl.col("__lines").list.len()).alias("__idxs"))
            .explode(["__lines", "__idxs"])
            .join(
                drops_df.with_columns(pl.lit(True).alias("__drop")),
                left_on=["__id", "__idxs"],
                right_on=["__did", "__didx"],
                how="left",
            )
            .with_columns(pl.col("__drop").fill_null(False))
            # polars leaves join row order unspecified; kept lines must
            # re-join in ORIGINAL line order or documents get scrambled
            .sort("__row", "__idxs")
        )
        kept = ex.group_by("__row", maintain_order=False).agg(
            pl.len().alias("n_lines"),
            (~pl.col("__drop")).sum().alias("n_lines_kept"),
            pl.col("__lines").filter(~pl.col("__drop")).str.join(sep).alias("__new"),
        )
        res = (
            lf.join(kept, on="__row", how="left")
            .sort("__row")
            .with_columns(
                pl.when(pl.col("n_lines").is_not_null())
                .then(pl.col("__new"))
                .otherwise(pl.col(text_col))
                .alias("__final")
            )
        )
        new_text = res["__final"].to_arrow().cast(tb.schema.field(text_col).type)
        out = tb.set_column(tb.column_names.index(text_col), text_col, new_text)
        return out.append_column(
            "n_lines", res["n_lines"].to_arrow().cast(pa.int64())
        ).append_column("n_lines_kept", res["n_lines_kept"].to_arrow().cast(pa.int64()))

    return apply


def _drops_frame(id_arr: pa.ChunkedArray, idx_arr: pa.ChunkedArray):
    import polars as pl

    return pl.DataFrame(
        {
            "__did": pl.from_arrow(id_arr.combine_chunks()),
            "__didx": pl.from_arrow(idx_arr.combine_chunks()),
        }
    )


def line_dedup(
    ds,
    id_col: str,
    text_col: str,
    sep: str = "\n",
    mode: str = "drop_common",
    min_docs: int = 2,
):
    """Rewrite every document with its duplicated lines removed (see
    module docstring for policies and the two cost-gated apply plans)."""
    import ray

    from ..functions.shuffle import DRIVER_MAX_ROWS

    drops = line_drop_pairs(ds, id_col, text_col, sep, mode, min_docs).materialize()
    apply = _apply_drops(id_col, text_col, sep)
    if drops.count() <= DRIVER_MAX_ROWS:
        tabs = [
            t for t in drops.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows
        ]
        id_type = arrow_schema(ds).field(id_col).type
        t = (
            pa.concat_tables(tabs)
            if tabs
            else pa.Table.from_pydict({"id": [], "idx": []}, schema=_drop_schema(id_type))
        )
        ref = ray.put(_drops_frame(t["id"], t["idx"]))

        def probe(tb: pa.Table) -> pa.Table:
            return apply(tb, ray.get(ref))

        return ds.map_batches(probe, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)

    # distributed apply: corpus rows + drop pairs co-partition by id (one
    # payload exchange); each block applies its LOCAL drops with the same
    # kernel over a block-local drops frame
    base = arrow_schema(ds)
    marker = "__ld_marker"
    schema = pa.schema(list(base) + [pa.field("__ld_idx", pa.int64()), pa.field(marker, pa.int8())])

    def rows_to_u(tb: pa.Table) -> pa.Table:
        return _to_union(tb, schema, {c: tb[c] for c in tb.column_names}, 0)

    def drops_to_u(tb: pa.Table) -> pa.Table:
        return _to_union(tb, schema, {id_col: tb["id"], "__ld_idx": tb["idx"]}, 1)

    out_names = [f.name for f in base]

    def block(tb: pa.Table) -> pa.Table:
        is_drop = pc.equal(tb[marker], 1)
        dr = tb.filter(is_drop)
        rows = tb.filter(pc.invert(is_drop)).select(out_names)
        return apply(rows, _drops_frame(dr[id_col], dr["__ld_idx"]))

    tagged = ds.map_batches(
        rows_to_u, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).union(
        drops.map_batches(drops_to_u, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    )
    return local_group_map(tagged, [id_col], block)


def _drop_schema(id_type: pa.DataType) -> pa.Schema:
    return pa.schema([("id", id_type), ("idx", pa.int64())])


def _to_union(tb: pa.Table, schema: pa.Schema, values: dict, marker_val: int) -> pa.Table:
    marker = schema.names[-1]
    n = tb.num_rows
    cols = []
    for f in schema:
        if f.name == marker:
            cols.append(pa.nulls(n, pa.int8()).fill_null(marker_val))
        elif f.name in values:
            arr = values[f.name]
            cols.append(
                arr if isinstance(arr, (pa.Array, pa.ChunkedArray)) else pa.array(arr, type=f.type)
            )
        else:
            cols.append(pa.nulls(n, type=f.type))
    return pa.Table.from_arrays(cols, schema=schema)
