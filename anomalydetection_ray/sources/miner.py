"""Sharded, order-independent evolving template miner (T1 analog).

The reference's Drain3 miner (``models/drain.py:48-67``) holds one global,
order-dependent prefix tree: a template can change as more lines stream
through it, and earlier lines keep whatever template was current when they
arrived. That state cannot shard — two workers mining halves of the corpus
would disagree with the sequential run.

This miner keeps Drain's grouping heuristic — lines group by
``(token_count, first_token)`` after digit-run masking, the same signals
Drain's tree uses for its first two levels — but replaces the evolving
tree with a DETERMINISTIC merge rule:

    within a group, a template position keeps its token iff every line in
    the group agrees on it; any disagreement is the wildcard ``<*>``.

The per-shard partial (one ``(n_tok, first, template_toks, cnt)`` row per
group seen in that shard) is a join-semilattice element: merging partials
positionwise (equal → keep, else ``<*>``) is associative, commutative and
idempotent, so ANY shard boundaries, block sizes or merge orders produce
the identical final template set — the property the reference's
sequential miner lacks. Digit-run masking is applied first (same rule as
``logs.mask_template_batch``), so numeric parameters never fragment
groups.

Scale shape: the map side emits one row per (group × block) — bounded by
template cardinality, not data rows — and the final merge is one polars
pass over those partials on the driver (same small-bounded-output
argument as ``functions/shuffle.driver_grouped_agg``). Because the merge
is associative, an intermediate ``map_batches`` combine stage can collapse
partials worker-side before the driver sees them (used by
``mine_templates`` for many-block inputs).
"""

from __future__ import annotations

import pyarrow as pa

_MASK_RE = r"[0-9]+"
_TOKEN_RE = r"\S+"
WILDCARD = "<*>"

PARTIAL_SCHEMA = pa.schema(
    [
        ("n_tok", pa.int64()),
        ("first", pa.string()),
        ("template_toks", pa.list_(pa.string())),
        ("cnt", pa.int64()),
    ]
)


def _partials_from_tokens(df):
    """polars df with columns (toks:list<str>, cnt:int64) → one partial row
    per (n_tok, first) group, positionwise-merged within the input."""
    import polars as pl

    df = df.with_columns(
        n_tok=pl.col("toks").list.len().cast(pl.Int64),
        first=pl.col("toks").list.first().fill_null(""),
    )
    counts = df.group_by(["n_tok", "first"]).agg(pl.col("cnt").sum())
    nonempty = df.filter(pl.col("n_tok") > 0).with_columns(
        pos=pl.int_ranges(0, pl.col("n_tok"))
    )
    if nonempty.height:
        merged = (
            nonempty.explode(["toks", "pos"])
            .group_by(["n_tok", "first", "pos"])
            .agg(uniq=pl.col("toks").n_unique(), tok=pl.col("toks").first())
            .with_columns(
                ptok=pl.when(pl.col("uniq") == 1).then(pl.col("tok")).otherwise(pl.lit(WILDCARD))
            )
            .sort("pos")
            .group_by(["n_tok", "first"], maintain_order=True)
            .agg(template_toks=pl.col("ptok"))
        )
    else:
        merged = pl.DataFrame(
            schema={"n_tok": pl.Int64, "first": pl.String, "template_toks": pl.List(pl.String)}
        )
    out = counts.join(merged, on=["n_tok", "first"], how="left").with_columns(
        template_toks=pl.col("template_toks").fill_null([])
    )
    return out.select(["n_tok", "first", "template_toks", "cnt"])


def mine_partial_batch(batch: pa.Table, content_col: str = "text") -> pa.Table:
    """map_batches fn: lines → one mergeable partial row per
    (token_count, first_token) group in the block. Null lines count as
    empty (template ``""``)."""
    import polars as pl

    col = batch[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = (
        pl.from_arrow(pa.table({"c": col}))["c"]
        .fill_null("")
        .str.replace_all(_MASK_RE, WILDCARD)
        .str.extract_all(_TOKEN_RE)
    )
    df = pl.DataFrame({"toks": toks}).with_columns(cnt=pl.lit(1, dtype=pl.Int64))
    return _partials_from_tokens(df).to_arrow().cast(PARTIAL_SCHEMA)


def combine_partials_batch(batch: pa.Table) -> pa.Table:
    """map_batches combine stage: merge partial rows sharing a group key —
    the same semilattice merge as the final reduce, applied worker-side so
    the driver sees ~one row per group, not one per (group × block)."""
    import polars as pl

    df = pl.from_arrow(batch).rename({"template_toks": "toks"})
    return _partials_from_tokens(df.select(["toks", "cnt"])).to_arrow().cast(PARTIAL_SCHEMA)


def merge_partial_tables(tables: list[pa.Table]) -> pa.Table:
    """Partials (any order / grouping) → final (template, cnt) table.

    Positionwise semilattice merge, then groups whose merged templates
    collide textually (only possible via wildcarding) sum their counts."""
    import polars as pl

    tabs = [t for t in tables if t.num_rows]
    if not tabs:
        return pa.Table.from_pydict(
            {"template": [], "cnt": []},
            schema=pa.schema([("template", pa.string()), ("cnt", pa.int64())]),
        )
    df = pl.from_arrow(pa.concat_tables(tabs)).rename({"template_toks": "toks"})
    merged = _partials_from_tokens(df.select(["toks", "cnt"]))
    final = (
        merged.with_columns(template=pl.col("template_toks").list.join(" "))
        .group_by("template")
        .agg(pl.col("cnt").sum())
        .sort("template")
    )
    return final.select(["template", "cnt"]).to_arrow().cast(
        pa.schema([("template", pa.string()), ("cnt", pa.int64())])
    )


def mine_group_partials(ds, content_col: str = "text") -> pa.Table:
    """Corpus → ONE globally-merged partial table (one row per
    ``(n_tok, first)`` group) — the broadcastable lookup side for
    :func:`assign_template_batch`.

    Distributed map (one partial row per group per block) → a SMALL
    repartition of the kilobyte partial rows → worker-side combine
    (each output block now holds MANY input blocks' partials, so the
    per-(n_tok, first) rows actually collapse) → ONE driver merge over
    ~combine-blocks × groups rows. The repartition is load-bearing: a
    plain per-block combine after a per-block partial is a no-op (each
    block's group keys are already unique — round-5 review), and the
    driver would gather groups × blocks rows at 100 TB. The exchange
    moves only the tiny partials, never content."""
    col = content_col

    n_combine = 16

    partials = (
        ds.map_batches(
            lambda t: mine_partial_batch(t, col),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .repartition(n_combine)
        .map_batches(
            combine_partials_batch, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
    )
    tabs = [t for t in partials.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows]
    if not tabs:
        return pa.Table.from_pydict({f.name: [] for f in PARTIAL_SCHEMA}, schema=PARTIAL_SCHEMA)
    return combine_partials_batch(pa.concat_tables(tabs))


def mine_templates(ds, content_col: str = "text") -> pa.Table:
    """Corpus → mined (template, cnt) table (see :func:`mine_group_partials`
    for the execution shape)."""
    return merge_partial_tables([mine_group_partials(ds, content_col)])


def assign_template_batch(batch: pa.Table, mined: pa.Table, content_col: str = "text") -> pa.Table:
    """Per-line template assignment against a mined template table
    (the reference's per-line ``template_mined`` output,
    ``models/drain.py:55-56``): each line looks up its
    ``(token_count, first_token)`` group's final template. ``mined`` here
    is the PARTIAL table (group-keyed), broadcast via ``ray.put`` by
    callers; lookup is a vectorized polars join, no Python row loop."""
    import polars as pl

    col = batch[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = (
        pl.from_arrow(pa.table({"c": col}))["c"]
        .fill_null("")
        .str.replace_all(_MASK_RE, WILDCARD)
        .str.extract_all(_TOKEN_RE)
    )
    keys = pl.DataFrame({"toks": toks}).with_columns(
        n_tok=pl.col("toks").list.len().cast(pl.Int64),
        first=pl.col("toks").list.first().fill_null(""),
    )
    lut = (
        pl.from_arrow(mined)
        .with_columns(template=pl.col("template_toks").list.join(" "))
        .select(["n_tok", "first", "template"])
    )
    # maintain_order="left": the result is appended to the Arrow batch
    # POSITIONALLY, and polars leaves join row order unspecified otherwise
    # — a reorder would silently assign every line another line's template
    joined = keys.join(lut, on=["n_tok", "first"], how="left", maintain_order="left").with_columns(
        template=pl.col("template").fill_null("")
    )
    return batch.append_column("template", joined["template"].to_arrow().cast(pa.string()))
