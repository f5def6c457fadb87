"""BGL-style raw log parsing — reference parity for the log front-end.

Reference semantics reproduced exactly (vectorized, no Python row loop):
- label parse (``models/drain.py:17-20``): split the line once on the
  first space; token 0 == "-" → label 0 (normal), anything else → 1;
  lines without a payload after the marker are dropped.
- structure enrichment (``models/drain.py:26-43``): whitespace-tokenize
  the payload and positionally extract 9 string fields ``Timestamp, Date,
  Node, Time, NodeRepeat, Type, Component, Level, Content`` where Content
  re-joins tokens [8:] with single spaces; lines with <9 tokens get empty
  fields — but unlike the reference (which blanks them silently), a
  ``malformed`` flag is emitted so schema-conformance checks can count
  them as violations (SURVEY.md M2).
- template mining analog: the reference's Drain miner (``models/
  drain.py:48-67``) holds order-dependent global state that cannot shard;
  the engine's deterministic, order-independent stand-in masks digit runs
  to ``<*>`` (``mask_template_batch``) so template group-counts (A1) and
  the frequency filter (J1) compose with it at any parallelism.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

FIELDS = ["Timestamp", "Date", "Node", "Time", "NodeRepeat", "Type", "Component", "Level"]


def read_log_lines(path: str, max_lines: int | None = None):
    """Text-line reader (S1 analog of ``load_log_file``)."""
    import ray.data as rd

    ds = rd.read_text(path)
    # `is not None`: max_lines=0 must mean zero rows, not "all"
    return ds.limit(max_lines) if max_lines is not None else ds


def parse_label_batch(batch: pa.Table) -> pa.Table:
    """line -> (label:int32, log:string); drops payload-less lines.

    Lines are whitespace-stripped BEFORE the split (reference parity:
    ``models/drain.py:17`` does ``line.strip()`` then ``split(" ", 1)``) —
    without it a leading-space line yields an empty token 0 and gets
    mislabeled anomalous with the marker left inside the payload."""
    stripped = pc.utf8_trim_whitespace(pc.coalesce(batch["text"], ""))
    parts = pc.split_pattern(stripped, " ", max_splits=1)
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    has_payload = pc.equal(pc.list_value_length(parts), 2)
    if isinstance(has_payload, pa.ChunkedArray):
        has_payload = has_payload.combine_chunks()
    kept_parts = parts.filter(has_payload)
    label = pc.cast(pc.invert(pc.equal(pc.list_element(kept_parts, 0), "-")), pa.int32())
    return pa.table({"label": label, "log": pc.list_element(kept_parts, 1)})


def enrich_structure_batch(batch: pa.Table) -> pa.Table:
    """log -> 9 positional fields + malformed flag.

    Fully vectorized (polars list kernels — no Python row loop in this
    flagship-predict-path stage). Whitespace semantics match
    ``str.split()`` exactly (the reference's tokenizer,
    ``models/drain.py:27``): tokens are ``\\S+`` runs, the Content tail
    re-joins with single spaces; null logs are malformed.
    """
    import polars as pl

    col = batch["log"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pl.from_arrow(pa.table({"c": col}))["c"].fill_null("").str.extract_all(r"\S+")
    df = pl.DataFrame({"toks": toks}).with_columns(n=pl.col("toks").list.len())
    ok = pl.col("n") >= 9
    exprs = [
        pl.when(ok)
        .then(pl.col("toks").list.get(j, null_on_oob=True))
        .otherwise(pl.lit(""))
        .alias(f)
        for j, f in enumerate(FIELDS)
    ]
    exprs.append(
        pl.when(ok)
        .then(pl.col("toks").list.slice(8).list.join(" "))
        .otherwise(pl.lit(""))
        .alias("Content")
    )
    exprs.append((~ok).alias("malformed"))
    res = df.select(exprs)
    out = {c: batch[c] for c in batch.column_names}
    for f in FIELDS + ["Content"]:
        out[f] = res[f].to_arrow().cast(pa.string())
    out["malformed"] = res["malformed"].to_arrow()
    return pa.table(out)


def mask_template_batch(batch: pa.Table, content_col: str = "Content") -> pa.Table:
    """Digit-run masking template (deterministic Drain stand-in): every
    maximal digit run becomes ``<*>`` — order-independent, so counts merge
    at any parallelism (unlike the reference's streaming miner state)."""
    tpl = pc.replace_substring_regex(batch[content_col], r"[0-9]+", "<*>")
    return batch.append_column("template", tpl)


def extract_template_params(batch: pa.Table, content_col: str = "Content") -> pa.Table:
    """Wildcard parameter extraction (M3 analog, ``models/drain.py:56-66``):
    collect the digit runs that ``mask_template_batch`` replaces with
    ``<*>`` into a list<string> column — vectorized via polars
    ``str.extract_all`` (no Python row loop)."""
    import polars as pl

    col = batch[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    params = pl.from_arrow(col).str.extract_all(r"[0-9]+").to_arrow()
    return batch.append_column("params", params.cast(pa.list_(pa.string())))
