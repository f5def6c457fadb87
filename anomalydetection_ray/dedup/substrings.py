"""Exact duplicated-substring detection and removal — the ExactSubstr
operation of Lee et al. 2022 ("Deduplicating Training Data Makes
Language Models Better", arXiv:2107.06499) — Ray-Data-native.

Whole-document dedup (dedup/exact.py) and near-dup clustering
(dedup/neardup.py) leave SPANS untouched: a license header, a template
banner, or a quoted article pasted into otherwise-distinct documents
survives both. This module finds every byte range whose k-gram content
also appears in at least two distinct documents and either
reports the merged spans per document (:func:`dup_span_stats`) or cuts
them out of the text (:func:`strip_dup_spans`) — every occurrence is
cut, Lee et al.'s release semantics.

The reference engine has no substring-level operator (its dedup surface
is empty, SURVEY.md §2.7); this extends the dedup family for
training-data curation.

Algorithm (suffix arrays don't distribute; stride-1 fingerprints do):

1. every document emits its DISTINCT stride-1 k-gram hashes
   (``functions/text.kgram_hashes`` — the O(n) rolling Rabin-Karp
   kernel). Per-doc distinct means the global count of rows
   per hash IS the distinct-document count — no doc ids on the wire,
   8 bytes/gram;
2. exact per-hash counts (map-side combiner + 16 B/row exchange,
   checks/uniqueness.key_counts) → hashes with count >= 2;
3. cost-gated apply, the same two-rung ladder every sibling dedup op
   uses: a qualifying set under ``shuffle.DRIVER_MAX_ROWS`` is gathered once,
   sorted, ``ray.put`` once, and a second streaming pass marks positions
   by batched searchsorted; above the budget the corpus explodes to
   (id, pos, hash) triples, a co-partitioned semi-join
   (``shuffle_membership_filter``) keeps duplicated positions, per-doc
   span merge runs co-located (``local_group_map``), and spans join back
   by id (``shuffle_hash_join``) — the driver never holds the set.

Positions and span lengths are in UTF-8 BYTES (the hash kernel runs on
encoded bytes); on ASCII corpora bytes == characters, which is what the
DuckDB oracle's ``substr`` arithmetic checks at sf0.01. Two positions
merge into one span when their gap is <= k (overlapping or adjacent
[p, p+k) intervals), matching the oracle's gaps-and-islands ``LAG``
rule. 64-bit hashing means a cross-document collision could mark a
false span: P(any collision) ~ n_grams^2 / 2^65 — ~3e-10 at a million
grams, ~0.003 at 100 TB/corpus-wide, and a false mark costs k bytes of
over-cutting, not corruption; the planted-duplicate tests pin the exact
behavior.

Scale note: stride-1 emission shuffles ~8 bytes per corpus byte in
stage 2 — the honest cost of exact span detection (Lee et al.'s suffix
array is ~8x memory too).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..checks.uniqueness import sorted_isin
from ..functions.text import kgram_hashes

__all__ = ["duplicated_gram_hashes", "dup_span_stats", "strip_dup_spans"]

STAT_COLS = ("dup_gram_count", "dup_span_count", "dup_span_bytes")


def _doc_hash_arrays(texts, k: int) -> list[np.ndarray]:
    """Per-document stride-1 k-gram hash arrays (empty for null/short)."""
    out = []
    for t in texts:
        if t is None:
            out.append(np.empty(0, dtype=np.uint64))
        else:
            b = np.frombuffer(t.encode("utf-8", "surrogatepass"), dtype=np.uint8)
            out.append(kgram_hashes(b, k))
    return out


def _distinct_gram_batch(text_col: str, k: int):
    def fn(tb: pa.Table) -> pa.Table:
        hashes = _doc_hash_arrays(tb[text_col].to_numpy(zero_copy_only=False), k)
        distinct = [np.unique(h) for h in hashes if len(h)]
        flat = np.concatenate(distinct) if distinct else np.empty(0, dtype=np.uint64)
        return pa.table({"gh": pa.array(flat, type=pa.uint64())})

    return fn


def duplicated_gram_hashes(ds, text_col: str = "text", k: int = 40):
    """The qualifying-hash set: k-gram hashes occurring in >= 2 distinct
    documents. Returns ``("broadcast", sorted uint64 ndarray)`` when the
    set fits ``shuffle.DRIVER_MAX_ROWS`` (typical: duplication is the
    exception, so the set is tiny next to the corpus), else
    ``("distributed", one-column Dataset["gh"])`` — the count comes from
    the materialized dataset's metadata, so the decision never gathers."""
    from ..checks.uniqueness import key_counts

    if k < 1:
        raise ValueError("k must be >= 1 (gram size in UTF-8 bytes)")
    from ..functions.shuffle import DRIVER_MAX_ROWS, select_if_needed

    grams = select_if_needed(ds, [text_col]).map_batches(
        _distinct_gram_batch(text_col, k),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )

    def qualifying(tb: pa.Table) -> pa.Table:
        return tb.filter(pc.greater_equal(tb["cnt"], 2)).select(["gh"])

    qual = key_counts(grams, ["gh"]).map_batches(
        qualifying, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).materialize()
    if qual.count() <= DRIVER_MAX_ROWS:
        tabs = [t["gh"].to_numpy(zero_copy_only=False)
                for t in qual.iter_batches(batch_format="pyarrow", batch_size=None)]
        flat = np.concatenate(tabs) if tabs else np.empty(0, dtype=np.uint64)
        return "broadcast", np.sort(flat)
    return "distributed", qual


def _merged_span_bounds(pos: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted positions into [start, end) spans: a new span starts
    where the gap to the previous position exceeds k (gap <= k means the
    [p, p+k) intervals overlap or touch — the oracle's LAG rule)."""
    if not len(pos):
        z = np.empty(0, dtype=np.int64)
        return z, z
    brk = np.flatnonzero(np.diff(pos) > k)
    starts = pos[np.concatenate(([0], brk + 1))]
    ends = pos[np.concatenate((brk, [len(pos) - 1]))] + k
    return starts.astype(np.int64), ends.astype(np.int64)


def _mark_batch(tb: pa.Table, text_col: str, k: int, dup_sorted: np.ndarray,
                emit_spans: bool) -> pa.Table:
    """Append STAT_COLS (and span bounds) from a broadcast sorted dup set.
    Membership is ONE searchsorted over the batch's concatenated hash
    arrays, then split back per doc by offsets — no per-doc set probe."""
    hashes = _doc_hash_arrays(tb[text_col].to_numpy(zero_copy_only=False), k)
    lens = np.array([len(h) for h in hashes], dtype=np.int64)
    flat = np.concatenate(hashes) if len(hashes) else np.empty(0, dtype=np.uint64)
    hit = sorted_isin(dup_sorted, flat)
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    # per-doc hit counts via prefix sums (safe on empty docs/segments,
    # where reduceat would repeat or overrun)
    hit_cs = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(hit, out=hit_cs[1:])
    gcnt = hit_cs[offs[1:]] - hit_cs[offs[:-1]]
    scnt = np.zeros(len(lens), dtype=np.int64)
    sbytes = np.zeros(len(lens), dtype=np.int64)
    span_s: list = []
    span_e: list = []
    for i in range(len(lens)):
        if gcnt[i]:
            pos = np.flatnonzero(hit[offs[i]: offs[i + 1]])
            s, e = _merged_span_bounds(pos, k)
        else:
            s = e = np.empty(0, dtype=np.int64)
        scnt[i] = len(s)
        sbytes[i] = int((e - s).sum())
        if emit_spans:
            span_s.append(s)
            span_e.append(e)
    tb = (tb.append_column("dup_gram_count", pa.array(gcnt, type=pa.int64()))
            .append_column("dup_span_count", pa.array(scnt, type=pa.int64()))
            .append_column("dup_span_bytes", pa.array(sbytes, type=pa.int64())))
    if emit_spans:
        tb = (tb.append_column("__span_s", pa.array(span_s, type=pa.list_(pa.int64())))
                .append_column("__span_e", pa.array(span_e, type=pa.list_(pa.int64()))))
    return tb


def _triples_batch(id_col: str, text_col: str, k: int):
    """(id, pos int32, gh) stride-1 triples — the distributed rung's
    exchange unit (20 B/gram). int32 positions bound a single document at
    2 GiB of UTF-8, loudly."""
    def fn(tb: pa.Table) -> pa.Table:
        if tb[id_col].null_count:
            # the distributed rung co-partitions by id (Ray's range sort
            # rejects null keys with a cryptic TypeError) — fail with the
            # contract instead; the broadcast rung never reads ids, so
            # without this the crash would be plan-dependent
            raise ValueError(
                f"null values in id column {id_col!r}; the distributed span "
                "plan requires non-null document ids — fill or filter first"
            )
        hashes = _doc_hash_arrays(tb[text_col].to_numpy(zero_copy_only=False), k)
        lens = np.array([len(h) for h in hashes], dtype=np.int64)
        ids = np.repeat(tb[id_col].to_numpy(zero_copy_only=False), lens)
        if lens.size and int(lens.max(initial=0)) >= (1 << 31):
            raise ValueError("document exceeds int32 position range (2 GiB)")
        offs = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        pos = (np.arange(int(offs[-1]), dtype=np.int64)
               - np.repeat(offs[:-1], lens)).astype(np.int32)
        flat = np.concatenate(hashes) if len(hashes) else np.empty(0, dtype=np.uint64)
        return pa.table({
            id_col: pa.array(ids, type=tb.schema.field(id_col).type),
            "pos": pa.array(pos, type=pa.int32()),
            "gh": pa.array(flat, type=pa.uint64()),
        })

    return fn


def _spans_block(id_col: str, k: int):
    """Per-block (co-located by id) span merge: duplicated positions ->
    one row per doc with stats + span bound lists."""
    def fn(tb: pa.Table) -> pa.Table:
        ids_t = tb.schema.field(id_col).type
        empty = pa.table({
            id_col: pa.array([], type=ids_t),
            "dup_gram_count": pa.array([], type=pa.int64()),
            "dup_span_count": pa.array([], type=pa.int64()),
            "dup_span_bytes": pa.array([], type=pa.int64()),
            "__span_s": pa.array([], type=pa.list_(pa.int64())),
            "__span_e": pa.array([], type=pa.list_(pa.int64())),
        })
        if not tb.num_rows:
            return empty
        ids = tb[id_col].to_numpy(zero_copy_only=False)
        pos = tb["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((pos, ids))
        ids, pos = ids[order], pos[order]
        starts_at = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
        out_ids, g, sc, sb, ss, se = [], [], [], [], [], []
        bounds = np.concatenate((starts_at, [len(ids)]))
        for a, b in zip(bounds[:-1], bounds[1:]):
            s, e = _merged_span_bounds(pos[a:b], k)
            out_ids.append(ids[a])
            g.append(b - a)
            sc.append(len(s))
            sb.append(int((e - s).sum()))
            ss.append(s)
            se.append(e)
        return pa.table({
            id_col: pa.array(out_ids, type=ids_t),
            "dup_gram_count": pa.array(g, type=pa.int64()),
            "dup_span_count": pa.array(sc, type=pa.int64()),
            "dup_span_bytes": pa.array(sb, type=pa.int64()),
            "__span_s": pa.array(ss, type=pa.list_(pa.int64())),
            "__span_e": pa.array(se, type=pa.list_(pa.int64())),
        })

    return fn


def _apply_marked(ds, id_col: str, text_col: str, k: int, plan: str, dup,
                  emit_spans: bool):
    """Marked dataset under either rung: input columns + STAT_COLS
    (+ __span_s/__span_e when ``emit_spans``)."""
    import ray

    if plan == "broadcast":
        ref = ray.put(dup)

        def mark(tb: pa.Table) -> pa.Table:
            return _mark_batch(tb, text_col, k, ray.get(ref), emit_spans)

        return ds.map_batches(mark, batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)

    from ..functions.relational import shuffle_hash_join, shuffle_membership_filter
    from ..functions.shuffle import local_group_map, select_if_needed

    triples = select_if_needed(ds, [id_col, text_col]).map_batches(
        _triples_batch(id_col, text_col, k),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
    dup_pos = shuffle_membership_filter(triples, "gh", dup, "gh", keep=True)
    spans = local_group_map(
        dup_pos.map_batches(lambda t: t.drop_columns(["gh"]), batch_format="pyarrow",
                            batch_size=None, zero_copy_batch=True),
        [id_col], _spans_block(id_col, k), keys_non_null=True,
    )
    joined = shuffle_hash_join(ds, id_col, spans, id_col, how="left")

    def fill(tb: pa.Table) -> pa.Table:
        for c in STAT_COLS:
            tb = tb.set_column(tb.schema.get_field_index(c), c,
                               pc.coalesce(tb[c], pa.scalar(0, pa.int64())))
        if not emit_spans:
            tb = tb.drop_columns(["__span_s", "__span_e"])
        return tb

    return joined.map_batches(fill, batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)


def dup_span_stats(ds, k: int = 40):
    """Per-document duplicated-substring statistics of the ``text``
    column over ALL rows (zeros for clean docs), keyed by ``doc_id``:
    ``dup_gram_count`` marked stride-1 positions, ``dup_span_count``
    merged spans, ``dup_span_bytes`` their total coverage. Input columns
    pass through."""
    plan, dup = duplicated_gram_hashes(ds, "text", k)
    return _apply_marked(ds, "doc_id", "text", k, plan, dup, emit_spans=False)


def strip_dup_spans(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 40,
    min_remaining_bytes: int = 0,
):
    """Cut every duplicated span out of ``text_col`` (ExactSubstr removal:
    every occurrence is cut, so surviving text is globally
    substring-unique at >= k grams). Rows whose remaining text falls
    under ``min_remaining_bytes`` are dropped. STAT_COLS describe what
    was cut; the original text is replaced."""
    plan, dup = duplicated_gram_hashes(ds, text_col, k)
    marked = _apply_marked(ds, id_col, text_col, k, plan, dup, emit_spans=True)

    def cut(tb: pa.Table) -> pa.Table:
        texts = tb[text_col].to_numpy(zero_copy_only=False)
        ss = tb["__span_s"].to_pylist()
        se = tb["__span_e"].to_pylist()
        out = []
        for t, s_list, e_list in zip(texts, ss, se):
            if t is None:
                out.append(None)
                continue
            if not s_list:
                out.append(t)
                continue
            b = t.encode("utf-8", "surrogatepass")
            keep, prev = [], 0
            for s, e in zip(s_list, e_list):
                # spans are byte offsets from the gram kernel and can land
                # mid-codepoint (a gram may start on a UTF-8 continuation
                # byte); snap the cut OUTWARD to codepoint boundaries so
                # the kept text re-decodes — widening removes at most 3
                # extra bytes per edge (the straddling character, which is
                # part duplicated anyway)
                while s > prev and s < len(b) and (b[s] & 0xC0) == 0x80:
                    s -= 1
                while e < len(b) and (b[e] & 0xC0) == 0x80:
                    e += 1
                keep.append(b[prev:max(s, prev)])
                prev = max(e, prev)
            keep.append(b[prev:])
            out.append(b"".join(keep).decode("utf-8", "surrogatepass"))
        tb = tb.drop_columns(["__span_s", "__span_e"])
        tb = tb.set_column(tb.schema.get_field_index(text_col), text_col,
                           pa.array(out, type=pa.string()))
        if min_remaining_bytes > 0:
            # null-text rows were never cut — they must survive the size
            # gate (coalescing null length to 0 silently dropped them at
            # any min_remaining_bytes > 0 while 0 kept them; round-5
            # review). Only rows that HAVE text are measured.
            sizes = pc.binary_length(pc.cast(tb[text_col], pa.binary()))
            keep = pc.or_kleene(
                pc.is_null(tb[text_col]),
                pc.greater_equal(sizes, min_remaining_bytes),
            )
            tb = tb.filter(pc.coalesce(keep, False))
        return tb

    return marked.map_batches(cut, batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)
