"""Temporal operators Ray Data lacks natively: distributed as-of join
and gap-based sessionization.

Both compose the engine's hash-shuffle primitive (SURVEY.md §2 "custom
operators" path (a)): tag-and-union the sides into one schema →
``repartition(keys=[key])`` co-locates every row of a key → ONE
vectorized polars kernel per block (sort + ``join_asof`` / gap cumsum).
The partitioning assumption each relies on: all rows of a join/session
key fit one block — true whenever no single user/entity dominates the
corpus; salt hot keys upstream if that breaks.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from .shuffle import local_group_map, select_if_needed

_SIDE = "__side"


def _tagged_union(left_ds, left_cols: dict, right_ds, right_cols: dict, schema: pa.Schema):
    """Union two datasets into one shared schema with a side tag; columns
    absent on a side are typed nulls."""

    def norm(mapping):
        def fn(tb: pa.Table) -> pa.Table:
            n = tb.num_rows
            cols = []
            for f in schema:
                if f.name == _SIDE:
                    cols.append(pa.nulls(n, pa.int8()).fill_null(mapping["__side_val"]))
                elif f.name in mapping:
                    cols.append(tb[mapping[f.name]].cast(f.type) if tb[mapping[f.name]].type != f.type else tb[mapping[f.name]])
                else:
                    cols.append(pa.nulls(n, f.type))
            return pa.Table.from_arrays(cols, schema=schema)

        return fn

    lm = dict(left_cols, __side_val=0)
    rm = dict(right_cols, __side_val=1)
    return left_ds.map_batches(norm(lm), batch_format="pyarrow", batch_size=None, zero_copy_batch=True).union(
        right_ds.map_batches(norm(rm), batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    )


def asof_join(
    left_ds,
    right_ds,
    key: str,
    left_ts: str,
    right_ts: str,
    right_values: list[str],
    right_key: str | None = None,
):
    """For every left row, attach the right row with the greatest
    ``right_ts`` <= ``left_ts`` (backward; "forward" = least >=) sharing
    ``key``. Unmatched left rows keep null right values (left-join
    semantics, like DuckDB's ``ASOF LEFT JOIN``).

    Right rows sharing (key, ts) collapse to their per-column MAX first —
    ties at the as-of instant are otherwise nondeterministic in ANY engine
    (and break oracle comparison).

    Distributed shape: tag-union → hash-shuffle by key (both sides
    co-locate) → per-block polars sort + ``join_asof``. Only the named
    columns travel.
    """
    left_schema = left_ds.schema().base_schema
    right_schema = right_ds.schema().base_schema
    clash = sorted(set(right_values) & {f.name for f in left_schema})
    if clash:
        # same up-front check as shuffle_hash_join: a duplicate output
        # name would crash mid-stream with a confusing polars error
        raise ValueError(f"right_values collide with left columns: {clash}; rename the right side")
    ts_type = left_schema.field(left_ts).type
    rts_type = right_schema.field(right_ts).type
    if pa.types.is_temporal(ts_type) != pa.types.is_temporal(rts_type):
        # the union schema casts the right ts to the LEFT ts type; a
        # numeric/temporal mix would silently compare raw epoch integers
        # against rescaled temporal values (round-5 review) — every
        # match would be wrong rather than loudly rejected
        raise ValueError(
            f"asof_join timestamp columns disagree in kind: {left_ts!r} is "
            f"{ts_type} but {right_ts!r} is {rts_type}; cast one side so both "
            "are temporal or both are numeric epoch values"
        )
    out_left = [f for f in left_schema]
    schema = pa.schema(
        [(_SIDE, pa.int8())]
        + [(f.name, f.type) for f in out_left]
        + [("__rts", ts_type)]
        + [(f"__rv_{c}", right_schema.field(c).type) for c in right_values]
    )
    rk = right_key or key
    left_map = {f.name: f.name for f in out_left}
    right_map = {key: rk, "__rts": right_ts, **{f"__rv_{c}": c for c in right_values}}
    tagged = _tagged_union(
        select_if_needed(left_ds, [f.name for f in out_left]),
        left_map,
        select_if_needed(right_ds, list(dict.fromkeys([rk, right_ts] + right_values))),
        right_map,
        schema,
    )
    out_schema = pa.schema(
        [(f.name, f.type) for f in out_left] + [(c, right_schema.field(c).type) for c in right_values]
    )
    rename_back = {f"__rv_{c}": c for c in right_values}

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({f.name: [] for f in out_schema}, schema=out_schema)
        df = pl.from_arrow(tb)
        lhs = df.filter(pl.col(_SIDE) == 0).drop([_SIDE, "__rts"] + list(rename_back))
        rhs = df.filter(pl.col(_SIDE) == 1).select([key, "__rts"] + list(rename_back))
        rhs = rhs.group_by([key, "__rts"]).agg([pl.col(c).max() for c in rename_back])
        lhs = lhs.sort(left_ts)
        rhs = rhs.sort("__rts")
        j = lhs.join_asof(rhs, left_on=left_ts, right_on="__rts", by=key, strategy="backward")
        j = j.rename(rename_back).select([f.name for f in out_schema])
        return j.to_arrow().cast(out_schema)

    return local_group_map(tagged, [key], block)


def rolling_window_agg(
    ds,
    key: str,
    ts_col: str,
    value_col: str,
    window,
    carry: list[str] | None = None,
):
    """Per-row trailing time-window aggregate (§2.9): for every event,
    the count and sum of the SAME KEY's events in ``[ts - window, ts]``
    (both ends inclusive — SQL ``RANGE BETWEEN window PRECEDING AND
    CURRENT ROW`` semantics, including same-timestamp peers).

    ``carry`` columns ride along through the shuffle unchanged (e.g. the
    event id) so callers never need a driver-side re-join. Hash-shuffle
    by key → per-block sort + two binary searches per row (vectorized
    ``np.searchsorted`` over the key's sorted timestamps) — O(n log n)
    per key, no per-row Python loop, no self-join blowup.

    Null semantics (DuckDB window parity, probed): null-``ts_col`` rows
    form their OWN peer group per key — their w_count/w_sum cover
    exactly the key's null-ts rows, and they are excluded from every
    non-null row's window (they previously corrupted the searchsorted
    ascending-order assumption and silently mis-counted the whole key —
    round-5 review). Null ``value_col`` rows count in w_count but add 0
    to w_sum (``COALESCE(SUM(v), 0)``; an all-null frame yields 0.0, not
    SQL NULL). Null KEYS group together (SQL PARTITION BY), regardless
    of the key column's dtype."""
    carry = carry or []
    need = list(dict.fromkeys([key, ts_col, value_col] + carry))
    out_names = {"w_count", "w_sum"}
    if out_names & set(need):
        raise ValueError(
            f"columns {sorted(out_names & set(need))} collide with the output names; rename them first"
        )
    if set(carry) & {key, ts_col, value_col}:
        raise ValueError(
            f"carry columns {sorted(set(carry) & {key, ts_col, value_col})} repeat key/ts/value"
        )
    base = ds.schema().base_schema
    out_schema = pa.schema(
        [
            (key, base.field(key).type),
            (ts_col, base.field(ts_col).type),
            (value_col, base.field(value_col).type),
        ]
        + [(c, base.field(c).type) for c in carry]
        + [
            ("w_count", pa.int64()),
            ("w_sum", pa.float64()),
        ]
    )
    win_us = int(np.timedelta64(window).astype("timedelta64[us]").astype(np.int64))

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({f.name: [] for f in out_schema}, schema=out_schema)
        # sort by ALL carried columns, not just (key, ts): the range-
        # partition shuffle does not preserve row order among equal keys,
        # and within a same-timestamp tie group the cumsum accumulation
        # order changes w_sum in the last ulp — a total order makes the
        # result partitioning- and run-invariant
        df = pl.from_arrow(tb.select(need)).sort(need)
        s = df[ts_col]
        # null-ts rows sort FIRST within each key (polars default); they
        # must not enter the numpy ts array consumed by searchsorted (a
        # null becomes NaN and breaks the ascending-order assumption)
        ts_null = s.is_null().to_numpy()
        # unit-safe epoch conversion: a raw Int64 cast yields the column's
        # NATIVE unit (ns for timestamp[ns] inputs — common from pandas),
        # silently shrinking the window 1000× against the µs constant
        # below (ADVICE round 2). Numeric ts columns pass through and are
        # interpreted as µs by contract.
        ts = s.dt.timestamp("us").to_numpy() if s.dtype.is_temporal() else s.cast(pl.Int64).to_numpy()
        # SUM skips nulls (and the cumsum must not NaN-poison later
        # windows): null values count rows but contribute 0
        vals = np.nan_to_num(df[value_col].cast(pl.Float64).to_numpy().astype(np.float64), nan=0.0)
        w_count = np.empty(len(ts), dtype=np.int64)
        w_sum = np.empty(len(ts), dtype=np.float64)
        # group boundaries of the sorted key column — null-AWARE and
        # dtype-independent (numeric null keys become NaN in numpy, and
        # NaN != NaN would split them into singleton groups)
        neq = df[key].ne_missing(df[key].shift(1)).to_numpy().copy()
        if len(neq):
            neq[0] = True
        bounds = np.flatnonzero(np.concatenate([neq, [True]]))
        # gs/ge, not s/e: `s` above is the polars ts Series and shadowing
        # it here invites a silent misread (round-5 review)
        for gs, ge in zip(bounds[:-1], bounds[1:]):
            n_null = int(ts_null[gs:ge].sum())  # sorted-first prefix
            if n_null:
                # DuckDB parity: the key's null-ts rows are one peer
                # group — each frames exactly that group
                w_count[gs : gs + n_null] = n_null
                w_sum[gs : gs + n_null] = vals[gs : gs + n_null].sum()
            v = gs + n_null
            if v == ge:
                continue
            seg = ts[v:ge]
            lo = np.searchsorted(seg, seg - win_us, side="left")
            hi = np.searchsorted(seg, seg, side="right")
            w_count[v:ge] = hi - lo
            # cumsum PER KEY, not per block: a block-wide prefix sum makes
            # w_sum depend on unrelated keys in the same block through
            # float rounding, breaking partitioning-invariance of results
            csum = np.concatenate([[0.0], np.cumsum(vals[v:ge])])
            w_sum[v:ge] = csum[hi] - csum[lo]
        out = df.with_columns(
            w_count=pl.Series(w_count), w_sum=pl.Series(w_sum)
        )
        return out.select([f.name for f in out_schema]).to_arrow().cast(out_schema)

    return local_group_map(select_if_needed(ds, need), [key], block)


def range_join_agg(
    left_ds,
    right_ds,
    key: str,
    left_ts: str,
    right_ts: str,
    lo,
    hi,
    right_value: str | None = None,
    right_key: str | None = None,
    carry: list[str] | None = None,
):
    """Distributed RANGE (interval) JOIN aggregate — the temporal join
    as-of can't express: for every left row, the COUNT (and optionally
    SUM of ``right_value``) of right rows sharing ``key`` whose
    ``right_ts`` lies in ``[left_ts + lo, left_ts + hi]`` (both ends
    inclusive — SQL ``BETWEEN`` semantics; ``lo``/``hi`` are timedeltas
    and may be negative, e.g. ``lo=-30d, hi=0`` = "the last 30 days").

    Left-join shape: every left row survives; no match → ``rj_count`` 0
    and ``rj_sum`` 0.0 (SQL: ``COUNT(right.col)`` + ``COALESCE(SUM(...),
    0)``). Null ``right_value`` rows count but add 0 to the sum, like
    SQL SUM skipping NULLs. NULL join keys never match the ON condition
    (null-key left rows ride through with count 0; null-key right rows
    are dropped), exactly like a SQL LEFT JOIN.

    The aggregate form is the 100-TB-safe one — emitting matched PAIRS
    can expand |left|×|right| per key; the aggregate streams exactly one
    output row per left row. Distributed shape matches
    :func:`rolling_window_agg`: tag-union both sides → ONE
    range-partition shuffle co-locates each key → per block, sort the
    key's right timestamps once and answer every left row with two
    vectorized binary searches + a prefix-sum diff — O((l+r) log r) per
    key, no self-join blowup, no per-row Python loop. Same partitioning
    assumption as every keyed kernel here: one key's rows fit a block;
    salt hot keys upstream."""
    carry = carry or []
    rk = right_key or key
    lschema = left_ds.schema().base_schema
    rschema = right_ds.schema().base_schema
    left_cols = list(dict.fromkeys([key, left_ts] + carry))
    out_fields = [(c, lschema.field(c).type) for c in left_cols] + [("rj_count", pa.int64())]
    if right_value is not None:
        out_fields.append(("rj_sum", pa.float64()))
    out_schema = pa.schema(out_fields)
    schema = pa.schema(
        [(_SIDE, pa.int8())]
        + [(c, lschema.field(c).type) for c in left_cols]
        + [("__rts", rschema.field(right_ts).type)]
        + ([("__rv", pa.float64())] if right_value is not None else [])
    )
    right_map = {key: rk, "__rts": right_ts}
    right_need = [rk, right_ts]
    if right_value is not None:
        right_map["__rv"] = right_value
        right_need.append(right_value)
    tagged = _tagged_union(
        select_if_needed(left_ds, left_cols),
        {c: c for c in left_cols},
        select_if_needed(right_ds, list(dict.fromkeys(right_need))),
        right_map,
        schema,
    )
    lo_us = int(np.timedelta64(lo).astype("timedelta64[us]").astype(np.int64))
    hi_us = int(np.timedelta64(hi).astype("timedelta64[us]").astype(np.int64))
    if lo_us > hi_us:
        raise ValueError(f"empty range: lo {lo!r} > hi {hi!r}")

    def _epoch_us(s: pl.Series) -> np.ndarray:
        return (s.dt.timestamp("us") if s.dtype.is_temporal() else s.cast(pl.Int64)).to_numpy()

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({f.name: [] for f in out_schema}, schema=out_schema)
        df = pl.from_arrow(tb)
        l = df.filter(pl.col(_SIDE) == 0).sort([key])
        # NULL keys never match the ON condition (SQL semantics): null-key
        # right rows are dropped outright; null-key LEFT rows survive with
        # count 0 — they sort first (polars default), so the search loop
        # below simply starts past them. Null __rts rows are dropped too:
        # SQL BETWEEN is never true for NULL, and (round-5 review) a null
        # becomes NaN in the numpy rts array and breaks the per-key
        # ascending order searchsorted assumes, silently corrupting
        # rj_count/rj_sum for every left row of that key.
        r = df.filter(
            (pl.col(_SIDE) == 1)
            & pl.col(key).is_not_null()
            & pl.col("__rts").is_not_null()
        ).sort([key, "__rts"] + (["__rv"] if right_value else []))
        n_null_left = int(l[key].null_count())
        lkeys = l[key]
        lts = _epoch_us(l[left_ts])
        rkeys = r[key].to_numpy()
        rts = _epoch_us(r["__rts"])
        rj_count = np.zeros(len(lkeys), dtype=np.int64)
        rj_sum = np.zeros(len(lkeys), dtype=np.float64) if right_value else None
        if right_value:
            rvals = np.nan_to_num(r["__rv"].to_numpy().astype(np.float64), nan=0.0)
        if len(lkeys) > n_null_left:
            # null-aware, dtype-independent key boundaries (a numpy
            # conversion would turn nullable-int keys into float64 —
            # NaN-splitting null groups and losing precision above 2^53)
            neq = lkeys.ne_missing(lkeys.shift(1)).to_numpy().copy()
            neq[0] = True
            all_bounds = np.flatnonzero(np.concatenate([neq, [True]]))
            # nulls sort first, and ne_missing(first non-null, last null)
            # is True, so a boundary always sits exactly at n_null_left
            bounds = all_bounds[all_bounds >= n_null_left]
            # gs/ge, not s/e: avoids shadowing series-style short names
            # used elsewhere in this module (round-5 review)
            for gs, ge in zip(bounds[:-1], bounds[1:]):
                probe = lkeys[int(gs)]  # python scalar: exact at any int width
                rs, re = np.searchsorted(rkeys, probe, side="left"), np.searchsorted(
                    rkeys, probe, side="right"
                )
                if rs == re:
                    continue
                seg = rts[rs:re]
                a = np.searchsorted(seg, lts[gs:ge] + lo_us, side="left")
                b = np.searchsorted(seg, lts[gs:ge] + hi_us, side="right")
                rj_count[gs:ge] = b - a
                if right_value:
                    csum = np.concatenate([[0.0], np.cumsum(rvals[rs:re])])
                    rj_sum[gs:ge] = csum[b] - csum[a]
        cols = {c: l[c] for c in left_cols}
        cols["rj_count"] = pl.Series(rj_count)
        if right_value:
            cols["rj_sum"] = pl.Series(rj_sum)
        return pl.DataFrame(cols).to_arrow().cast(out_schema)

    return local_group_map(tagged, [key], block)


def lag_lead(
    ds,
    key: str,
    order_col: str,
    cols: list[str],
    lags: tuple[int, ...] = (1,),
    leads: tuple[int, ...] = (),
    carry: list[str] | None = None,
):
    """Per-key LAG/LEAD offsets (SQL ``LAG(c, n) OVER (PARTITION BY key
    ORDER BY order_col)``): for each column in ``cols`` and each offset,
    appends ``{c}_lag{n}`` / ``{c}_lead{n}`` holding the same key's value
    ``n`` rows earlier/later in ``order_col`` order (null past either end
    of the key's run — SQL default-NULL semantics).

    Same distribution shape as :func:`rolling_window_agg`: hash-shuffle
    co-locates each key, then ONE vectorized polars ``shift().over(key)``
    per block. The per-block sort is a TOTAL order over every selected
    column so results are invariant to block layout even when
    ``(key, order_col)`` pairs tie (ties then resolve by the remaining
    columns' values, not by shuffle arrival order)."""
    carry = carry or []
    need = list(dict.fromkeys([key, order_col] + list(cols) + carry))
    base = ds.schema().base_schema
    shifted: list[tuple[str, str, int]] = [(c, f"{c}_lag{n}", n) for c in cols for n in lags]
    shifted += [(c, f"{c}_lead{n}", -n) for c in cols for n in leads]
    dup = [name for _, name, _ in shifted if name in need]
    if dup:
        raise ValueError(f"lag/lead output columns collide with input columns: {dup}")
    out_schema = pa.schema(
        [(c, base.field(c).type) for c in need]
        + [(name, base.field(c).type) for c, name, _ in shifted]
    )

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({f.name: [] for f in out_schema}, schema=out_schema)
        df = pl.from_arrow(tb.select(need)).sort(need)
        df = df.with_columns(
            [pl.col(c).shift(n).over(key).alias(name) for c, name, n in shifted]
        )
        return df.select([f.name for f in out_schema]).to_arrow().cast(out_schema)

    return local_group_map(select_if_needed(ds, need), [key], block)


def window_rank(
    ds,
    key: str,
    order_cols: list[str],
    kinds: tuple[str, ...] = ("row_number",),
    carry: list[str] | None = None,
    ntile: int | None = None,
):
    """Per-key ranking windows (SQL ``ROW_NUMBER()`` / ``RANK()`` /
    ``DENSE_RANK()`` / ``PERCENT_RANK()`` / ``CUME_DIST() OVER
    (PARTITION BY key ORDER BY order_cols)``), the §2.9 window family
    member LAG/LEAD and the rolling frames don't cover. Appends one
    column per requested kind, named after it (int64; the two
    distribution kinds are float64). ``ntile=k`` additionally appends an
    ``ntile`` int64 column with SQL NTILE semantics (buckets as even as
    possible, earlier buckets take the remainder).

    ``RANK``/``DENSE_RANK`` are well-defined under order ties (tied rows
    share a rank). ``ROW_NUMBER`` is only deterministic when
    ``order_cols`` is a TOTAL order within each key — same contract the
    SQL function has; pass a tie-breaking unique column (e.g. the row
    id) last, exactly as you would in the ``OVER`` clause. NULL order
    values rank NULL (polars semantics) rather than sorting last as
    SQL's default NULLS LAST does — coalesce them upstream when SQL
    parity over nullable order columns matters (``row_number`` and
    ``ntile`` are unaffected: they follow the total-order sort, nulls
    first).

    Same distribution shape as :func:`lag_lead`: ONE range-partition
    shuffle co-locates each key, then one vectorized polars sort +
    ``over(key)`` rank kernel per block — no driver gather. Chained
    same-key window ops each pay the shuffle; compute multi-window
    results in one pass where possible (the driver query
    ``rolling_user_value`` chains three and is small by contract)."""
    carry = carry or []
    allowed = ("row_number", "rank", "dense_rank", "percent_rank", "cume_dist")
    bad = [k for k in kinds if k not in allowed]
    if bad:
        raise ValueError(f"unknown rank kinds {bad}; allowed: {allowed}")
    if ntile is not None and ntile < 1:
        raise ValueError("ntile must be >= 1")
    need = list(dict.fromkeys([key] + list(order_cols) + carry))
    base = ds.schema().base_schema
    out_names = list(kinds) + (["ntile"] if ntile else [])
    dup = [k for k in out_names if k in need]
    if dup:
        raise ValueError(f"rank output columns collide with input columns: {dup}")
    _FLOAT_KINDS = ("percent_rank", "cume_dist")
    out_schema = pa.schema(
        [(c, base.field(c).type) for c in need]
        + [(k, pa.float64() if k in _FLOAT_KINDS else pa.int64()) for k in out_names]
    )

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({f.name: [] for f in out_schema}, schema=out_schema)
        # total-order sort (all selected columns) so ROW_NUMBER ties that
        # order_cols alone would leave are still resolved identically at
        # any parallelism; rank/dense_rank read only the order_cols struct
        df = pl.from_arrow(tb.select(need)).sort(need)
        okey = pl.struct(list(order_cols)) if len(order_cols) > 1 else pl.col(order_cols[0])
        n = pl.len().over(key)
        rn = pl.int_range(1, pl.len() + 1, dtype=pl.Int64).over(key)
        exprs = []
        for k in kinds:
            if k == "row_number":
                exprs.append(rn.alias(k))
            elif k == "percent_rank":
                # (rank - 1) / (n - 1); a single-row group is 0 by SQL definition
                pr = (okey.rank("min").over(key) - 1) / (n - 1).clip(lower_bound=1)
                exprs.append(pr.cast(pl.Float64).alias(k))
            elif k == "cume_dist":
                exprs.append((okey.rank("max").over(key) / n).cast(pl.Float64).alias(k))
            else:
                method = "min" if k == "rank" else "dense"
                exprs.append(okey.rank(method).over(key).cast(pl.Int64).alias(k))
        if ntile:
            small = n // ntile
            rem = n % ntile
            cut = rem * (small + 1)  # rows in the (larger) leading buckets
            exprs.append(
                pl.when(rn <= cut)
                .then((rn - 1) // (small + 1) + 1)
                .otherwise(rem + (rn - 1 - cut) // small.clip(lower_bound=1) + 1)
                .cast(pl.Int64)
                .alias("ntile")
            )
        df = df.with_columns(exprs)
        return df.select([f.name for f in out_schema]).to_arrow().cast(out_schema)

    return local_group_map(select_if_needed(ds, need), [key], block)


def sessionize(
    ds,
    key: str,
    ts_col: str,
    gap,
    value_col: str | None = None,
):
    """Gap-based session windows (§2.9 beyond tumbling/sliding): per key,
    events sorted by time start a NEW session whenever the gap to the
    previous event exceeds ``gap`` (a ``datetime.timedelta`` or numpy
    timedelta). Output: one row per session —
    (key, session_id 1..n per key in time order, session_start,
    session_end, n_events[, sum_value]).

    Hash-shuffle by key → per-block polars sort + cumulative gap-break
    sum. Session numbering is deterministic: ties at the same timestamp
    share a session regardless of intra-tie order.
    """
    need = [key, ts_col] + ([value_col] if value_col else [])
    ts_type = ds.schema().base_schema.field(ts_col).type
    out_fields = [
        (key, ds.schema().base_schema.field(key).type),
        ("session_id", pa.int64()),
        ("session_start", ts_type),
        ("session_end", ts_type),
        ("n_events", pa.int64()),
    ]
    if value_col:
        out_fields.append(("sum_value", pa.float64()))
    out_schema = pa.schema(out_fields)
    gap_us = int(np.timedelta64(gap).astype("timedelta64[us]").astype(np.int64))

    def block(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            return pa.Table.from_pydict({f.name: [] for f in out_schema}, schema=out_schema)
        # total-order sort (see rolling_window_agg): sum_value must not
        # depend on intra-tie row order delivered by the shuffle.
        # nulls_last: SQL's ORDER BY default — null-ts rows must come
        # AFTER the real events, not claim the leading session ids
        df = pl.from_arrow(tb.select(need)).sort(need, nulls_last=True)
        # numeric ts columns are epoch-µs by contract (the same branch as
        # rolling_window_agg / range_join_agg) — .dt accessors would raise
        prev = pl.col(ts_col).shift(1).over(key)
        diff = (pl.col(ts_col) - prev)
        if df.schema[ts_col].is_temporal():
            diff = diff.dt.total_microseconds()
        # the oracle's exact CASE semantics (round-5 review — the old
        # fill_null(True) gave EVERY null-diff row its own session and
        # renumbered the real ones): break when the PREVIOUS ts is null
        # (first row per key, or a prior null-ts row) OR the gap exceeds
        # the limit; a null-ts row after a real event has a null gap →
        # no break → it joins that last session, like the SQL
        brk = (
            pl.when(prev.is_null())
            .then(1)
            .otherwise((diff > gap_us).cast(pl.Int64).fill_null(0))
        )
        df = df.with_columns(session_id=brk.cum_sum().over(key))
        aggs = [
            pl.col(ts_col).min().alias("session_start"),
            pl.col(ts_col).max().alias("session_end"),
            pl.len().cast(pl.Int64).alias("n_events"),
        ]
        if value_col:
            aggs.append(pl.col(value_col).sum().cast(pl.Float64).alias("sum_value"))
        out = df.group_by([key, "session_id"]).agg(aggs)
        return out.select([f.name for f in out_schema]).to_arrow().cast(out_schema)

    return local_group_map(select_if_needed(ds, need), [key], block)


def funnel_counts(ds, steps: list[str]):
    """Ordered-funnel analysis over an events table (``user_id``, ``ts``,
    ``event_type``): for each step k, how many distinct users performed
    ``steps[0..k]`` in strict time order — each step strictly AFTER the
    entity's first qualifying time for the previous step (the classic
    product-analytics funnel over an event stream;
    reference analog: the staged pass/fail progression its end-to-end
    prediction report tabulates, `end_to_end_prediction.py:546`).

    Plan: prune to (key, ts, event) and pre-filter to funnel events
    (vectorized ``is_in``) BEFORE the exchange — at 100 TB the funnel
    events are typically a small fraction of the stream and nothing else
    should move — then co-partition by key (``local_group_map``: every
    entity's events land whole in one block) and run ONE chained
    vectorized pass per block: ``t_k = min ts of step-k events with
    ts > t_{k-1}`` per key, a loop over ``len(steps)`` polars
    group_by/join expressions, never over rows. Each block emits just
    ``len(steps)`` partial counts; the driver sums them — correct because
    co-location makes per-key progression block-local. Null keys and
    null timestamps are dropped up front (SQL JOIN/comparison semantics).

    Returns a pandas DataFrame ``(step, step_name, n_users)`` with one
    row per step, n_users non-increasing.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from .shuffle import local_group_map, select_if_needed

    if not steps:
        raise ValueError("funnel_counts needs at least one step")
    key, ts_col, event_col = "user_id", "ts", "event_type"
    nsteps = len(steps)
    need = [key, ts_col, event_col]
    step_set = pa.array(list(dict.fromkeys(steps)))

    def prefilter(tb: pa.Table) -> pa.Table:
        m = pc.and_kleene(pc.is_valid(tb[key]), pc.is_valid(tb[ts_col]))
        m = pc.and_kleene(m, pc.is_in(tb[event_col], value_set=step_set))
        return tb.filter(pc.coalesce(m, False))

    base = select_if_needed(ds, need).map_batches(
        prefilter, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )

    def block(tb: pa.Table) -> pa.Table:
        df = pl.from_arrow(tb)
        counts = [0] * nsteps
        cur = None
        for k, step in enumerate(steps):
            ev = df.filter(pl.col(event_col) == step)
            if k:
                ev = ev.join(cur, on=key, how="inner").filter(pl.col(ts_col) > pl.col("_t")).drop("_t")
            cur = ev.group_by(key).agg(pl.col(ts_col).min().alias("_t"))
            counts[k] = cur.height
        return pa.table(
            {
                "step": pa.array(range(1, nsteps + 1), pa.int64()),
                "n_users": pa.array(counts, pa.int64()),
            }
        )

    parts = local_group_map(base, [key], block, keys_non_null=True)
    tbs = [t for t in parts.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows]
    out = pd.DataFrame({"step": np.arange(1, nsteps + 1, dtype=np.int64), "step_name": steps})
    if tbs:
        summed = (
            pa.concat_tables(tbs).to_pandas().groupby("step", as_index=False)["n_users"].sum()
        )
        out = out.merge(summed, on="step", how="left")
        out["n_users"] = out["n_users"].fillna(0).astype("int64")
    else:
        out["n_users"] = np.zeros(nsteps, dtype=np.int64)
    return out

