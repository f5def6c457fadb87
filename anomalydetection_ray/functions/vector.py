"""Vectorized operations over embedding (list<float>) columns.

The reference scores anomalies with a row-wise L2 norm over the latent
matrix (``np.linalg.norm(features, axis=1)``,
``end_to_end_prediction.py:444``; ``prediction_pipeline.py:333``) and
thresholds at the global 95th percentile
(``end_to_end_prediction.py:447-451``). Here the same semantics run as
zero-copy Arrow → numpy matrix kernels inside map_batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def list_column_to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """(n, d) float64 matrix from a list<float> column, zero-copy on the
    flattened values buffer; requires uniform list lengths."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, pa.ChunkedArray):  # zero chunks edge case
        arr = pa.concat_arrays(arr.chunks) if arr.num_chunks else pa.array([], type=arr.type)
    if arr.null_count:
        # loud failure on BOTH layouts: the fixed-size path otherwise
        # reads the null slots' undefined buffer bytes as real values
        # (silent NaN poisoning of kmeans/knn); the variable path would
        # mis-diagnose them as ragged
        raise ValueError("null embedding rows; filter or impute before matrix kernels")
    if pa.types.is_fixed_size_list(arr.type):
        d = arr.type.list_size
        flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        # honor a possible slice offset into the values buffer
        start = arr.offset * d
        return flat[start : start + len(arr) * d].reshape(len(arr), d)
    offsets = arr.offsets.to_numpy()
    widths = np.diff(offsets)
    if len(widths) == 0:
        # the width is unknowable from an empty variable-size column;
        # matmul consumers must guard num_rows == 0 before calling
        return np.empty((0, 0))
    d = int(widths[0])
    if not (widths == d).all():
        raise ValueError("ragged list column; expected fixed-width embeddings")
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    return flat.reshape(len(widths), d)


def l2_norm_batch(batch: pa.Table, vec_col: str = "embedding", out_col: str = "anomaly_score") -> pa.Table:
    m = list_column_to_matrix(batch[vec_col])
    norms = np.linalg.norm(m, axis=1)
    return batch.append_column(out_col, pa.array(norms, type=pa.float64()))


def explode_list_column(
    ds,
    list_col: str,
    value_col: str = "value",
    index_col: str | None = "idx",
    carry: list[str] | None = None,
):
    """Distributed UNNEST: one output row per list element, other columns
    repeated (SQL ``unnest`` semantics: null and empty lists contribute no
    rows). Pure per-batch Arrow kernels — ``list_flatten`` +
    ``list_parent_indices`` + one ``take`` — so the explode streams with
    no shuffle and no Python loop; ``index_col`` (element position within
    its list, 0-based) is a vectorized arange-minus-run-start.

    ``carry`` restricts the repeated columns (default: every other
    column); the list column itself is replaced by ``value_col``."""
    need = None if carry is None else list(dict.fromkeys(list(carry) + [list_col]))

    def fn(tb: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # multi-chunk columns would make list_parent_indices restart its
        # numbering per chunk (kernels are chunk-local) — flatten first
        tb = tb.combine_chunks()
        col = tb[list_col]
        flat = pc.list_flatten(col)
        parent = pc.list_parent_indices(col)
        # build column-wise (round-5 review): taking a ZERO-column table
        # (carry=[] / single-column input) yields num_rows=0, and
        # append_column then crashed on the length mismatch
        carried = tb.drop_columns([list_col])
        cols = {c: carried[c].take(parent) for c in carried.column_names}
        if index_col is not None:
            p = parent.to_numpy(zero_copy_only=False)
            starts = np.zeros(len(p), dtype=np.int64)
            if len(p):
                new_run = np.flatnonzero(np.diff(p)) + 1
                starts[new_run] = new_run
                np.maximum.accumulate(starts, out=starts)
            cols[index_col] = pa.array(np.arange(len(p)) - starts, type=pa.int64())
        cols[value_col] = flat
        return pa.table(cols)

    from .shuffle import ABSORB_EMPTY_BATCH_SIZE, select_if_needed

    # ABSORB_EMPTY_BATCH_SIZE: an empty block would bypass the UDF and
    # keep the INPUT schema (list column included), diverging from its
    # exploded siblings (round-5 review)
    src = ds if need is None else select_if_needed(ds, need)
    return src.map_batches(
        fn, batch_format="pyarrow", batch_size=ABSORB_EMPTY_BATCH_SIZE, zero_copy_batch=True
    )


def grouped_centroids(ds, group_col: str, vec_col: str, num_blocks: int | None = None):
    """Per-group embedding centroids (mean vector) — the building block
    for cluster-quality audits and centroid-based near-dup triage.

    Map-side partial: each block reduces to ONE (group, sum-vector,
    count) row per group it contains — a matmul-free np.add.reduceat over
    the sorted group index — so only (groups × blocks) tiny rows reach
    the driver merge, never embeddings. Returns a pyarrow Table
    (group, centroid list<double>, n)."""
    import polars as pl

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block: no partial rows (the
            # driver iter already drops zero-row tables)
            return pa.table({
                group_col: pa.array([], type=batch.schema.field(group_col).type),
                "vsum": pa.array([], type=pa.list_(pa.float64())),
                "cnt": pa.array([], type=pa.int64()),
            })
        import pyarrow.compute as pc

        m = list_column_to_matrix(batch[vec_col])
        g = batch[group_col].combine_chunks() if isinstance(batch[group_col], pa.ChunkedArray) else batch[group_col]
        # group through dictionary codes, not raw values: np.argsort on an
        # object array holding None (null group values — common in
        # lang/source metadata) crashes on None < str; null codes become
        # -1 and form a group like any other value
        enc = g.dictionary_encode()
        codes = np.asarray(pc.fill_null(enc.indices, -1)).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        cs, ms = codes[order], m[order]
        bounds = np.flatnonzero(np.concatenate([[True], cs[1:] != cs[:-1]]))
        sums = np.add.reduceat(ms, bounds, axis=0)
        counts = np.diff(np.concatenate([bounds, [len(cs)]]))
        d = m.shape[1] if m.size else 0
        cb = cs[bounds]
        gout = enc.dictionary.take(
            pa.array([int(c) if c >= 0 else None for c in cb], type=pa.int32())
        )
        return pa.table(
            {
                group_col: gout,
                "vsum": pa.array(list(sums), type=pa.list_(pa.float64(), d) if d else pa.list_(pa.float64())),
                "cnt": pa.array(counts.astype(np.int64)),
            }
        )

    from .shuffle import select_if_needed

    # prune to the two consumed columns — a wide corpus otherwise ships
    # every column into a stage that reads two (round-5 review)
    parts = [
        t
        for t in select_if_needed(ds, [group_col, vec_col])
        .map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if not parts:
        return pa.table({group_col: [], "centroid": [], "n": []})
    allp = pa.concat_tables(parts, promote_options="default")
    df = pl.from_arrow(allp)
    # final merge in numpy: the partials are (groups × blocks) rows and the
    # group count is small-bounded, so this is kilobytes of work
    out_rows = []
    for key, sub in df.group_by(group_col):
        sums = np.asarray([np.asarray(v) for v in sub["vsum"].to_list()]).sum(axis=0)
        n = int(sub["cnt"].sum())
        out_rows.append({group_col: key[0], "centroid": (sums / max(n, 1)).tolist(), "n": n})
    out_rows.sort(key=lambda r: str(r[group_col]))
    return pa.Table.from_pylist(out_rows)


def unpivot_long(ds, keys: list[str], value_cols: list[str], var_col: str = "name", value_col: str = "value"):
    """Wide → long UNPIVOT/melt (the inverse of ``pivot_wide``): each
    input row emits one output row per entry of ``value_cols`` —
    (keys..., name, value) — SQL ``UNPIVOT``.

    Pure streaming map (no shuffle, no state): per batch, one sliced
    copy per value column concatenated arrow-side. Value columns are
    cast to their common arrow type up front (mixed int/float widen to
    float64); incompatible mixes raise at plan time, matching SQL's
    same-type UNPIVOT rule."""
    import pyarrow.compute as pc

    base = ds.schema().base_schema
    if not value_cols:
        raise ValueError("value_cols must be non-empty")
    vtypes = [base.field(c).type for c in value_cols]
    vtype = vtypes[0]
    for t in vtypes[1:]:
        if t != vtype:
            if all(pa.types.is_signed_integer(x) for x in (vtype, t)):
                # int/int mixes stay integral (round-5 review: widening
                # int32+int64 to float64 silently corrupted values > 2^53)
                vtype = pa.int64()
            elif all(pa.types.is_unsigned_integer(x) for x in (vtype, t)):
                vtype = pa.uint64()
            elif all(pa.types.is_integer(x) or pa.types.is_floating(x) for x in (vtype, t)):
                vtype = pa.float64()
            else:
                raise ValueError(
                    f"value_cols mix incompatible types {sorted(set(map(str, vtypes)))}; cast upstream"
                )
    clash = set([var_col, value_col]) & set(keys)
    if var_col == value_col or clash:
        raise ValueError(f"output columns collide: {sorted(clash | {var_col})}")
    out_schema = pa.schema(
        [(k, base.field(k).type) for k in keys] + [(var_col, pa.string()), (value_col, vtype)]
    )

    def melt(tb: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = [tb[k] for k in keys]
            cols.append(pa.nulls(tb.num_rows, pa.string()).fill_null(c))
            cols.append(tb[c].cast(vtype))
            parts.append(pa.Table.from_arrays(cols, schema=out_schema))
        return pa.concat_tables(parts) if parts else out_schema.empty_table()

    from .shuffle import ABSORB_EMPTY_BATCH_SIZE, select_if_needed

    # ABSORB: empty blocks must emit the melted schema, not the wide one
    return select_if_needed(ds, list(dict.fromkeys(keys + value_cols))).map_batches(
        melt, batch_format="pyarrow", batch_size=ABSORB_EMPTY_BATCH_SIZE, zero_copy_batch=True
    )


def streaming_moments(ds, vec_col: str) -> tuple[int, np.ndarray, np.ndarray]:
    """First and second moments of a list<float> column from ONE streaming
    pass: per-block ``(n, Σx d, X'X d×d)`` partials, merged on the driver
    (associative sums — exact at any block layout). Returns
    ``(n, colsum, xx)`` with ``xx`` the d×d raw second-moment matrix; the
    corpus never moves. Shared by :func:`distributed_pca` and the
    Mahalanobis scorer (functions/anomaly.py). Raises on empty input."""
    from .shuffle import select_if_needed

    def partial(tb: pa.Table) -> pa.Table:
        if tb.num_rows == 0:
            # an empty block must emit NO partial: a width-0 `s` row would
            # crash the driver's np.add.reduce with inhomogeneous shapes
            return pa.table({
                "n": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.list_(pa.float64())),
                "xx": pa.array([], type=pa.list_(pa.float64())),
            })
        x = list_column_to_matrix(tb[vec_col]).astype(np.float64)
        return pa.table(
            {
                "n": pa.array([x.shape[0]], type=pa.int64()),
                "s": pa.array([x.sum(axis=0).tolist()], type=pa.list_(pa.float64())),
                "xx": pa.array([(x.T @ x).reshape(-1).tolist()], type=pa.list_(pa.float64())),
            }
        )

    parts = [
        t
        for t in select_if_needed(ds, [vec_col])
        .map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if not parts:
        raise ValueError("streaming_moments: empty input")
    pt = pa.concat_tables(parts, promote_options="default")
    n = int(pc.sum(pt["n"]).as_py())
    s = np.add.reduce([np.asarray(v, dtype=np.float64) for v in pt["s"].to_pylist()])
    xx = np.add.reduce([np.asarray(v, dtype=np.float64) for v in pt["xx"].to_pylist()])
    return n, s, xx.reshape(s.shape[0], s.shape[0])


def distributed_pca(ds, vec_col: str, k: int, carry: list[str] | None = None):
    """Distributed PCA: fit the top-``k`` principal components from
    streaming covariance partials, then project every row — the
    dimensionality-reduction stage an embedding pipeline runs before
    clustering/ANN (reference analog: the latent bottleneck of
    ``models/VAE_utils.py``; here exact linear PCA, not learned).

    Two passes, both streaming, nothing corpus-sized on the driver:

    1. FIT — one ``map_batches`` emits per-block ``(n, colsum d,
       X'X d×d)`` partials; the driver merges them (exact mean +
       covariance via E[xx'] − μμ', associative sums) and runs ONE
       ``numpy.linalg.eigh`` on the d×d matrix. d is the embedding
       width (tiny next to the corpus); the corpus never moves.
    2. PROJECT — a second ``map_batches`` maps each row to
       ``(x − μ) @ W`` with the broadcast ``(μ, W)`` closure, appending
       a ``list<float>`` column ``{vec_col}_pca``.

    Returns ``(projected_ds, mean, components)`` with components
    (d, k), columns = eigenvectors of the covariance, descending
    eigenvalue order. Component SIGNS are fixed deterministically
    (largest-|coefficient| entry made positive) so results are
    reproducible across runs and block layouts. Rows whose vector is
    null or ragged-width raise — same loud-failure contract as
    ``list_column_to_matrix``."""
    from .shuffle import ABSORB_EMPTY_BATCH_SIZE, select_if_needed

    carry = carry or []
    need = list(dict.fromkeys([vec_col] + carry))

    n, s, xx = streaming_moments(ds, vec_col)
    d = s.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}]")
    mean = s / n
    cov = xx / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    w = evecs[:, ::-1][:, :k]
    # deterministic sign: make each component's largest-|coeff| entry positive
    flip = np.sign(w[np.abs(w).argmax(axis=0), np.arange(k)])
    flip[flip == 0] = 1.0
    w = w * flip
    out_col = f"{vec_col}_pca"

    def project(tb: pa.Table) -> pa.Table:
        x = (np.empty((0, len(mean))) if tb.num_rows == 0
             else list_column_to_matrix(tb[vec_col]).astype(np.float64))
        p = (x - mean) @ w
        lst = pa.FixedSizeListArray.from_arrays(
            pa.array(p.reshape(-1), type=pa.float64()), k
        ).cast(pa.list_(pa.float64()))
        cols = {c: tb[c] for c in need}
        cols[out_col] = lst
        return pa.table(cols)

    proj = select_if_needed(ds, need).map_batches(
        # ABSORB: empty blocks must carry the projected schema
        project, batch_format="pyarrow", batch_size=ABSORB_EMPTY_BATCH_SIZE, zero_copy_batch=True
    )
    return proj, mean, w
