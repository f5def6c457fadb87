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


def l2_norm_batch(batch: pa.Table, vec_col: str = "embedding") -> pa.Table:
    m = list_column_to_matrix(batch[vec_col])
    norms = np.linalg.norm(m, axis=1)
    return batch.append_column("anomaly_score", pa.array(norms, type=pa.float64()))


def grouped_centroids(ds, group_col: str, vec_col: str):
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


def streaming_moments(ds, vec_col: str) -> tuple[int, np.ndarray, np.ndarray]:
    """First and second moments of a list<float> column from ONE streaming
    pass: per-block ``(n, Σx d, X'X d×d)`` partials, merged on the driver
    (associative sums — exact at any block layout). Returns
    ``(n, colsum, xx)`` with ``xx`` the d×d raw second-moment matrix; the
    corpus never moves. Feeds the Mahalanobis scorer
    (functions/anomaly.py). Raises on empty input."""
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
