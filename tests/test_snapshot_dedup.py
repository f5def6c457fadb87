"""Incremental exact dedup against a prior corpus snapshot
(dedup/exact.py:dedup_against_snapshot) — DuckDB parity + plan
equivalence + degenerate inputs."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pytest

from anomalydetection_ray.dedup import dedup_against_snapshot


def _tables():
    new = pa.table({
        "doc_id": pa.array(range(10), type=pa.int64()),
        "text": pa.array([
            "fresh document zero", "already curated alpha", "fresh document two",
            "already curated beta", "fresh document four", "fresh document five",
            None, "", "already curated alpha",  # None/empty + in-batch dup of a snapshot hit
            "fresh document nine",
        ], type=pa.string()),
        "lang": pa.array(["en"] * 10, type=pa.string()),
    })
    snap = pa.table({
        "text": pa.array([
            "already curated alpha", "already curated beta",
            "already curated gamma", "",  # empty string IS curated content
        ], type=pa.string()),
    })
    return new, snap


def _expected(new: pa.Table, snap: pa.Table) -> list[int]:
    con = duckdb.connect()
    con.register("new_docs", new)
    con.register("snap", snap)
    return [r[0] for r in con.execute(
        """SELECT doc_id FROM new_docs
           WHERE text IS NULL
              OR text NOT IN (SELECT text FROM snap WHERE text IS NOT NULL)
           ORDER BY doc_id"""
    ).fetchall()]


@pytest.mark.parametrize("forced", [False, True], ids=["broadcast", "distributed"])
def test_snapshot_dedup_matches_duckdb(ray_session, forced, monkeypatch):
    import ray.data as rd

    from anomalydetection_ray.dedup import exact

    if forced:
        monkeypatch.setattr(exact, "_DRIVER_MERGE_MAX_BYTES", -1)
    new, snap = _tables()
    res = dedup_against_snapshot(rd.from_arrow(new), "doc_id", "text", rd.from_arrow(snap))
    got = pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="default",
    ).sort_by([("doc_id", "ascending")])
    assert got["doc_id"].to_pylist() == _expected(new, snap)
    assert got.schema.names == new.schema.names  # passthrough schema
    assert got.schema == new.schema


def test_snapshot_dedup_empty_snapshot(ray_session):
    import ray.data as rd

    new, _ = _tables()
    snap = pa.table({"text": pa.array([], type=pa.string())})
    res = dedup_against_snapshot(rd.from_arrow(new), "doc_id", "text", rd.from_arrow(snap))
    n = sum(t.num_rows for t in res.iter_batches(batch_format="pyarrow", batch_size=None))
    assert n == new.num_rows


def test_snapshot_dedup_composes_with_exact_dedup(ray_session):
    """Refresh-run composition: snapshot filter then within-delta dedup."""
    import ray.data as rd

    from anomalydetection_ray.dedup import exact_dedup

    new, snap = _tables()
    res = exact_dedup(
        dedup_against_snapshot(rd.from_arrow(new), "doc_id", "text", rd.from_arrow(snap)),
        "doc_id", "text",
    )
    got = pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="default",
    ).sort_by([("doc_id", "ascending")])
    texts = got["text"].to_pylist()
    assert len(texts) == len(set(t for t in texts if t is not None)) + texts.count(None)
    assert "already curated alpha" not in texts
