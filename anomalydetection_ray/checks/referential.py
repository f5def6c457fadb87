"""Referential-integrity checks — broadcast semi/anti joins, no shuffle.

Generalizes the reference's only lookup, the broadcast-small-side
semi-join ``data[data['template'].isin(high_freq_keys)]``
(``models/preprocessing.py:7-10``). The dimension side (repo table,
customer table) is small relative to the fact side, so it is summarized
once on the driver, ``ray.put`` into the object store, and probed
vectorized inside every ``map_batches`` task — the fact side streams and
never shuffles.

Two probes:
- exact: sorted numpy array + ``sorted_isin`` — used when the dim key set fits
  comfortably in a worker heap (up to ~10^8 keys). No false results.
- bloom: :class:`BloomFilter` prefilter — negatives are definite orphans;
  positives are re-verified exactly against the sorted dim keys shipped
  beside the filter (:func:`dim_key_broadcast` builds both), so reported
  violations are always exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches import BloomFilter
from .uniqueness import sorted_isin


def _collect_dim_keys(dim_ds, dim_key: str) -> np.ndarray:
    """Distinct dim keys as a sorted numpy array (small side by contract).

    Distinct-per-block happens distributed (map_batches) so the driver only
    concatenates already-deduped key arrays.
    """
    parts = (
        dim_ds.select_columns([dim_key])
        .map_batches(
            lambda t: pa.Table.from_pydict({dim_key: pc.unique(pc.drop_null(t[dim_key].combine_chunks()))}),
            batch_format="pyarrow", batch_size=None,
        )
        .to_pandas()
    )
    if len(parts) == 0:
        return np.array([])
    return np.unique(parts[dim_key].to_numpy())


def semi_join(fact_ds, fact_key: str, dim_ds, dim_key: str, anti: bool = False):
    """Rows of fact whose key [does not] exist in dim — exact broadcast probe.

    ``anti=True`` → orphan rows (referential violations).
    Null fact keys are always violations when ``anti`` (a null FK cannot
    reference anything) and never match when semi.
    """
    import ray

    keys = _collect_dim_keys(dim_ds, dim_key)
    ref = ray.put(keys)

    def probe(batch: pa.Table) -> pa.Table:
        col = batch[fact_key].combine_chunks()
        present = np.zeros(len(col), dtype=bool)
        # drop_null FIRST: np.asarray on a null-bearing int64 column
        # widens it to float64, and keys above 2**53 then match their
        # neighbours (an orphan 2**60+1 "found" as 2**60)
        valid = np.asarray(pc.is_valid(col))
        present[valid] = sorted_isin(ray.get(ref), np.asarray(col.drop_null()))
        return batch.filter(pa.array(~present if anti else present))

    return fact_ds.map_batches(probe, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def dim_key_broadcast(col) -> tuple[BloomFilter, np.ndarray]:
    """A dimension key column → (Bloom filter, sorted distinct keys): the
    broadcast pair both Bloom probes ship. Built on the driver from the
    one collected column — a Ray pipeline per build costs ~0.1 s CPU
    even on a few hundred keys, far more than the build itself.

    Nulls drop ONCE, before any numpy conversion, so an integer column
    stays integral (``np.asarray`` on a null-bearing int64 column widens
    to float64, whose hashes miss int-probed keys and collapse keys above
    2**53). The capacity counts every row, nulls included."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = np.asarray(pc.drop_null(col))
    bloom = BloomFilter(max(1024, len(col)), 0.001).update(vals)
    return bloom, np.unique(vals)


def orphans_bloom(fact_ds, fact_key: str, dim_ds, dim_key: str):
    """Definite orphans via Bloom prefilter + exact re-verification.

    Pass 1 (streaming, no shuffle): rows failing the Bloom probe are
    definite orphans (no Bloom false negatives). Rows passing the probe are
    either present or false positives — at a 1e-3 false-positive rate the candidate
    leak is 0.1% of orphans, re-checked exactly below against the dim key
    set, so the reported set is exact. At dims too large to collect, swap
    the exact key set for a hash-partitioned join of candidates only
    (candidates ≪ fact rows, so that join is tiny either way).
    """
    import ray

    from ..pipelines.queries import as_table

    # ONE dim execution: the key projection is collected to the driver and
    # both broadcast sides are built from it there
    dim = as_table(dim_ds.select_columns([dim_key]))
    col = dim[dim_key] if dim_key in dim.column_names else pa.array([], pa.null())
    bloom, exact = dim_key_broadcast(col)
    bloom_ref, exact_ref = ray.put(bloom.to_bytes()), ray.put(exact)

    def probe(batch: pa.Table) -> pa.Table:
        bf = BloomFilter.view_bytes(ray.get(bloom_ref))  # zero-copy per batch
        col = batch[fact_key].combine_chunks()
        valid = np.asarray(pc.is_valid(col))
        # drop_null FIRST: np.asarray on a null-bearing integer column
        # converts to float64, whose bit-pattern hashes mismatch the
        # int64-hashed dim bloom — every valid key in the block would
        # read as a "definite orphan" with no exact re-check
        vals_v = np.asarray(col.drop_null())
        hit_v = bf.contains(vals_v) if len(vals_v) else np.zeros(0, dtype=bool)
        hit = np.zeros(len(col), dtype=bool)
        hit[valid] = hit_v
        # definite orphans: bloom miss (or null key)
        definite = ~hit
        # bloom hits are re-verified exactly (kills false "present")
        dim = ray.get(exact_ref)
        if hit_v.any():
            definite[np.nonzero(hit)[0]] = ~sorted_isin(dim, vals_v[hit_v])
        return batch.filter(pa.array(definite))

    return fact_ds.map_batches(probe, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
