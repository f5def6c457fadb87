"""MinHash signatures + LSH banding for near-duplicate detection.

Not present in the reference (it has no dedup at all — SURVEY.md §2.7); a
first-class capability of this engine for training-data pipelines.
Vectorized: shingles are hashed to uint64 once, then ``num_perm``
universal-hash permutations ``(a*x + b) mod p`` are applied as one
broadcasted numpy op. LSH: the signature splits into ``bands`` bands of
``rows_per_band`` rows; each band hashes to a bucket key, and two documents
sharing any band bucket become a candidate pair (checked downstream by a
``groupby(band_id, band_hash)`` in the dedup pipeline — no pairwise loop).
"""

from __future__ import annotations

import numpy as np

from .hll import _avalanche, _fnv1a

_MERSENNE_P = np.uint64((1 << 61) - 1)


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """uint64 hashes of the k-character shingles of `text` (rolling)."""
    if not text:
        return np.zeros(1, dtype=np.uint64)
    b = text.encode("utf-8", "surrogatepass")
    if len(b) <= k:
        return np.array([_fnv1a(b)], dtype=np.uint64)
    a = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
    # polynomial rolling hash over byte windows, fully vectorized:
    # windows as a strided view, dot with powers of the base.
    base = np.uint64(1099511628211)
    powers = np.empty(k, dtype=np.uint64)
    powers[0] = 1
    with np.errstate(over="ignore"):  # uint64 wraparound is the hash
        for i in range(1, k):
            powers[i] = powers[i - 1] * base
        win = np.lib.stride_tricks.sliding_window_view(a, k)
        h = (win * powers[::-1]).sum(axis=1, dtype=np.uint64)
    return _avalanche(np.unique(h))


def word_hashes(text: str) -> np.ndarray:
    """uint64 hashes of whitespace tokens (for word-level Jaccard)."""
    toks = text.split()
    if not toks:
        return np.zeros(1, dtype=np.uint64)
    return _avalanche(np.array([_fnv1a(t.encode("utf-8", "surrogatepass")) for t in set(toks)], dtype=np.uint64))


def concat_hash_sets(hash_sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-doc hash arrays into ``(values, offsets)`` for
    :meth:`MinHasher.batch_signatures` — doc i's hashes are
    ``values[offsets[i]:offsets[i+1]]``.

    NOTE: per-doc hashing (``shingle_hashes`` / ``word_hashes``) is kept
    deliberately. A fully-batched hashing path (one concatenated byte
    buffer + one strided rolling pass) was built and MEASURED SLOWER at
    sf0.1 (0.48 s vs 0.23 s per 4k docs for char shingles, 0.19 s vs
    0.13 s for words): per-doc ``np.unique`` shrinks downstream signature
    work by ~30%, and per-doc temporaries stay cache-resident. The wins
    kept from that experiment are batch_signatures / batch_band_keys
    below — details in BASELINE.md."""
    offsets = np.zeros(len(hash_sets) + 1, dtype=np.int64)
    np.cumsum([len(h) for h in hash_sets], out=offsets[1:])
    values = np.concatenate(hash_sets) if hash_sets else np.empty(0, dtype=np.uint64)
    return values, offsets


class MinHasher:
    """Stateful signature generator — build once per actor (the analog of
    the reference loading CodeBERT once per process,
    ``models/feature_extraction.py:37-43``)."""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.a = rng.randint(1, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, (1 << 61) - 1, size=num_perm).astype(np.uint64)

    def batch_signatures(self, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(n_docs, num_perm) signatures for concatenated hash sets
        (:func:`concat_hash_sets`) — the vectorized replacement for a
        per-doc signature loop (``min((a·x + b) mod p)`` per permutation). Permuted hashes for a slab of
        documents are one matrix op, Mersenne-reduced WITHOUT hardware
        division (v = q·(p+1) + low ⇒ v mod p = (q+low) mod p, one
        conditional subtract) and all in-place, then collapsed to per-doc
        minima with ``np.minimum.reduceat``. Bit-identical to the per-doc
        path (tests assert equality). The slab is small on purpose:
        512 values × num_perm × 8 B ≈ 0.5 MB stays L2-resident — measured
        3.6× faster than 64 MB slabs (DRAM-bound) at sf0.1."""
        n = len(offsets) - 1
        if n == 0:
            return np.empty((0, self.num_perm), dtype=np.uint64)
        if np.any(offsets[1:] == offsets[:-1]):
            # reduceat silently reads the next doc's slice for an empty
            # doc; hashers guarantee ≥1 hash per doc, so this is a bug.
            raise ValueError("batch_signatures requires a non-empty hash set per doc")
        out = np.empty((n, self.num_perm), dtype=np.uint64)
        # ~512 KB working set: slab_vals × num_perm × 8 B stays L2-resident
        slab_vals = max(1, (1 << 19) // (self.num_perm * 8))
        i0 = 0
        with np.errstate(over="ignore"):
            while i0 < n:
                i1 = int(np.searchsorted(offsets, offsets[i0] + slab_vals, side="left"))
                i1 = min(n, max(i1, i0 + 1))
                x = values[offsets[i0] : offsets[i1]][:, None]
                v = self.a[None, :] * x
                v += self.b[None, :]
                r = v & _MERSENNE_P
                v >>= np.uint64(61)
                r += v
                np.subtract(r, _MERSENNE_P, out=r, where=r >= _MERSENNE_P)
                idx = (offsets[i0:i1] - offsets[i0]).astype(np.int64)
                out[i0:i1] = np.minimum.reduceat(r, idx, axis=0)
                i0 = i1
        return out


def batch_band_keys(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) bucket keys for a signature MATRIX — one avalanche
    pass per band row across all docs instead of a per-doc loop.
    Bit-identical to a per-row loop (tests assert equality)."""
    n, num_perm = sigs.shape
    rows = num_perm // bands
    view = sigs[:, : bands * rows].reshape(n, bands, rows)
    key = np.zeros((n, bands), dtype=np.uint64)
    for r in range(rows):
        key = _avalanche(key ^ view[:, :, r])
    return key

