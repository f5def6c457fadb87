"""Bloom filter for broadcast semi-joins (vectorized, mergeable).

The reference's only content-based lookup is a broadcast-small-side
semi-join: ``data[data['template'].isin(high_freq_keys)]``
(``models/preprocessing.py:7-10``). The analogous referential check (every
row's ``repo`` exists in the repo dimension) ships the small side twice,
each ``ray.put`` once: as a Bloom filter, probed vectorized inside
``map_batches``, and as the sorted exact key set
(``checks/referential.py:dim_key_broadcast`` builds both). Bloom
*negatives* are definite violations without touching the exact keys;
positives are re-verified exactly against them, so no false violations
are ever reported (a false positive only ever *hides* a violation from the
fast path, and the exact re-check catches those).
"""

from __future__ import annotations

import numpy as np

from .hll import hash64


class BloomFilter:
    __slots__ = ("m", "num_hashes", "bits")

    def __init__(self, capacity: int, fp_rate: float = 0.01):
        capacity = max(1, int(capacity))
        m = int(np.ceil(-capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        self.m = max(64, m)
        self.num_hashes = max(1, int(round(self.m / capacity * np.log(2))))
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    def _positions(self, values) -> np.ndarray:
        """(len(values), num_hashes) bit positions via double hashing."""
        h1 = hash64(values)
        h2 = hash64(h1)  # second independent mix
        i = np.arange(self.num_hashes, dtype=np.uint64)
        pos = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(self.m)
        return pos

    def update(self, values) -> "BloomFilter":
        if not self.bits.flags.writeable:
            raise ValueError("read-only Bloom view (view_bytes): probe-only, cannot update")
        if len(values) == 0:
            return self
        pos = self._positions(values).ravel()
        word = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        np.bitwise_or.at(self.bits, word, bit)
        return self

    def contains(self, values) -> np.ndarray:
        """Vectorized membership probe → bool array (may have false pos)."""
        if len(values) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(values)
        word = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        hit = (self.bits[word] & bit) != 0
        return hit.all(axis=1)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if not self.bits.flags.writeable:
            raise ValueError("read-only Bloom view (view_bytes): probe-only, cannot merge")
        if other.m != self.m or other.num_hashes != self.num_hashes:
            raise ValueError("incompatible Bloom filters")
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self

    def to_bytes(self) -> bytes:
        header = np.array([self.m, self.num_hashes], dtype=np.int64).tobytes()
        return header + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        m, k = np.frombuffer(data[:16], dtype=np.int64)
        sk = cls.__new__(cls)
        sk.m, sk.num_hashes = int(m), int(k)
        sk.bits = np.frombuffer(data[16:], dtype=np.uint64).copy()
        return sk

    @classmethod
    def view_bytes(cls, data: bytes) -> "BloomFilter":
        """Zero-copy READ-ONLY view over a serialized filter — the probe
        path for a plasma-shared payload (``contains`` never mutates;
        ``update``/``merge`` on a view raise on the read-only buffer)."""
        m, k = np.frombuffer(data[:16], dtype=np.int64)
        sk = cls.__new__(cls)
        sk.m, sk.num_hashes = int(m), int(k)
        sk.bits = np.frombuffer(data, dtype=np.uint64, offset=16)
        return sk
