"""Bloom filter over 64-bit hashes (numpy bit array).

Sized for the north rule's 10^10-URL frontier: at 10 bits/key and
k=7 hash probes the false-positive rate is ~0.8%; split into 2^s
logical shards the per-shard array stays a few GiB at full scale and a
few KiB at test scale.  Derived probes come from the one 64-bit input hash
(no rehashing — the input is already a blake2 digest), a standard
double-hashing scheme from the public bloom-filter literature.

Test-scale shards also keep an exact Python set so the engine can
verify zero-divergence between bloom and exact answers (the tandem
check promised in SURVEY.md §4).
"""

from __future__ import annotations

import numpy as np


class BloomFilter:
    def __init__(self, capacity: int, bits_per_key: int = 10, probes: int = 7):
        self.num_bits = max(64, capacity * bits_per_key)
        self.probes = probes
        self.bits = np.zeros((self.num_bits + 7) // 8, dtype=np.uint8)

    def add_batch_unique(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized test-and-set over a batch of DISTINCT keys:
        all probe bits are read before any is set, so a key is "new"
        iff any of its probes was unset at batch START.  For distinct
        keys this differs from the sequential loop only when two keys
        in one batch collide on probe bits (false-positive-rate-level
        odds) — and errs on the PERMISSIVE side (a key is never
        wrongly dropped as seen).  ~50x a per-key Python loop; the
        caller (SeenShard.add_batch) dedups first so within-batch
        duplicate semantics stay exact."""
        h = np.asarray(hashes, dtype=np.uint64)
        if not h.size:
            return np.zeros(0, dtype=bool)
        h1 = h & np.uint64(0xFFFFFFFF)
        h2 = (h >> np.uint64(32)) | np.uint64(1)
        i = np.arange(self.probes, dtype=np.uint64)[:, None]
        pos = (h1[None, :] + i * h2[None, :]) % np.uint64(self.num_bits)
        byte = (pos >> np.uint64(3)).astype(np.int64)
        bit = (np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
        unset = (self.bits[byte] & bit) == 0          # (probes, n)
        new = unset.any(axis=0)
        np.bitwise_or.at(self.bits, byte.ravel(), bit.ravel())
        return new

    @property
    def approx_bytes(self) -> int:
        return self.bits.nbytes
