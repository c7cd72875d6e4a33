"""URL-seen shards — the frontier's anti-join.

The seen set is the crawl's biggest piece of global mutable state; Ray
Data cannot express a streaming test-and-set, so it is split into
2^shard_bits logical ``SeenShard``s by the top bits of the 64-bit
canonical-URL hash (routing is pure arithmetic — no lookup table, no
shuffle).  The shards live on the state-host actors (state/host.py):
a few actors, each holding many logical shards.  Test-and-set is
idempotent, which makes fetch retries safe: re-adding a hash simply
returns "already seen".

Scale math (north rule, 10^10 URLs): exact sets don't fit, so shards
switch to bloom mode — 10 bits/URL = 12.5 GB across the cluster, ~256
logical shards → ~50 MB/shard, FP ~0.8% (a false positive means a URL
is wrongly skipped).  The default ``tandem`` mode keeps an exact set
beside the bloom, answers from the exact set and counts divergences,
so the bloom path is continuously verified against ground truth.

Callers (``SeenFilter`` in state/host.py) batch hashes per host and
issue one RPC per host per batch — RPC count is O(hosts), not
O(shards) or O(urls).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bloom import BloomFilter


class SeenShard:
    """One shard: a bloom filter over uint64 hashes, plus (tandem) an
    exact set that answers and counts the bloom's divergences.
    Modes: bloom | tandem."""

    def __init__(self, mode: str = "tandem", capacity: int = 1_000_000):
        if mode not in ("bloom", "tandem"):
            raise ValueError(f"unknown seen mode: {mode!r}")
        self.mode = mode
        self.exact = set() if mode == "tandem" else None
        self.bloom = BloomFilter(capacity)
        self.divergences = 0
        self.added = 0

    def add_batch(self, hashes: Sequence[int]):
        """Test-and-set: True = newly seen (caller should fetch).

        Accepts a list or a numpy uint64 array (workers ship arrays —
        zero-copy through the object store) and returns a numpy bool
        array.  Within-batch DUPLICATES keep exact sequential
        semantics at every mode: the batch dedups first (np.unique),
        only the first occurrence can be new.  The bloom rides the
        vectorized test-and-set (BloomFilter.add_batch_unique)."""
        h = np.asarray(hashes, dtype=np.uint64)
        if not h.size:
            return np.zeros(0, dtype=bool)
        uniq, first_idx, inv = np.unique(
            h, return_index=True, return_inverse=True)
        new_uniq = self.bloom.add_batch_unique(uniq)
        if self.exact is not None:
            ex = self.exact
            exact_new = np.fromiter((int(u) not in ex for u in uniq),
                                    dtype=bool, count=uniq.size)
            ex.update(int(u) for u in uniq[exact_new])
            self.divergences += int((new_uniq != exact_new).sum())
            new_uniq = exact_new
        self.added += int(new_uniq.sum())
        # only the FIRST occurrence of a duplicated key may be new
        first_mask = np.zeros(h.size, dtype=bool)
        first_mask[first_idx] = True
        return new_uniq[inv] & first_mask

    def stats(self) -> dict:
        return {"added": self.added, "divergences": self.divergences,
                "mode": self.mode,
                "bloom_bytes": self.bloom.approx_bytes}

