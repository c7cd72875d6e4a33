"""Per-host politeness: wall-clock token buckets.

The reference gates each host behind ``Frequency(n, interval)``
(reference: parsers.py:1582-1592, behavior pinned by its timing test).
A 256-node crawl cannot share a process-local gate, so politeness is
split into logical shards keyed by ``url_hash64(host) % n`` that live
on the state-host actors (state/host.py): fetch tasks acquire tokens
in batch, one RPC per host, before issuing requests.
``acquire_batch`` returns per-URL delays the fetcher must sleep before
each request (fetchers sleep, actors never block).

This is pacing in real time only.  What the round-based crawl fetches
is decided by its own virtual clock, the per-host grant in
crawl/loop.py, which the conformance oracle mirrors.
"""

from __future__ import annotations

from typing import Dict, List


class PolitenessShard:
    def __init__(self, default_rate: float = 0.0, default_interval: float = 1.0):
        # rate = max requests per interval; 0 = unlimited
        self.rules: Dict[str, tuple] = {}
        self.default = (default_rate, default_interval)
        # wall-clock state: host -> next allowed time
        self.next_free: Dict[str, float] = {}

    def set_rule(self, host: str, n: float, interval: float = 1.0):
        self.rules[host] = (n, interval)

    def acquire_batch(self, host: str, count: int,
                      now: float = None) -> List[float]:
        """Delays (seconds from now) before each of ``count`` requests.

        ``now`` defaults to the SHARD's own monotonic clock — callers
        must not pass their own timestamps on a multi-node cluster
        (monotonic epochs are incomparable across nodes); all schedule
        state for a host lives in its one shard, so the shard-local
        clock is the consistent reference.  The explicit ``now``
        parameter exists for deterministic unit tests."""
        if now is None:
            import time
            now = time.monotonic()
        n, interval = self.rules.get(host, self.default)
        if not n:
            return [0.0] * count
        gap = interval / n
        start = max(self.next_free.get(host, now), now)
        delays = [max(0.0, start + i * gap - now) for i in range(count)]
        self.next_free[host] = start + count * gap
        return delays

    def acquire_batch_many(self, hosts: List[str],
                           counts: List[int]) -> List[List[float]]:
        """One RPC for a whole batch's worth of hosts: delays for each
        (host, count) pair on a single shared ``now``.  A fetch batch
        touches up to batch_size distinct hosts — per-host RPCs are an
        actor-queue storm at high task concurrency (measured: the
        politeness-on crawl leg scaled at 0.46 vs 0.84 politeness-off
        at 32 CPUs); the state host hands each shard its slice of one
        batched RPC."""
        import time
        now = time.monotonic()
        return [self.acquire_batch(h, c, now=now)
                for h, c in zip(hosts, counts)]

