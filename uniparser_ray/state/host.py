"""State hosts: the crawl's logical state shards on a few actors.

The crawl's global mutable state is four families of logical shards,
each a plain in-process object:

* ``seen`` / ``img_seen`` — :class:`SeenShard`, routed by the top
  ``shard_bits`` bits of the 64-bit canonical-URL hash;
* ``robots`` — :class:`RobotsShard`, routed by ``url_hash64(host) % n``;
* ``politeness`` — :class:`PolitenessShard`, routed the same way.

Ray Data cannot express a streaming test-and-set, so the shards live in
``StateHost`` actors: logical shard ``i`` of every family sits on host
``i % n_hosts``.  A crawl starts one host per alive node (never more
than the logical shard count): a fresh actor is a fresh worker
process, and starting one per logical shard (16 by default) costs
more CPU than a small crawl spends crawling.

The family clients (:class:`SeenFilter`, :class:`RobotsClient`,
:class:`PolitenessClient`) are picklable into map tasks.  Per batch
they send ONE RPC per host, carrying the slices of every logical shard
that host owns, and the host splits it by shard — the RPC count is
O(hosts) per batch, not O(shards) or O(urls).  Logical shards, not
hosts, keep the 10^10-URL sizing: ~256 seen shards of ~50 MB bloom
each spread over however many nodes the cluster has.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np
import ray

from ..rulevm.urlutil import url_hash64
from .politeness import PolitenessShard
from .robots import RobotsShard
from .seen import SeenShard


def runs(keys: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(key, positions)`` per distinct key, keys ascending, each
    key's positions in input order (one stable argsort — no per-row
    Python grouping)."""
    if not keys.size:
        return []
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    return [(int(keys[p[0]]), p) for p in np.split(order, cuts)]


def seen_shard_ids(hashes: np.ndarray, shard_bits: int) -> np.ndarray:
    """Logical seen shard of each hash: its top ``shard_bits`` bits."""
    if not shard_bits:
        return np.zeros(hashes.size, dtype=np.int64)
    return (hashes >> np.uint64(64 - shard_bits)).astype(np.int64)


def host_shard_ids(hosts: List[str], num_shards: int) -> np.ndarray:
    """Logical robots / politeness shard of each row's host:
    ``url_hash64(host) % num_shards``, hashed once per distinct host."""
    uniq, inv = np.unique(np.asarray(hosts, dtype=object),
                          return_inverse=True)
    sids = np.fromiter((url_hash64(h) % num_shards for h in uniq),
                       dtype=np.int64, count=uniq.size)
    return sids[inv.reshape(-1)]


class StateHost:
    """Logical shards ``index, index + n_hosts, ...`` of every family.

    ``seen`` maps a seen family's name to its shard bits.  All of this
    host's robots shards share one web (the robots.txt transport)."""

    def __init__(self, index: int, n_hosts: int, seen: Dict[str, int],
                 seen_mode: str = "tandem", seen_capacity: int = 1_000_000,
                 robots_shards: int = 0, web_config: dict = None,
                 robots_matcher: str = "prefix",
                 robots_user_agent: str = "uniparser-ray",
                 politeness_shards: int = 0):
        def owned(n: int) -> range:
            return range(index, n, n_hosts)

        self.seen_bits = dict(seen)
        self.num_shards = {"robots": robots_shards,
                           "politeness": politeness_shards}
        self.shards: Dict[str, Dict[int, object]] = {
            family: {i: SeenShard(seen_mode, seen_capacity)
                     for i in owned(1 << bits)}
            for family, bits in seen.items()}
        web = None
        if robots_shards and web_config is not None:
            from ..sources.synthweb import SynthWeb
            web = SynthWeb(**web_config)
        self.shards["robots"] = {
            i: RobotsShard(web_factory=(lambda: web)
                           if web is not None else None,
                           matcher=robots_matcher,
                           user_agent=robots_user_agent)
            for i in owned(robots_shards)}
        self.shards["politeness"] = {i: PolitenessShard()
                                     for i in owned(politeness_shards)}

    def ready(self) -> int:
        """Readiness ping: the number of logical shards held."""
        return sum(len(s) for s in self.shards.values())

    def shard_stats(self, family: str, sid: int) -> dict:
        return self.shards[family][sid].stats()

    def stats(self, family: str) -> Dict[int, dict]:
        """``{logical shard id: stats}`` of this host's shards."""
        return {sid: s.stats() for sid, s in self.shards[family].items()}

    def _by_host(self, family: str, hosts: List[str]):
        shards = self.shards[family]
        return [(shards[sid], idx) for sid, idx in
                runs(host_shard_ids(hosts, self.num_shards[family]))]

    def seen_add(self, family: str, hashes: np.ndarray) -> np.ndarray:
        """Test-and-set of a batch over this host's shards of a seen
        family: True = newly seen."""
        h = np.asarray(hashes, dtype=np.uint64)
        out = np.zeros(h.size, dtype=bool)
        shards = self.shards[family]
        for sid, idx in runs(seen_shard_ids(h, self.seen_bits[family])):
            out[idx] = shards[sid].add_batch(h[idx])
        return out

    def robots_check(self, hosts: List[str], paths: List[str]) \
            -> Tuple[np.ndarray, np.ndarray]:
        """(allow mask, host Crawl-delay) per (host, path) row."""
        mask = np.ones(len(hosts), dtype=bool)
        delays = np.zeros(len(hosts), dtype=np.float32)
        for shard, idx in self._by_host("robots", hosts):
            m, d = shard.allowed_delays_many(
                [(hosts[i], paths[i]) for i in idx])
            mask[idx] = m
            delays[idx] = d
        return mask, delays

    def politeness_acquire(self, hosts: List[str],
                           counts: List[int]) -> List[List[float]]:
        """Wall-clock delay schedules, one list per (host, count)."""
        out: List[List[float]] = [[] for _ in hosts]
        for shard, idx in self._by_host("politeness", hosts):
            got = shard.acquire_batch_many([hosts[i] for i in idx],
                                           [counts[i] for i in idx])
            for i, d in zip(idx, got):
                out[i] = d
        return out

    def politeness_set_rule(self, host: str, n: float,
                            interval: float = 1.0) -> None:
        sid = url_hash64(host) % self.num_shards["politeness"]
        self.shards["politeness"][sid].set_rule(host, n, interval)


_StateHostActor = ray.remote(num_cpus=0.01)(StateHost)


def start_state_hosts(n_hosts: int = None, **spec) -> List:
    """Start the state hosts of one run (``spec`` = :class:`StateHost`
    keywords).  By default one host per alive Ray node, capped at the
    largest family's logical shard count."""
    if n_hosts is None:
        n_logical = max([1 << b for b in spec.get("seen", {}).values()]
                        + [spec.get("robots_shards", 0),
                           spec.get("politeness_shards", 0), 1])
        nodes = sum(1 for n in ray.nodes() if n.get("Alive"))
        n_hosts = max(1, min(n_logical, nodes))
    return [_StateHostActor.options(scheduling_strategy="SPREAD")
            .remote(i, n_hosts, **spec) for i in range(n_hosts)]


def _fan_out(hosts: List, n_rows: int, shard_ids, call):
    """One RPC per host over the rows whose logical shard it owns:
    ``call(handle, positions)``.  ``shard_ids()`` (each row's logical
    shard) is only computed when there is more than one host.
    Returns (positions per RPC, futures) without blocking, so callers
    can coalesce the wait with other RPC waves."""
    if not n_rows:
        return [], []
    if len(hosts) == 1:
        idx = np.arange(n_rows)
        return [idx], [call(hosts[0], idx)]
    slices, futures = [], []
    for h, idx in runs(shard_ids() % len(hosts)):
        slices.append(idx)
        futures.append(call(hosts[h], idx))
    return slices, futures


class ShardRef:
    """One logical shard on its host: ``ref.stats.remote()`` returns
    that shard's own stats, as an actor method call would."""

    def __init__(self, host, family: str, sid: int):
        self.stats = SimpleNamespace(remote=functools.partial(
            host.shard_stats.remote, family, sid))


class _Client:
    """A family's view of the state hosts.  The repr names the host
    actors: fetch stages are cached per worker under their kwargs'
    reprs, so a client of another run must never compare equal."""

    family = ""

    def __init__(self, hosts: List, num_shards: int):
        self.hosts = list(hosts)
        self.num_shards = num_shards

    @property
    def shards(self) -> List[ShardRef]:
        return [ShardRef(self.hosts[i % len(self.hosts)], self.family, i)
                for i in range(self.num_shards)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.family}, " \
               f"{self.num_shards}, {self.hosts!r})"


class SeenFilter(_Client):
    """Test-and-set client of one seen family (URL or image hashes)."""

    def __init__(self, hosts: List, family: str, shard_bits: int):
        super().__init__(hosts, 1 << shard_bits)
        self.family = family
        self.shard_bits = shard_bits

    def add_futures(self, hashes: np.ndarray):
        """Launch the batch's test-and-set RPCs: (positions, futures of
        masks).  Hashes ship as numpy slices — zero-copy through the
        object store."""
        return _fan_out(
            self.hosts, hashes.size,
            lambda: seen_shard_ids(hashes, self.shard_bits),
            lambda h, idx: h.seen_add.remote(self.family, hashes[idx]))

    def add_batch(self, hashes: np.ndarray) -> np.ndarray:
        """Blocking test-and-set: True = newly seen."""
        out = np.zeros(hashes.size, dtype=bool)
        slices, futures = self.add_futures(hashes)
        for idx, res in zip(slices, ray.get(futures)):
            out[idx] = res
        return out

    def stats(self) -> dict:
        per_shard: Dict[int, dict] = {}
        for part in ray.get([h.stats.remote(self.family)
                             for h in self.hosts]):
            per_shard.update(part)
        return {
            "added": sum(s["added"] for s in per_shard.values()),
            "divergences": sum(s["divergences"]
                               for s in per_shard.values()),
            "shards": self.num_shards,
        }


class RobotsClient(_Client):
    """Robots admission client: (allow, Crawl-delay) per (host, path)."""

    family = "robots"

    def futures(self, hosts: List[str], paths: List[str]):
        """Launch the batch's robots RPCs: (positions, futures of
        (mask, delays))."""
        return _fan_out(
            self.hosts, len(hosts),
            lambda: host_shard_ids(hosts, self.num_shards),
            lambda h, idx: h.robots_check.remote(
                [hosts[i] for i in idx], [paths[i] for i in idx]))

    def allowed(self, host: str, path: str) -> bool:
        _slices, (fut,) = self.futures([host], [path])
        return bool(ray.get(fut)[0][0])


class PolitenessClient(_Client):
    """Wall-clock politeness client: per-host delay schedules computed
    on the owning shard's clock (all of a host's schedule lives in one
    shard, so timestamps never cross node clock domains)."""

    family = "politeness"

    def acquire(self, hosts: List[str],
                counts: List[int]) -> List[List[float]]:
        out: List[List[float]] = [[] for _ in hosts]
        slices, futures = _fan_out(
            self.hosts, len(hosts),
            lambda: host_shard_ids(hosts, self.num_shards),
            lambda h, idx: h.politeness_acquire.remote(
                [hosts[i] for i in idx], [counts[i] for i in idx]))
        for idx, res in zip(slices, ray.get(futures)):
            for i, d in zip(idx, res):
                out[i] = d
        return out

    def set_rule(self, host: str, n: float, interval: float = 1.0) -> None:
        """``Frequency(n, interval)`` for one host."""
        sid = url_hash64(host) % self.num_shards
        ray.get(self.hosts[sid % len(self.hosts)]
                .politeness_set_rule.remote(host, n, interval))
