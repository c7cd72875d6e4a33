"""State hosts: the crawl's logical state shards on a few actors.

The crawl's global mutable state is three families of logical shards,
each a plain in-process object:

* ``seen`` / ``img_seen`` — :class:`SeenShard`, routed by the top
  ``shard_bits`` bits of the 64-bit canonical-URL hash;
* ``robots`` — :class:`RobotsShard`, routed by ``url_hash64(host) % n``.

Ray Data cannot express a streaming test-and-set, so the shards live in
``StateHost`` actors: logical shard ``i`` of every family sits on host
``i % n_hosts``.  A crawl uses one host per alive node (never more
than the logical shard count), leased from a driver-local pool of
warm hosts: a fresh actor is a fresh worker process, whose start-up
(and the idle worker Ray starts to replace it) costs more CPU than a
small crawl spends crawling.  A lease resets each pooled host to the
state a fresh one would have (:meth:`StateHost.reset`); an actor is
started only when the pool runs dry or a pooled host has died.  The
pooled actors belong to the driver and die with its Ray session.

The family clients (:class:`SeenFilter`, :class:`RobotsClient`) are
picklable into map tasks.  Per batch they send ONE RPC per host,
carrying the slices of every logical shard that host owns, and the
host splits it by shard — the RPC count is O(hosts) per batch, not
O(shards) or O(urls).  Tasks wait on these RPCs through
:func:`rpc_get`, which keeps the waiting task's CPU.  Logical shards,
not hosts, keep the 10^10-URL sizing: ~256 seen shards of ~50 MB bloom
each spread over however many nodes the cluster has.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np
import ray

from ..rulevm.urlutil import url_hash64
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
    """Logical robots shard of each row's host:
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
                 robots_user_agent: str = "uniparser-ray"):
        def owned(n: int) -> range:
            return range(index, n, n_hosts)

        self.seen_bits = dict(seen)
        self.num_robots = robots_shards
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
                           user_agent=robots_user_agent)
            for i in owned(robots_shards)}

    def reset(self, index: int, n_hosts: int, **spec) -> int:
        """Lease this host anew: exactly the state ``__init__`` builds
        (new empty shards, the same robots web).  Returns the readiness
        count."""
        self.__init__(index, n_hosts, **spec)
        return self.ready()

    def ready(self) -> int:
        """Readiness ping: the number of logical shards held."""
        return sum(len(s) for s in self.shards.values())

    def shard_stats(self, family: str, sid: int) -> dict:
        return self.shards[family][sid].stats()

    def stats(self, family: str) -> Dict[int, dict]:
        """``{logical shard id: stats}`` of this host's shards."""
        return {sid: s.stats() for sid, s in self.shards[family].items()}

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
        shards = self.shards["robots"]
        for sid, idx in runs(host_shard_ids(hosts, self.num_robots)):
            m, d = shards[sid].allowed_delays_many(
                [(hosts[i], paths[i]) for i in idx])
            mask[idx] = m
            delays[idx] = d
        return mask, delays


_StateHostActor = ray.remote(num_cpus=0.01)(StateHost)

# idle leased-out-and-returned hosts of the current Ray session
_POOL = {"session": None, "idle": []}
_LEASES = itertools.count(1)


class StateHosts(list):
    """The host handles of one lease.  ``lease`` numbers the lease in
    this driver process (the family clients name it in their repr);
    ``ready`` holds one readiness ping per actor it had to start, and
    ``started`` counts them."""

    def __init__(self, handles, lease: int, ready: list):
        super().__init__(handles)
        self.lease = lease
        self.ready = ready
        self.started = len(ready)


def _idle_pool() -> list:
    """This Ray session's idle hosts.  The pool is keyed by the
    driver's node and job ids, so no handle outlives ``ray.shutdown()``
    (job ids alone repeat across local sessions in one process)."""
    ctx = ray.get_runtime_context()
    session = (ctx.get_node_id(), ctx.get_job_id())
    if _POOL["session"] != session:
        _POOL["session"], _POOL["idle"] = session, []
    return _POOL["idle"]


def _alive_nodes() -> int:
    return sum(1 for n in ray.nodes() if n.get("Alive"))


def start_state_hosts(n_hosts: int = None, **spec) -> StateHosts:
    """Lease the state hosts of one run (``spec`` = :class:`StateHost`
    keywords).  By default one host per alive Ray node, capped at the
    largest family's logical shard count.

    Idle pooled hosts are reset first, and every reset is waited for:
    the run's tasks call the hosts from other processes, with no
    ordering against the driver's calls.  A host whose reset finds it
    dead is replaced by a new actor, as is every host the pool lacks.
    New actors are not waited for, so their start overlaps the
    caller's work, but the caller must wait on the lease's ``ready``
    pings before any task calls the hosts: tasks wait in
    :func:`rpc_get`, which keeps their CPU, so on a busy session they
    could hold every CPU ahead of a host still to be placed (it needs
    0.01 CPU) and wait on it forever."""
    if n_hosts is None:
        n_logical = max([1 << b for b in spec.get("seen", {}).values()]
                        + [spec.get("robots_shards", 0), 1])
        n_hosts = max(1, min(n_logical, _alive_nodes()))
    idle = _idle_pool()
    leased = [idle.pop() for _ in range(min(len(idle), n_hosts))]
    resets = [h.reset.remote(i, n_hosts, **spec)
              for i, h in enumerate(leased)]
    reused = ([_answers(fut) for fut in resets]
              + [False] * (n_hosts - len(resets)))
    hosts = [leased[i] if reused[i] else
             _StateHostActor.options(scheduling_strategy="SPREAD")
             .remote(i, n_hosts, **spec) for i in range(n_hosts)]
    return StateHosts(hosts, next(_LEASES),
                      [h.ready.remote() for h, r in zip(hosts, reused)
                       if not r])


def _answers(fut) -> bool:
    """Waits for a pooled host's reset: False if the host has died."""
    try:
        ray.get(fut)
        return True
    except ray.exceptions.RayActorError:
        return False


def release_state_hosts(hosts) -> None:
    """Return a lease's hosts to this session's pool, which keeps at
    most one idle host per alive node; the extra ones are killed."""
    idle = _idle_pool()
    idle.extend(hosts)
    while len(idle) > _alive_nodes():
        ray.kill(idle.pop(0))


# starts its one thread at the first wait, not at import
_WAITER = ThreadPoolExecutor(1, thread_name_prefix="rpc-wait")


def rpc_get(futures):
    """``ray.get`` of state-host RPC results.  A task that waits on its
    main thread is counted as blocked: the raylet hands its CPU to a
    queued task, starting a worker process for it when none is idle,
    and trims that process again once it idles past the session's
    soft limit (one worker per CPU), so the next burst starts it anew.
    These RPCs answer in milliseconds, so the wait runs on a helper
    thread, where Ray keeps the task's CPU.  The hosts must already be
    placed (see :func:`start_state_hosts`): a wait that keeps its CPU
    gives none to an actor still to be placed."""
    return _WAITER.submit(ray.get, futures).result()


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
    """A family's view of one lease of the state hosts.  The repr names
    the lease and the host actors: fetch stages are cached per worker
    under their kwargs' reprs, so a client of another run must never
    compare equal, even when its lease reuses the same actors."""

    family = ""

    def __init__(self, hosts: StateHosts, num_shards: int):
        self.hosts = list(hosts)
        self.lease = hosts.lease
        self.num_shards = num_shards

    @property
    def shards(self) -> List[ShardRef]:
        return [ShardRef(self.hosts[i % len(self.hosts)], self.family, i)
                for i in range(self.num_shards)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.family}, " \
               f"{self.num_shards}, lease {self.lease}, {self.hosts!r})"


class SeenFilter(_Client):
    """Test-and-set client of one seen family (URL or image hashes)."""

    def __init__(self, hosts: StateHosts, family: str, shard_bits: int):
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
        for idx, res in zip(slices, rpc_get(futures)):
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
        return bool(rpc_get(fut)[0][0])
