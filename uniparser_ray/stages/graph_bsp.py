"""BSP graph engine: Pregel-style supersteps over shard actors.

Why raw actors (the one place the Dataset API genuinely can't express
the semantics): iterative graph algorithms re-read the SAME edge
partitions every superstep.  A ``hash_bucket_join`` per iteration
re-shuffles the full edge set k times; the correct 100 TB shape is the
Pregel one — partition edges ONCE (by hash of the source vertex),
pin each partition in an actor, and per superstep move only the
per-destination-shard AGGREGATED messages (one ``(dst_hash, value)``
pair per distinct destination, never per edge) through the object
store, actor to actor, without touching the driver.

Determinism: all vertex state is integer (uint64 ids from
``url_hash64``; int64 fixed-point ranks), message combination is
sum/min of integers (associative, order-free), so results are exactly
reproducible across any shard count or scheduling — and exactly
checkable against a single-process oracle and DuckDB.

Scale notes:
* per-superstep traffic is O(distinct destinations), pre-aggregated
  on the sender with ``np.add.reduceat``/``minimum.reduceat`` over a
  seal-time fixed edge order (zero per-superstep sorting);
* message routing is actor->actor by ObjectRef (one return per
  receiving shard) — the driver only forwards refs;
* connected components alternate min-label propagation with pointer
  jumping (label[u] <- label[label[u]]) once few labels still change,
  so the long label chains left at the end settle in O(log diameter)
  rounds instead of O(diameter).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..blocks import table_from_pandas

import ray

SP_INF = np.int64(1) << 62  # unreached sentinel for seed-hop BFS
PR_SCALE = 10**12          # fixed-point 1.0 for PageRank ranks
PR_DAMP_NUM = 85           # damping 0.85 as integer percent
PR_BASE = PR_SCALE * (100 - PR_DAMP_NUM) // 100


def _dedup_pairs(src: np.ndarray, dst: np.ndarray):
    """Distinct (src, dst) uint64 pairs, self-loops dropped."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if len(src) == 0:
        return src, dst
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    fresh = np.ones(len(src), dtype=bool)
    fresh[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[fresh], dst[fresh]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``a``."""
    return np.flatnonzero(np.r_[True, a[1:] != a[:-1]][:len(a)])


def _owner(h: np.ndarray, num_shards: int) -> np.ndarray:
    return (h % np.uint64(num_shards)).astype(np.int64)


class _Plan:
    """Seal-time message plan along one edge direction.  The edges sit
    in one fixed order grouped by (owner(dst), dst): ``src`` is each
    edge's owned source index, ``segs`` the ``reduceat`` boundaries,
    ``dst`` the distinct destinations and ``slices`` each receiving
    shard's range of them.  Per superstep a sender only gathers its
    per-vertex values into this order and reduces.

    The (sender, receiver) structure is seal-fixed as well, so the
    plan's first send ships ``(dst_hashes, values)`` and every later
    one values only (``sent``), halving payload bytes; the receiver
    keeps the matching receive plan (``recv``: concat -> permute ->
    reduceat) instead of re-running searchsorted per superstep.  Every
    algorithm on the plan shares both."""

    def __init__(self, nodes: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 num_shards: int):
        shard = _owner(dst, num_shards)
        order = np.lexsort((dst, shard))
        dst = dst[order]
        self.src = np.searchsorted(nodes, src[order])
        self.segs = _run_starts(dst)
        self.dst = dst[self.segs]
        bounds = np.r_[0, np.cumsum(np.bincount(shard[order][self.segs],
                                                minlength=num_shards))]
        self.slices = list(zip(bounds[:-1], bounds[1:]))
        self.sent = False
        self.recv = None


def _damp(s, mass: np.ndarray):
    s.rank = PR_BASE + PR_DAMP_NUM * mass // 100


def _lower(attr: str):
    """Min-update of the state ``attr``; returns how many owned
    vertices changed (a global 0 = converged)."""
    def update(s, incoming: np.ndarray) -> int:
        old = getattr(s, attr)
        new = np.minimum(old, incoming)
        setattr(s, attr, new)
        return int((new != old).sum())
    return update


# Propagation algorithms: name -> (edge plan, combiner, the value each
# vertex sends along its plan edges, the update that folds the combined
# incoming value into the state).  ``out`` edges run u -> v from
# owner(u), ``in`` edges v -> u back from owner(v), ``both`` is their
# undirected union.  Exact-integer HITS has no per-iteration
# normalization: scores stay int64 sums (bounded by (max_deg^2)^T —
# fine at small fixed T; a deeper T would renormalize by a power-of-two
# shift, keeping exactness).  Seed hops clamp at SP_INF so unreached
# vertices stay unreached.
_ALGOS = {
    "pagerank": ("out", np.add,
                 lambda s: s.rank // np.maximum(s.outdeg, 1), _damp),
    "authority": ("out", np.add, lambda s: s.hub,
                  lambda s, m: setattr(s, "auth", m)),
    "hub": ("in", np.add, lambda s: s.auth,
            lambda s, m: setattr(s, "hub", m)),
    "components": ("both", np.minimum, lambda s: s.label,
                   _lower("label")),
    "seed_hops": ("out", np.minimum,
                  lambda s: np.minimum(s.dist + 1, SP_INF), _lower("dist")),
}


@ray.remote
class GraphShard:
    """One graph partition: owns vertices with ``hash % B == sid``,
    the out-edges of its owned vertices, and their mutable state."""

    def __init__(self, sid: int, num_shards: int):
        self.sid = sid
        self.B = num_shards
        self._node_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self._fwd_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self._rev_chunks: List[Tuple[np.ndarray, np.ndarray]] = []

    # -- ingest (before seal) ---------------------------------------------
    def add_nodes(self, hashes: np.ndarray, urls: List[str]) -> int:
        self._node_chunks.append((hashes.astype(np.uint64),
                                  np.asarray(urls, dtype=object)))
        return len(hashes)

    def add_edges(self, src: np.ndarray, dst: np.ndarray,
                  reverse: bool) -> int:
        chunk = (src.astype(np.uint64), dst.astype(np.uint64))
        (self._rev_chunks if reverse else self._fwd_chunks).append(chunk)
        return len(src)

    def seal(self) -> dict:
        """Freeze ingested chunks into the three message plans."""
        if self._node_chunks:
            h = np.concatenate([c[0] for c in self._node_chunks])
            u = np.concatenate([c[1] for c in self._node_chunks])
        else:
            h, u = np.empty(0, np.uint64), np.empty(0, object)
        order = np.argsort(h, kind="stable")
        self.nodes = h[order]
        self.urls = u[order]

        def _concat(chunks):
            if not chunks:
                return np.empty(0, np.uint64), np.empty(0, np.uint64)
            return (np.concatenate([c[0] for c in chunks]),
                    np.concatenate([c[1] for c in chunks]))

        fsrc, fdst = _dedup_pairs(*_concat(self._fwd_chunks))
        # rev pairs are (dst v, src u), routed to owner(v) at ingest.
        # All three plans are built here; at extreme scale an
        # algorithm-on-demand build would cut resident plan memory.
        rsrc, rdst = _dedup_pairs(*_concat(self._rev_chunks))
        csrc, cdst = _dedup_pairs(np.concatenate([fsrc, rsrc]),
                                  np.concatenate([fdst, rdst]))
        self.plans = {"out": _Plan(self.nodes, fsrc, fdst, self.B),
                      "in": _Plan(self.nodes, rsrc, rdst, self.B),
                      "both": _Plan(self.nodes, csrc, cdst, self.B)}
        self.outdeg = np.bincount(self.plans["out"].src,
                                  minlength=len(self.nodes))
        self._node_chunks = self._fwd_chunks = self._rev_chunks = None
        return {"nodes": len(self.nodes), "fwd_edges": len(fsrc),
                "cc_edges": len(csrc)}

    # -- one superstep -------------------------------------------------------
    def send(self, algo: str) -> list:
        """Send half: every owned vertex's value for ``algo``, combined
        per distinct destination in the plan's fixed order.  Returns one
        ``(dst_hashes or None, values)`` payload per receiving shard
        (and the trailing None every send returns, see ``_send``)."""
        plan_name, combine, values, _ = _ALGOS[algo]
        plan = self.plans[plan_name]
        out = combine.reduceat(values(self)[plan.src], plan.segs)
        first = not plan.sent
        plan.sent = True
        return [((plan.dst[lo:hi] if first else None), out[lo:hi])
                for lo, hi in plan.slices] + [None]

    def receive(self, algo: str, *payloads):
        """Receive half: combine the incoming values per owned vertex
        (the combiner's identity where none came) and return what
        ``algo``'s update returns.  The plan's first receive builds the
        receive plan from the shipped hashes."""
        plan_name, combine, _, update = _ALGOS[algo]
        plan = self.plans[plan_name]
        if plan.recv is None:
            idx = np.concatenate([np.searchsorted(self.nodes, p[0])
                                  for p in payloads])
            order = np.argsort(idx, kind="stable")
            segs = _run_starts(idx[order])
            plan.recv = (order, segs, idx[order][segs])
        order, segs, uniq = plan.recv
        m = np.concatenate([p[1] for p in payloads])
        incoming = np.full(len(self.nodes), 0 if combine is np.add
                           else np.iinfo(m.dtype).max, m.dtype)
        incoming[uniq] = combine.reduceat(m[order], segs)
        return update(self, incoming)

    # -- owner lookups (pointer jumping, triangle neighbour degrees) -------
    def request(self, keys: str) -> list:
        """Per owner shard, the distinct vertex ids of the state ``keys``
        that it owns (labels are vertex ids, so they share the hash
        space); a send, so a trailing None follows."""
        uniq = np.unique(getattr(self, keys))
        shard = _owner(uniq, self.B)
        return [uniq[shard == s] for s in range(self.B)] + [None]

    def answer(self, values: str, wanted: np.ndarray):
        """The state ``values`` of each requested (owned) vertex."""
        idx = np.searchsorted(self.nodes, wanted)
        return wanted, getattr(self, values)[idx]

    @staticmethod
    def _answered(answers, keys: np.ndarray) -> np.ndarray:
        """The answered value of every vertex id in ``keys``."""
        k = np.concatenate([a[0] for a in answers])
        v = np.concatenate([a[1] for a in answers])
        order = np.argsort(k)
        return v[order][np.searchsorted(k[order], keys)]

    # -- per-algorithm state and results ------------------------------------
    def pr_init(self):
        self.rank = np.full(len(self.nodes), PR_SCALE, np.int64)

    def pr_top(self, k: int) -> pd.DataFrame:
        """Per-shard partial top-k by (rank desc, url asc)."""
        df = pd.DataFrame({"url": self.urls, "pr_score": self.rank})
        return df.sort_values(["pr_score", "url"],
                              ascending=[False, True]).head(k)

    def hits_init(self):
        self.hub = np.ones(len(self.nodes), np.int64)
        self.auth = np.zeros(len(self.nodes), np.int64)

    def ht_top(self, k: int) -> pd.DataFrame:
        """Per-shard partial top-k by (auth desc, url asc)."""
        df = pd.DataFrame({"url": self.urls, "auth": self.auth,
                           "hub": self.hub})
        return df.sort_values(["auth", "url"],
                              ascending=[False, True]).head(k)

    def cc_init(self):
        self.label = self.nodes.copy()

    def cc_jump(self, *answers) -> int:
        """label[u] <- min(label[u], label[label[u]]) — halves label
        chains every round, turning convergence from O(diameter) into
        O(log) rounds on path-shaped components."""
        return _lower("label")(self, self._answered(answers, self.label))

    def cc_assignments(self, rep_map) -> pa.Table:
        """Per-owned-node cluster assignment: label -> representative
        id via the (component-count-sized) broadcast map (passed as an
        ObjectRef; Ray resolves it once per shard)."""
        reps = pd.Series(self.label).map(rep_map)
        # type-inferred: node ids may be urls (str) or integer keys
        return pa.table({
            "id": pa.array(list(self.urls)),
            "cluster": pa.array(list(reps)),
        })

    def cc_partials(self) -> pd.DataFrame:
        """Per-shard partial per-component aggregate: (label, n owned
        members, lexicographic min member url).  Component count <<
        vertex count, so the driver-side merge of B such partials is
        bounded."""
        df = pd.DataFrame({"label": self.label, "url": self.urls})
        g = df.groupby("label")["url"]
        out = g.agg(["count", "min"]).reset_index()
        out.columns = ["label", "n", "min_url"]
        return out

    def owned_count(self) -> int:
        return len(self.nodes)

    def sp_init(self, seed_hashes: np.ndarray):
        """Distance state: 0 for owned seeds, +inf sentinel otherwise
        (BFS follows parsed links forward: the ``out`` plan)."""
        self.dist = np.full(len(self.nodes), SP_INF, np.int64)
        sh = np.asarray(seed_hashes, np.uint64)
        if len(self.nodes) and len(sh):
            idx = np.searchsorted(self.nodes, sh)
            ok = idx < len(self.nodes)
            own = np.zeros(len(sh), bool)
            own[ok] = self.nodes[idx[ok]] == sh[ok]
            self.dist[idx[own]] = 0

    def sp_partials(self) -> pd.DataFrame:
        """Per-shard (hops, n_pages) histogram; unreachable -> -1."""
        hops = np.where(self.dist >= SP_INF, np.int64(-1), self.dist)
        return pd.DataFrame({"hops": hops}).groupby("hops").size() \
            .reset_index(name="n_pages")

    # -- triangle counting (degree-oriented wedge check) --------------------
    def tri_degrees(self):
        """Phase 1: the distinct undirected (owned_idx, neighbour) pairs
        of the ``both`` plan (each edge's neighbour is its segment's
        destination) and every owned vertex's undirected degree; returns
        the shard's (half_edge_count, wedge_count) partials — wedges =
        sum C(deg, 2) over owned vertices (each undirected edge is
        counted once per endpoint owner, so edges = global sum / 2)."""
        plan = self.plans["both"]
        self.tri_src = plan.src
        self.tri_nbr = np.repeat(plan.dst,
                                 np.diff(np.r_[plan.segs, len(plan.src)]))
        deg = self.tri_deg = np.bincount(plan.src,
                                         minlength=len(self.nodes))
        return len(plan.src), int((deg * (deg - 1) // 2).sum())

    def tri_orient(self, *answers) -> int:
        """Phase 2: orient each undirected edge from lower to higher
        (deg, hash) rank — the classic degree orientation, so every
        out-list is O(sqrt(m)) and total wedge work is O(m^1.5) even
        on hub-skewed graphs.  Out-lists are stored rank-sorted within
        each owned source."""
        src, dst = self.tri_src, self.tri_nbr
        ddeg = self._answered(answers, dst)
        sdeg = self.tri_deg[src]
        keep = (ddeg > sdeg) | ((ddeg == sdeg) & (dst > self.nodes[src]))
        src, dst, ddeg = src[keep], dst[keep], ddeg[keep]
        order = np.lexsort((dst, ddeg, src))
        self._tri_osrc = src[order]
        self._tri_odst = dst[order]
        return len(src)

    def tri_wedges(self):
        """Phase 3 send: every rank-ordered pair (v, w) within an owned
        out-list is a wedge; the closing-edge existence query (v, w)
        routes to owner(v).  Vectorized all-pairs-within-segments via
        the concatenated-arange construction.  Partitioning assumption:
        a shard materializes its own wedge set at once — at extreme
        scale this send would batch over source-index ranges (the
        construction is embarrassingly sliceable by owned u)."""
        src, dst = self._tri_osrc, self._tri_odst
        n = len(src)
        new_seg = np.r_[True, src[1:] != src[:-1]][:n]
        seg_starts = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        pos = np.arange(n) - seg_starts[seg_id]       # local index in out-list
        j_idx = np.repeat(np.arange(n), pos)          # later element of pair
        csum = np.r_[0, np.cumsum(pos)]
        i_idx = (np.arange(csum[-1]) - np.repeat(csum[:-1], pos)
                 + np.repeat(seg_starts[seg_id], pos))
        v, w = dst[i_idx], dst[j_idx]
        shard = _owner(v, self.B)
        masks = [shard == s for s in range(self.B)]
        return [(v[m], w[m]) for m in masks] + [None]

    def tri_count(self, *payloads) -> int:
        """Phase 3 receive: how many queried wedges (v, w) close — i.e.
        exist in this shard's oriented out-edges of owned v.  Exact
        membership via 32-bit co-domain codes packed with the owned
        index into one uint64 key (no hash collisions: codes come from
        np.unique over both sides' actual values)."""
        qv = np.concatenate([p[0] for p in payloads])
        qw = np.concatenate([p[1] for p in payloads])
        ne = len(self._tri_odst)
        combined = np.concatenate([self._tri_odst, qw])
        _, inv = np.unique(combined, return_inverse=True)
        inv = inv.astype(np.uint64)
        ekeys = ((self._tri_osrc.astype(np.uint64) << np.uint64(32))
                 | inv[:ne])
        v_idx = np.searchsorted(self.nodes, qv).astype(np.uint64)
        qkeys = (v_idx << np.uint64(32)) | inv[ne:]
        return int(np.isin(qkeys, ekeys).sum())


def build_shards(num_shards: int) -> List:
    return [GraphShard.remote(s, num_shards) for s in range(num_shards)]


def shard_count() -> int:
    """The pipelines' shard count: half the cluster's CPUs, 2 to 8."""
    return max(2, min(8, int(ray.cluster_resources().get("CPU", 4)) // 2))


def ingest_nodes(shards, hashes: np.ndarray, urls: List[str]):
    """Route a node chunk to its owning shards (driver or task side)."""
    B = len(shards)
    shard_of = hashes % np.uint64(B)
    futs = []
    urls_arr = np.asarray(urls, dtype=object)
    for s in range(B):
        m = shard_of == s
        if m.any():
            futs.append(shards[s].add_nodes.remote(
                hashes[m], list(urls_arr[m])))
    return futs


def ingest_edge_batch(shards, src: np.ndarray, dst: np.ndarray):
    """Route one edge chunk: forward copy to owner(src), reversed copy
    to owner(dst) (the undirected view components need)."""
    B = len(shards)
    futs = []
    s_of = src % np.uint64(B)
    d_of = dst % np.uint64(B)
    for s in range(B):
        m = s_of == s
        if m.any():
            futs.append(shards[s].add_edges.remote(src[m], dst[m], False))
        m = d_of == s
        if m.any():
            futs.append(shards[s].add_edges.remote(dst[m], src[m], True))
    return futs


def load(nodes, edges, num_shards: int) -> List:
    """Sealed shards of the graph whose ``nodes`` Dataset holds
    ``(hash, id)`` rows and whose ``edges`` Dataset holds ``(src, dst)``
    hash rows: Ray Data tasks route each block to its owner shards.
    Pair with ``release``."""
    shards = build_shards(num_shards)

    def add_nodes(t: pa.Table) -> pa.Table:
        ray.get(ingest_nodes(shards, t["hash"].to_numpy(),
                             t["id"].to_pylist()))
        return t.slice(0, 0)

    def add_edges(t: pa.Table) -> pa.Table:
        ray.get(ingest_edge_batch(shards, t["src"].to_numpy(),
                                  t["dst"].to_numpy()))
        return t.slice(0, 0)

    nodes.map_batches(add_nodes, batch_format="pyarrow").materialize()
    edges.map_batches(add_edges, batch_format="pyarrow").materialize()
    ray.get([s.seal.remote() for s in shards])
    return shards


def release(shards) -> None:
    for s in shards:
        ray.kill(s, no_restart=True)


def _send(shards, method: str, *args) -> List[list]:
    """Per shard, the refs of the B payloads ``method`` returns, one per
    receiving shard.  Ray hands back a bare ref instead of a list when
    ``num_returns`` is 1, so every send method returns one more value
    than there are shards, a trailing None, and its ref is dropped:
    one shard routes like any other."""
    B = len(shards)
    return [getattr(s, method).options(num_returns=B + 1).remote(*args)[:B]
            for s in shards]


def _exchange(shards, send: str, receive: str, *args) -> list:
    """One B x B exchange: shard j's ``receive`` gets payload j of every
    sender's ``send``; the driver forwards refs only."""
    rows = _send(shards, send, *args)
    return [getattr(s, receive).remote(*args, *[row[j] for row in rows])
            for j, s in enumerate(shards)]


def _lookup(shards, keys: str, values: str, apply: str) -> list:
    """Every shard reads the state ``values`` of the vertex ids in its
    state ``keys`` from their owners: owner j answers requester i's
    distinct ids, and i's ``apply`` gets its B answers."""
    rows = _send(shards, "request", keys)
    return [getattr(s, apply).remote(
        *[shards[j].answer.remote(values, ref) for j, ref in enumerate(row)])
        for s, row in zip(shards, rows)]


def _superstep(shards, algo: str) -> list:
    return ray.get(_exchange(shards, "send", "receive", algo))


def pagerank(shards, iterations: int = 8, top_k: int = 50) -> pa.Table:
    """Integer fixed-point PageRank (damping 0.85, dangling mass
    dropped): exactly reproducible and oracle-checkable."""
    ray.get([s.pr_init.remote() for s in shards])
    for _ in range(iterations):
        _superstep(shards, "pagerank")
    tops = ray.get([s.pr_top.remote(top_k) for s in shards])
    df = pd.concat(tops).sort_values(
        ["pr_score", "url"], ascending=[False, True]).head(top_k)
    return table_from_pandas(df.reset_index(drop=True),
                                preserve_index=False)


def hits(shards, iterations: int = 2, top_k: int = 50) -> pa.Table:
    """Exact-integer HITS (Kleinberg hubs & authorities, public
    algorithm): alternating BSP half-steps — authorities gather hub
    mass along out-edges (the ``out`` plan pagerank and seed hops use),
    hubs gather authority mass back along in-edges (the ``in`` plan).
    Each plan ships its structure once per seal, whichever algorithm
    sends on it first.  No normalization, so every score is an exact
    int64 and the numpy expected builder matches bit-for-bit."""
    ray.get([s.hits_init.remote() for s in shards])
    for _ in range(iterations):
        _superstep(shards, "authority")
        _superstep(shards, "hub")
    tops = ray.get([s.ht_top.remote(top_k) for s in shards])
    df = pd.concat(tops).sort_values(
        ["auth", "url"], ascending=[False, True]).head(top_k)
    return table_from_pandas(df.reset_index(drop=True),
                             preserve_index=False)


def _cc_run(shards, max_rounds: int = 200) -> pd.DataFrame:
    """Propagate labels to convergence; return the merged per-component
    partials (label, n, min_url) — component-count-sized.

    Adaptive pointer jumping: once a propagation round changes < 5% of
    vertices (the long tail where only deep label chains remain), each
    round adds a jump phase (label[u] <- label[label[u]]), halving
    chain depth — O(log diameter) tail instead of O(diameter).  Early
    high-churn rounds skip the jump: its O(distinct labels) exchange
    only pays for itself once the bulk labels have settled (measured
    policy comparison at sf0.1: never=12 rounds, always=8 rounds but
    2x round cost, tail-only=10 rounds and fastest wall time)."""
    ray.get([s.cc_init.remote() for s in shards])
    n_nodes = sum(ray.get([s.owned_count.remote() for s in shards]))
    for _ in range(max_rounds):
        changed = sum(_superstep(shards, "components"))
        if changed < max(1, n_nodes // 20):
            changed += sum(ray.get(
                _lookup(shards, "label", "label", "cc_jump")))
        if changed == 0:
            break
    return pd.concat(ray.get([s.cc_partials.remote() for s in shards]))


def seed_hops(shards, seed_hashes: np.ndarray,
              max_rounds: int = 200) -> pa.Table:
    """Directed BFS hop distance from the seed set by min-plus label
    propagation (rounds = reachable depth; convergence by global
    changed-count).  Returns the (hops, n_pages) histogram with
    unreachable pages at hops = -1 — the frontier-reachability profile
    of a crawl universe."""
    ray.get([s.sp_init.remote(seed_hashes) for s in shards])
    for _ in range(max_rounds):
        if sum(_superstep(shards, "seed_hops")) == 0:
            break
    parts = pd.concat(ray.get([s.sp_partials.remote() for s in shards]))
    g = parts.groupby("hops")["n_pages"].sum().reset_index() \
        .sort_values("hops").astype({"hops": "int64",
                                     "n_pages": "int64"})
    return table_from_pandas(g.reset_index(drop=True),
                             preserve_index=False)


def connected_components(shards, max_rounds: int = 200) -> pa.Table:
    """Weakly-connected components by min-label propagation with
    adaptive pointer jumping (``_cc_run``); convergence is detected by
    a global changed-count of 0."""
    parts = _cc_run(shards, max_rounds)
    g = parts.groupby("label").agg(
        n_pages=("n", "sum"), component=("min_url", "min")).reset_index()
    out = g[["component", "n_pages"]].sort_values(
        ["n_pages", "component"], ascending=[False, True])
    return table_from_pandas(out.reset_index(drop=True),
                                preserve_index=False)


def triangles(shards) -> pa.Table:
    """Global triangle census over the sealed undirected graph: one
    row (n_nodes, n_edges, n_wedges, n_triangles, transitivity).

    Three bounded exchanges, no shuffle: (1) owned degrees + wedge
    partials, (2) neighbor-degree lookup (the owner lookup pointer
    jumping uses), (3) degree-oriented wedge existence queries, each
    answered by owner(v) against its own oriented out-lists.  Degree
    orientation bounds every out-list at O(sqrt(m)), so hub skew can
    not blow up the wedge volume.  transitivity = 3T / W (exact-int
    double division, identical on the oracle side)."""
    parts = ray.get([s.tri_degrees.remote() for s in shards])
    n_nodes = sum(ray.get([s.owned_count.remote() for s in shards]))
    n_edges = sum(p[0] for p in parts) // 2
    n_wedges = sum(p[1] for p in parts)
    ray.get(_lookup(shards, "tri_nbr", "tri_deg", "tri_orient"))
    n_tri = sum(ray.get(_exchange(shards, "tri_wedges", "tri_count")))
    trans = (3.0 * n_tri / n_wedges) if n_wedges else 0.0
    return pa.table({
        "n_nodes": pa.array([n_nodes], pa.int64()),
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_wedges": pa.array([n_wedges], pa.int64()),
        "n_triangles": pa.array([n_tri], pa.int64()),
        "transitivity": pa.array([trans], pa.float64()),
    })


def component_assignments(shards, max_rounds: int = 200) -> pa.Table:
    """Per-node (id, cluster representative): run components, build the
    component-count-sized label->min-member map once, broadcast it, and
    let each shard label its own nodes."""
    parts = _cc_run(shards, max_rounds)
    rep = parts.groupby("label")["min_url"].min()
    rep_ref = ray.put(rep)
    tbls = ray.get([s.cc_assignments.remote(rep_ref) for s in shards])
    return pa.concat_tables(tbls)
