"""Link-graph analytics over the crawled corpus — the canonical
web-scale computations (PageRank, weakly-connected components, degree
stats) the reference engine has no counterpart for.

Pipeline shape:

1. **Edge extraction is a distributed fetch+parse sweep**: the URL
   universe streams through the same warm ``FetchParseStage`` actors
   the crawl uses (rule-VM ``__request__`` link extraction), then a
   vectorized explode (``pc.list_flatten`` + ``list_parent_indices``)
   emits (src, dst) edge rows.  At 100 TB the universe is a parquet
   table (``read_parquet`` of the frontier/pages checkpoints); here it
   is the synthetic web's page list.
2. **Iterative algorithms run on the BSP shard actors**
   (``stages.graph_bsp``): edges partition ONCE by hash(src), each
   superstep exchanges only per-destination aggregated messages.
3. **Oracles are structural**: the synthetic web is a pure function of
   the URL, so the expected edge set is derived from
   ``SynthWeb.child_pages``/``cross_link`` WITHOUT any HTML or the
   rule VM — an independent path that cross-checks the whole
   distributed fetch -> parse -> absolutize -> explode chain.

Graph semantics (identical on both paths): nodes = every page URL in
the universe; edges = distinct parsed links of status-200 pages,
self-loops dropped (the synthetic self-link exercises the dedup).
404/500 pages contribute no out-edges — they are PageRank-dangling
and may split a host's page tree into several components.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..blocks import table_from_pandas

from ..rulevm.urlutil import url_hash64
from ..stages import graph_bsp
from .crawl_q import _sf_tag

PR_ITERATIONS = 8
PR_TOP_K = 50


# smaller than the crawl configs: the graph queries fetch the WHOLE
# universe (no per-host budget), so page counts stay test-sized
_GRAPH_BY_SF = {
    "sf0.001": dict(num_hosts=3, base_pages=8, fanout=2, hot_factor=4.0),
    "sf0.01": dict(num_hosts=20, base_pages=12, fanout=3, hot_factor=8.0),
    "sf0.1": dict(num_hosts=50, base_pages=40, fanout=3, hot_factor=25.0),
}


def _web_for(tag: str):
    from ..sources.synthweb import SynthWeb
    return SynthWeb(**_GRAPH_BY_SF.get(tag, _GRAPH_BY_SF["sf0.01"]))


def _universe_table(web) -> pa.Table:
    """(url, url_hash, host, ...) rows for every page in the universe.
    At real scale this is a pruned ``read_parquet`` of the URL table;
    the synthetic universe is generated driver-side."""
    urls, hashes, hosts = [], [], []
    for h in range(web.num_hosts):
        host = web.host_name(h)
        for p in range(web.pages_of_host[h]):
            u = web.page_url(h, p)
            urls.append(u)
            hashes.append(url_hash64(u))
            hosts.append(host)
    n = len(urls)
    return pa.table({
        "url": pa.array(urls, pa.large_string()),
        "url_hash": pa.array(hashes, pa.uint64()),
        "host": pa.array(hosts, pa.string()),
        "depth": pa.array(np.zeros(n, np.int32)),
        "priority": pa.array(np.zeros(n, np.float32)),
        "parent": pa.array([""] * n, pa.large_string()),
    })


def _hash_urls(arr: pa.Array) -> np.ndarray:
    """blake2b-8 per url (the same stable id the seen filter uses)."""
    return np.fromiter(
        (int.from_bytes(hashlib.blake2b(u.encode(), digest_size=8)
                        .digest(), "big") for u in arr.to_pylist()),
        dtype=np.uint64, count=len(arr))


def _edges_batch(t: pa.Table) -> pa.Table:
    """Vectorized page -> edge explode: status-200 pages only, flatten
    the parsed link lists, drop self-loops, hash both endpoints."""
    t = t.filter(pc.equal(t["status"], 200))
    links = t["links"]
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    flat = pc.list_flatten(links)
    parents = pc.list_parent_indices(links)
    src = pc.take(t["url"].combine_chunks() if
                  isinstance(t["url"], pa.ChunkedArray) else t["url"],
                  parents)
    keep = pc.not_equal(src, flat)
    src = src.filter(keep)
    dst = flat.filter(keep)
    return pa.table({
        "src": src.cast(pa.large_string()),
        "dst": dst.cast(pa.large_string()),
        "src_hash": pa.array(_hash_urls(src), pa.uint64()),
        "dst_hash": pa.array(_hash_urls(dst), pa.uint64()),
    })


def extract_edges(sf_dir: str, parallelism: int = None):
    """Distributed link extraction: universe -> warm FetchParseStage ->
    edge explode.  Returns a Dataset of (src, dst, src_hash, dst_hash);
    NOT yet distinct — consumers dedup in their own partition space."""
    import ray
    import ray.data as rd

    from ..stages.crawl_stages import FetchParseStage
    from ..stages.taskcache import cached_stage

    tag = _sf_tag(sf_dir)
    web = _web_for(tag)
    cfg = _GRAPH_BY_SF.get(tag, _GRAPH_BY_SF["sf0.01"])
    uni = _universe_table(web)
    if parallelism is None:
        parallelism = max(2, min(16, int(ray.cluster_resources()
                                         .get("CPU", 4)) // 2))
    blocks = max(1, min(parallelism, uni.num_rows // 64 or 1))
    ds = rd.from_arrow(uni).repartition(blocks)
    fetch = cached_stage(FetchParseStage, web_config=cfg,
                         rule_pack=web.rule_pack())
    pages = ds.map_batches(fetch, batch_format="pyarrow", batch_size=512)
    return pages.map_batches(_edges_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# shard build (shared by pagerank / components within a process)
# ---------------------------------------------------------------------------

_SHARD_CACHE: dict = {}


def _sealed_shards(sf_dir: str, num_shards: int = None):
    """Load (or reuse) the sealed BSP shards for this sf: the node table
    and the extracted edges go in once; every link-graph query runs on
    the same pinned partitions."""
    import ray.data as rd

    tag = _sf_tag(sf_dir)
    num_shards = num_shards or graph_bsp.shard_count()
    key = (tag, num_shards)
    if key not in _SHARD_CACHE:
        uni = _universe_table(_web_for(tag))
        nodes = rd.from_arrow(pa.table({"hash": uni["url_hash"],
                                        "id": uni["url"]}))
        edges = extract_edges(sf_dir) \
            .select_columns(["src_hash", "dst_hash"]) \
            .rename_columns(["src", "dst"])
        _SHARD_CACHE[key] = graph_bsp.load(nodes, edges, num_shards)
    return _SHARD_CACHE[key]


def reset_shard_cache():
    for shards in _SHARD_CACHE.values():
        graph_bsp.release(shards)
    _SHARD_CACHE.clear()


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def web_pagerank(sf_dir: str) -> pa.Table:
    """Top-50 pages by integer fixed-point PageRank over the parsed
    link graph (8 supersteps, damping 0.85, dangling mass dropped)."""
    shards = _sealed_shards(sf_dir)
    return graph_bsp.pagerank(shards, iterations=PR_ITERATIONS,
                              top_k=PR_TOP_K)


def web_components(sf_dir: str) -> pa.Table:
    """Weakly-connected components of the link graph: one row per
    component, (component = lexicographic min member url, n_pages)."""
    shards = _sealed_shards(sf_dir)
    return graph_bsp.connected_components(shards)


def web_seed_hops(sf_dir: str) -> pa.Table:
    """Frontier-reachability profile: directed BFS hop distance from
    the crawl seed set over the parsed link graph, as a (hops,
    n_pages) histogram with unreachable pages at -1 — how deep a
    frontier must run to exhaust the universe, and how much of it no
    politeness budget can ever reach.  Same pinned BSP shards as
    pagerank/components (min-plus supersteps over the directed plan,
    traffic = distinct destinations per round)."""
    import hashlib

    shards = _sealed_shards(sf_dir)
    web = _web_for(_sf_tag(sf_dir))
    seed_h = np.fromiter(
        (int.from_bytes(hashlib.blake2b(u.encode(), digest_size=8)
                        .digest(), "big") for u in web.seed_urls()),
        dtype=np.uint64)
    return graph_bsp.seed_hops(shards, seed_h)


HITS_ITERATIONS = 2
HITS_TOP_K = 50


def web_hits(sf_dir: str) -> pa.Table:
    """Top-50 pages by exact-integer HITS authority over the parsed
    link graph (Kleinberg hubs & authorities — the link-quality signal
    a crawl scheduler can prioritize by, complementing PageRank):
    alternating gather half-steps on the SAME pinned BSP shards, the
    authority direction reusing pagerank's seal-time message plan and
    the hub direction the reverse plan; no normalization, so scores
    are exact int64 and the single-process numpy builder value-checks
    bit-for-bit."""
    shards = _sealed_shards(sf_dir)
    return graph_bsp.hits(shards, iterations=HITS_ITERATIONS,
                          top_k=HITS_TOP_K)


def web_triangles(sf_dir: str) -> pa.Table:
    """Triangle census of the undirected link graph: one row
    (n_nodes, n_edges, n_wedges, n_triangles, transitivity) — the
    clustering signal of the crawled web.  Runs on the SAME pinned BSP
    shards as pagerank/components (degree-oriented wedge existence
    queries, three bounded exchanges — stages/graph_bsp.py
    triangles)."""
    shards = _sealed_shards(sf_dir)
    return graph_bsp.triangles(shards)


def web_host_degrees(sf_dir: str) -> pa.Table:
    """Per-host degree stats over the DISTINCT edge set: fetched-ok
    page count, out-edges, in-edges, distinct cross-host out-edges.

    Shuffle-free plan: every URL is fetched exactly once (the universe
    is distinct), so ALL links of a given src live in one batch and
    global edge-distinct == per-batch distinct on (src, dst).  Each
    batch then collapses to per-(src_host, dst_host) partial counts —
    bounded by hosts^2, dimension-sized — and the driver combines the
    partials.  No groupby shuffle anywhere."""

    def _host_pair_counts(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"src": t["src"].to_pandas(),
                           "dst": t["dst"].to_pandas()})
        df = df.drop_duplicates()
        # authority part: "http://" + host + "/..."
        df["src_host"] = df["src"].str.slice(7, 21)
        df["dst_host"] = df["dst"].str.slice(7, 21)
        g = df.groupby(["src_host", "dst_host"]).size().reset_index(name="n")
        return table_from_pandas(g, preserve_index=False)

    parts = extract_edges(sf_dir).map_batches(
        _host_pair_counts, batch_format="pyarrow").to_pandas()
    pairs = parts.groupby(["src_host", "dst_host"])["n"].sum().reset_index()
    out_deg = pairs.groupby("src_host")["n"].sum().reset_index(
        name="edges_out").rename(columns={"src_host": "host"})
    cross = pairs[pairs["src_host"] != pairs["dst_host"]] \
        .groupby("src_host")["n"].sum().reset_index(name="cross_out") \
        .rename(columns={"src_host": "host"})
    in_deg = pairs.groupby("dst_host")["n"].sum().reset_index(
        name="edges_in").rename(columns={"dst_host": "host"})
    out_deg = out_deg.merge(cross, on="host", how="left")

    tag = _sf_tag(sf_dir)
    web = _web_for(tag)
    ok = pd.DataFrame({
        "host": [web.host_name(h) for h in range(web.num_hosts)],
        "pages_ok": [sum(1 for p in range(web.pages_of_host[h])
                         if web.page_status(h, p) == 200)
                     for h in range(web.num_hosts)]})
    # pages_ok is structural bookkeeping; the graph signal (degrees)
    # comes from the distributed parse above
    df = ok.merge(out_deg, on="host", how="left") \
           .merge(in_deg, on="host", how="left")
    for c in ("edges_out", "cross_out", "edges_in"):
        df[c] = df[c].fillna(0).astype("int64")
    df["pages_ok"] = df["pages_ok"].astype("int64")
    return table_from_pandas(df.sort_values("host")
                                .reset_index(drop=True),
                                preserve_index=False)


# ---------------------------------------------------------------------------
# structural oracle (independent single-process path)
# ---------------------------------------------------------------------------


def structural_edges(web) -> List[tuple]:
    """The expected DISTINCT edge set derived from the web's structure
    functions — no HTML, no rule VM, no DOM engine."""
    edges = set()
    for h in range(web.num_hosts):
        for p in range(web.pages_of_host[h]):
            if web.page_status(h, p) != 200:
                continue
            u = web.page_url(h, p)
            for c in web.child_pages(h, p):
                edges.add((u, web.page_url(h, c)))
            cross = web.cross_link(h, p)
            if cross and cross != u:
                edges.add((u, cross))
            # the self-link is a self-loop: dropped by spec
    return sorted(edges)


def expected_triangles(tag: str) -> pa.Table:
    """Single-process set-based triangle census over the structural
    edge set — deliberately orientation-free (T = sum over undirected
    edges of |N(u) & N(v)| / 3), so it shares NO code shape with the
    BSP degree-oriented wedge algorithm it checks."""
    from collections import defaultdict

    web = _web_for(tag)
    n_nodes = sum(web.pages_of_host[h] for h in range(web.num_hosts))
    adj = defaultdict(set)
    for a, b in structural_edges(web):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    n_edges = sum(len(v) for v in adj.values()) // 2
    n_wedges = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
    # per-edge common-neighbor counts: every triangle is seen once per
    # of its 3 edges in the a<b sweep
    tri3 = sum(len(adj[a] & adj[b]) for a in adj for b in adj[a] if a < b)
    n_tri = tri3 // 3
    trans = (3.0 * n_tri / n_wedges) if n_wedges else 0.0
    return pa.table({
        "n_nodes": pa.array([n_nodes], pa.int64()),
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_wedges": pa.array([n_wedges], pa.int64()),
        "n_triangles": pa.array([n_tri], pa.int64()),
        "transitivity": pa.array([trans], pa.float64()),
    })


def expected_pagerank(tag: str) -> pa.Table:
    """Single-process numpy power iteration with the same integer
    arithmetic (bit-identical to the BSP result by construction)."""
    web = _web_for(tag)
    urls = sorted(u for h in range(web.num_hosts)
                  for p in range(web.pages_of_host[h])
                  for u in [web.page_url(h, p)])
    idx = {u: i for i, u in enumerate(urls)}
    n = len(urls)
    edges = structural_edges(web)
    src = np.array([idx[a] for a, _ in edges], np.int64)
    dst = np.array([idx[b] for _, b in edges], np.int64)
    outdeg = np.zeros(n, np.int64)
    np.add.at(outdeg, src, 1)
    rank = np.full(n, graph_bsp.PR_SCALE, np.int64)
    for _ in range(PR_ITERATIONS):
        mass = np.zeros(n, np.int64)
        np.add.at(mass, dst, rank[src] // np.maximum(outdeg[src], 1))
        rank = graph_bsp.PR_BASE + graph_bsp.PR_DAMP_NUM * mass // 100
    df = pd.DataFrame({"url": urls, "pr_score": rank}).sort_values(
        ["pr_score", "url"], ascending=[False, True]).head(PR_TOP_K)
    return table_from_pandas(df.reset_index(drop=True),
                                preserve_index=False)


def expected_hits(tag: str) -> pa.Table:
    """Single-process numpy HITS with the same exact-integer
    alternating updates over the structural edge set."""
    web = _web_for(tag)
    urls = sorted(u for h in range(web.num_hosts)
                  for p in range(web.pages_of_host[h])
                  for u in [web.page_url(h, p)])
    idx = {u: i for i, u in enumerate(urls)}
    n = len(urls)
    edges = structural_edges(web)
    src = np.array([idx[a] for a, _ in edges], np.int64)
    dst = np.array([idx[b] for _, b in edges], np.int64)
    hub = np.ones(n, np.int64)
    auth = np.zeros(n, np.int64)
    for _ in range(HITS_ITERATIONS):
        auth = np.zeros(n, np.int64)
        np.add.at(auth, dst, hub[src])
        hub = np.zeros(n, np.int64)
        np.add.at(hub, src, auth[dst])
    df = pd.DataFrame({"url": urls, "auth": auth, "hub": hub}) \
        .sort_values(["auth", "url"], ascending=[False, True]) \
        .head(HITS_TOP_K)
    return table_from_pandas(df.reset_index(drop=True),
                             preserve_index=False)


def expected_components(tag: str) -> pa.Table:
    """Union-find over the structural edges (independent algorithm —
    the distributed side uses label propagation)."""
    web = _web_for(tag)
    urls = sorted(u for h in range(web.num_hosts)
                  for p in range(web.pages_of_host[h])
                  for u in [web.page_url(h, p)])
    parent = {u: u for u in urls}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in structural_edges(web):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for u in urls:
        groups.setdefault(find(u), []).append(u)
    rows = [{"component": min(g), "n_pages": len(g)}
            for g in groups.values()]
    df = pd.DataFrame(rows).sort_values(
        ["n_pages", "component"], ascending=[False, True])
    return table_from_pandas(df.reset_index(drop=True),
                                preserve_index=False)


def expected_seed_hops(tag: str) -> pa.Table:
    """Queue BFS from the seeds over the structural edges
    (independent single-process path)."""
    from collections import defaultdict, deque

    web = _web_for(tag)
    adj = defaultdict(list)
    for a, b in structural_edges(web):
        adj[a].append(b)
    urls = [web.page_url(h, p) for h in range(web.num_hosts)
            for p in range(web.pages_of_host[h])]
    dist = {u: -1 for u in urls}
    dq = deque()
    for s in web.seed_urls():
        if dist.get(s) == -1:
            dist[s] = 0
            dq.append(s)
    while dq:
        u = dq.popleft()
        for v in adj[u]:
            if dist.get(v, 0) == -1:
                dist[v] = dist[u] + 1
                dq.append(v)
    counts: dict = {}
    for d in dist.values():
        counts[d] = counts.get(d, 0) + 1
    hops = sorted(counts)
    return pa.table({"hops": pa.array(hops, pa.int64()),
                     "n_pages": pa.array([counts[h] for h in hops],
                                         pa.int64())})


def expected_host_degrees(tag: str) -> pa.Table:
    web = _web_for(tag)
    edges = structural_edges(web)

    def host_of(u: str) -> str:
        return u.split("/")[2]

    rows = []
    for h in range(web.num_hosts):
        host = web.host_name(h)
        out_e = [e for e in edges if host_of(e[0]) == host]
        in_e = [e for e in edges if host_of(e[1]) == host]
        rows.append({
            "host": host,
            "pages_ok": sum(1 for p in range(web.pages_of_host[h])
                            if web.page_status(h, p) == 200),
            "edges_out": len(out_e),
            "cross_out": sum(1 for e in out_e
                             if host_of(e[1]) != host),
            "edges_in": len(in_e)})
    return pa.Table.from_pylist(rows)
