"""Link-graph analytics: distributed extraction + BSP algorithms vs
the structural single-process oracles (pipelines/graph.py)."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TAG = "sf0.001"


@pytest.fixture(scope="module")
def web():
    from uniparser_ray.pipelines.graph import _web_for
    return _web_for(TAG)


def test_extracted_edges_match_structural(ray_session, web):
    """The whole distributed fetch -> rule-VM parse -> absolutize ->
    explode chain reproduces the web's structural link set exactly."""
    from uniparser_ray.pipelines.graph import extract_edges, structural_edges
    df = extract_edges(SF).to_pandas()
    got = set(zip(df["src"], df["dst"]))
    assert got == set(structural_edges(web))
    # hashes consistent with the url strings
    from uniparser_ray.rulevm.urlutil import url_hash64
    row = df.iloc[0]
    assert int(row["src_hash"]) == url_hash64(row["src"])


def test_pagerank_matches_expected(ray_session):
    """BSP integer PageRank == single-process numpy power iteration,
    bit-exact (integer fixed-point arithmetic on both paths)."""
    from uniparser_ray.pipelines.graph import expected_pagerank, web_pagerank
    got = web_pagerank(SF)
    exp = expected_pagerank(TAG)
    assert got.equals(exp)
    # sanity: scores positive, descending
    scores = got["pr_score"].to_numpy()
    assert (scores > 0).all() and (np.diff(scores) <= 0).all()


def test_components_match_expected(ray_session):
    """Min-label propagation == union-find (different algorithms,
    same component structure)."""
    from uniparser_ray.pipelines.graph import (expected_components,
                                               web_components)
    got = web_components(SF)
    assert got.equals(expected_components(TAG))
    # components partition the universe
    from uniparser_ray.pipelines.graph import _universe_table, _web_for
    n_universe = _universe_table(_web_for(TAG)).num_rows
    assert int(pa.compute.sum(got["n_pages"]).as_py()) == n_universe


def test_host_degrees_match_expected(ray_session):
    from uniparser_ray.pipelines.graph import (expected_host_degrees,
                                               web_host_degrees)
    assert web_host_degrees(SF).equals(expected_host_degrees(TAG))


def test_hits_matches_expected(ray_session):
    """BSP exact-integer HITS == single-process numpy alternating
    updates, bit-exact; running pagerank first on the SAME sealed
    shards (shared forward-structure cache) must not perturb it."""
    from uniparser_ray.pipelines.graph import (expected_hits, web_hits,
                                               web_pagerank)
    web_pagerank(SF)  # warm the shared structure cache first
    got = web_hits(SF)
    exp = expected_hits(TAG)
    assert got.equals(exp)
    auth = got["auth"].to_numpy()
    assert (np.diff(auth) <= 0).all()
    # hand identity on the synthetic graph: after the first half-step
    # every authority equals its in-degree (all hubs start at 1), so
    # iterated scores are positive wherever in-degree is
    assert (auth >= 0).all() and auth[0] > 0
    # shard-count determinism (the partition-independence claim)
    from uniparser_ray.pipelines.graph import _sealed_shards
    from uniparser_ray.stages.graph_bsp import hits
    assert hits(_sealed_shards(SF, num_shards=1)).equals(got)
    assert hits(_sealed_shards(SF, num_shards=3)).equals(got)


def test_pagerank_shard_count_invariant(ray_session):
    """Result independent of shard count (the partition-determinism
    claim the 100 TB design rests on): pagerank, components, seed hops
    and the dedup clusters' per-node assignments."""
    from uniparser_ray.pipelines.graph import (_SHARD_CACHE, _sealed_shards,
                                               _web_for, expected_pagerank,
                                               expected_seed_hops)
    from uniparser_ray.rulevm.urlutil import url_hash64
    from uniparser_ray.stages.graph_bsp import (component_assignments,
                                                connected_components,
                                                pagerank, seed_hops)
    shards1 = _sealed_shards(SF, num_shards=1)
    got1 = pagerank(shards1)
    assert got1.equals(expected_pagerank(TAG))
    cc1 = connected_components(shards1)
    shards3 = _sealed_shards(SF, num_shards=3)
    assert pagerank(shards3).equals(got1)
    assert connected_components(shards3).equals(cc1)
    seeds = np.array([url_hash64(u) for u in _web_for(TAG).seed_urls()],
                     np.uint64)
    hops1 = seed_hops(shards1, seeds)
    assert hops1.equals(expected_seed_hops(TAG))
    assert seed_hops(shards3, seeds).equals(hops1)
    assign1 = component_assignments(shards1).sort_by("id")
    assert assign1.num_rows == sum(cc1["n_pages"].to_pylist())
    assert component_assignments(shards3).sort_by("id").equals(assign1)


def test_plan_cache_shared_across_algorithms(ray_session):
    """One structure cache per edge plan: seal leaves every plan unsent
    with no receive plan, pagerank fills the out plan only, and seed
    hops, which sends on the same plan, ships values without hashes."""
    import ray

    from uniparser_ray.stages import graph_bsp

    n = 12
    hashes = np.arange(1, n + 1, dtype=np.uint64) \
        * np.uint64(0x9E3779B97F4A7C15)
    nodes = ray.data.from_arrow(pa.table({
        "hash": hashes, "id": [f"n{i}" for i in range(n)]}))
    edges = ray.data.from_arrow(pa.table({"src": hashes[:-1],
                                          "dst": hashes[1:]}))
    shards = graph_bsp.load(nodes, edges, 2)

    def caches():
        return ray.get([s.__ray_call__.remote(lambda shard: {
            k: (p.sent, p.recv is not None)
            for k, p in shard.plans.items()}) for s in shards])

    fresh = {"out": (False, False), "in": (False, False),
             "both": (False, False)}
    assert caches() == [fresh, fresh]
    graph_bsp.pagerank(shards)
    assert caches() == [dict(fresh, out=(True, True))] * 2
    ray.get([s.sp_init.remote(hashes[:1]) for s in shards])
    for row in graph_bsp._send(shards, "send", "seed_hops"):
        payloads = ray.get(row)
        assert len(payloads) == 2
        assert all(h is None for h, _ in payloads)
    assert caches() == [dict(fresh, out=(True, True))] * 2
    graph_bsp.release(shards)


def test_doc_dedup_clusters_without_pairs(ray_session):
    """A pairs result with no pair is a 0-row Dataset: every document
    is loaded, is its own cluster and is kept."""
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import (doc_dedup_clusters,
                                                   doc_dedup_minhash)
    assert doc_dedup_minhash(SF, threshold=1.01).count() == 0
    out = doc_dedup_clusters(SF, threshold=1.01).to_pandas()
    ids = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
    assert sorted(out["doc_id"]) == sorted(ids["doc_id"].to_pylist())
    assert (out["cluster"] == out["doc_id"]).all()
    assert out["keep"].all()


def test_images_dedup_clusters_transitive(ray_session):
    """Cluster assignment is transitively closed over the pair graph
    and keeps exactly one representative per cluster."""
    import pandas as pd

    from uniparser_ray.pipelines.images_q import (images_dedup_clusters,
                                                  images_neardup_phash)
    sf = "/root/testdata/sf0.001"
    out = images_dedup_clusters(sf).to_pandas()
    pairs = images_neardup_phash(sf).to_pandas()
    rep = dict(zip(out["image_id"], out["cluster"]))
    # every near-dup pair landed in the same cluster
    assert all(rep[a] == rep[b]
               for a, b in zip(pairs["image_a"], pairs["image_b"]))
    # representative is the min member and the only kept row
    g = out.groupby("cluster")
    assert (g["image_id"].min() == g["image_id"].first().index).all()
    assert out["keep"].sum() == out["cluster"].nunique()
    # singletons keep themselves
    assert (out[~out["image_id"].isin(
        pd.concat([pairs["image_a"], pairs["image_b"]]))]["keep"]).all()


def test_doc_dedup_clusters_int_ids(ray_session):
    """Integer node-id path: cluster rep is the min doc_id, every
    minhash pair co-clusters, non-dups keep themselves."""
    from uniparser_ray.pipelines.documents import (doc_dedup_clusters,
                                                   doc_dedup_minhash)
    sf = "/root/testdata/sf0.001"
    out = doc_dedup_clusters(sf).to_pandas()
    pairs = doc_dedup_minhash(sf).to_pandas()
    rep = dict(zip(out["doc_id"], out["cluster"]))
    assert all(rep[a] == rep[b]
               for a, b in zip(pairs["doc_a"], pairs["doc_b"]))
    assert (out.groupby("cluster")["doc_id"].min().to_numpy()
            == sorted(out["cluster"].unique())).all()
    assert out["keep"].sum() == out["cluster"].nunique()


def test_seed_hops_match_expected(ray_session):
    """Min-plus BSP BFS == single-process queue BFS over the
    structural edges; seeds at hop 0, histogram covers the whole
    universe."""
    from uniparser_ray.pipelines.graph import (_universe_table, _web_for,
                                               expected_seed_hops,
                                               web_seed_hops)
    got = web_seed_hops(SF)
    exp = expected_seed_hops(TAG)
    assert got.equals(exp)
    df = got.to_pandas()
    web = _web_for(TAG)
    assert df["n_pages"].sum() == _universe_table(web).num_rows
    assert df.loc[df["hops"] == 0, "n_pages"].tolist() \
        == [len(web.seed_urls())]


def test_images_curation_composes_components(ray_session):
    """The composed keep equals the conjunction of the independently
    oracled component queries (aspect keep, caption token range,
    alignment flag, dedup-cluster keep), bit by bit."""
    from uniparser_ray.pipelines.images_q import (
        CUR_CAP_MAX_TOKENS, CUR_CAP_MIN_TOKENS, caption_token_stats,
        images_aspect_buckets, images_caption_align, images_curation,
        images_dedup_clusters)

    got = images_curation(SF).to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    asp = images_aspect_buckets(SF).to_pandas().set_index("image_id")
    tok = caption_token_stats(SF).to_pandas().set_index("image_id")
    ali = images_caption_align(SF).to_pandas().set_index("image_id")
    cc = images_dedup_clusters(SF).to_pandas().set_index("image_id")
    ids = got["image_id"]
    want = ((~asp.loc[ids, "keep"].to_numpy()).astype("int64")
            + 2 * (~tok.loc[ids, "n_tokens"].between(
                CUR_CAP_MIN_TOKENS, CUR_CAP_MAX_TOKENS).to_numpy())
            + 4 * (1 - ali.loc[ids, "aligned"].to_numpy())
            + 8 * (~cc.loc[ids, "keep"].to_numpy()).astype("int64"))
    assert got["viol"].tolist() == want.tolist()
    assert (got["keep"] == (got["viol"] == 0).astype("int64")).all()
    # the gate actually separates: some kept, some dropped
    assert 0 < got["keep"].sum() < len(got)


def test_crawl_images_curation_composes(ray_session):
    """The crawl -> gate composition: every crawled image appears
    exactly once, keep == (viol == 0), the three row-local bits equal
    a direct numpy recompute from the crawled metadata, and bit 3
    equals the BSP cluster keep on the crawl's own Lance table."""
    from uniparser_ray.pipelines.crawl_q import harness_crawl
    from uniparser_ray.pipelines.images_q import (CurationBitsStage,
                                                  crawl_images_curation,
                                                  images_dedup_clusters_for)
    from uniparser_ray.storage.lance_layout import LanceLayoutTable

    got = crawl_images_curation(SF).to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    out, _ = harness_crawl("base", TAG)
    table = LanceLayoutTable(f"{out}/images_lance")
    meta = table.read_dataset(
        columns=["image_id", "w", "h", "caption", "phash"]) \
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    assert got["image_id"].tolist() == meta["image_id"].tolist()
    assert ((got["keep"] == 1) == (got["viol"] == 0)).all()

    bits = CurationBitsStage()(pa.Table.from_pandas(meta)) \
        .to_pandas().set_index("image_id")["viol"]
    cc = images_dedup_clusters_for(table).to_pandas() \
        .set_index("image_id")["keep"]
    for _, row in got.iterrows():
        want = int(bits[row["image_id"]]) \
            + 8 * (1 - int(cc[row["image_id"]]))
        assert row["viol"] == want


def test_doc_curation_composes_components(ray_session):
    """The composed doc keep equals the conjunction of the
    independently oracled component queries, bit by bit."""
    import hashlib

    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import (doc_curation,
                                                   doc_dedup_clusters,
                                                   doc_gopher_rules,
                                                   doc_langid)

    got = doc_curation(SF).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    gop = doc_gopher_rules(SF).to_pandas().set_index("doc_id")
    lng = doc_langid(SF).to_pandas().set_index("doc_id")
    cc = doc_dedup_clusters(SF).to_pandas().set_index("doc_id")
    src = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"]).to_pandas()
    src["h"] = src["text"].map(
        lambda x: hashlib.md5(x.encode()).hexdigest())
    src["exk"] = src["doc_id"] == src.groupby("h")["doc_id"] \
        .transform("min")
    src = src.set_index("doc_id")
    ids = got["doc_id"]
    want = ((gop.loc[ids, "violations"] != 0).to_numpy().astype("int64")
            + 2 * (~src.loc[ids, "exk"].to_numpy())
            + 4 * (~cc.loc[ids, "keep"].to_numpy()).astype("int64")
            + 8 * (lng.loc[ids, "lang_pred"] != "en").to_numpy())
    assert got["viol"].tolist() == want.tolist()
    assert (got["keep"] == (got["viol"] == 0).astype("int64")).all()
    assert 0 < got["keep"].sum() < len(got)


def test_triangles_match_expected(ray_session):
    from uniparser_ray.pipelines.graph import (expected_triangles,
                                               web_triangles)
    assert web_triangles(SF).equals(expected_triangles(TAG))


def test_triangles_dense_random_graph(ray_session):
    """The census on a graph where triangles are actually abundant
    (the synthetic web is tree-like): random G(n, p) with planted hub
    skew, BSP result vs brute-force over the same edge set, at 1 and
    4 shards."""
    import hashlib
    from collections import defaultdict

    from uniparser_ray.stages import graph_bsp

    rng = np.random.default_rng(7)
    n = 120
    names = [f"http://g.test/{i}" for i in range(n)]
    hashes = np.fromiter(
        (int.from_bytes(hashlib.blake2b(u.encode(), digest_size=8)
                        .digest(), "big") for u in names),
        dtype=np.uint64)
    pairs = set()
    for _ in range(900):
        a, b = rng.integers(0, n, 2)
        if a != b:
            pairs.add((int(a), int(b)))
    # planted hub: node 0 links to the first 40 nodes (degree skew)
    for b in range(1, 41):
        pairs.add((0, b))
    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    n_edges = sum(len(v) for v in adj.values()) // 2
    n_wedges = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
    tri3 = sum(len(adj[a] & adj[b]) for a in adj for b in adj[a] if a < b)
    expected = (n, n_edges, n_wedges, tri3 // 3)

    src = np.array([hashes[a] for a, _ in pairs], np.uint64)
    dst = np.array([hashes[b] for _, b in pairs], np.uint64)
    import ray
    for B in (1, 4):
        shards = graph_bsp.build_shards(B)
        ray.get(graph_bsp.ingest_nodes(shards, hashes, names))
        ray.get(graph_bsp.ingest_edge_batch(shards, src, dst))
        ray.get([s.seal.remote() for s in shards])
        got = graph_bsp.triangles(shards).to_pydict()
        assert (got["n_nodes"][0], got["n_edges"][0],
                got["n_wedges"][0], got["n_triangles"][0]) == expected, B
        assert got["n_triangles"][0] > 100  # the graph is actually dense
        for s in shards:
            ray.kill(s, no_restart=True)
