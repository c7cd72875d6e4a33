"""Integer-exact k-means + SemDeDup: unit invariants and DuckDB-oracle
parity on a constructed corpus with degenerate shapes (duplicate
vectors, empty clusters, ties)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entry
from uniparser_ray.stages.kmeans import (COS_SCALE, QUANT_OFFSET,
                                         QUANT_SCALE, _assign, quantize,
                                         semdedup_group, update_centroids)

DIM = 4
K = 3


def _vecs():
    """10 vectors in 4-d: two exact duplicate groups, one isolated
    point, and vectors equidistant from two centroids (tie)."""
    rng = np.random.RandomState(7)
    base = rng.randn(10, DIM) * 0.3
    base[3] = base[0]                    # exact dup of vec 0
    base[7] = base[2]                    # exact dup of vec 2
    base[9] = [3.0, 3.0, 3.0, 3.0]       # isolated
    return base.astype(np.float32)


def _embeddings_table():
    v = _vecs()
    return pa.table({
        "vec_id": pa.array(range(len(v)), pa.int64()),
        "embedding": pa.array([row.tolist() for row in v],
                              pa.list_(pa.float32()))})


def _python_kmeans(vecs, k=K, iters=2):
    """Reference implementation: plain loops over Python ints."""
    q = quantize(np.asarray(vecs, np.float64), QUANT_SCALE, QUANT_OFFSET)
    cents = q[:k].copy()
    for _ in range(iters):
        cl, _ = _assign(q, cents)
        sums = np.zeros((k, q.shape[1]), np.int64)
        np.add.at(sums, cl, q)
        counts = np.bincount(cl, minlength=k).astype(np.int64)
        cents = update_centroids(sums, counts, cents)
    cl, d2 = _assign(q, cents)
    return cl, d2


def test_update_keeps_empty_cluster_centroid():
    prev = np.array([[10, 10], [20, 20]], np.int64)
    sums = np.array([[7, 9], [0, 0]], np.int64)
    counts = np.array([2, 0], np.int64)
    out = update_centroids(sums, counts, prev)
    # (2*7+2)//4 = 4, (2*9+2)//4 = 5; empty cluster 1 unchanged
    assert out.tolist() == [[4, 5], [20, 20]]


def test_assign_tie_breaks_to_smallest_cluster():
    q = np.array([[5, 5]], np.int64)
    cents = np.array([[4, 5], [6, 5]], np.int64)  # equidistant
    cl, d2 = _assign(q, cents)
    assert cl[0] == 0 and d2[0] == 1


def test_kmeans_oracle_parity_constructed():
    con = duckdb.connect()
    con.register("embeddings", _embeddings_table())
    sql = con.execute(entry._kmeans_sql(k=K, iters=2, dim=DIM)).fetchdf() \
        .sort_values("vec_id").reset_index(drop=True)
    cl, d2 = _python_kmeans(_vecs())
    assert sql["cluster"].astype("int64").tolist() == cl.tolist()
    assert sql["dist2"].astype("int64").tolist() == d2.tolist()
    # exact duplicates land in the same cluster with the same dist2
    assert cl[3] == cl[0] and d2[3] == d2[0]
    assert cl[7] == cl[2] and d2[7] == d2[2]


def test_semdedup_oracle_parity_constructed():
    con = duckdb.connect()
    con.register("embeddings", _embeddings_table())
    sql = con.execute(entry._semdedup_sql(k=K, iters=2, dim=DIM)).fetchdf()
    got = sorted(map(tuple, sql[["vec_a", "vec_b"]].values.tolist()))

    cl, _ = _python_kmeans(_vecs())
    q = quantize(np.asarray(_vecs(), np.float64), COS_SCALE)
    df = pd.DataFrame({"vec_id": np.arange(10, dtype=np.int64),
                       "cluster": cl,
                       "qv": [row.tolist() for row in q]})
    want = []
    for c in sorted(set(cl)):
        t = semdedup_group(df[df["cluster"] == c].reset_index(drop=True))
        want += list(zip(t["vec_a"].to_pylist(), t["vec_b"].to_pylist()))
    assert got == sorted(want)
    # the exact-duplicate pairs must be found (cos == 1 in any cluster)
    assert (0, 3) in got and (2, 7) in got


@pytest.mark.usefixtures("ray_session")
def test_kmeans_pipeline_matches_driverless_reference():
    """The distributed partial-sum path equals the single-process
    reference on real testdata."""
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.vectors import embedding_kmeans

    sf = "/root/testdata/sf0.001"
    out = embedding_kmeans(sf).to_pandas().sort_values("vec_id") \
        .reset_index(drop=True)
    src = pq.read_table(f"{sf}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id")
    cl, d2 = _python_kmeans(
        np.array(src["embedding"].tolist(), np.float64), k=8, iters=2)
    assert out["cluster"].tolist() == cl.tolist()
    assert out["dist2"].tolist() == d2.tolist()
    assert out["cluster"].nunique() > 1


@pytest.mark.usefixtures("ray_session")
def test_semdedup_pipeline_matches_brute():
    """Cluster-then-dedup pairs equal the single-process recomputation
    (kmeans labels + per-cluster quantized-cosine test)."""
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.vectors import embedding_semdedup

    sf = "/root/testdata/sf0.001"
    out = embedding_semdedup(sf).to_pandas()
    got = sorted(map(tuple, out[["vec_a", "vec_b", "cluster"]].values
                     .tolist()))

    src = pq.read_table(f"{sf}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    vecs = np.array(src["embedding"].tolist(), np.float64)
    cl, _ = _python_kmeans(vecs, k=8, iters=2)
    q = quantize(vecs, COS_SCALE)
    df = pd.DataFrame({"vec_id": src["vec_id"].to_numpy(), "cluster": cl,
                       "qv": [r.tolist() for r in q]})
    want = []
    for c in sorted(set(cl)):
        t = semdedup_group(df[df["cluster"] == c].reset_index(drop=True))
        want += list(zip(t["vec_a"].to_pylist(), t["vec_b"].to_pylist(),
                         t["cluster"].to_pylist()))
    assert got == sorted(want) and len(got) > 0


@pytest.mark.usefixtures("ray_session")
def test_semdedup_shuffle_path_equals_fast_path(monkeypatch):
    """The exchange's many-bucket side must produce the same pair set
    as its one-bucket side (which the small sf dirs normally take)."""
    import ray

    from uniparser_ray.pipelines.vectors import (_kmeans_centroids, _read)
    from uniparser_ray.stages import combine
    from uniparser_ray.stages.combine import hash_bucket_combine
    from uniparser_ray.stages.kmeans import make_assign_fn, semdedup_group

    sf = "/root/testdata/sf0.001"
    cents = _kmeans_centroids(sf, 8, 2)
    ref = ray.put(cents)

    def labeled():
        return _read(sf, ["vec_id", "embedding"]).map_batches(
            make_assign_fn(ref, keep_vec=True), batch_format="pyarrow")

    def pairs_in_bucket(df):
        empty = pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                              "vec_b": pd.Series([], dtype="int64"),
                              "cluster": pd.Series([], dtype="int64")})
        outs = [semdedup_group(g.reset_index(drop=True)).to_pandas()
                for _, g in df.groupby("cluster")]
        return pd.concat([empty] + outs, ignore_index=True) \
            if outs else empty

    def run():
        ds = hash_bucket_combine(labeled(), ["cluster"], pairs_in_bucket,
                                 num_buckets=16)
        out = ds.to_pandas()
        return ds.num_blocks(), sorted(map(
            tuple, out[["vec_a", "vec_b", "cluster"]].values.tolist()))

    one_blocks, fast = run()
    # the size decision's other side: 64 rows per bucket -> up to
    # num_buckets=16 buckets
    monkeypatch.setattr(combine, "_ROWS_PER_BUCKET", 64)
    many_blocks, shuffle = run()
    assert one_blocks == 1 and many_blocks > 1
    assert fast == shuffle and len(fast) > 0


def test_pq_topk_rerank_exact_and_recall(ray_session):
    """PQ ADC shortlist + exact re-rank: every returned l2_dist is the
    true quantized L2 (exact by construction), the per-query ranking
    is consistent, and shortlist recall@10 vs the exact answer clears
    the pinned floor (mean >= 0.5, per-query >= 0.3 on this
    deliberately unclusterable synthetic table; measured 0.7 mean —
    pure ADC without re-rank measures 0.38)."""
    import numpy as np
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.vectors import embedding_pq_topk
    from uniparser_ray.stages.kmeans import (QUANT_OFFSET, QUANT_SCALE,
                                             quantize)

    got = embedding_pq_topk("/root/testdata/sf0.001").to_pandas()
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                      columns=["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    V = quantize(np.array(t["embedding"].tolist(), np.float64),
                 QUANT_SCALE, QUANT_OFFSET)
    ids = t["vec_id"].to_numpy()
    pos = {int(v): i for i, v in enumerate(ids)}

    recalls = []
    for q in range(5):
        sub = got[got["query_id"] == q]
        assert list(sub["rank"]) == list(range(1, 11))
        qv = V[pos[q]]
        # returned distances are EXACT
        for _, r in sub.iterrows():
            d = int(((V[pos[int(r["vec_id"])]] - qv) ** 2).sum())
            assert d == int(r["l2_dist"])
        # ranking consistent with the distances
        dists = sub["l2_dist"].to_numpy()
        assert (np.diff(dists) >= 0).all()
        d_all = ((V - qv) ** 2).sum(axis=1)
        exact = set(ids[np.lexsort((ids, d_all))[:10]].tolist())
        approx = set(sub["vec_id"].tolist())
        recalls.append(len(exact & approx) / 10)
    assert min(recalls) >= 0.3 and np.mean(recalls) >= 0.5, recalls


def test_embedding_outliers_matches_brute():
    """Per-cluster farthest top-k equals a single-process recompute
    (sort by dist2 desc, vec_id asc within each cluster)."""
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.vectors import embedding_outliers

    sf = "/root/testdata/sf0.001"
    got = embedding_outliers(sf, topk=5).to_pandas() \
        .sort_values(["cluster", "rank"]).reset_index(drop=True)
    src = pq.read_table(f"{sf}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    cl, d2 = _python_kmeans(
        np.array(src["embedding"].tolist(), np.float64), k=8, iters=2)
    ref = pd.DataFrame({"vec_id": src["vec_id"], "cluster": cl,
                        "dist2": d2}) \
        .sort_values(["cluster", "dist2", "vec_id"],
                     ascending=[True, False, True], kind="mergesort") \
        .groupby("cluster", sort=False).head(5)
    ref["rank"] = ref.groupby("cluster", sort=False).cumcount() + 1
    ref = ref[["cluster", "rank", "vec_id", "dist2"]] \
        .astype({"rank": "int64", "cluster": "int64", "dist2": "int64",
                 "vec_id": "int64"}).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref)
    assert got["cluster"].nunique() > 1


def test_pq_distortion_matches_reconstruction(ray_session):
    """Distortion audit == independent reconstruction route: decode
    each vector's codes back to the concatenated centroid vector and
    take the plain numpy squared error; distortion is nonzero for
    most vectors (16 codes can't cover 500) and zero is possible only
    for the codebook seeds themselves."""
    import numpy as np
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.vectors import (_pq_centroids,
                                                 embedding_pq_distortion)
    from uniparser_ray.stages.kmeans import (QUANT_OFFSET, QUANT_SCALE,
                                             _assign, quantize)

    sf = "/root/testdata/sf0.001"
    got = embedding_pq_distortion(sf).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    src = pq.read_table(f"{sf}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    q = quantize(np.array(src["embedding"].tolist(), np.float64),
                 QUANT_SCALE, QUANT_OFFSET)
    cents = _pq_centroids(sf, nsub=8, ksub=16, iters=2)
    nsub, _ksub, sd = cents.shape
    recon = np.zeros_like(q)
    for s in range(nsub):
        codes, _d2 = _assign(q[:, s * sd:(s + 1) * sd], cents[s])
        recon[:, s * sd:(s + 1) * sd] = cents[s][codes]
    want = ((q - recon) ** 2).sum(axis=1).astype(np.int64)
    assert got["vec_id"].tolist() == src["vec_id"].tolist()
    assert (got["dist2"].to_numpy() == want).all()
    assert (got["dist2"] > 0).mean() > 0.9
