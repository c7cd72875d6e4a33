"""Vector pipelines over the ``embeddings`` table."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..blocks import table_from_pandas


def _read(sf_dir: str, columns=None, **kwargs):
    from ..sources.parquet import read_parquet_clean
    return read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                              columns=columns, **kwargs)


def _queries(sf_dir: str, n: int = 5):
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n)])  # row-group pushdown
    df = t.to_pandas().sort_values("vec_id")
    return df["vec_id"].tolist(), np.array(df["embedding"].tolist(),
                                           dtype=np.float64)


def ann_topk(sf_dir: str, k: int = 10):
    from ..stages.ann import brute_topk
    qids, qm = _queries(sf_dir)
    return brute_topk(_read(sf_dir, ["vec_id", "embedding"]), qids, qm, k=k)


def _ivf_index_for(sf_dir: str, num_centroids: int, sample_size: int = 2048,
                   seed: int = 42):
    """Build-or-reuse the persisted IVF index for an sf dir's
    embeddings table under /tmp, fingerprinted by source file stat +
    quantizer params — repeat queries reuse the one-time bucketed
    write and pay only the pruned read."""
    import hashlib
    import os

    from ..stages.ann import IVFIndex

    src = f"{sf_dir}/embeddings.parquet"
    st = os.stat(src)
    fp = f"{src}|{st.st_size}|{st.st_mtime_ns}|" \
         f"{num_centroids}|{sample_size}|{seed}"
    tag = hashlib.md5(fp.encode()).hexdigest()[:16]
    index_dir = os.path.join("/tmp", "uniparser_ray_ivf", tag)
    return IVFIndex.build_or_open(
        lambda: _read(sf_dir, ["vec_id", "embedding"]), index_dir,
        fingerprint=fp, num_centroids=num_centroids,
        sample_size=sample_size, seed=seed)


def ann_ivf(sf_dir: str, k: int = 10, num_centroids: int = 16,
            nprobe: int = 4):
    """Persisted-index IVF: one-time bucketed write partitioned by
    centroid list, search = pruned read of only the probed
    partitions."""
    qids, qm = _queries(sf_dir)
    return _ivf_index_for(sf_dir, num_centroids).search(
        qids, qm, k=k, nprobe=nprobe)


def ann_ivf_exhaustive(sf_dir: str, k: int = 10, num_centroids: int = 16):
    """IVF with nprobe = nlist: every list probed, so the result is
    EXACT and shares the brute-force SQL oracle — value-checks the
    whole IVF machinery (quantizer training, persisted list
    assignment, pruned-read probe routing, distributed per-query
    top-k merge) in the exhaustive limit, while ``ann_ivf`` keeps the
    approximate recall setting."""
    qids, qm = _queries(sf_dir)
    return _ivf_index_for(sf_dir, num_centroids).search(
        qids, qm, k=k, nprobe=num_centroids)


MAX_EXACT_NEARDUP_ROWS = 2_000_000


def embedding_neardup(sf_dir: str, threshold: float = 0.35):
    """Exact all-pairs near-dup: the normalized matrix is broadcast
    ONCE (``ray.put``); every batch multiplies against it (flops-heavy
    but shuffle-free) and the pair rows stream out as a Dataset — no
    driver-side concat.  O(n^2) compares by construction: this is the
    declared SQL-checkable twin of the LSH-bucketed scale path
    (``embedding_neardup_lsh``); a row-count guard enforces the
    bounded-n contract."""
    import ray

    ds = _read(sf_dir, ["vec_id", "embedding"])
    n = _read(sf_dir, ["vec_id"]).count()   # cheap pruned-column count
    if n > MAX_EXACT_NEARDUP_ROWS:
        raise ValueError(
            f"embedding_neardup is the exact O(n^2) twin, bounded to "
            f"{MAX_EXACT_NEARDUP_ROWS} rows (got {n}); use "
            "embedding_neardup_lsh for the scale path")
    full = ds.to_pandas()
    ids = np.asarray(full["vec_id"], dtype=np.int64)
    mat = np.array(full["embedding"].tolist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1
    ref = ray.put((ids, mat / norms))

    def pairs(batch: pa.Table) -> pa.Table:
        all_ids, unit = ray.get(ref)
        vecs = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        bnorm = np.linalg.norm(vecs, axis=1, keepdims=True)
        bnorm[bnorm == 0] = 1
        bunit = vecs / bnorm
        bids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        sims = bunit @ unit.T
        ii, jj = np.nonzero((sims >= threshold)
                            & (all_ids[None, :] > bids[:, None]))
        return pa.Table.from_arrays([
            pa.array(bids[ii], pa.int64()),
            pa.array(all_ids[jj], pa.int64()),
            pa.array(np.round(sims[ii, jj], 6), pa.float64())],
            names=["vec_a", "vec_b", "cosine_sim"])

    return ds.map_batches(pairs, batch_format="pyarrow")


def embedding_neardup_lsh(sf_dir: str, threshold: float = 0.35):
    from ..stages.dedup import embedding_neardup_pairs
    out = embedding_neardup_pairs(_read(sf_dir, ["vec_id", "embedding"]),
                                  threshold=threshold)
    df = out.to_pandas()
    schema = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64()),
                        ("cosine_sim", pa.float64())])
    if not len(df):
        return schema.empty_table()
    df = df.sort_values(["vec_a", "vec_b"])
    return table_from_pandas(df, preserve_index=False)


def label_centroids(sf_dir: str):
    """Per-label centroid + count: vectorized per-batch partial sums,
    tiny global combine (mergeable-sketch pattern for vectors)."""
    ds = _read(sf_dir, ["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        labels = np.asarray(batch["label"].to_pylist())
        vecs = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        out_l, out_s, out_n = [], [], []
        for lab in np.unique(labels):
            m = labels == lab
            out_l.append(int(lab))
            out_s.append(vecs[m].sum(axis=0).tolist())
            out_n.append(int(m.sum()))
        return pa.Table.from_arrays([
            pa.array(out_l, pa.int32()),
            pa.array(out_s, pa.list_(pa.float64())),
            pa.array(out_n, pa.int64())],
            names=["label", "vec_sum", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    for lab, g in parts.groupby("label"):
        total = np.sum(np.array(g["vec_sum"].tolist()), axis=0)
        n = int(g["n"].sum())
        rows.append({"label": int(lab), "n_vectors": n,
                     "centroid_norm": round(float(
                         np.linalg.norm(total / n)), 6)})
    df = pd.DataFrame(rows).sort_values("label")
    df["label"] = df["label"].astype("int32")
    return table_from_pandas(df, preserve_index=False)


def _kmeans_centroids(sf_dir: str, k: int, iters: int):
    """Run Lloyd iterations; returns the final int64 centroid matrix.
    Each iteration is one shuffle-free map_batches pass whose output is
    k rows per batch (partial sums) — vectors never cross the wire."""
    import pyarrow.parquet as pq
    import ray

    from ..stages.kmeans import (QUANT_OFFSET, QUANT_SCALE,
                                 combine_partials, make_partial_fn,
                                 quantize)

    init_tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding"],
                             filters=[("vec_id", "<", k)])
    init = init_tbl.to_pandas().sort_values("vec_id")
    if len(init) != k:
        raise ValueError(f"k-means init needs vec_ids 0..{k-1} "
                         f"(got {len(init)} rows)")
    cents = quantize(np.array(init["embedding"].tolist(), np.float64),
                     QUANT_SCALE, QUANT_OFFSET)
    dim = cents.shape[1]
    ds = _read(sf_dir, ["vec_id", "embedding"])
    for _ in range(iters):
        ref = ray.put(cents)
        parts = ds.map_batches(make_partial_fn(ref),
                               batch_format="pyarrow").take_all()
        cents = combine_partials(parts, k, dim, cents)
    return cents


def _pq_centroids(sf_dir: str, nsub: int, ksub: int, iters: int):
    """Per-subspace integer-Lloyd codebooks, all subspaces trained in
    the same shuffle-free partial-sum passes as ``_kmeans_centroids``
    (nsub x ksub rows per batch cross the wire).  Init: subvectors of
    vec_ids 0..ksub-1 — the same deterministic rule the SQL twin
    replays.  Codebooks are persisted artifacts at real scale; the
    process memo (input-identity keyed) lets the search and the
    distortion audit share one training run."""
    from .sharedcache import input_sig, memo
    key = ("pq_centroids", input_sig(f"{sf_dir}/embeddings.parquet"),
           nsub, ksub, iters)
    return memo(key,
                lambda: _pq_centroids_impl(sf_dir, nsub, ksub, iters))


def _pq_centroids_impl(sf_dir: str, nsub: int, ksub: int, iters: int):
    import pyarrow.parquet as pq
    import ray

    from ..stages.kmeans import (QUANT_OFFSET, QUANT_SCALE,
                                 make_pq_partial_fn, quantize,
                                 update_centroids)

    init_tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding"],
                             filters=[("vec_id", "<", ksub)])
    init = init_tbl.to_pandas().sort_values("vec_id")
    if len(init) != ksub:
        raise ValueError(f"PQ init needs vec_ids 0..{ksub-1}")
    q0 = quantize(np.array(init["embedding"].tolist(), np.float64),
                  QUANT_SCALE, QUANT_OFFSET)
    dim = q0.shape[1]
    if dim % nsub:
        raise ValueError(f"dim {dim} not divisible by nsub {nsub}")
    sd = dim // nsub
    cents = np.stack([q0[:, s * sd:(s + 1) * sd] for s in range(nsub)])

    ds = _read(sf_dir, ["vec_id", "embedding"])
    for _ in range(iters):
        ref = ray.put(cents)
        parts = ds.map_batches(make_pq_partial_fn(ref),
                               batch_format="pyarrow").take_all()
        nxt = cents.copy()
        for s in range(nsub):
            sums = np.zeros((ksub, sd), np.int64)
            counts = np.zeros(ksub, np.int64)
            for row in parts:
                if int(row["sub"]) != s:
                    continue
                j = int(row["cluster"])
                sums[j] += np.asarray(row["vec_sum"], np.int64)
                counts[j] += int(row["n"])
            nxt[s] = update_centroids(sums, counts, cents[s])
        cents = nxt
    return cents


def embedding_pq_topk(sf_dir: str, k: int = 10, nsub: int = 8,
                      ksub: int = 16, iters: int = 2,
                      shortlist: int = 50):
    """Product-quantization ANN with exact re-rank (Jégou et al.
    2011's ADC + the standard re-rank stage): vectors compress to
    ``nsub`` integer codes (one per subspace codebook); the SCAN runs
    entirely in the compressed domain — per-query ADC lookup tables
    broadcast once, each block of codes scores with table lookups +
    row sums, per-block top-``shortlist`` rows reach the merge — and
    only the ``shortlist`` survivors per query are re-scored exactly
    against the raw vectors (a pruned second read of nq x shortlist
    rows, not a rescan).

    The 100 TB shape: the one full touch of the raw vectors is the
    encode sweep (8 ints vs 64 floats per vector); search reads codes.
    Integer arithmetic end-to-end — codebooks, codes, ADC and the
    exact re-rank distances are all value-checked by the SQL twin
    (which replays the per-subspace Lloyd recursion like the k-means
    oracle).  Shortlist recall vs the exact answer is pinned by
    pytest."""
    import ray

    from ..stages.kmeans import (QUANT_OFFSET, QUANT_SCALE,
                                 make_pq_encode_fn, pq_luts, quantize)

    cents = _pq_centroids(sf_dir, nsub, ksub, iters)
    ref = ray.put(cents)
    codes = _read(sf_dir, ["vec_id", "embedding"]).map_batches(
        make_pq_encode_fn(ref), batch_format="pyarrow")

    qids, qm = _queries(sf_dir)
    qq = quantize(qm, QUANT_SCALE, QUANT_OFFSET)
    luts = pq_luts(qq, cents)
    lut_ref = ray.put((np.asarray(qids, np.int64), luts))
    m = shortlist

    def score(t: pa.Table) -> pa.Table:
        ids_q, lut = ray.get(lut_ref)
        vid = t["vec_id"].to_numpy()
        out_q, out_v, out_d = [], [], []
        if len(vid):
            c = np.array(t["codes"].to_pylist(), dtype=np.int64)
            nsub_ = c.shape[1]
            for qi, qid in enumerate(ids_q):
                adc = np.zeros(len(vid), np.int64)
                for s in range(nsub_):
                    adc += lut[qi, s][c[:, s]]
                # local top-m: (adc asc, vec_id asc)
                top = np.lexsort((vid, adc))[:m]
                out_q.append(np.full(len(top), qid, np.int64))
                out_v.append(vid[top].astype(np.int64))
                out_d.append(adc[top])
        cat = (lambda xs, t_: np.concatenate(xs) if xs
               else np.empty(0, t_))
        return pa.Table.from_arrays(
            [pa.array(cat(out_q, np.int64)),
             pa.array(cat(out_v, np.int64)),
             pa.array(cat(out_d, np.int64))],
            names=["query_id", "vec_id", "adc_dist"])

    # global ADC shortlist merge: bounded at nq x m x blocks partial
    # rows, nq x m survivors
    short = codes.map_batches(score, batch_format="pyarrow").to_pandas()
    short = short.sort_values(["query_id", "adc_dist", "vec_id"],
                              kind="mergesort") \
        .groupby("query_id", sort=False).head(m)
    want = {int(q): set(g["vec_id"].astype("int64"))
            for q, g in short.groupby("query_id", sort=False)}
    want_ref = ray.put(want)
    qmat_ref = ray.put((np.asarray(qids, np.int64), qq))

    def rerank(t: pa.Table) -> pa.Table:
        from ..stages.kmeans import batch_quantized
        w = ray.get(want_ref)
        ids_q, qq_ = ray.get(qmat_ref)
        vid, v = batch_quantized(t, dim=qq_.shape[1])
        out_q, out_v, out_d = [], [], []
        for qi, qid in enumerate(ids_q):
            mask = np.isin(vid, np.fromiter(w[int(qid)], np.int64,
                                            count=len(w[int(qid)])))
            if not mask.any():
                continue
            d = ((v[mask] - qq_[qi]) ** 2).sum(axis=1)
            out_q.append(np.full(int(mask.sum()), qid, np.int64))
            out_v.append(vid[mask].astype(np.int64))
            out_d.append(d.astype(np.int64))
        cat = (lambda xs, t_: np.concatenate(xs) if xs
               else np.empty(0, t_))
        return pa.Table.from_arrays(
            [pa.array(cat(out_q, np.int64)),
             pa.array(cat(out_v, np.int64)),
             pa.array(cat(out_d, np.int64))],
            names=["query_id", "vec_id", "l2_dist"])

    # PRUNED second read: the shortlist ids push down into the parquet
    # scan — at scale this reads nq x m rows, never a rescan
    import pyarrow.compute as pc
    all_ids = sorted({int(v) for s_ in want.values() for v in s_})
    exact = _read(sf_dir, ["vec_id", "embedding"],
                  filter=pc.field("vec_id").isin(all_ids)).map_batches(
        rerank, batch_format="pyarrow").to_pandas()
    out = exact.sort_values(["query_id", "l2_dist", "vec_id"],
                            kind="mergesort") \
        .groupby("query_id", sort=False).head(k).reset_index(drop=True)
    out["rank"] = (out.groupby("query_id", sort=False).cumcount()
                   + 1).astype(np.int64)
    return table_from_pandas(
        out[["query_id", "vec_id", "l2_dist", "rank"]],
        preserve_index=False)


def embedding_pq_distortion(sf_dir: str, nsub: int = 8, ksub: int = 16,
                            iters: int = 2):
    """PQ compression-quality AUDIT: per vector the exact int64
    squared reconstruction error between its quantized embedding and
    the concatenation of its assigned codebook centroids — the number
    a pipeline owner watches when choosing nsub/ksub (distortion up =
    recall down).  Reuses the search path's codebooks (shared
    persist-once memo) and runs ONE shuffle-free pass: quantize,
    per-subspace argmin (the dist2 the assign kernel already
    computes), sum — only (vec_id, dist2) rows leave the stage.  The
    SQL twin replays the per-subspace Lloyd recursion and re-derives
    each vector's assigned-centroid distance, so the audit
    value-checks bit-exactly."""
    import ray

    from ..stages.kmeans import _assign, batch_quantized

    cents = _pq_centroids(sf_dir, nsub, ksub, iters)
    ref = ray.put(cents)

    def dist_rows(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        ns, _ks, sd = c.shape
        ids, q = batch_quantized(batch, dim=ns * sd)
        tot = np.zeros(len(ids), np.int64)
        for s in range(ns):
            _cl, d2 = _assign(q[:, s * sd:(s + 1) * sd], c[s])
            tot += d2
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(tot, pa.int64())],
            names=["vec_id", "dist2"])

    return _read(sf_dir, ["vec_id", "embedding"]).map_batches(
        dist_rows, batch_format="pyarrow")


def embedding_kmeans(sf_dir: str, k: int = 8, iters: int = 2):
    """Integer-exact distributed k-means labels after ``iters`` Lloyd
    updates: (vec_id, cluster, dist2) with dist2 an EXACT int64, so the
    nested-CTE DuckDB oracle hash-matches every value (see
    stages/kmeans.py for why the arithmetic is integer end-to-end)."""
    import ray

    from ..stages.kmeans import make_assign_fn

    cents = _kmeans_centroids(sf_dir, k, iters)
    ref = ray.put(cents)
    return _read(sf_dir, ["vec_id", "embedding"]).map_batches(
        make_assign_fn(ref), batch_format="pyarrow")


def embedding_outliers(sf_dir: str, k: int = 8, iters: int = 2,
                       topk: int = 5):
    """Per-cluster farthest-from-centroid vectors: each cluster's
    ``topk`` largest exact-integer dist2 with rank — the inspect/prune
    list an embedding-quality pass emits (SemDeDup prunes near-dups
    NEAR the centroid; this surfaces the opposite tail, broken or
    out-of-distribution vectors).

    Scale shape: the labeling pass is the shared kmeans assign (exact
    int64 dist2); a per-batch PARTIAL top-k prunes to at most
    topk x k rows per block before any exchange, then the bucketed
    combine re-ranks exactly (ties: dist2 desc, vec_id asc).  The
    exchange is O(blocks x k x topk), never O(vectors)."""
    import ray

    from ..stages.combine import hash_bucket_combine
    from ..stages.kmeans import make_assign_fn

    cents = _kmeans_centroids(sf_dir, k, iters)
    ref = ray.put(cents)
    labeled = _read(sf_dir, ["vec_id", "embedding"]).map_batches(
        make_assign_fn(ref), batch_format="pyarrow")

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["cluster", "dist2", "vec_id"],
                              ascending=[True, False, True],
                              kind="mergesort") \
            .groupby("cluster", sort=False).head(topk)

    pruned = labeled.map_batches(partial_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cluster", "dist2", "vec_id"],
                            ascending=[True, False, True],
                            kind="mergesort") \
            .groupby("cluster", sort=False).head(topk)
        df["rank"] = df.groupby("cluster", sort=False).cumcount() + 1
        return df[["cluster", "rank", "vec_id", "dist2"]] \
            .astype({"rank": "int64"})

    # partials are bounded by blocks x k x topk — the adaptive combine
    # merges them in one task at any data size
    return hash_bucket_combine(pruned, ["cluster"], final_topk,
                               num_buckets=16)


def embedding_semdedup(sf_dir: str, k: int = 8, iters: int = 2,
                       threshold_bp2: int = 1225):
    """SemDeDup-style cluster-then-dedup: k-means partitions the
    corpus, then near-dup pairs are found ONLY within each cluster —
    the all-pairs O(n^2) cost becomes O(sum of cluster sizes squared),
    and the in-cluster pass shuffles each vector exactly once (grouped
    by its cluster id).  Pair test is the quantized-cosine integer
    comparison (stages/kmeans.semdedup_group), so the SQL twin —
    the full kmeans oracle + an in-cluster self-join — value-matches.

    Scale note: cluster sizes bound the quadratic term; a production
    run sizes k so max-cluster fits a worker (SemDeDup's own design
    assumption) and salts any skewed cluster.  The co-location is
    ``grouped_map`` on the cluster id (the hash exchange) rather than a
    sort-based ``groupby``: with only k distinct keys a sort produces
    more output partitions than keys, and Ray emits the surplus as
    schema-less empty bundles that trip its schema-divergence
    warning."""
    import ray

    from ..stages.combine import grouped_map
    from ..stages.kmeans import make_assign_fn, semdedup_group

    cents = _kmeans_centroids(sf_dir, k, iters)
    ref = ray.put(cents)
    labeled = _read(sf_dir, ["vec_id", "embedding"]).map_batches(
        make_assign_fn(ref, keep_vec=True), batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        return semdedup_group(g.reset_index(drop=True),
                              threshold_bp2).to_pandas()

    return grouped_map(labeled, ["cluster"], pairs)
