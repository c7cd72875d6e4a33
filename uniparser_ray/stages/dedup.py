"""Deduplication operators over document tables.

Five families, each idiomatic Ray Data:

* **exact** — content-hash inside ``map_batches`` (vectorized md5),
  then ``groupby(hash)`` keeping the smallest doc_id.  The groupby is
  the only shuffle, over (hash, doc_id) pairs — never the text.
* **MinHash + LSH** — per-batch shingling → minhash signatures →
  explode to (band_id, band_hash, doc_id) rows → shuffle is a
  ``groupby`` over tiny band rows → candidate pairs inside groups →
  verified by exact shingle-Jaccard.
* **SimHash** — 64-bit simhash, bucket by rotated prefixes, verify
  Hamming distance inside buckets.
* **n-gram Jaccard** — the verifier used by LSH, exposed standalone
  for small candidate sets.
* **embedding cosine** — near-dup via normalized-embedding matmul
  against LSH-ish random-hyperplane buckets.

At 100 TB: signatures are ~100 bytes/doc, so every shuffle here moves
signatures — not documents; the band groupby fans in >=1000x smaller
data than the input.

Sketch designs are from the public literature: MinHash (Broder, "On
the resemblance and containment of documents", 1997), banded LSH
(Leskovec/Rajaraman/Ullman, Mining of Massive Datasets ch.3), SimHash
(Charikar, "Similarity estimation techniques from rounding
algorithms", STOC 2002; Manku et al., WWW 2007 for the Hamming-block
trick), and the bloom-filter collections / vacuum-filter VLDB papers
listed in PAPERS.md.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa

from ..blocks import table_from_pandas


def _md5_int(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def exact_dedup_groups(ds, text_column: str = "text", id_column: str = "doc_id"):
    """(text_hash, keeper_id, dup_count): one row per distinct content.
    Only (hash, id) pairs shuffle — never the text."""
    from .combine import grouped_aggregate

    hashed = ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [pa.array([_md5_int(t) for t in b[text_column].to_pylist()],
                      pa.string()), b[id_column]],
            names=["text_hash", id_column]),
        batch_format="pyarrow")
    return grouped_aggregate(hashed, ["text_hash"],
                             {"keeper_id": (id_column, "min"),
                              "dup_count": (id_column, "count")})


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _shingles(text: str, k: int = 3) -> List[str]:
    toks = text.split()
    if len(toks) < k:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]


class MinHashStage:
    """Per-batch minhash signatures + banded LSH keys.

    Emits (doc_id, band_id, band_hash) rows — num_bands per doc.  The
    whole batch is hashed in a few numpy passes (tokenhash.py: one md5
    per unique token, vectorized Horner shingling, one (shingles x
    perms) grid + segmented min) — no per-document Python loops — and
    the identical values are DuckDB-expressible, giving the pipeline a
    true value-checked SQL oracle."""

    def __init__(self, num_perm: int = 64, num_bands: int = 16,
                 shingle_k: int = 3, seed: int = None):
        from .tokenhash import MINHASH_SEED
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.shingle_k = shingle_k
        self.seed = MINHASH_SEED if seed is None else seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .tokenhash import (band_hashes, minhash_signatures,
                                shingle_hashes)
        texts = batch["text"].to_pylist()
        sh, counts = shingle_hashes(texts, self.shingle_k)
        sig = minhash_signatures(sh, counts, self.num_perm, self.seed)
        bands = band_hashes(sig, self.num_bands)          # (ndocs, nbands)
        ndocs = len(texts)
        doc_ids = np.repeat(np.asarray(batch["doc_id"].to_pylist(),
                                       dtype=np.int64), self.num_bands)
        band_ids = np.tile(np.arange(self.num_bands, dtype=np.int32), ndocs)
        return pa.Table.from_arrays([
            pa.array(doc_ids, pa.int64()),
            pa.array(band_ids, pa.int32()),
            pa.array(bands.reshape(-1).astype(np.int64), pa.int64()),
        ], names=["doc_id", "band_id", "band_hash"])


def minhash_candidate_pairs(ds, num_perm: int = 64, num_bands: int = 16,
                            shingle_k: int = 3, seed: int = None,
                            band_cap: int = None):
    """documents -> candidate (doc_a, doc_b) pairs via banded LSH.

    Shuffles only (band, doc_id) rows, bucketed by band hash; pairs
    emerge from a vectorized per-bucket self-merge, deduped within
    each bucket.  Pairs colliding in multiple bands can appear once
    per band — callers dedup the (LSH-bounded, tiny) result.

    ``band_cap`` (default None = exact, the oracle-checked config) is
    the hot-bucket guard for 100 TB corpora: a DEGENERATE band key —
    boilerplate shared by m documents — makes the self-merge emit
    O(m^2) pair rows inside one bucket.  With a cap, any (band_id,
    band_hash) group larger than ``band_cap`` docs is chain-linked
    instead (sorted doc_ids, consecutive pairs): O(m) rows, every
    emitted pair is still a genuine LSH collision, and transitive
    dup-cluster connectivity through the hot band is fully preserved
    — only non-adjacent pairwise recall inside that one band is
    delegated to the OTHER bands (standard split-and-verify cut;
    similar spirit to the stop-shingle df cap on the jaccard path)."""
    from .combine import hash_bucket_combine

    from .taskcache import cached_stage
    bands = ds.map_batches(
        cached_stage(MinHashStage, num_perm=num_perm, num_bands=num_bands,
                     shingle_k=shingle_k, seed=seed),
        batch_format="pyarrow")

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        if band_cap is not None:
            sizes = g.groupby(["band_id", "band_hash"],
                              sort=False)["doc_id"].transform("size")
            hot = g[sizes > band_cap]
            g = g[sizes <= band_cap]
        m = g.merge(g, on=["band_id", "band_hash"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        out = pd.DataFrame({"doc_a": m["doc_id_x"].to_numpy(),
                            "doc_b": m["doc_id_y"].to_numpy()})
        if band_cap is not None and len(hot):
            # chain-link each hot group: sort by doc_id, pair neighbors
            h = hot.sort_values(["band_id", "band_hash", "doc_id"],
                                kind="mergesort")
            ids = h["doc_id"].to_numpy()
            same = (h["band_id"].to_numpy()[1:]
                    == h["band_id"].to_numpy()[:-1]) \
                & (h["band_hash"].to_numpy()[1:]
                   == h["band_hash"].to_numpy()[:-1])
            out = pd.concat([out, pd.DataFrame({
                "doc_a": ids[:-1][same], "doc_b": ids[1:][same]})],
                ignore_index=True)
        return out.drop_duplicates()

    return hash_bucket_combine(bands, ["band_id", "band_hash"],
                               pairs_of_bucket)


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa, sb = set(_shingles(text_a, k)), set(_shingles(text_b, k))
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def shingle_set_rows(ds, shingle_k: int = 3, id_column: str = "doc_id",
                     text_column: str = "text"):
    """documents -> distinct (doc_id, shingle_hash, c) rows — the
    inverted-index input shared by the jaccard and minhash-verify
    paths.  Hashes are the 62-bit tokenhash construction (vectorized;
    collision-free at corpus scale), ~18 bytes/row — the text never
    shuffles.

    ``c`` is the doc's distinct-shingle count, computed exactly here
    because each document lives wholly in one row: carrying it on
    every index row lets the jaccard denominator ride through the
    bucket merge — no second counts pass, no join, no driver-side
    count dict."""
    from .tokenhash import shingle_hashes62, to_int64

    def rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        sh, counts = shingle_hashes62(texts, shingle_k)
        ids = np.repeat(np.asarray(batch[id_column].to_pylist(),
                                   dtype=np.int64), counts)
        # distinct within each doc (segments stay doc-ordered)
        order = np.lexsort((sh, ids))
        ids, sh = ids[order], sh[order]
        keep = np.ones(len(sh), bool)
        keep[1:] = (ids[1:] != ids[:-1]) | (sh[1:] != sh[:-1])
        ids, sh = ids[keep], sh[keep]
        # distinct count per doc, broadcast back onto the rows
        uids, inv, ucnt = np.unique(ids, return_inverse=True,
                                    return_counts=True)
        return pa.Table.from_arrays([
            pa.array(ids, pa.int64()),
            pa.array(to_int64(sh), pa.int64()),
            pa.array(ucnt[inv], pa.int64())],
            names=[id_column, "shingle_hash", "c"])

    return ds.map_batches(rows, batch_format="pyarrow")


def minhash_neardup_pairs(ds, threshold: float = 0.7, num_perm: int = 64,
                          num_bands: int = 16, shingle_k: int = 3,
                          df_cap: int = None,
                          broadcast_limit: int = 200_000,
                          band_cap: int = None):
    """Full near-dup pipeline: LSH candidates -> exact-Jaccard verify.

    The verify is adaptive on the RAW candidate-row count (which
    bounds the distinct-pair count from above, so the decision needs
    no extra shuffle):

    * ``<= broadcast_limit`` raw candidate rows: broadcast the
      (bounded!) deduped pair table once via ``ray.put``, restrict the corpus to
      candidate docs before shingling, and filter each shingle
      bucket's self-merge with a vectorized pandas merge against the
      broadcast table.  Driver memory is capped by ``broadcast_limit``
      — never O(corpus dups).
    * above the limit (dup-heavy corpora at scale): never collect the
      candidates at all.  The shingle inverted index (18-byte rows;
      text never shuffles) is semi-joined against the candidate-id
      Dataset, pair counts combine through bucketed aggregates, and
      banded-candidate membership is enforced by a second bucketed
      join on the (doc_a, doc_b) pair key.  Every step is a Dataset;
      the only driver materialization is the final thresholded result.

    Both paths compute identical values (pytest pins broadcast_limit=0
    against the default); both return a Dataset of
    (doc_a, doc_b, jaccard_sim)."""
    import ray
    import ray.data
    from .combine import grouped_aggregate, hash_bucket_combine, \
        hash_bucket_join

    cands = minhash_candidate_pairs(ds, num_perm, num_bands,
                                    shingle_k=shingle_k,
                                    band_cap=band_cap) \
        .materialize()
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "jaccard_sim": pa.array([], pa.float64())})
    # raw rows bound distinct pairs from above, so the path choice is
    # decided without an extra distinct shuffle; the bounded path may
    # therefore collect at most broadcast_limit rows — never O(dups)
    n_cands = cands.count()
    if not n_cands:
        return ray.data.from_arrow(empty)

    if n_cands <= broadcast_limit:
        cand_tbl = cands.to_pandas()[["doc_a", "doc_b"]] \
            .drop_duplicates().astype("int64")
        ids_ref = ray.put(np.unique(np.concatenate(
            [cand_tbl["doc_a"].to_numpy(), cand_tbl["doc_b"].to_numpy()])))
        allow_ref = ray.put(cand_tbl)
        # restrict to candidate docs BEFORE shingling — the verify
        # pass tokenizes/hashes only the LSH-selected docs.  Arrow
        # filter (zero-copy; a pandas block here would also trip Ray's
        # object-column size estimator on empty filtered batches)
        def _keep_candidates(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            keep = pc.is_in(t["doc_id"].cast(pa.int64()),
                            value_set=pa.array(ray.get(ids_ref), pa.int64()))
            return t.filter(keep)

        ds_f = ds.map_batches(_keep_candidates, batch_format="pyarrow")
        sh = shingle_set_rows(ds_f, shingle_k)
        partial = hash_bucket_combine(
            sh, ["shingle_hash"],
            _pair_count_bucket(df_cap, allow_ref=allow_ref)).to_pandas()
        if not len(partial):
            return ray.data.from_arrow(empty)
        # final combine on the driver: bounded by broadcast_limit
        pairs = partial.groupby(["doc_a", "doc_b"], sort=False) \
            .agg(n_shared=("n_shared", "sum"), ca=("ca", "min"),
                 cb=("cb", "min")).reset_index()
        out = _jaccard_finish(threshold)(pairs)
        if not len(out):
            return ray.data.from_arrow(empty)
        return ray.data.from_arrow(table_from_pandas(
            out.sort_values(["doc_a", "doc_b"]), preserve_index=False))

    # ---- fully distributed verify (no driver candidate set) ----
    # distributed distinct: band-collision duplicates combine in the
    # shuffle, not in a driver drop_duplicates
    cands_d = grouped_aggregate(cands, ["doc_a", "doc_b"],
                                {"n_bands": ("doc_b", "count")}) \
        .materialize()

    def explode_ids(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays([t["doc_a"].combine_chunks().cast(pa.int64()),
                                t["doc_b"].combine_chunks().cast(pa.int64())])
        return pa.table({"cand_id": ids})

    ids_ds = grouped_aggregate(
        cands_d.map_batches(explode_ids, batch_format="pyarrow"),
        ["cand_id"], {"n_pairs": ("cand_id", "count")})

    # semi-join index rows (not text) against candidate ids
    sh = shingle_set_rows(ds, shingle_k)
    sh_c = hash_bucket_join(
        sh, ids_ds, "doc_id", "cand_id",
        left_cols=["doc_id", "shingle_hash", "c"],
        right_cols=["cand_id", "n_pairs"]) \
        .map_batches(lambda t: t.select(["doc_id", "shingle_hash", "c"]),
                     batch_format="pyarrow")

    partial = hash_bucket_combine(sh_c, ["shingle_hash"],
                                  _pair_count_bucket(df_cap))
    agg = grouped_aggregate(partial, ["doc_a", "doc_b"],
                            {"n_shared": ("n_shared", "sum"),
                             "ca": ("ca", "min"), "cb": ("cb", "min")})

    def _with_pair_key(a_col: str, b_col: str, key: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df[key] = df[a_col].astype("int64").astype(str) + ":" + \
                df[b_col].astype("int64").astype(str)
            return df
        return fn

    agg_k = agg.map_batches(_with_pair_key("doc_a", "doc_b", "_pk"),
                            batch_format="pandas")
    cand_k = cands_d.map_batches(
        lambda df: _with_pair_key("doc_a", "doc_b", "_ck")(df)[["_ck"]],
        batch_format="pandas")
    # banded-candidate membership: bucketed join on the pair key
    verified = hash_bucket_join(
        agg_k, cand_k, "_pk", "_ck",
        left_cols=["doc_a", "doc_b", "n_shared", "ca", "cb", "_pk"],
        right_cols=["_ck"])
    return verified.map_batches(_jaccard_finish(threshold),
                                batch_format="pandas")


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------


def popcount64(arr: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (unpackbits over bytes)."""
    bytes_view = arr.astype(np.uint64).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(bytes_view, axis=1).sum(axis=1).astype(np.int64)


def hamming_block_pairs(ds, id_col: str, hash_col: str, max_hamming: int,
                        num_blocks: int = 4, out_prefix: str = "doc"):
    """Generic Hamming-near-dup over a 64-bit signature column: bucket
    by 16-bit signature blocks (pigeonhole: any pair within distance
    num_blocks-1 shares a block), verify distance vectorized inside
    buckets, distinct via bucketed aggregate."""
    from .combine import grouped_aggregate, hash_bucket_combine

    a_col, b_col = f"{out_prefix}_a", f"{out_prefix}_b"
    width = 64 // num_blocks
    mask = (1 << width) - 1

    def blocks(df: pd.DataFrame) -> pd.DataFrame:
        u = df[hash_col].to_numpy().astype(np.uint64)
        frames = []
        for blk in range(num_blocks):
            frames.append(pd.DataFrame({
                id_col: df[id_col].to_numpy(),
                "block_id": blk,
                "block_key": ((u >> np.uint64(width * blk))
                              & np.uint64(mask)).astype(np.int64),
                hash_col: df[hash_col].to_numpy(),
            }))
        return pd.concat(frames, ignore_index=True)

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=[id_col, "block_id", "block_key"])
        m = g.merge(g, on=["block_id", "block_key"])
        m = m[m[f"{id_col}_x"] < m[f"{id_col}_y"]]
        if not len(m):
            return pd.DataFrame({a_col: [], b_col: [], "hamming": []})
        xor = (m[f"{hash_col}_x"].to_numpy().astype(np.uint64)
               ^ m[f"{hash_col}_y"].to_numpy().astype(np.uint64))
        d = popcount64(xor)
        keep = d <= max_hamming
        return pd.DataFrame({a_col: m[f"{id_col}_x"].to_numpy()[keep],
                             b_col: m[f"{id_col}_y"].to_numpy()[keep],
                             "hamming": d[keep]})

    candidates = ds.map_batches(blocks, batch_format="pandas")
    pairs = hash_bucket_combine(candidates, ["block_id", "block_key"],
                                pairs_of_bucket)
    return grouped_aggregate(pairs, [a_col, b_col],
                             {"hamming": ("hamming", "min")})


def simhash_neardup_pairs(ds, max_hamming: int = 3):
    """SimHash + 4-block bucketing (pigeonhole: any pair within Hamming
    distance 3 shares at least one of 4 16-bit blocks)."""
    from .text import simhash_batch

    sims = ds.map_batches(simhash_batch, batch_format="pyarrow")
    return hamming_block_pairs(sims, "doc_id", "simhash", max_hamming)


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_neardup_pairs(ds, threshold: float = 0.95, num_planes: int = 8,
                            seed: int = 42):
    """Near-dup vectors via random-hyperplane buckets + in-bucket
    cosine verify (the scale path for embedding dedup: the shuffle
    moves (bucket, id, vec) rows, buckets shrink candidate sets
    ~2^planes-fold)."""
    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        planes = np.random.RandomState(seed).randn(vecs.shape[1], num_planes)
        signs = (vecs @ planes) > 0
        buckets = (signs * (1 << np.arange(num_planes))).sum(axis=1)
        return pa.Table.from_arrays([
            batch["vec_id"], pa.array(buckets, pa.int64()),
            batch["embedding"]],
            names=["vec_id", "bucket", "embedding"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id", kind="mergesort")
        ids = g["vec_id"].to_numpy()
        vecs = np.array(g["embedding"].tolist(), dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1
        unit = vecs / norms
        sim = unit @ unit.T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sim[ii, jj] >= threshold
        ii, jj = ii[keep], jj[keep]
        return pd.DataFrame({"vec_a": ids[ii], "vec_b": ids[jj],
                             "cosine_sim": np.round(sim[ii, jj], 6)})

    from .combine import grouped_aggregate, grouped_map
    bucketed = grouped_map(ds.map_batches(bucketize, batch_format="pyarrow"),
                           ["bucket"], pairs)
    return grouped_aggregate(bucketed, ["vec_a", "vec_b"],
                             {"cosine_sim": ("cosine_sim", "max")})


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard via inverted-index join (SQL-checkable)
# ---------------------------------------------------------------------------


def _pair_count_bucket(df_cap=None, allow_ref=None):
    """Per-bucket self-merge of inverted-index rows (doc_id,
    shingle_hash, c) -> partial (doc_a, doc_b, n_shared, ca, cb).

    All rows of a shingle land in one bucket, so the stop-shingle df
    cut (df > df_cap) is local — no extra shuffle; the per-doc counts
    ride along as min-combined columns.  ``allow_ref`` optionally
    restricts output to a broadcast candidate-pair set (minhash
    verify)."""

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if df_cap is not None:
            df = g.groupby("shingle_hash", sort=False)["shingle_hash"] \
                .transform("size")
            g = g[df <= df_cap]
        m = g.merge(g, on="shingle_hash")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if allow_ref is not None and len(m):
            import ray
            allow = ray.get(allow_ref)  # pandas (doc_a, doc_b), bounded
            m = m.merge(allow, left_on=["doc_id_x", "doc_id_y"],
                        right_on=["doc_a", "doc_b"]) \
                .drop(columns=["doc_a", "doc_b"])
        out = m.groupby(["doc_id_x", "doc_id_y"], sort=False) \
            .agg(n_shared=("shingle_hash", "size"), ca=("c_x", "min"),
                 cb=("c_y", "min")).reset_index()
        return out.rename(columns={"doc_id_x": "doc_a",
                                   "doc_id_y": "doc_b"})

    return pairs_of_bucket


def _jaccard_finish(threshold: float):
    def finish(df: pd.DataFrame) -> pd.DataFrame:
        ca = df["ca"].to_numpy(dtype=np.float64)
        cb = df["cb"].to_numpy(dtype=np.float64)
        n = df["n_shared"].to_numpy(dtype=np.float64)
        sim = n / (ca + cb - n)
        df = df.assign(jaccard_sim=sim)
        df = df[sim >= threshold]
        df["doc_a"] = df["doc_a"].astype("int64")
        df["doc_b"] = df["doc_b"].astype("int64")
        return df[["doc_a", "doc_b", "jaccard_sim"]]

    return finish


def jaccard_pairs(ds, threshold: float = 0.5, shingle_k: int = 3,
                  df_cap: int = None):
    """All pairs with shingle-Jaccard >= threshold, computed exactly
    in TWO shuffles and one pass over the corpus:

    1. explode docs into distinct (doc_id, shingle_hash, c) rows — the
       inverted index with the per-doc count attached
       (shingle_set_rows; vectorized 62-bit hashes); only ~18-byte
       rows shuffle, never text;
    2. bucket by shingle hash; inside each bucket drop *stop shingles*
       whose document frequency exceeds ``df_cap`` then self-merge ->
       partial (doc_a, doc_b, n_shared, ca, cb);
    3. one global grouped combine (sum n_shared, min ca/cb) and a
       vectorized finish: jaccard = n_shared / (ca + cb - n_shared).

    ``df_cap`` (default None = EXACT, matching the DuckDB oracle) is
    the scale knob: a stop shingle in k docs emits k^2 pair rows in its
    bucket, so a 100 TB run passes a cap to drop such shingles from the
    numerator (standard stop-shingle cut; denominators keep them, so
    similarity is underestimated, never inflated).  This is the exact
    twin of the MinHash+LSH pipeline (same shingles).
    """
    from .combine import grouped_aggregate, hash_bucket_combine

    sh = shingle_set_rows(ds, shingle_k)
    partial = hash_bucket_combine(sh, ["shingle_hash"],
                                  _pair_count_bucket(df_cap))
    pairs = grouped_aggregate(partial, ["doc_a", "doc_b"],
                              {"n_shared": ("n_shared", "sum"),
                               "ca": ("ca", "min"), "cb": ("cb", "min")})
    return pairs.map_batches(_jaccard_finish(threshold),
                             batch_format="pandas")
