"""Document/text pipelines over the ``documents`` table."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..blocks import table_from_pandas


def _read(sf_dir: str, columns=None):
    from ..sources.parquet import read_parquet_clean
    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


def doc_token_stats(sf_dir: str):
    from ..stages.text import token_stats_batch
    return _read(sf_dir, ["doc_id", "text"]).map_batches(
        token_stats_batch, batch_format="pyarrow")


def doc_quality(sf_dir: str):
    from ..stages.text import quality_batch
    return _read(sf_dir, ["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pandas")


def doc_langid(sf_dir: str):
    from ..stages.text import langid_batch
    return _read(sf_dir, ["doc_id", "text"]).map_batches(
        langid_batch, batch_format="pyarrow")


def doc_fingerprint(sf_dir: str):
    """md5 fingerprint (SQL-oracled); the rolling token-window hash
    rides along in doc_signatures (also SQL-oracled via tokenhash)."""
    import hashlib

    def fp(t: pa.Table) -> pa.Table:
        md5s = [hashlib.md5(x.encode()).hexdigest()
                for x in t["text"].to_pylist()]
        return pa.Table.from_arrays([t["doc_id"],
                                     pa.array(md5s, pa.string())],
                                    names=["doc_id", "fp_md5"])

    return _read(sf_dir, ["doc_id", "text"]).map_batches(
        fp, batch_format="pyarrow")


def doc_signatures(sf_dir: str):
    """Rolling-hash + simhash signatures, one pass per batch.  Both
    use the tokenhash construction, so the DuckDB oracle recomputes
    the identical values; the result streams (no driver merge/sort)."""
    from ..stages.text import fingerprint_batch, simhash_batch

    def both(t: pa.Table) -> pa.Table:
        rolls = fingerprint_batch(t)
        sims = simhash_batch(t)
        return pa.Table.from_arrays(
            [t["doc_id"], rolls["fp_rolling"], sims["simhash"]],
            names=["doc_id", "fp_rolling", "simhash"])

    return _read(sf_dir, ["doc_id", "text"]).map_batches(
        both, batch_format="pyarrow")


def doc_dedup_exact(sf_dir: str):
    from ..stages.dedup import exact_dedup_groups

    return exact_dedup_groups(_read(sf_dir, ["doc_id", "text"]))


def doc_dedup_minhash(sf_dir: str, threshold: float = 0.6):
    from ..stages.dedup import minhash_neardup_pairs

    return minhash_neardup_pairs(_read(sf_dir, ["doc_id", "text"]),
                                 threshold=threshold)


def doc_minhash_recall(sf_dir: str, threshold: float = 0.6):
    """Recall audit of the MinHash+LSH stage against the exact
    n-gram-Jaccard ground truth: one row per jaccard decile,
    (sim_bucket, n_exact, n_lsh_hit, recall) — the measured S-curve of
    the banding scheme (16 bands of 4 over 64 perms).  Every
    LSH-verified pair is exact-verified at the same threshold, so
    n_lsh_hit <= n_exact per bucket and misses are pure banding
    misses.

    Scale shape: both inputs are pair tables (tiny relative to the
    corpus — near-dup pairs above threshold are rare by definition);
    the audit adds one grouped combine over pair keys and a
    dimension-sized bucket aggregate.  No new pass over text."""
    import numpy as np

    from ..stages.combine import grouped_aggregate

    exact = doc_dedup_jaccard(sf_dir, threshold=threshold)
    lsh = doc_dedup_minhash(sf_dir, threshold=threshold)

    def mark(hit: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_a": t["doc_a"].cast(pa.int64()),
                "doc_b": t["doc_b"].cast(pa.int64()),
                "jaccard_sim": t["jaccard_sim"].cast(pa.float64()),
                "hit": pa.array(
                    np.full(t.num_rows, hit, np.int64), pa.int64()),
            })
        return fn

    both = exact.map_batches(mark(0), batch_format="pyarrow") \
        .union(lsh.map_batches(mark(1), batch_format="pyarrow"))
    pairs = grouped_aggregate(both, ["doc_a", "doc_b"],
                              {"jaccard_sim": ("jaccard_sim", "max"),
                               "hit": ("hit", "max")})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out["sim_bucket"] = np.floor(
            df["jaccard_sim"] * 10).astype("int64")
        out["one"] = np.int64(1)
        out["hit"] = df["hit"].astype("int64")
        return out

    agg = grouped_aggregate(
        pairs.map_batches(bucket, batch_format="pandas"),
        ["sim_bucket"],
        {"n_exact": ("one", "sum"), "n_lsh_hit": ("hit", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["recall"] = df["n_lsh_hit"] / df["n_exact"]
        return df[["sim_bucket", "n_exact", "n_lsh_hit", "recall"]]

    return agg.map_batches(finish, batch_format="pandas")


def doc_dedup_simhash(sf_dir: str, max_hamming: int = 6):
    from ..stages.dedup import simhash_neardup_pairs
    out = simhash_neardup_pairs(_read(sf_dir, ["doc_id", "text"]),
                                max_hamming=max_hamming)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["hamming"] = df["hamming"].astype("int64")
        return df

    return out.map_batches(finish, batch_format="pandas")


def doc_parse_rules(sf_dir: str):
    """Reference rule chains (re / python / udf) over documents.text —
    extraction rules as a first-class Dataset stage."""
    from ..stages.rule_engine import parse_dataset

    rules = [
        {"name": "first_word",
         "chain_rules": [["re", r"^\w+", "#0"]], "child_rules": []},
        {"name": "n_words",
         "chain_rules": [["udf", "len(obj.split())", ""]], "child_rules": []},
        {"name": "text_md5",
         "chain_rules": [["udf", "md5(obj)", ""]], "child_rules": []},
    ]
    parsed = parse_dataset(_read(sf_dir, ["doc_id", "text"]), rules,
                           input_column="text",
                           batch_size=2048, keep_columns=["doc_id"])
    return parsed.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], t["first_word"].cast(pa.string()),
             t["n_words"].cast(pa.int64()), t["text_md5"].cast(pa.string())],
            names=["doc_id", "first_word", "n_words", "text_md5"]),
        batch_format="pyarrow")


def doc_dedup_jaccard(sf_dir: str, threshold: float = 0.5):
    """Exact n-gram-Jaccard near-dup pairs (inverted-index join) —
    the SQL-checkable twin of doc_dedup_minhash."""
    from ..stages.dedup import jaccard_pairs

    return jaccard_pairs(_read(sf_dir, ["doc_id", "text"]),
                         threshold=threshold)


def doc_top_tokens(sf_dir: str, k: int = 20):
    """Global heavy hitters: the k most frequent whitespace tokens.

    Scale shape: per-batch ``np.unique`` counts shrink each batch to
    its vocabulary before the shuffle (natural-language vocab grows
    ~O(sqrt(corpus)), so partials are tiny relative to token count);
    the grouped sum then moves only (token, partial_count) rows and
    the final top-k is a sort over the global vocabulary.  Determinism:
    count ties break on token asc."""
    import numpy as np

    from ..stages.combine import grouped_aggregate

    ds = _read(sf_dir, ["text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = [w for t in df["text"] for w in t.split()]
        if not toks:
            return pd.DataFrame({"token": pd.Series([], dtype=str),
                                 "n": pd.Series([], dtype="int64")})
        uniq, cnt = np.unique(np.asarray(toks, dtype=object),
                              return_counts=True)
        return pd.DataFrame({"token": uniq, "n": cnt.astype("int64")})

    vocab = grouped_aggregate(ds.map_batches(counts, batch_format="pandas"),
                              ["token"], {"n": ("n", "sum")})
    return vocab.sort(["n", "token"], descending=[True, False]).limit(k)


def doc_sample_hash(sf_dir: str, pct: int = 10):
    """Deterministic hash sample: keep documents whose md5-31bit
    doc_id hash lands in the first ``pct`` of 100 residue classes.

    No RNG state, no coordination, no sampling shuffle: every worker
    makes the identical keep/drop decision from the row alone, so the
    sample is reproducible across cluster sizes, retries and resumes —
    the property a 100 TB pipeline needs from its sampler (seeded
    ``Dataset.random_sample`` can't survive re-partitioning).  Also the
    building block for stratified variants (vary pct per stratum)."""
    from ..stages.sketches import hash31

    ds = _read(sf_dir, ["doc_id", "lang", "n_chars"])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        h = hash31(df["doc_id"].to_numpy())
        return df[(h % 100) < pct]

    return ds.map_batches(keep, batch_format="pandas")


def doc_tfidf_topk(sf_dir: str, k: int = 3):
    """Per-document top-k TF-IDF terms — the feature-extraction step of
    a classic text pipeline, in two bucketed shuffles.

    Plan: (1) per-batch term counts collapse each doc to its DISTINCT
    (doc_id, token, tf) rows (the combiner — tokens never cross the
    wire raw); (2) bucket by token: every row of a token lands in one
    bucket, so document frequency is exact WITHIN the bucket and rides
    back on the rows without a separate df table or join; (3) bucket
    by doc: per-doc top-k on the ROUNDED score (both sides rank on
    round(tfidf, 6), so libm ulp differences can't reorder).
    Determinism: ties break (tfidf desc, token asc)."""
    import numpy as np

    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, ["doc_id", "text"])
    n_docs = _read(sf_dir, ["doc_id"]).count()

    def term_counts(df: pd.DataFrame) -> pd.DataFrame:
        ids, toks, tfs = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            words = text.split()
            if not words:
                continue
            uniq, cnt = np.unique(np.asarray(words, dtype=object),
                                  return_counts=True)
            ids.extend([doc_id] * len(uniq))
            toks.extend(uniq)
            tfs.extend(cnt)
        return pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"),
                             "token": pd.Series(toks, dtype=str),
                             "tf": pd.Series(tfs, dtype="int64")})

    tf_rows = ds.map_batches(term_counts, batch_format="pandas")

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc, token): token row count == its df
        g = g.copy()
        g["df"] = g.groupby("token")["token"].transform("size") \
            .astype("int64")
        return g

    with_df = hash_bucket_combine(tf_rows, ["token"], attach_df)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["tfidf"] = (g["tf"] * np.log(float(n_docs) / g["df"])).round(6)
        g = g.sort_values(["doc_id", "tfidf", "token"],
                          ascending=[True, False, True], kind="mergesort") \
            .groupby("doc_id", sort=False).head(k)
        g["rk"] = g.groupby("doc_id", sort=False).cumcount() + 1
        return g[["doc_id", "token", "tf", "df", "tfidf", "rk"]] \
            .astype({"rk": "int64"})

    return hash_bucket_combine(with_df, ["doc_id"], topk)


def doc_shard_assign(sf_dir: str, budget: int = 50_000,
                     num_ranges: int = 32):
    """Deterministic training-shard assignment by a GLOBAL ordered
    prefix sum: documents are packed (in doc_id order) into shards of
    ~``budget`` chars — ``shard = chars_before_me // budget``.

    The scan is ``stages.combine.prefix_scan`` over doc_id (range cut
    from a min/max pass — for skewed key spaces use sampled quantile
    boundaries): no global sort, no driver materialization of rows;
    integer arithmetic end-to-end (bit-exact vs the SQL window
    oracle)."""
    from ..stages.combine import prefix_scan

    def assign(g: pd.DataFrame, before: np.ndarray) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": g["doc_id"], "n_chars": g["n_chars"],
                             "shard": before // budget})

    return prefix_scan(_read(sf_dir, ["doc_id", "n_chars"]), ["doc_id"],
                       "n_chars", "sum", assign, num_ranges=num_ranges)


def doc_dedup_clusters(sf_dir: str, threshold: float = 0.6):
    """Transitive near-dup document CLUSTERING: the MinHash+LSH
    verified pairs become edges; BSP connected components assign every
    document its cluster representative (min doc_id) and a ``keep``
    flag — the "keep one per duplicate cluster" step pairwise dedup
    alone can't produce (A~B, B~C chains collapse even when A!~C).

    Node ids are the int64 doc_ids themselves (identity hash into the
    shard space), so the propagated min-label IS the representative.
    Oracle: the full minhash SQL twin wrapped in a RECURSIVE-CTE
    transitive closure.

    The assignment table is a persisted artifact at real scale
    (written once, read by every curation gate); here the process-level
    memo stands in, so composed consumers (``doc_curation``) never
    re-run the minhash pipeline on an unchanged corpus."""
    from .sharedcache import input_sig, memo
    key = ("doc_dedup_clusters",
           input_sig(f"{sf_dir}/documents.parquet"), threshold)
    return memo(key, lambda: _doc_dedup_clusters(sf_dir, threshold))


def _doc_dedup_clusters(sf_dir: str, threshold: float):
    from ..stages import graph_bsp

    def nodes(t: pa.Table) -> pa.Table:
        return pa.table({"hash": t["doc_id"].cast(pa.uint64()),
                         "id": t["doc_id"]})

    def edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["doc_a"].cast(pa.uint64()),
                         "dst": t["doc_b"].cast(pa.uint64())})

    shards = graph_bsp.load(
        _read(sf_dir, ["doc_id"]).map_batches(nodes, batch_format="pyarrow"),
        doc_dedup_minhash(sf_dir, threshold=threshold)
        .map_batches(edges, batch_format="pyarrow"),
        graph_bsp.shard_count())
    try:
        out = graph_bsp.component_assignments(shards).to_pandas()
    finally:
        graph_bsp.release(shards)
    out = out.rename(columns={"id": "doc_id"})
    out = out.astype({"doc_id": "int64", "cluster": "int64"})
    out["keep"] = out["doc_id"] == out["cluster"]
    return table_from_pandas(
        out.sort_values("doc_id").reset_index(drop=True),
        preserve_index=False)


def doc_curation(sf_dir: str):
    """The composed document-curation KEEP decision — the C4/Gopher/
    RefinedWeb-shaped pipeline end product: per document a violation
    bitmask over bit 0 Gopher quality rules, bit 1 exact-dup
    non-keeper (min doc_id per md5(text) group survives), bit 2
    MinHash near-dup cluster non-representative (transitive, from the
    BSP components), bit 3 language gate (langid != 'en'), and
    keep = (viol == 0).

    Scale shape: gopher + langid are shuffle-free sweeps; exact dedup
    is one md5-hash shuffle of (doc_id, hash) rows; the minhash
    cluster machinery is the existing banded pipeline; the four
    signals then co-locate in ONE doc_id hash shuffle (tagged union,
    bit weights applied in-bucket) — metadata rows only, strings never
    move past their own stage.  The DuckDB twin recomputes every bit
    (gopher/langid twins as subqueries, a window-MIN exact keeper, the
    recursive-CTE minhash closure), so the final keep list is
    value-checked end to end."""
    import hashlib

    import ray.data as rd

    from ..stages.combine import hash_bucket_combine

    gop = doc_gopher_rules(sf_dir).map_batches(
        lambda df: pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "src": np.int64(0),
            "val": (df["violations"] != 0).astype("int64")}),
        batch_format="pandas")
    lng = doc_langid(sf_dir).map_batches(
        lambda df: pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "src": np.int64(3),
            "val": (df["lang_pred"] != "en").astype("int64")}),
        batch_format="pandas")

    def md5_rows(t: pa.Table) -> pa.Table:
        hs = [hashlib.md5(x.encode()).hexdigest()
              for x in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "h": pa.array(hs, pa.string())})

    def exact_flag(g: pd.DataFrame) -> pd.DataFrame:
        keeper = g.groupby("h")["doc_id"].transform("min")
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64"),
            "src": np.int64(1),
            "val": (g["doc_id"] != keeper).astype("int64")})

    exc = hash_bucket_combine(
        _read(sf_dir, ["doc_id", "text"]).map_batches(
            md5_rows, batch_format="pyarrow"),
        ["h"], exact_flag)

    cc_t = doc_dedup_clusters(sf_dir)
    cc = rd.from_arrow(pa.table({
        "doc_id": cc_t["doc_id"],
        "src": pa.array(np.full(cc_t.num_rows, 2, np.int64)),
        "val": pc_invert_keep(cc_t["keep"])}))

    weights = np.array([1, 2, 4, 8], np.int64)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        v = (g["val"].to_numpy(dtype=np.int64)
             * weights[g["src"].to_numpy(dtype=np.int64)])
        s = pd.DataFrame({"doc_id": g["doc_id"].astype("int64"),
                          "v": v}).groupby("doc_id")["v"].sum()
        out = s.reset_index().rename(columns={"v": "viol"})
        out["keep"] = (out["viol"] == 0).astype("int64")
        return out.astype({"doc_id": "int64", "viol": "int64"})

    return hash_bucket_combine(gop.union(lng, exc, cc),
                               ["doc_id"], fold, num_buckets=64)


def pc_invert_keep(keep_col: pa.ChunkedArray) -> pa.Array:
    """bool keep -> int64 violation flag (1 - keep), chunk-safe."""
    return pc.cast(pc.invert(keep_col.combine_chunks()
                             if isinstance(keep_col, pa.ChunkedArray)
                             else keep_col), pa.int64())


def doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (dup-token fraction,
    top-token fraction, integer-exact repetitive flag) — one vectorized
    pass, no shuffle."""
    from ..stages.text import repetition_batch
    return _read(sf_dir, ["doc_id", "text"]).map_batches(
        repetition_batch, batch_format="pyarrow")


# Documents whose doc_id lands in this residue class stand in for the
# "held-out benchmark" set in the decontamination pipeline.
DECONTAM_BENCH_MOD = 41


def bench_shingle_block(sf_dir: str) -> np.ndarray:
    """Distinct word-3-shingle hashes of the held-out benchmark split
    (doc_id % DECONTAM_BENCH_MOD == 0) — small BY DEFINITION (eval
    sets, not training data), so the sorted uint64 array collects once
    per process (sharedcache, keyed by input identity) and broadcasts
    to every decontamination sweep: the documents one AND the
    cross-modal caption one."""
    from .sharedcache import input_sig, memo
    key = ("bench_shingle_block",
           input_sig(f"{sf_dir}/documents.parquet"))
    return memo(key, lambda: _bench_shingle_block(sf_dir))


def _bench_shingle_block(sf_dir: str) -> np.ndarray:
    from ..stages.tokenhash import shingle_hashes

    def bench_shingles(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        mask = ids % DECONTAM_BENCH_MOD == 0
        texts = [x for x, m in zip(t["text"].to_pylist(), mask) if m]
        sh, _ = shingle_hashes(texts, k=3)
        return pa.Table.from_arrays(
            [pa.array(np.unique(sh).view(np.int64), pa.int64())],
            names=["s"])

    parts = _read(sf_dir, ["doc_id", "text"]) \
        .map_batches(bench_shingles, batch_format="pyarrow").take_all()
    return np.unique(np.array([r["s"] for r in parts],
                              dtype=np.int64).view(np.uint64))


def doc_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag training documents sharing any
    word 3-shingle with the held-out benchmark set (the GPT-3/Gopher
    n-gram-overlap recipe, public).

    Scale shape: the benchmark corpus is small BY DEFINITION (eval
    sets, not training data), so its distinct shingle hashes are
    collected once, sorted, and broadcast via ``ray.put``; the
    training sweep is then a single shuffle-free ``map_batches`` pass
    doing a vectorized ``searchsorted`` membership test per batch.  At
    blocklists beyond driver memory the same pass would swap the
    sorted array for a bloom filter (``state/seen.py``) at the cost of
    a false-positive rate — the broadcast/probe shape is unchanged.
    """
    import ray

    from ..stages.text import contamination_counts

    ds = _read(sf_dir, ["doc_id", "text"])
    block_ref = ray.put(bench_shingle_block(sf_dir))

    def score(t: pa.Table) -> pa.Table:
        blk = ray.get(block_ref)
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        mask = ids % DECONTAM_BENCH_MOD != 0
        texts = [x for x, m in zip(t["text"].to_pylist(), mask) if m]
        ns, nc = contamination_counts(texts, blk)
        return pa.Table.from_arrays(
            [pa.array(ids[mask], pa.int64()),
             pa.array(ns, pa.int64()),
             pa.array(nc, pa.int64()),
             pa.array((nc > 0).astype(np.int64), pa.int64())],
            names=["doc_id", "n_shingles", "n_contaminated",
                   "contaminated"])

    return ds.map_batches(score, batch_format="pyarrow")


# Deterministic PII augmentation: the synthetic corpus carries no PII,
# so both engines append the same synthetic contact block before
# redacting — the regex path is exercised for real and the redacted
# md5 is value-checked.
def _pii_augment(ids: "np.ndarray", texts: list[str]) -> list[str]:
    out = []
    for i, t in zip(ids, texts):
        s = (f"{t} Contact user{i}@mail.example or call "
             f"+1-555-0{i % 1000} now.")
        if i % 3 == 0:
            s += f" cc admin{i}@ex.org"
        out.append(s)
    return out


def doc_pii_redact(sf_dir: str):
    """PII scrubbing: RE2 email + phone redaction counts and the md5 of
    the redacted text.  pyarrow.compute and DuckDB both evaluate RE2,
    so the oracle's ``regexp_replace(..., 'g')`` is semantics-identical
    to ``pc.replace_substring_regex`` by construction."""
    from ..stages.text import pii_redact_batch

    def aug(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        return pa.Table.from_arrays(
            [t["doc_id"], pa.array(_pii_augment(ids, t["text"].to_pylist()),
                                   pa.string())],
            names=["doc_id", "text"])

    return _read(sf_dir, ["doc_id", "text"]) \
        .map_batches(aug, batch_format="pyarrow") \
        .map_batches(pii_redact_batch, batch_format="pyarrow")


def doc_source_mix(sf_dir: str):
    """Training-mix weighting: per-source document/token counts and
    the keep rate (basis points) a sampler would apply to equalize the
    TOKEN contribution of every source (the data-mixing step of a
    multi-source training corpus, e.g. Pile-style source balancing —
    public recipe).

    Scale shape: one vectorized counting pass collapses each batch to
    (source, n_docs, n_tokens) partials; the grouped combine moves
    O(sources x batches) rows; the driver computes S keep rates with
    exact integer arithmetic ((10000 * min_tokens) // tokens — floor
    division on non-negative ints, identical in numpy and DuckDB), so
    a residue-test sampler downstream (doc_sample_hash's device) is
    reproducible everywhere."""
    from ..stages.combine import grouped_aggregate

    ds = _read(sf_dir, ["source", "text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = df["text"].map(lambda t: len(t.split()))
        g = df.assign(n_tokens=n_tok).groupby("source", sort=False) \
            .agg(n_docs=("source", "size"), n_tokens=("n_tokens", "sum")) \
            .reset_index()
        return g

    per = grouped_aggregate(
        ds.map_batches(counts, batch_format="pandas"), ["source"],
        {"n_docs": ("n_docs", "sum"), "n_tokens": ("n_tokens", "sum")}) \
        .to_pandas()
    per["n_docs"] = per["n_docs"].astype("int64")
    per["n_tokens"] = per["n_tokens"].astype("int64")
    mn = int(per["n_tokens"].min())
    per["keep_bp"] = (10000 * mn) // per["n_tokens"].clip(lower=1)
    per["keep_bp"] = per["keep_bp"].astype("int64")
    return table_from_pandas(
        per.sort_values("source").reset_index(drop=True),
        preserve_index=False)


def doc_curriculum_rank(sf_dir: str, num_ranges: int = 32):
    """Exact GLOBAL rank of every document by (quality_score DESC,
    doc_id ASC) — curriculum ordering / data-pruning order, the
    distributed total-order primitive (TeraSort-style range
    partition, public recipe).  Emits (doc_id, quality_score,
    curriculum_rank) with ranks 1..N and no ties by construction.

    Scale shape: ONE text pass computes scores (doc_quality's exact
    arithmetic), materialized as tiny (doc_id, double) rows; pass A
    folds an exact histogram over the 4097 representable buckets
    floor(score*4096) (partial-sum fast path — bucket edges k/2^12
    are exact doubles, equal scores always share a bucket); the
    driver cuts ~num_ranges contiguous bucket ranges and computes
    each range's exact rank offset from the histogram alone; pass B
    is the single heavy exchange — rows route to their score range
    (searchsorted against the broadcast cuts) and each range sorts
    locally and adds its offset.  No global sort barrier, no
    driver-side data pass; ranks are exact because ranges are
    disjoint in score and a range holds every row of its buckets."""
    from ..stages.combine import grouped_aggregate, hash_bucket_combine
    from ..stages.text import quality_batch

    ds = _read(sf_dir, ["doc_id", "text"])
    scored = ds.map_batches(quality_batch, batch_format="pandas") \
        .map_batches(lambda df: df[["doc_id", "quality_score"]],
                     batch_format="pandas").materialize()

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"qb": np.floor(
            df["quality_score"].to_numpy() * 4096.0).astype(np.int64)})

    hist = grouped_aggregate(
        scored.map_batches(bucketed, batch_format="pandas"), ["qb"],
        {"n": ("qb", "count")}).to_pandas()
    hist = hist.sort_values("qb", ascending=False).reset_index(drop=True)
    counts = hist["n"].to_numpy(np.int64)
    total = int(counts.sum())
    target = max(1, -(-total // num_ranges))
    # greedy contiguous ranges over DESC buckets; offset = rows above
    range_of_qb, offsets, run, rid, off, off_next = {}, {}, 0, 0, 0, 0
    for qb, n in zip(hist["qb"], counts):
        if run >= target:
            rid, off, run = rid + 1, off_next, 0
        range_of_qb[int(qb)] = rid
        offsets[rid] = off
        run += int(n)
        off_next = off + run

    qb_keys = np.array(sorted(range_of_qb), dtype=np.int64)
    qb_rids = np.array([range_of_qb[int(k)] for k in qb_keys],
                       dtype=np.int64)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        qb = np.floor(df["quality_score"].to_numpy() * 4096.0) \
            .astype(np.int64)
        # every qb seen here exists in the histogram (same data), so
        # the searchsorted hit is exact — vectorized, no dict per row
        return df.assign(_range=qb_rids[np.searchsorted(qb_keys, qb)])

    def rank_range(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for rid, sub in g.groupby("_range", sort=False):
            sub = sub.sort_values(["quality_score", "doc_id"],
                                  ascending=[False, True],
                                  kind="mergesort")
            out.append(pd.DataFrame({
                "doc_id": sub["doc_id"].to_numpy(),
                "quality_score": sub["quality_score"].to_numpy(),
                "curriculum_rank": offsets[int(rid)]
                + np.arange(1, len(sub) + 1, dtype=np.int64)}))
        return pd.concat(out) if out else pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "quality_score": pd.Series([], dtype="float64"),
            "curriculum_rank": pd.Series([], dtype="int64")})

    return hash_bucket_combine(
        scored.map_batches(assign, batch_format="pandas"),
        ["_range"], rank_range, num_buckets=num_ranges)


def doc_mixture_apply(sf_dir: str):
    """APPLY the source-balancing rates :func:`doc_source_mix` only
    reports — the sampling pass of a Pile-style data-mix recompute
    (public recipe): each source's keep rate (basis points of the
    minimum source's token mass over its own) gates a deterministic
    residue test on the md5-31bit doc_id hash, so the kept set
    equalizes the EXPECTED token contribution of every source and the
    decision is a pure function of the row — reproducible across
    cluster sizes, retries and resumes, no RNG state or sampling
    shuffle.  Emits every kept (doc_id, source, n_chars) with the
    applied ``keep_bp`` riding along as the row's reweighting factor.

    Scale shape: pass 1 is doc_source_mix's O(sources x batches)
    partial-sum aggregate (the only pass that touches text); its
    S-row rate table broadcasts as a closure constant and pass 2 is a
    shuffle-free projection-pruned filter that never reads text —
    at 100 TB the sampler costs one token-count pass plus a
    metadata-column scan."""
    from ..stages.sketches import hash31

    rates = doc_source_mix(sf_dir).to_pandas()   # S rows (tiny)
    bp = {s: int(b) for s, b in zip(rates["source"], rates["keep_bp"])}

    ds = _read(sf_dir, ["doc_id", "source", "n_chars"])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        h = hash31(df["doc_id"].to_numpy()).astype(np.int64)
        k = df["source"].map(bp).fillna(0).to_numpy(np.int64)
        out = df[(h % 10000) < k].copy()
        out["keep_bp"] = k[(h % 10000) < k]
        return out

    return ds.map_batches(keep, batch_format="pandas")


def doc_seq_pack(sf_dir: str, seq_len: int = 512, num_ranges: int = 32):
    """Pretraining sequence packing: documents concatenated in doc_id
    order (separator-free for the oracle's sake) and sliced into fixed
    ``seq_len``-token training sequences; every document learns its
    placement — first sequence id, offset inside it, last sequence id,
    sequences spanned — the metadata a sequence-builder needs to emit
    packed token blocks shard-parallel.

    The same ``stages.combine.prefix_scan`` as ``doc_shard_assign``,
    over TOKEN counts: no global sort, nothing driver-side but
    num_ranges ints, integer arithmetic end-to-end (bit-exact vs the
    window-SUM SQL oracle)."""
    from ..stages.combine import prefix_scan

    def tok_count(t: pa.Table) -> pa.Table:
        n = [len(x.split()) for x in t["text"].to_pylist()]
        return pa.Table.from_arrays(
            [t["doc_id"], pa.array(n, pa.int64())],
            names=["doc_id", "n_tokens"])

    counted = _read(sf_dir, ["doc_id", "text"]) \
        .map_batches(tok_count, batch_format="pyarrow")

    def assign(g: pd.DataFrame, cb: np.ndarray) -> pd.DataFrame:
        n = g["n_tokens"].to_numpy(np.int64)
        first = cb // seq_len
        last = np.where(n > 0, (cb + np.maximum(n, 1) - 1) // seq_len,
                        first)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "n_tokens": n,
            "seq_first": first,
            "off_first": cb % seq_len,
            "seq_last": last,
            "n_seqs": np.where(n > 0, last - first + 1, 0),
        })

    return prefix_scan(counted, ["doc_id"], "n_tokens", "sum", assign,
                       num_ranges=num_ranges)


def doc_bpe_pairs(sf_dir: str, k: int = 20):
    """One BPE-training merge-selection step over whitespace
    pre-tokens: count every adjacent token pair in the corpus, return
    the top-k pairs by count (the pair a BPE trainer would merge
    next).  Tokens enter as 31-bit tokenhash ids, a pair keys as the
    two-term Horner fold — the aggregate moves ONLY integer
    (pair_hash, count) partials; the winning pairs' human-readable
    strings are resolved by a second tiny pass that re-scans for just
    the k winning hashes (broadcast set, numpy isin), so no strings
    ride the wide shuffle.

    Top-k merge shape: per-block local top-k (k rows per block) then a
    driver merge of the bounded k x blocks partials — the brute_topk
    pattern, not a global sort."""
    from ..stages.combine import grouped_aggregate
    from ..stages.tokenhash import HB, P31, batch_token_ids

    ds = _read(sf_dir, ["text"])

    def _pair_hashes(texts):
        flat, offs = batch_token_ids(texts)
        if len(flat) < 2:
            return np.zeros(0, np.uint64)
        valid = np.ones(len(flat) - 1, bool)
        # positions straddling a document boundary are not pairs
        valid[offs[1:-1] - 1] = False
        return ((flat[:-1] * HB + flat[1:]) % P31)[valid]

    def pair_counts(t: pa.Table) -> pa.Table:
        ph = _pair_hashes(t["text"].to_pylist())
        u, c = np.unique(ph, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(u.astype(np.int64)), pa.array(c.astype(np.int64))],
            names=["pair_hash", "cnt"])

    agg = grouped_aggregate(
        ds.map_batches(pair_counts, batch_format="pyarrow"),
        ["pair_hash"], {"n_occurrences": ("cnt", "sum")})

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_occurrences", "pair_hash"],
                            ascending=[False, True], kind="mergesort")
        return df.head(k)

    top = agg.map_batches(local_topk, batch_format="pandas").to_pandas()
    top = top.sort_values(["n_occurrences", "pair_hash"],
                          ascending=[False, True],
                          kind="mergesort").head(k).reset_index(drop=True)
    win = set(top["pair_hash"].astype("int64").tolist())

    import ray
    win_ref = ray.put(np.array(sorted(win), np.int64))

    def resolve(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        wins = ray.get(win_ref)
        flat, offs = batch_token_ids(texts)
        out_h, out_s = [], []
        if len(flat) >= 2:
            valid = np.ones(len(flat) - 1, bool)
            valid[offs[1:-1] - 1] = False
            ph = ((flat[:-1] * HB + flat[1:]) % P31).astype(np.int64)
            hit = valid & np.isin(ph, wins)
            if hit.any():
                toks = [w for x in texts for w in x.split()]
                idx = np.flatnonzero(hit)
                out_h = ph[idx].tolist()
                out_s = [toks[i] + " " + toks[i + 1] for i in idx]
        return pa.Table.from_arrays(
            [pa.array(out_h, pa.int64()), pa.array(out_s, pa.string())],
            names=["pair_hash", "pair"])

    res = ds.map_batches(resolve, batch_format="pyarrow").to_pandas()
    # collision-deterministic resolution: min string per hash
    res = res.groupby("pair_hash", as_index=False)["pair"].min()
    top = top.merge(res, on="pair_hash", how="left")
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    top["n_occurrences"] = top["n_occurrences"].astype("int64")
    return table_from_pandas(
        top[["rank", "pair", "pair_hash", "n_occurrences"]],
        preserve_index=False)


def _unit_rows(doc_ids: np.ndarray, counts: np.ndarray, keys: dict,
               empty: np.ndarray) -> pa.Table:
    """Distinct (doc_id, *keys, cnt) rows of one batch, with cnt the
    unit's occurrences in its doc — the front of the corpus-statistics
    family, so only integer keys cross its shuffle.  Doc i owns the
    next ``counts[i]`` entries of every int64 ``keys`` array; each doc
    marked in ``empty`` adds one (key -1, cnt 0) sentinel row, so it
    reaches the per-doc fold without a join against the full table."""
    names = list(keys)
    units = pa.table({"doc_id": np.repeat(doc_ids, counts).astype(np.int64),
                      **keys})
    g = units.group_by(["doc_id"] + names, use_threads=False) \
        .aggregate([([], "count_all")])
    lonely = np.asarray(doc_ids, np.int64)[empty]
    sentinel = pa.table({
        "doc_id": lonely,
        **{k: np.full(len(lonely), -1, np.int64) for k in names},
        "count_all": np.zeros(len(lonely), np.int64)})
    return pa.concat_tables([g.select(sentinel.column_names), sentinel]) \
        .rename_columns(["doc_id"] + names + ["cnt"])


def _per_doc(rows, key: str, attach, sums: dict, finish=None):
    """The per-document fold of the corpus-statistics family: ``rows``
    co-locate by ``key``, where every row of a key is in one call of
    the pandas ``attach`` (so in-bucket sums ARE corpus counts); its
    rows then fold to one row per doc_id with ``grouped_aggregate``
    (``sums``: {out_col: (in_col, how)}), and an optional Arrow
    ``finish`` maps the folded blocks."""
    from ..stages.combine import grouped_aggregate, hash_bucket_combine

    out = grouped_aggregate(hash_bucket_combine(rows, [key], attach),
                            ["doc_id"], sums)
    return out if finish is None else out.map_batches(
        finish, batch_format="pyarrow")


def _ratio(t: pa.Table, name: str, num, den, scale: int) -> pa.Table:
    """``t`` plus the int64 column ``name`` = scale * num // den, or 0
    where den is 0 — exact integer floor division, identical in numpy
    and DuckDB (the basis-point and milli-bit columns)."""
    n, d = np.asarray(num, np.int64), np.asarray(den, np.int64)
    return t.append_column(name, pa.array(
        np.where(d > 0, scale * n // np.maximum(d, 1), 0), pa.int64()))


def doc_dup_ngrams(sf_dir: str, width: int = 8):
    """Cross-document duplicated-n-gram fraction (the substring-level
    dedup signal of Lee et al.'s "Deduplicating Training Data Makes
    Language Models Better", arXiv:2107.06499 — public recipe): a
    token window is *duplicated* when its width-``width`` rolling hash
    occurs >= 2 times corpus-wide; each document reports its window
    count, duplicated-window count, and the duplicated fraction in
    basis points (exact integer floor division).

    Scale shape: batches collapse to distinct (doc_id, window_hash,
    cnt) rows before the shuffle (``_unit_rows``: only hashes move);
    the per-hash combine marks global duplicates and a grouped sum
    folds back to one row per document (``_per_doc``).  Zero-window
    documents ride a sentinel row so the output covers every doc_id
    without a join against the full table."""
    from ..stages.tokenhash import batch_token_ids, window_hashes

    def rows(t: pa.Table) -> pa.Table:
        flat, offs = batch_token_ids(t["text"].to_pylist())
        wh, counts = window_hashes(flat, offs, width)
        return _unit_rows(t["doc_id"].to_numpy(), counts,
                          {"wh": wh.astype(np.int64)}, counts == 0)

    per_hash = _read(sf_dir, ["doc_id", "text"]).map_batches(
        rows, batch_format="pyarrow")
    return _dup_fraction(per_hash, "wh",
                         ["n_windows", "n_dup_windows", "dup_bp"])


def _dup_fraction(per_key_rows, key_col: str, out_cols):
    """Shared tail of the corpus-duplication family: ``_unit_rows`` of
    (doc_id, <key_col>, cnt) become one row per doc with (units,
    duplicated units, fraction in basis points).  A unit is duplicated
    when its key occurs >= 2 times corpus-wide."""
    n_col, d_col, bp_col = out_cols

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        tot = g.groupby(key_col)["cnt"].transform("sum")
        g["dup"] = np.where((g[key_col] >= 0) & (tot >= 2), g["cnt"], 0) \
            .astype(np.int64)
        return g[["doc_id", "cnt", "dup"]]

    return _per_doc(per_key_rows, key_col, mark,
                    {n_col: ("cnt", "sum"), d_col: ("dup", "sum")},
                    lambda t: _ratio(t, bp_col, t[d_col], t[n_col], 10000))


def doc_para_dedup(sf_dir: str):
    """Paragraph-level exact-duplicate fraction (the paragraph pass of
    a CCNet/RefinedWeb-style cleaning stack — public recipe): text
    splits on newline, every paragraph hashes to the md5-derived
    31-bit id, and a paragraph is duplicated when its hash occurs >= 2
    times corpus-wide.  Empty paragraphs count (split keeps them), so
    every document has >= 1 unit and no sentinel is needed; only
    integer hashes cross the shuffle."""
    from ..stages.tokenhash import token_id

    def rows(t: pa.Table) -> pa.Table:
        paras = [x.split("\n") for x in t["text"].to_pylist()]
        lens = np.fromiter((len(p) for p in paras), np.int64,
                           count=len(paras))
        flat = [p for ps in paras for p in ps]
        uniq, inv = np.unique(np.asarray(flat, dtype=object),
                              return_inverse=True)
        ids = np.fromiter((token_id(p) for p in uniq), np.int64,
                          count=len(uniq))
        return _unit_rows(t["doc_id"].to_numpy(), lens, {"ph": ids[inv]},
                          lens == 0)

    per_para = _read(sf_dir, ["doc_id", "text"]).map_batches(
        rows, batch_format="pyarrow")
    return _dup_fraction(per_para, "ph",
                         ["n_paras", "n_dup_paras", "dup_bp"])


def _doc_token_count_rows(t: pa.Table) -> pa.Table:
    """``_unit_rows`` of (doc_id, token_id) — the tokenize step of the
    corpus-unigram family; zero-token docs ride the sentinel."""
    from ..stages.tokenhash import batch_token_ids

    flat, offs = batch_token_ids(t["text"].to_pylist())
    lens = np.diff(offs)
    return _unit_rows(t["doc_id"].to_numpy(), lens,
                      {"tid": flat.astype(np.int64)}, lens == 0)


def doc_unigram_stats(sf_dir: str):
    """Corpus-unigram sufficient statistics per document — the
    integer-exact core of a CCNet-style LM quality filter (Wenzek et
    al., arXiv:1911.00359 — public recipe): with corpus-wide token
    occurrence counts c(t), each doc reports its token count, the sum
    and min of c(t) over its token POSITIONS, and its hapax count
    (positions whose token occurs exactly once corpus-wide).  A
    perplexity ranker is a monotone function of these sums; keeping
    them integral makes the twin bit-exact.

    One shuffle: distinct (doc_id, token_id, cnt) rows co-locate by
    token, where the global count is the in-bucket sum — the counts
    table never exists separately and strings never move.  A
    zero-token doc's sentinel row carries all four statistics as 0."""
    def attach(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        tot = g.groupby("tid")["cnt"].transform("sum").astype(np.int64)
        real = g["tid"] >= 0
        g["sum_freq"] = np.where(real, g["cnt"] * tot, 0).astype(np.int64)
        # min over positions = min over the doc's distinct tokens
        g["min_freq"] = np.where(real, tot, 0).astype(np.int64)
        g["hapax"] = np.where(real & (tot == 1), g["cnt"], 0) \
            .astype(np.int64)
        return g[["doc_id", "cnt", "sum_freq", "min_freq", "hapax"]]

    per_tok = _read(sf_dir, ["doc_id", "text"]).map_batches(
        _doc_token_count_rows, batch_format="pyarrow")
    return _per_doc(per_tok, "tid", attach,
                    {"n_tokens": ("cnt", "sum"),
                     "sum_tok_freq": ("sum_freq", "sum"),
                     "min_tok_freq": ("min_freq", "min"),
                     "n_hapax": ("hapax", "sum")})


def _ilog2(x: np.ndarray) -> np.ndarray:
    """Exact floor(log2(x)) for positive int64 — six vectorized
    shift/compare steps.  No float round-trip: frexp/log2 drift above
    2**53 (e.g. 2**54-1 rounds up), bit shifts never do."""
    x = x.astype(np.int64, copy=True)
    r = np.zeros(len(x), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = x >= (np.int64(1) << np.int64(s))
        r[m] += s
        x[m] >>= s
    return r


def doc_perplexity(sf_dir: str):
    """Per-document unigram-LM surprisal in integer bits — the
    perplexity-style quality signal of a CCNet-shaped filter (Wenzek
    et al., arXiv:1911.00359 — public recipe) kept bit-exact: with
    corpus occurrence counts c(t) and total corpus positions N, a
    position's surprisal is floor(log2 N) - floor(log2 c(t)) bits
    (exact integer logs via bit length), and each document reports its
    token count, summed surprisal bits, and the mean in milli-bits.
    The ranking an LM-quality filter needs survives the floor; the
    integers make the DuckDB twin bit-identical.

    Scale shape: one tokenize pass (``_unit_rows`` of token ids),
    materialized once for its two consumers; N from a partial-sum
    pre-pass (one row per block crosses the wire); then the
    ``_per_doc`` fold: one tid hash shuffle, where the in-bucket sum
    IS the corpus count, and a per-doc aggregate folds positions.
    No vocabulary table ever materializes and no strings move."""
    ds = _read(sf_dir, ["doc_id", "text"])
    per_tok = ds.map_batches(_doc_token_count_rows,
                             batch_format="pyarrow").materialize()

    def part_n(t: pa.Table) -> pa.Table:
        s = pc.sum(t["cnt"]).as_py() or 0
        return pa.table({"n": pa.array([int(s)], pa.int64())})

    n_total = int(per_tok.map_batches(part_n, batch_format="pyarrow")
                  .to_pandas()["n"].sum())
    log_n = int(_ilog2(np.array([max(n_total, 1)], dtype=np.int64))[0])

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        tot = g.groupby("tid")["cnt"].transform("sum") \
            .to_numpy(dtype=np.int64)
        real = (g["tid"] >= 0).to_numpy()
        bits = np.zeros(len(g), dtype=np.int64)
        if real.any():
            bits[real] = g["cnt"].to_numpy()[real] \
                * (log_n - _ilog2(tot[real]))
        g["bits"] = bits
        return g[["doc_id", "cnt", "bits"]]

    return _per_doc(per_tok, "tid", attach,
                    {"n_tokens": ("cnt", "sum"), "sum_bits": ("bits", "sum")},
                    lambda t: _ratio(t, "mean_millibits", t["sum_bits"],
                                     t["n_tokens"], 1000))


def doc_bigram_surprisal(sf_dir: str):
    """Per-document bigram-LM surprisal in integer bits — the
    conditional-entropy upgrade of :func:`doc_perplexity` (the KenLM
    direction of a CCNet-shaped quality filter, public recipe): with
    corpus bigram counts c(v,w) and prefix counts c(v·) = Σ_w c(v,w),
    a transition's surprisal is floor(log2 c(v·)) - floor(log2 c(v,w))
    bits, i.e. -log2 of the MLE P(w|v) with exact integer logs (bit
    length — no float round-trip).  Each document reports its
    transition count, summed bits, and mean in milli-bits; docs with
    fewer than two tokens have zero transitions.

    Scale shape: ONE hash shuffle keyed by the PREFIX token v — the
    distinct (doc_id, v, w, cnt) rows co-locate by v, so the in-bucket
    sums ARE both count tables (prefix total = sum over the v-group,
    bigram total = sum over the (v,w)-group); neither table ever
    materializes and no strings move.  Same hot-key exposure as the
    unigram family (a corpus-dominating prefix token skews its hash
    bucket; the bucket holds many prefixes, so balance follows from
    the hash unless one token IS the corpus)."""
    from ..stages.tokenhash import batch_token_ids

    def bigram_rows(t: pa.Table) -> pa.Table:
        flat, offs = batch_token_ids(t["text"].to_pylist())
        lens = np.diff(offs)
        docidx = np.repeat(np.arange(len(lens)), lens)
        # a position starts a bigram iff its successor is in-doc
        valid = docidx[:-1] == docidx[1:]
        return _unit_rows(t["doc_id"].to_numpy(), np.maximum(lens - 1, 0),
                          {"v": flat[:-1][valid].astype(np.int64),
                           "w": flat[1:][valid].astype(np.int64)},
                          lens < 2)

    per_big = _read(sf_dir, ["doc_id", "text"]).map_batches(
        bigram_rows, batch_format="pyarrow")

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        cp = g.groupby("v")["cnt"].transform("sum") \
            .to_numpy(dtype=np.int64)
        cb = g.groupby(["v", "w"])["cnt"].transform("sum") \
            .to_numpy(dtype=np.int64)
        real = (g["v"] >= 0).to_numpy()
        bits = np.zeros(len(g), dtype=np.int64)
        if real.any():
            bits[real] = g["cnt"].to_numpy()[real] \
                * (_ilog2(cp[real]) - _ilog2(cb[real]))
        g["bits"] = bits
        return g[["doc_id", "cnt", "bits"]]

    return _per_doc(per_big, "v", attach,
                    {"n_bigrams": ("cnt", "sum"), "sum_bits": ("bits", "sum")},
                    lambda t: _ratio(t, "mean_millibits", t["sum_bits"],
                                     t["n_bigrams"], 1000))


def doc_source_lang_mix(sf_dir: str):
    """Corpus composition report — the "what's in my corpus" table a
    data-mix owner reads before setting sampling weights: docs and
    token counts per (source, PREDICTED language) cell, with each
    cell's share of its source's documents in exact basis points.

    Scale shape: langid + token count + cell fold in ONE shuffle-free
    pass (cells are sources × languages — tiny — so the per-batch
    partial counts combine in one exchange bucket);
    shares computed on the folded cell table.  The DuckDB twin nests
    the langid twin, so the composed report value-checks end to
    end."""
    from ..stages.combine import grouped_aggregate
    from ..stages.text import langid_batch

    ds = _read(sf_dir, ["doc_id", "text", "source"])

    def cell_rows(t: pa.Table) -> pa.Table:
        lang = langid_batch(t)["lang_pred"].to_pylist()
        nt = [len(x.split()) for x in t["text"].to_pylist()]
        df = pd.DataFrame({"source": t["source"].to_pylist(),
                           "lang_pred": lang,
                           "n_docs": np.int64(1),
                           "n_tokens": np.asarray(nt, np.int64)})
        g = df.groupby(["source", "lang_pred"], sort=False) \
            .sum().reset_index()
        return table_from_pandas(g, preserve_index=False)

    cells = grouped_aggregate(
        ds.map_batches(cell_rows, batch_format="pyarrow"),
        ["source", "lang_pred"],
        {"n_docs": ("n_docs", "sum"), "n_tokens": ("n_tokens", "sum")}).to_pandas()
    src_docs = cells.groupby("source")["n_docs"].transform("sum") \
        .to_numpy(np.int64)
    cells["doc_share_bp"] = (10_000 * cells["n_docs"].to_numpy(np.int64)
                             // src_docs).astype("int64")
    for c in ("n_docs", "n_tokens"):
        cells[c] = cells[c].astype("int64")
    return table_from_pandas(
        cells.sort_values(["source", "lang_pred"]).reset_index(drop=True),
        preserve_index=False)


WINNOW_K = 3    # k-gram width (token shingles)
WINNOW_W = 4    # winnowing window: one fingerprint per w consecutive grams


def doc_winnow(sf_dir: str):
    """Winnowing document fingerprints (Schleimer–Wilkerson–Aiken
    MOSS scheme, public): per document, the 3-gram Horner hashes slide
    under a width-4 window and each window selects its MINIMUM hash
    (rightmost on ties — the standard density guarantee), deduped to
    the (position, fingerprint) set a plagiarism / near-dup index
    stores.  Guarantees every length-(k+w-1) match between documents
    shares a fingerprint, at ~1/w storage of the full gram set.

    Scale shape: ONE shuffle-free vectorized pass — the per-doc
    sliding-min runs over a sentinel-padded flat gram array with
    ``sliding_window_view`` (no Python loop over docs or windows);
    only (doc_id, pos, fp) int rows leave the stage.  Docs with fewer
    than w grams winnow their single all-grams window; empty docs emit
    nothing.  The DuckDB twin replays the positional gram CTE and the
    window-min + rightmost-tie pick with plain joins."""
    from numpy.lib.stride_tricks import sliding_window_view

    from ..stages.tokenhash import P31, batch_token_ids, window_hashes

    SENT = np.uint64(P31) + np.uint64(2)   # larger than any gram hash
    w = WINNOW_W

    ds = _read(sf_dir, ["doc_id", "text"])

    def winnow_rows(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        doc_ids = t["doc_id"].to_numpy()
        flat, offs = batch_token_ids(texts)
        wh, counts = window_hashes(flat, offs, k=WINNOW_K)
        nz = counts > 0
        seg = counts[nz]
        ids_nz = doc_ids[nz]
        if not len(seg):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "fp": pa.array([], pa.int64())})
        # sentinel-padded flat grams: [doc grams][w-1 sentinels]...
        pad_start = np.concatenate([[0], np.cumsum(seg + w - 1)[:-1]])
        padded = np.full(int((seg + w - 1).sum()), SENT, np.uint64)
        gcum = np.concatenate([[0], np.cumsum(seg)[:-1]])
        padded[np.repeat(pad_start, seg)
               + (np.arange(int(seg.sum())) - np.repeat(gcum, seg))] = wh
        wv = sliding_window_view(padded, w)
        nwin = np.maximum(1, seg - (w - 1))
        wcum = np.concatenate([[0], np.cumsum(nwin)[:-1]])
        ws_in_doc = np.arange(int(nwin.sum())) - np.repeat(wcum, nwin)
        wstart = np.repeat(pad_start, nwin) + ws_in_doc
        vals = wv[wstart]
        # rightmost min: argmin over the reversed window
        j = (w - 1) - np.argmin(vals[:, ::-1], axis=1)
        fp = vals[np.arange(len(vals)), j]
        pos = ws_in_doc + j
        out = pd.DataFrame({
            "doc_id": np.repeat(ids_nz, nwin),
            "pos": pos.astype(np.int64),
            "fp": fp.astype(np.int64)}).drop_duplicates(
                ["doc_id", "pos"])
        return table_from_pandas(
            out.astype({"doc_id": "int64"}).reset_index(drop=True),
            preserve_index=False)

    return ds.map_batches(winnow_rows, batch_format="pyarrow")


CHUNK_W = 32    # chunk width in tokens
CHUNK_S = 24    # stride (W - S = 8 tokens of overlap)


def doc_chunks(sf_dir: str):
    """RAG/pretraining chunk extraction: each document splits into
    fixed-width token windows (width {W}, stride {S} — overlapping
    context like a retrieval chunker), emitting per chunk its
    position, length, and an exact Horner content hash of its token
    ids (mod P31) — the id a chunk store dedups and joins on.

    Scale shape: completely row-local — ONE shuffle-free vectorized
    ``map_batches`` pass (per-chunk term expansion via repeat/arange
    index algebra + one reduceat; no Python loop over chunks), nothing
    leaves the stage but (doc_id, 4 ints) rows.  The DuckDB twin
    replays the windowing with generate_series and the hash with a
    precomputed HB-power VALUES table under HUGEINT accumulation, so
    chunk boundaries AND contents value-check bit-exactly."""
    from ..stages.tokenhash import P31, batch_token_ids

    HB = np.uint64(1000003)
    pw = np.empty(CHUNK_W, np.uint64)
    pw[0] = 1
    for j in range(1, CHUNK_W):
        pw[j] = (pw[j - 1] * HB) % P31

    ds = _read(sf_dir, ["doc_id", "text"])

    def chunk_rows(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        doc_ids = t["doc_id"].to_numpy()
        flat, offs = batch_token_ids(texts)
        lens = np.diff(offs)
        n_chunks = -(-lens // CHUNK_S)          # ceil; 0 for empty docs
        total = int(n_chunks.sum())
        if not total:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "chunk_id": pa.array([], pa.int64()),
                             "start_tok": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "chunk_hash": pa.array([], pa.int64())})
        docx = np.repeat(np.arange(len(doc_ids)), n_chunks)
        cid = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks)
        start = cid * CHUNK_S
        wc = np.minimum(CHUNK_W, lens[docx] - start)
        # expand chunks -> per-token terms without a Python loop
        t_total = int(wc.sum())
        cstart = np.concatenate([[0], np.cumsum(wc)[:-1]])
        j = np.arange(t_total) - np.repeat(cstart, wc)
        tok_idx = np.repeat(offs[:-1][docx] + start, wc) + j
        exp = np.repeat(wc - 1, wc) - j
        terms = (flat[tok_idx] * pw[exp]) % np.uint64(P31)
        hashes = np.add.reduceat(terms, cstart) % np.uint64(P31)
        return pa.table({
            "doc_id": pa.array(doc_ids[docx], pa.int64()),
            "chunk_id": pa.array(cid, pa.int64()),
            "start_tok": pa.array(start, pa.int64()),
            "n_tokens": pa.array(wc, pa.int64()),
            "chunk_hash": pa.array(hashes.astype(np.int64), pa.int64())})

    return ds.map_batches(chunk_rows, batch_format="pyarrow")


def doc_rarity_buckets(sf_dir: str):
    """CCNet-shaped corpus-level quality bucketing (Wenzek et al.,
    arXiv:1911.00359 — public recipe), integer-exact: each token gets
    a Zipf rarity rank (dense rank of its corpus count, descending —
    rank 1 = the most common token), each document scores the SUM of
    its positions' ranks normalized per token, and documents split
    into head/middle/tail terciles by exact global quantiles of that
    score — the keep/down-weight decision of an LM-quality filter
    without the float LM (so the DuckDB twin is bit-exact).

    Scale shape (three bounded exchanges, no global sort of docs):
      1. one tokenize pass -> distinct (doc, tid, cnt) rows,
         materialized so the two consumers don't re-tokenize;
      2. vocab counts via partial pre-agg (one row per tid per batch
         crosses the wire) -> the DISTINCT count values collect to the
         driver and broadcast — ranks depend only on the count value,
         and distinct counts are FAR fewer than vocab (heavy-tailed
         corpus: O(10^4) distinct totals even at 10^10 tokens);
      3. the doc-token rows shuffle ONCE by tid (the ``_per_doc``
         fold): in-bucket totals + the broadcast distinct-count
         array give each position's rank by searchsorted, and a
         per-doc aggregate sums them;
      4. tercile thresholds from the exact-quantile refinement
         machinery (histogram passes, no sort), then one final
         vectorized bucket-assignment pass.
    """
    import ray

    from ..stages.combine import grouped_aggregate
    from ..stages.sketches import exact_quantiles

    ds = _read(sf_dir, ["doc_id", "text"])
    per_tok = ds.map_batches(_doc_token_count_rows,
                             batch_format="pyarrow").materialize()

    # distinct corpus-count values (tiny), sorted ascending
    vocab = grouped_aggregate(per_tok, ["tid"], {"tot": ("cnt", "sum")})

    def distinct_tots(t: pa.Table) -> pa.Table:
        real = t.filter(pc.greater_equal(t["tid"], 0))
        return pa.table({"tot": pc.unique(real["tot"])})

    tots = np.unique(vocab.map_batches(
        distinct_tots, batch_format="pyarrow").to_pandas()["tot"]
        .to_numpy(dtype=np.int64))
    tots_ref = ray.put(tots)

    def attach_rank(g: pd.DataFrame) -> pd.DataFrame:
        T = ray.get(tots_ref)
        g = g.copy()
        tot = g.groupby("tid")["cnt"].transform("sum").astype(np.int64)
        real = (g["tid"] >= 0).to_numpy()
        # dense rank by count DESC: 1 + #distinct counts strictly above
        rank = len(T) - np.searchsorted(T, tot.to_numpy(), side="right") + 1
        g["rar"] = np.where(real, g["cnt"].to_numpy() * rank, 0) \
            .astype(np.int64)
        return g[["doc_id", "cnt", "rar"]]

    scored = _per_doc(per_tok, "tid", attach_rank,
                      {"n_tokens": ("cnt", "sum"), "rarity": ("rar", "sum")},
                      lambda t: _ratio(t, "norm_rarity", t["rarity"],
                                       t["n_tokens"], 1000)).materialize()

    th = exact_quantiles(scored, "norm_rarity", [1 / 3, 2 / 3])
    q33, q66 = (float(th.loc[th["q"].round(6) == round(q, 6),
                             "value"].iloc[0]) for q in (1 / 3, 2 / 3))

    def bucketize(t: pa.Table) -> pa.Table:
        nr = t["norm_rarity"].to_numpy()
        return t.append_column("bucket", pa.array(
            np.where(nr <= q33, 0, np.where(nr <= q66, 1, 2)), pa.int64()))

    return scored.map_batches(bucketize, batch_format="pyarrow")


INCR_DELTA_MOD = 5  # doc_id % 5 == 0 -> the "new snapshot" (delta) side


def doc_incremental_novelty(sf_dir: str, width: int = 8):
    """Incremental-ingest novelty: the continuous-crawl form of Lee et
    al. substring dedup (arXiv:2107.06499 — public recipe).  The
    corpus splits into an already-curated BASE (doc_id % 5 != 0) and a
    new DELTA snapshot (doc_id % 5 == 0); each delta document reports
    how many of its width-8 rolling token windows already exist
    anywhere in the base, and its novelty fraction in basis points —
    the keep/re-crawl signal an incremental pipeline acts on.

    Scale shape: the ``_unit_rows`` front and ``_per_doc`` fold of
    doc_dup_ngrams — batches collapse to distinct (doc_id,
    window_hash, cnt) rows before the ONE shuffle (only integer hashes
    move, text never does), the per-hash combine checks base-side
    presence in-bucket, and a grouped sum folds back to one row per
    delta doc.  In production the base side is the PERSISTED
    window-hash index written by the previous run (a pruned read of
    hash columns), so the incremental run tokenizes only the delta;
    here both sides derive from the same table split."""
    from ..stages.tokenhash import batch_token_ids, window_hashes

    def rows(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy()
        flat, offs = batch_token_ids(t["text"].to_pylist())
        wh, counts = window_hashes(flat, offs, width)
        # zero-window DELTA docs need the sentinel so they appear in
        # the output; base zero-window docs contribute nothing anyway
        return _unit_rows(doc_ids, counts, {"wh": wh.astype(np.int64)},
                          (counts == 0) & (doc_ids % INCR_DELTA_MOD == 0))

    per_hash = _read(sf_dir, ["doc_id", "text"]).map_batches(
        rows, batch_format="pyarrow")

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        is_delta = (g["doc_id"] % INCR_DELTA_MOD == 0).to_numpy()
        in_base = g.assign(_b=~is_delta).groupby("wh")["_b"] \
            .transform("max").to_numpy()
        d = g[is_delta]
        known = np.where((d["wh"].to_numpy() >= 0) & in_base[is_delta],
                         d["cnt"].to_numpy(), 0).astype(np.int64)
        return pd.DataFrame({"doc_id": d["doc_id"].to_numpy(),
                             "cnt": d["cnt"].to_numpy(),
                             "known": known})

    return _per_doc(per_hash, "wh", mark,
                    {"n_windows": ("cnt", "sum"),
                     "n_known_windows": ("known", "sum")},
                    lambda t: _ratio(t, "novelty_bp", pc.subtract(
                        t["n_windows"], t["n_known_windows"]),
                        t["n_windows"], 10000))


def doc_gopher_rules(sf_dir: str):
    """The composed Gopher keep/drop filter — one shuffle-free
    vectorized pass producing the violation bitmask and keep flag a
    curation pipeline filters on (stages/text.gopher_rules_batch)."""
    from ..stages.text import gopher_rules_batch
    return _read(sf_dir, ["doc_id", "text"]).map_batches(
        gopher_rules_batch, batch_format="pyarrow")


TFIDF_IDF_SCALE = 1_000_000   # micro-idf units: idf = (SCALE*N) // df


def doc_tfidf_exact(sf_dir: str, k: int = 6):
    """Top-k TF-IDF terms per document, integer-exact: with N docs in
    the corpus and df(t) = number of docs containing token t, each
    (doc, token) scores cnt * ((SCALE * N) // df) — floor division
    keeps the score integral so the DuckDB twin is bit-exact; ties
    break by token id ascending.  Zero-token docs emit no terms
    (there is nothing to rank).

    Scale shape (the unigram-family pattern + the grouped-top-k
    combiner): one tokenize pass emits distinct (doc, tid, cnt) rows;
    ONE shuffle by tid computes df as the in-bucket row count per tid
    (rows are distinct per doc, so rows == containing docs) and prunes
    to each doc's k best WITHIN the bucket — at most k rows per doc
    per bucket cross the second, doc-keyed exchange, which re-ranks
    exactly.  N is a metadata-only count; no vocabulary table ever
    materializes and token strings never move."""
    from ..stages.combine import hash_bucket_combine

    n_docs = int(_read(sf_dir, ["doc_id"]).count())
    per_tok = _read(sf_dir, ["doc_id", "text"]).map_batches(
        _doc_token_count_rows, batch_format="pyarrow")

    cols = ["doc_id", "tid", "cnt", "df", "score"]

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tid"] >= 0].copy()
        if not len(g):
            return pd.DataFrame({c: np.array([], dtype=np.int64)
                                 for c in cols})
        dfc = g.groupby("tid")["cnt"].transform("size") \
            .to_numpy(dtype=np.int64)
        idf = (TFIDF_IDF_SCALE * n_docs) // dfc
        g["df"] = dfc
        g["score"] = (g["cnt"].to_numpy(dtype=np.int64) * idf) \
            .astype(np.int64)
        g = g.sort_values(["doc_id", "score", "tid"],
                          ascending=[True, False, True],
                          kind="mergesort") \
            .groupby("doc_id", sort=False).head(k)
        return g[cols]

    pruned = hash_bucket_combine(per_tok, ["tid"], score_bucket)

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "score", "tid"],
                            ascending=[True, False, True],
                            kind="mergesort") \
            .groupby("doc_id", sort=False).head(k)
        df = df.copy()
        df["term_rank"] = (df.groupby("doc_id", sort=False).cumcount()
                           + 1).astype("int64")
        return df[["doc_id", "term_rank", "tid", "cnt", "df", "score"]]

    return hash_bucket_combine(pruned, ["doc_id"], final_topk,
                               num_buckets=64)


def _dup_windows(ds, width: int):
    """(doc_id, pos) of every full-width ``width``-token window whose
    rolling hash occurs >= 2 times corpus-wide — the cut positions of
    exact substring dedup.  Docs shorter than ``width`` have no
    full-width window.  Windows co-locate by hash, so the exchange's
    output carries duplicated windows only."""
    from ..stages.combine import hash_bucket_combine
    from ..stages.tokenhash import batch_token_ids, to_int64, window_hashes

    def rows(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        doc_ids = t["doc_id"].to_numpy()
        flat, offs = batch_token_ids(texts)
        wh, counts = window_hashes(flat, offs, width)
        lens = np.diff(offs)
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
        pos = np.arange(len(wh), dtype=np.int64) \
            - np.repeat(starts, counts)
        keep = np.repeat(lens >= width, counts)
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids, counts)[keep],
                               type=pa.int64()),
            "pos": pa.array(pos[keep], type=pa.int64()),
            "wh": pa.array(to_int64(wh)[keep], type=pa.int64())})

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        # all rows of a hash are in this bucket: in-bucket size IS the
        # corpus-wide occurrence count (incl. same-doc repeats)
        tot = g.groupby("wh")["wh"].transform("size")
        return g.loc[tot >= 2, ["doc_id", "pos"]]

    return hash_bucket_combine(
        ds.map_batches(rows, batch_format="pyarrow"), ["wh"], mark)


def doc_dup_spans(sf_dir: str, width: int = 8):
    """Maximal duplicated token SPANS — the actual cut list of exact
    substring dedup (Lee et al., arXiv:2107.06499 — public recipe):
    a width-``width`` token window is duplicated when its rolling hash
    occurs >= 2 times corpus-wide (same rule as :func:`doc_dup_ngrams`,
    which reports only per-doc fractions); overlapping-or-adjacent
    duplicated windows in a document merge into one [start_tok,
    end_tok) span.  Docs shorter than ``width`` have no full-width
    window and emit nothing (their whole-text duplicates are the exact
    -dedup family's job).

    Scale shape: stages 1-2 are ``_dup_windows``: (doc_id, pos, wh)
    rows of full-width windows co-locate by window hash and keep only
    hashes with a corpus-wide count >= 2 — the second exchange carries
    DUPLICATED windows only (typically a small fraction); stage 3
    co-locates those by doc_id and merges islands with one vectorized
    sorted pass (break when the position gap exceeds ``width``).  Both
    exchanges are token-scale at worst — the same asymptotics as the
    suffix-array sort the reference recipe uses, expressed as two
    hash shuffles."""
    from ..stages.combine import hash_bucket_combine

    dups = _dup_windows(_read(sf_dir, ["doc_id", "text"]), width)

    def spans(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "start_tok": pd.Series([], dtype="int64"),
                                 "end_tok": pd.Series([], dtype="int64"),
                                 "n_windows": pd.Series([], dtype="int64")})
        g = g.sort_values(["doc_id", "pos"])
        brk = g["doc_id"].ne(g["doc_id"].shift()) \
            | (g["pos"] - g["pos"].shift() > width)
        grp = brk.cumsum()
        out = g.groupby(grp, sort=False).agg(
            doc_id=("doc_id", "first"),
            start_tok=("pos", "min"),
            end_tok=("pos", "max"),
            n_windows=("pos", "size")).reset_index(drop=True)
        out["end_tok"] = out["end_tok"] + width
        return out.astype("int64")

    return hash_bucket_combine(dups, ["doc_id"], spans)


def doc_dup_apply(sf_dir: str, width: int = 8):
    """APPLY the exact-substring-dedup cut list — the surgery pass of
    Lee et al. (arXiv:2107.06499, public recipe) that
    :func:`doc_dup_spans` only reports: every token covered by a
    corpus-duplicated width-``width`` window is cut from its document,
    and each doc emits (n_tokens, n_removed, clean_md5) where
    ``clean_md5`` hashes the space-joined SURVIVING tokens (md5('')
    when everything was cut).  Docs with no duplicated windows pass
    through untouched (n_removed = 0) — the join-back is outer by
    construction.

    Scale shape: pass 1 is ``_dup_windows``, the token-scale
    window-hash exchange doc_dup_spans also runs (only corpus-count>=2
    windows survive it); the
    surgery co-locates each doc's TEXT with its cut positions through
    ONE doc_id exchange of the union (text rows + tiny cut rows) —
    the single full-text shuffle any rewrite pass needs (the reference
    recipe's output pass pays the same).  Coverage is computed for a
    whole bucket at once with a flat-token-space +1/-1 diff array
    (cumsum > 0 == covered; a window never crosses its doc boundary,
    so per-doc coverage needs no per-doc loop), and only the final
    per-doc join+md5 touches Python — one call per DOC, not per
    token."""
    import hashlib

    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, ["doc_id", "text"])
    dups = _dup_windows(ds, width)

    # one schema for the doc_id exchange: text rows ride pos = -1,
    # cut rows ride text = '' (tiny)
    def as_text_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "pos": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "text": t["text"]})

    def as_cut_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "pos": t["pos"].cast(pa.int64()),
            "text": pa.array([""] * t.num_rows, pa.string())})

    unioned = ds.map_batches(as_text_rows, batch_format="pyarrow").union(
        dups.map_batches(as_cut_rows, batch_format="pyarrow"))

    def surgery(g: pd.DataFrame) -> pd.DataFrame:
        docs = g[g["pos"] < 0]
        if not len(docs):
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "n_tokens": pd.Series([], dtype="int64"),
                "n_removed": pd.Series([], dtype="int64"),
                "clean_md5": pd.Series([], dtype="object")})
        docs = docs.sort_values("doc_id")
        toks = [t.split() for t in docs["text"]]
        lens = np.fromiter((len(t) for t in toks), np.int64,
                           count=len(toks))
        offs = np.concatenate([[0], np.cumsum(lens)])
        total = int(offs[-1])
        doc_ids = docs["doc_id"].to_numpy()

        cuts = g[g["pos"] >= 0]
        cover = np.zeros(total, dtype=bool)
        if len(cuts) and total:
            d_idx = np.searchsorted(doc_ids, cuts["doc_id"].to_numpy())
            flat_pos = offs[d_idx] + cuts["pos"].to_numpy()
            # +1 at span start, -1 past span end; windows are full
            # width within their doc, so coverage returns to 0 at
            # every doc boundary and one cumsum serves the whole
            # bucket
            delta = np.zeros(total + 1, np.int64)
            np.add.at(delta, flat_pos, 1)
            np.add.at(delta, flat_pos + width, -1)
            cover = np.cumsum(delta)[:total] > 0
        cum = np.concatenate([[0], np.cumsum(cover)])
        removed = cum[offs[1:]] - cum[offs[:-1]]

        out_md5 = []
        for d, ts in enumerate(toks):
            m = cover[offs[d]:offs[d + 1]]
            kept = (" ".join(w for w, c in zip(ts, m) if not c)
                    if removed[d] else " ".join(ts))
            out_md5.append(hashlib.md5(kept.encode("utf-8")).hexdigest())
        return pd.DataFrame({
            "doc_id": doc_ids.astype("int64"),
            "n_tokens": lens.astype("int64"),
            "n_removed": removed.astype("int64"),
            "clean_md5": out_md5})

    return hash_bucket_combine(unioned, ["doc_id"], surgery)
