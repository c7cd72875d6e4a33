"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (the distributed image+caption
crawl) on sf0.001; ``queries()`` exposes one callable per implemented
operator/pipeline from SURVEY.md §2 (+ the training-data operators);
``oracle_sql()`` gives the DuckDB twin for every SQL-expressible one.

Ray is initialised by the driver BEFORE this module is imported —
nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import pyarrow as pa

_STOPWORDS_SQL = ("'the','a','an','and','or','of','to','in','is','are',"
                  "'was','be','on','for','with','as','at','by','it',"
                  "'this','that','from'")

# literal twins of uniparser_ray.stages.text PII regexes and
# pipelines.documents.DECONTAM_BENCH_MOD (imported lazily at oracle
# build time would be cleaner, but these are embedded in f-strings
# evaluated at module import)
DECONTAM_MOD_SQL = 41
INCR_DELTA_MOD_SQL = 5  # pipelines.documents.INCR_DELTA_MOD
PII_EMAIL_SQL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_SQL = r"\+\d{1,2}-\d{3}-\d{1,6}"

# ---------------------------------------------------------------------------
# oracle SQL builders for the tokenhash sketch family
# (see uniparser_ray/stages/tokenhash.py: every sketch is defined over
# md5-derived 31-bit token ids + BIGINT Horner folds precisely so that
# DuckDB can recompute the identical values)
# ---------------------------------------------------------------------------

_P = 2147483647        # tokenhash.P31
_HB = 1000003          # tokenhash.HB
_HB2 = 999983          # tokenhash.HB2


def _horner_sql(terms, base=_HB):
    expr = terms[0]
    for t in terms[1:]:
        expr = f"(({expr}) * {base} + {t}) % {_P}"
    return expr


# tokenizer twin of python str.split(): any-whitespace runs, empties
# dropped (plain string_split(text, ' ') would emit '' tokens on
# double spaces / tabs and diverge from the pipeline)
_SPLIT_SQL = (r"list_filter(string_split_regex(text, '\s+'), "
              r"s -> s <> '')")

def _tok_ctes(src: str = "documents", p: str = "") -> str:
    """toks/ids CTE pair over an arbitrary (doc_id, text) source with
    a CTE-name prefix — DuckDB shadows a view name for EVERY CTE in
    the WITH clause regardless of order, so cross-table twins (real
    documents AND captions in one query) need renamed stacks instead
    of the shadowing trick."""
    return f"""{p}toks AS (
      SELECT doc_id, {_SPLIT_SQL} AS t FROM {src}),
    {p}ids AS (
      SELECT doc_id,
             list_transform(t, s ->
                 ('0x' || substr(md5(s), 1, 15))::BIGINT % {_P}) AS h,
             len(t) AS n
      FROM {p}toks)"""


_TOK_CTES = _tok_ctes()


def _sh_cte(with62: bool = False, p: str = "") -> str:
    """Word-3-shingle hashes per doc: column s (31-bit, minhash/simhash
    domain) and optionally s62 (dual-base 62-bit, exact-jaccard
    domain — collision differences would otherwise diverge from the
    numpy path).  ``p`` prefixes the CTE names (pairs with
    ``_tok_ctes(p=...)``)."""
    h3a = _horner_sql(["h[i]", "h[i+1]", "h[i+2]"], _HB)
    sh_a = (f"CASE WHEN n = 1 THEN h[1] "
            f"ELSE ({_horner_sql(['h[1]', 'h[2]'], _HB)}) END")
    cols_long, cols_short = f"{h3a} AS s", f"{sh_a} AS s"
    if with62:
        h3b = _horner_sql(["h[i]", "h[i+1]", "h[i+2]"], _HB2)
        sh_b = (f"CASE WHEN n = 1 THEN h[1] "
                f"ELSE ({_horner_sql(['h[1]', 'h[2]'], _HB2)}) END")
        cols_long += f", (({h3a}) << 31) | ({h3b}) AS s62"
        cols_short += f", (({sh_a}) << 31) | ({sh_b}) AS s62"
    return f"""{p}sh AS (
      SELECT doc_id, {cols_long}
      FROM {p}ids, unnest(generate_series(1, n - 2)) AS u(i)
      WHERE n >= 3
      UNION ALL
      SELECT doc_id, {cols_short}
      FROM {p}ids WHERE n IN (1, 2))"""


def _params_cte(name: str, n: int, seed: int) -> str:
    """Affine (a, b) parameter rows — the literal twin of
    tokenhash.affine_params(n, seed)."""
    from uniparser_ray.stages.tokenhash import affine_params
    a, b = affine_params(n, seed)
    vals = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(n))
    return (f"{name}(i, a, b) AS (SELECT * FROM (VALUES {vals}) "
            f"AS _v(i, a, b))")


def _simhash_ctes() -> str:
    """acc + simh CTEs (require sh and sp in scope): 64 affine parity
    bits per shingle, signed per-doc sums, bit j set iff sum > 0;
    assembled as a two's-complement BIGINT."""
    bit = f"(((sp.a * sh.s + sp.b) % {_P}) & 1)"
    return f"""acc AS (
      SELECT sh.doc_id, sp.i AS j,
             SUM(CASE WHEN {bit} = 1 THEN 1 ELSE -1 END) AS tally
      FROM sh, sp GROUP BY 1, 2),
    simh AS (
      SELECT doc_id, CAST(SUM(CASE WHEN tally > 0 THEN
          CASE WHEN j = 63 THEN -9223372036854775808
               ELSE (1::BIGINT << j) END ELSE 0 END) AS BIGINT) AS simhash
      FROM acc GROUP BY 1)"""


def _roll_ctes() -> str:
    """roll + fp CTEs: width-8 token-window Horner hashes, XOR-folded
    per doc (tokenhash.rolling_fingerprints)."""
    h8 = _horner_sql([f"h[i+{j}]" for j in range(8)])
    shorts = " ".join(
        f"WHEN {n} THEN "
        f"({_horner_sql([f'h[{j}]' for j in range(1, n + 1)])})"
        for n in range(1, 8))
    return f"""roll AS (
      SELECT doc_id, {h8} AS wh
      FROM ids, unnest(generate_series(1, n - 7)) AS u(i)
      WHERE n >= 8
      UNION ALL
      SELECT doc_id, CASE n {shorts} END AS wh
      FROM ids WHERE n BETWEEN 1 AND 7),
    fp AS (SELECT doc_id, bit_xor(wh) AS fp_rolling FROM roll GROUP BY 1)"""


def _blocks_pred(a: str, b: str, num_blocks: int = 4, width: int = 16) -> str:
    """Pigeonhole block-sharing predicate over 64-bit signatures
    (arithmetic >> then mask equals the unsigned block value)."""
    mask = (1 << width) - 1
    return " OR ".join(
        f"((({a} >> {width * blk}) & {mask}) = "
        f"(({b} >> {width * blk}) & {mask}))"
        for blk in range(num_blocks))


def _sql_quote(v) -> str:
    import math

    import numpy as np
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, (bool, np.bool_)):
        return "TRUE" if v else "FALSE"
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "'NaN'::DOUBLE"
        if math.isinf(f):
            return ("'Infinity'" if f > 0 else "'-Infinity'") + "::DOUBLE"
        return f"{f!r}::DOUBLE"
    return str(int(v))


def _duck_type(t: pa.DataType) -> str:
    if pa.types.is_boolean(t):
        return "BOOLEAN"
    if pa.types.is_floating(t):
        return "DOUBLE"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "VARCHAR"
    if pa.types.is_timestamp(t):
        return "TIMESTAMP"
    return "BIGINT"


def _values_cte(name: str, tbl: pa.Table) -> str:
    """Embed a small expected table as a VALUES CTE (keeps the oracle
    a plain SQL string — no side files).  A zero-row table renders as a
    typed empty SELECT (``VALUES`` with no rows is a syntax error)."""
    cols = tbl.column_names
    collist = ", ".join(cols)
    if tbl.num_rows == 0:
        typed = ", ".join(
            f"CAST(NULL AS {_duck_type(tbl.schema.field(c).type)}) AS {c}"
            for c in cols)
        return f"{name}({collist}) AS (SELECT {typed} WHERE FALSE)"
    rows = ", ".join(
        "(" + ", ".join(_sql_quote(row[c]) for c in cols) + ")"
        for row in tbl.to_pylist())
    return (f"{name}({collist}) AS (SELECT * FROM (VALUES {rows}) "
            f"AS _v({collist}))")


def _oracle_tag() -> str:
    """The sf the driver runs oracles at (override for local checks)."""
    return os.environ.get("UNIPARSER_ORACLE_SF", "sf0.01")


def _hyperplanes_sql(dim: int = 64, num_planes: int = 8,
                     seed: int = 42) -> list:
    """The literal twin of embedding_neardup_pairs' random hyperplanes
    (np.random.RandomState(seed).randn(dim, num_planes))."""
    import numpy as np
    planes = np.random.RandomState(seed).randn(dim, num_planes)
    return [
        "[" + ", ".join(f"{planes[k, j]!r}::DOUBLE" for k in range(dim)) + "]"
        for j in range(num_planes)]


def _ts_us(result, cols):
    """pandas->arrow yields timestamp[ns]; oracle timestamps are [us]."""
    if not isinstance(result, pa.Table):
        result = (result.to_arrow() if hasattr(result, "to_arrow")
                  else pa.Table.from_pandas(result, preserve_index=False))
    for c in cols:
        i = result.column_names.index(c)
        result = result.set_column(i, c, result[c].cast(pa.timestamp("us")))
    return result


def _asof_no_nulls(df):
    """The as-of join's unmatched rows carry real NULLs (pandas Int64);
    the driver's canonicalizer only handles numpy dtypes, so the query
    entry exposes a -1 sentinel (COALESCE'd identically in the oracle).
    NULL semantics themselves are pinned by tests/test_stages.py."""
    for c in ("matched_event_id", "gap_us"):
        df[c] = df[c].fillna(-1).astype("int64")
    return _ts_us(df, ["ts"])


def entry() -> Any:
    """Flagship: the distributed crawl over the sf0.001 synthetic web,
    returning the Lance image+caption table."""
    from uniparser_ray.pipelines.images_q import crawl_images
    return crawl_images("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from uniparser_ray.pipelines import (crawl_q, documents, graph,
                                         images_q, relational, stats,
                                         vectors)

    return {
        # relational operators (groupby/sort/limit/join/filter/distinct)
        "q1_pricing_summary": relational.q1_pricing_summary,
        "top_customers": relational.top_customers,
        "q3_shipping_priority": lambda sf: _ts_us(
            relational.q3_shipping_priority(sf), ["o_orderdate"]),
        "nation_revenue": relational.nation_revenue,
        "distinct_segments": relational.distinct_segments,
        "segment_order_stats": relational.segment_order_stats,
        "q5_local_supplier_volume": relational.q5_local_supplier_volume,
        "part_topk_price": relational.part_topk_price,
        "customers_without_orders": relational.customers_without_orders,
        "q13_customer_distribution": relational.q13_customer_distribution,
        "q6_forecast_revenue": relational.q6_forecast_revenue,
        "q14_promo_revenue": relational.q14_promo_revenue,
        "q18_large_orders": relational.q18_large_orders,
        "q10_returned_item_revenue": relational.q10_returned_item_revenue,
        "q4_returned_order_priority": relational.q4_returned_order_priority,
        "orders_topk_per_customer": relational.orders_topk_per_customer,
        "part_price_bands": relational.part_price_bands,
        # statistics (sketches + rank stats)
        "events_distinct_users": stats.events_distinct_users,
        "events_stratified_sample": stats.events_stratified_sample,
        "events_watermark_late": stats.events_watermark_late,
        "events_hll_users": stats.events_hll_users,
        "events_heavy_hitters": stats.events_heavy_hitters,
        "events_countmin": stats.events_countmin,
        "order_price_quantiles": stats.order_price_quantiles,
        "events_value_quantiles": stats.events_value_quantiles,
        # stream-shaped operators
        "events_tumbling": lambda sf: _ts_us(
            relational.events_tumbling(sf).to_pandas(), ["window_start"]),
        "events_sessionize": lambda sf: _ts_us(
            relational.events_sessionize(sf).to_pandas(),
            ["session_start", "session_end"]),
        "events_asof": lambda sf: _asof_no_nulls(
            relational.events_asof(sf).to_pandas()),
        "events_window_join": relational.events_window_join,
        "events_funnel": relational.events_funnel,
        "events_retention": relational.events_retention,
        "events_markov": relational.events_markov,
        "events_window_anomaly": relational.events_window_anomaly,
        "events_hopping": lambda sf: _ts_us(
            relational.events_hopping(sf).to_pandas(), ["window_start"]),
        "events_cumulative": relational.events_cumulative,
        "orders_rollup": relational.orders_rollup,
        # rule-VM extraction as Dataset stages
        "events_json_k": relational.events_json_k,
        "doc_parse_rules": documents.doc_parse_rules,
        # the DOM builder and selector and the image phash, kept
        # among the first 50 entries, which correctness runs check
        "images_phash_ann": images_q.images_phash_ann,
        "images_dedup_clusters": images_q.images_dedup_clusters,
        "crawl_images_curation": images_q.crawl_images_curation,
        "crawl_page_lineage": images_q.crawl_page_lineage,
        "crawl_image_lineage": images_q.crawl_image_lineage,
        "crawl_redirects": crawl_q.crawl_redirects,
        # the crawls that admit through robots (the one RFC 9309
        # matcher), also among the first 50
        "crawl_robots_rfc": crawl_q.crawl_robots_rfc,
        "crawl_politeness_audit": images_q.crawl_politeness_audit,
        "crawl_round_metrics": images_q.crawl_round_metrics,
        "crawl_host_ban": crawl_q.crawl_host_ban,
        "crawl_trap_guard": crawl_q.crawl_trap_guard,
        "crawl_resume_roundtrip": crawl_q.crawl_resume_roundtrip,
        "orders_incremental_agg": relational.orders_incremental_agg,
        "events_pivot": relational.events_pivot,
        # text analysis
        "doc_token_stats": documents.doc_token_stats,
        "doc_top_tokens": documents.doc_top_tokens,
        "doc_sample_hash": documents.doc_sample_hash,
        "doc_tfidf_topk": documents.doc_tfidf_topk,
        "doc_shard_assign": documents.doc_shard_assign,
        "doc_seq_pack": documents.doc_seq_pack,
        "doc_bpe_pairs": documents.doc_bpe_pairs,
        "doc_dup_ngrams": documents.doc_dup_ngrams,
        "doc_dup_spans": documents.doc_dup_spans,
        "doc_dup_apply": documents.doc_dup_apply,
        "doc_para_dedup": documents.doc_para_dedup,
        "doc_unigram_stats": documents.doc_unigram_stats,
        "doc_perplexity": documents.doc_perplexity,
        "doc_bigram_surprisal": documents.doc_bigram_surprisal,
        "doc_chunks": documents.doc_chunks,
        "doc_winnow": documents.doc_winnow,
        "doc_source_lang_mix": documents.doc_source_lang_mix,
        "doc_tfidf_exact": documents.doc_tfidf_exact,
        "doc_rarity_buckets": documents.doc_rarity_buckets,
        "doc_incremental_novelty": documents.doc_incremental_novelty,
        "doc_gopher_rules": documents.doc_gopher_rules,
        "doc_curation": documents.doc_curation,
        "doc_quality": documents.doc_quality,
        "doc_langid": documents.doc_langid,
        "doc_fingerprint": documents.doc_fingerprint,
        "doc_signatures": documents.doc_signatures,
        "doc_repetition": documents.doc_repetition,
        "doc_source_mix": documents.doc_source_mix,
        "doc_mixture_apply": documents.doc_mixture_apply,
        "doc_curriculum_rank": documents.doc_curriculum_rank,
        "doc_decontaminate": documents.doc_decontaminate,
        "doc_pii_redact": documents.doc_pii_redact,
        # dedup family
        "doc_dedup_exact": documents.doc_dedup_exact,
        "doc_dedup_jaccard": documents.doc_dedup_jaccard,
        "doc_dedup_minhash": documents.doc_dedup_minhash,
        "doc_minhash_recall": documents.doc_minhash_recall,
        "doc_dedup_clusters": documents.doc_dedup_clusters,
        "doc_dedup_simhash": documents.doc_dedup_simhash,
        "embedding_neardup": vectors.embedding_neardup,
        "embedding_neardup_lsh": vectors.embedding_neardup_lsh,
        # clustering / semantic dedup
        "embedding_kmeans": vectors.embedding_kmeans,
        "embedding_outliers": vectors.embedding_outliers,
        "embedding_pq_topk": vectors.embedding_pq_topk,
        "embedding_pq_distortion": vectors.embedding_pq_distortion,
        "embedding_semdedup": vectors.embedding_semdedup,
        # similarity search
        "ann_topk": vectors.ann_topk,
        "ann_ivf": vectors.ann_ivf,
        "ann_ivf_exhaustive": vectors.ann_ivf_exhaustive,
        "label_centroids": vectors.label_centroids,
        # multimodal (input_hint image+caption table)
        "images_decode_stats": images_q.images_decode_stats,
        "images_neardup_phash": images_q.images_neardup_phash,
        "images_thumbnails": images_q.images_thumbnails,
        "images_aspect_buckets": images_q.images_aspect_buckets,
        "images_curation": images_q.images_curation,
        "images_shard_pack": images_q.images_shard_pack,
        "images_bucket_shards": images_q.images_bucket_shards,
        "caption_token_stats": images_q.caption_token_stats,
        "images_caption_align": images_q.images_caption_align,
        "images_hard_negatives": images_q.images_hard_negatives,
        "caption_decontaminate": images_q.caption_decontaminate,
        "crawl_images_dedup_exact": images_q.crawl_images_dedup_exact,
        "crawl_wet_roundtrip": images_q.crawl_wet_roundtrip,
        "images_wds_roundtrip": images_q.images_wds_roundtrip,
        "crawl_url_canon": crawl_q.crawl_url_canon,
        "crawl_sitemap_ingest": crawl_q.crawl_sitemap_ingest,
        "crawl_sitemap_seed": crawl_q.crawl_sitemap_seed,
        "images_psnr_audit": images_q.images_psnr_audit,
        "crawl_recrawl_delta": crawl_q.crawl_recrawl_delta,
        "crawl_sitemap_recrawl": crawl_q.crawl_sitemap_recrawl,
        "audio_features": images_q.audio_features_q,
        "video_frames": images_q.video_frames_q,
        "video_shot_boundaries": images_q.video_shot_boundaries,
        "audio_vad_segments": images_q.audio_vad_segments,
        # the crawl itself
        "crawl_images": images_q.crawl_images,
        # link-graph analytics (BSP shard actors over parsed edges)
        "web_pagerank": graph.web_pagerank,
        "web_hits": graph.web_hits,
        "web_components": graph.web_components,
        "web_triangles": graph.web_triangles,
        "web_host_degrees": graph.web_host_degrees,
        "web_seed_hops": graph.web_seed_hops,
    }


def _jaccard_sql(threshold: float = 0.5) -> str:
    """String-shingle exact-jaccard oracle (independent of tokenhash:
    shingles compared as strings), incl. the short-doc whole-doc
    shingle and the whitespace-robust tokenizer."""
    return f"""
            WITH toks AS (
              SELECT doc_id, {_SPLIT_SQL} AS t FROM documents),
            sh AS (
              SELECT DISTINCT doc_id,
                     unnest(list_transform(
                         generate_series(1, len(t) - 2),
                         i -> array_to_string(t[i:i+2], ' '))) AS shingle
              FROM toks
              UNION
              -- docs shorter than the shingle width contribute ONE
              -- whole-doc shingle (pipeline: tokenhash fold over all
              -- tokens)
              SELECT doc_id, array_to_string(t, ' ') AS shingle
              FROM toks WHERE len(t) BETWEEN 1 AND 2),
            cnt AS (SELECT doc_id, COUNT(*) AS c FROM sh GROUP BY 1),
            pairs AS (
              SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) AS n
              FROM sh a JOIN sh b
                ON a.shingle = b.shingle AND b.doc_id > a.doc_id
              GROUP BY 1, 2)
            SELECT da AS doc_a, db AS doc_b,
                   CAST(n AS DOUBLE) / (ca.c + cb.c - n) AS jaccard_sim
            FROM pairs
            JOIN cnt ca ON ca.doc_id = da
            JOIN cnt cb ON cb.doc_id = db
            WHERE CAST(n AS DOUBLE) / (ca.c + cb.c - n) >= {threshold}
        """


def _langid_sql() -> str:
    """The literal twin of stages/text.langid_batch: non-overlapping
    trigram counts per language, argmax with first-in-order tie-break,
    CJK short-circuit on the first 200 chars; conf is the unrounded
    small-int ratio (bit-identical doubles in both engines)."""
    from uniparser_ray.stages.text import _LANG_TRIGRAMS

    def count(g: str) -> str:
        e = g.replace("'", "''")
        return (f"((length(low) - length(replace(low, '{e}', ''))) "
                f"// {len(g)})")

    scores = {lang: " + ".join(count(g) for g in grams)
              for lang, grams in _LANG_TRIGRAMS.items() if grams}
    best = "GREATEST(s_en, s_es, s_de, s_fr)"
    return f"""
        WITH b AS (SELECT doc_id, lower(text) AS low FROM documents),
        sc AS (
          SELECT doc_id,
                 {scores['en']} AS s_en,
                 {scores['es']} AS s_es,
                 {scores['de']} AS s_de,
                 {scores['fr']} AS s_fr,
                 regexp_matches(substr(low, 1, 200),
                                '[\\x{{4e00}}-\\x{{9fff}}]') AS cjk,
                 length(low) AS L
          FROM b)
        SELECT doc_id,
               CASE WHEN cjk THEN 'zh'
                    WHEN s_en >= s_es AND s_en >= s_de AND s_en >= s_fr
                        THEN 'en'
                    WHEN s_es >= s_de AND s_es >= s_fr THEN 'es'
                    WHEN s_de >= s_fr THEN 'de'
                    ELSE 'fr' END AS lang_pred,
               CASE WHEN cjk THEN CAST(1.0 AS DOUBLE)
                    ELSE LEAST(CAST(1.0 AS DOUBLE),
                               CAST({best} AS DOUBLE)
                                   / GREATEST(L // 3, 1)) END AS lang_conf
        FROM sc
    """


def _signatures_sql() -> str:
    from uniparser_ray.stages.tokenhash import SIMHASH_SEED
    return f"""
        WITH {_TOK_CTES},
        {_sh_cte()},
        {_params_cte("sp", 64, SIMHASH_SEED)},
        {_simhash_ctes()},
        {_roll_ctes()}
        SELECT d.doc_id,
               COALESCE(f.fp_rolling, 0) AS fp_rolling,
               COALESCE(s.simhash, 0) AS simhash
        FROM documents d
        LEFT JOIN fp f ON f.doc_id = d.doc_id
        LEFT JOIN simh s ON s.doc_id = d.doc_id
    """


def _simhash_pairs_sql(max_hamming: int = 6) -> str:
    """Simhash near-dup pairs — mirrors the pipeline's candidate rule
    exactly: a pair is reported iff it shares at least one 16-bit
    signature block (pigeonhole bucketing; complete for distance <= 3,
    best-effort above) AND Hamming distance <= max_hamming."""
    from uniparser_ray.stages.tokenhash import SIMHASH_SEED
    ham = "bit_count(xor(a.simhash, b.simhash))"
    return f"""
        WITH {_TOK_CTES},
        {_sh_cte()},
        {_params_cte("sp", 64, SIMHASH_SEED)},
        {_simhash_ctes()},
        simh_all AS (
          -- shingle-less docs (empty/whitespace text) sign as 0 in the
          -- pipeline and must pair here too
          SELECT d.doc_id, COALESCE(s.simhash, 0) AS simhash
          FROM documents d LEFT JOIN simh s ON s.doc_id = d.doc_id)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, {ham} AS hamming
        FROM simh_all a JOIN simh_all b ON b.doc_id > a.doc_id
        WHERE {ham} <= {max_hamming}
          AND ({_blocks_pred('a.simhash', 'b.simhash')})
    """


def _minhash_pairs_sql(threshold: float = 0.6) -> str:
    """MinHash+LSH near-dup pairs: 64-perm signatures, 16 bands of 4,
    banded candidate generation, exact-jaccard verify over the 62-bit
    distinct shingle sets — value-identical to the Ray pipeline."""
    from uniparser_ray.stages.tokenhash import MINHASH_SEED
    band_fold = _horner_sql(["vs[1]", "vs[2]", "vs[3]", "vs[4]"])
    jac = "CAST(s.n AS DOUBLE) / (ca.c + cb.c - s.n)"
    return f"""
        WITH {_TOK_CTES},
        {_sh_cte(with62=True)},
        {_params_cte("mp", 64, MINHASH_SEED)},
        sig AS (
          SELECT sh.doc_id, mp.i AS i,
                 MIN((mp.a * sh.s + mp.b) % {_P}) AS v
          FROM sh, mp GROUP BY 1, 2),
        bandl AS (
          SELECT doc_id, i // 4 AS band_id, list(v ORDER BY i) AS vs
          FROM sig GROUP BY 1, 2),
        band AS (SELECT doc_id, band_id, {band_fold} AS bh FROM bandl),
        cand AS (
          SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
          FROM band x JOIN band y
            ON x.band_id = y.band_id AND x.bh = y.bh
               AND y.doc_id > x.doc_id),
        shset AS (SELECT DISTINCT doc_id, s62 FROM sh),
        cnt AS (SELECT doc_id, COUNT(*) AS c FROM shset GROUP BY 1),
        shared AS (
          SELECT c.doc_a, c.doc_b, COUNT(*) AS n
          FROM cand c
          JOIN shset a ON a.doc_id = c.doc_a
          JOIN shset b ON b.doc_id = c.doc_b AND b.s62 = a.s62
          GROUP BY 1, 2)
        SELECT s.doc_a, s.doc_b, {jac} AS jaccard_sim
        FROM shared s
        JOIN cnt ca ON ca.doc_id = s.doc_a
        JOIN cnt cb ON cb.doc_id = s.doc_b
        WHERE {jac} >= {threshold}
    """


def _embedding_lsh_sql(threshold: float = 0.35, num_planes: int = 8,
                       seed: int = 42) -> str:
    """Random-hyperplane LSH near-dup: the seeded plane matrix is
    embedded as literals; bucket = packed sign bits of the inner
    products; in-bucket pairs verified by exact cosine."""
    planes = _hyperplanes_sql(64, num_planes, seed)
    bucket = " + ".join(
        f"(CASE WHEN list_inner_product(CAST(embedding AS DOUBLE[]), "
        f"{planes[j]}) > 0 THEN {1 << j} ELSE 0 END)"
        for j in range(num_planes))
    cos = ("list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
           "CAST(b.embedding AS DOUBLE[]))")
    return f"""
        WITH sig AS (
          SELECT vec_id, embedding, {bucket} AS bucket FROM embeddings)
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               ROUND({cos}, 6) AS cosine_sim
        FROM sig a JOIN sig b
          ON a.bucket = b.bucket AND b.vec_id > a.vec_id
        WHERE {cos} >= {threshold}
    """


import functools


@functools.lru_cache(maxsize=48)
def _expected_table(kind: str, tag: str) -> pa.Table:
    """One expected table per (kind, sf tag), memoized INDEPENDENTLY so
    e.g. fetching the audio oracle never triggers the (seconds-long)
    BFS oracle crawl that only crawl_images needs."""
    from uniparser_ray.pipelines.images_q import (_AUDIO_BY_SF, _VIDEO_BY_SF,
                                                  expected_crawl_images,
                                                  expected_decode_stats,
                                                  expected_images_meta,
                                                  expected_thumbnails)
    from uniparser_ray.stages.multimodal import (expected_audio_features,
                                                 expected_video_frames)
    if kind == "meta":
        return expected_images_meta(tag)
    if kind == "decode":
        return expected_decode_stats(tag)
    if kind == "thumb":
        return expected_thumbnails(tag)
    if kind == "audio":
        return expected_audio_features(_AUDIO_BY_SF.get(tag, 200))
    if kind == "video":
        return expected_video_frames(_VIDEO_BY_SF.get(tag, 60), k=3)
    if kind == "shots":
        from uniparser_ray.stages.multimodal import expected_shot_rows
        return expected_shot_rows(_VIDEO_BY_SF.get(tag, 60))
    if kind == "crawlmetrics":
        from uniparser_ray.pipelines.images_q import \
            expected_crawl_round_metrics
        return expected_crawl_round_metrics(tag)
    if kind == "politeness":
        from uniparser_ray.pipelines.images_q import \
            expected_crawl_politeness_audit
        return expected_crawl_politeness_audit(tag)
    if kind == "pagelineage":
        from uniparser_ray.pipelines.images_q import \
            expected_crawl_page_lineage
        return expected_crawl_page_lineage(tag)
    if kind == "lineage":
        from uniparser_ray.pipelines.images_q import \
            expected_crawl_image_lineage
        return expected_crawl_image_lineage(tag)
    if kind == "vad":
        from uniparser_ray.pipelines.images_q import _AUDIO_BY_SF as _A
        from uniparser_ray.stages.multimodal import expected_vad_segments
        return expected_vad_segments(_A.get(tag, 200))
    if kind == "crawl":
        return expected_crawl_images(tag)
    if kind == "sizes":
        from uniparser_ray.pipelines.images_q import expected_images_sizes
        return expected_images_sizes(tag)
    if kind == "sitemap":
        from uniparser_ray.pipelines.crawl_q import expected_sitemap_rows
        return expected_sitemap_rows(tag)
    if kind == "sitemap_seed":
        from uniparser_ray.pipelines.crawl_q import expected_sitemap_seed
        return expected_sitemap_seed(tag)
    if kind == "redirects":
        from uniparser_ray.pipelines.crawl_q import expected_crawl_redirects
        return expected_crawl_redirects(tag)
    if kind == "psnr":
        from uniparser_ray.pipelines.images_q import expected_images_psnr
        return expected_images_psnr(tag)
    if kind == "sitemap_recrawl":
        from uniparser_ray.pipelines.crawl_q import expected_sitemap_recrawl
        return expected_sitemap_recrawl(tag)
    if kind == "recrawl":
        from uniparser_ray.pipelines.crawl_q import expected_recrawl_delta
        return expected_recrawl_delta(tag)
    if kind == "robots_rfc":
        from uniparser_ray.pipelines.crawl_q import expected_robots_rfc
        return expected_robots_rfc(tag)
    if kind == "trap":
        from uniparser_ray.pipelines.crawl_q import expected_trap_guard
        return expected_trap_guard(tag)
    if kind == "hostban":
        from uniparser_ray.pipelines.crawl_q import expected_host_ban
        return expected_host_ban(tag)
    from uniparser_ray.pipelines.graph import (expected_components,
                                               expected_host_degrees,
                                               expected_pagerank)
    if kind == "pagerank":
        return expected_pagerank(tag)
    if kind == "hits":
        from uniparser_ray.pipelines.graph import expected_hits
        return expected_hits(tag)
    if kind == "components":
        return expected_components(tag)
    if kind == "triangles":
        from uniparser_ray.pipelines.graph import expected_triangles
        return expected_triangles(tag)
    if kind == "hostdeg":
        return expected_host_degrees(tag)
    if kind == "seedhops":
        from uniparser_ray.pipelines.graph import expected_seed_hops
        return expected_seed_hops(tag)
    raise KeyError(kind)


def _aspect_bucket_values() -> str:
    """The ASPECT_BUCKETS list as SQL VALUES rows with the SAME integer
    ar keys the Ray side compares on (bit-exact argmin)."""
    from uniparser_ray.pipelines.images_q import _AR_SCALE, ASPECT_BUCKETS
    return ", ".join(
        f"({i}, '{name}', {(_AR_SCALE * n) // d})"
        for i, (name, n, d) in enumerate(ASPECT_BUCKETS))


def _multimodal_oracle_thunks(tag: str) -> dict:
    """Value-checked oracles for the binary-payload pipelines: the
    expected rows come from INDEPENDENT computations (the generator's
    source pixel/sample arrays before any encoding; the single-process
    conformance crawler for the crawl) embedded as VALUES literals, so
    the compare proves the byte-level decode paths end-to-end while
    the oracle stays a plain SQL string.  Returned as THUNKS — each
    expected table build costs up to seconds, so it runs only when
    that query's oracle is actually fetched."""
    ham = "bit_count(xor(a.phash, b.phash))"

    def meta():
        return _values_cte("m", _expected_table("meta", tag))

    return {
        "images_decode_stats": lambda: f"""
            WITH {_values_cte('e', _expected_table('decode', tag))}
            SELECT image_id, mean_pixel, phash_ok, wh_ok FROM e
        """,
        "images_thumbnails": lambda: f"""
            WITH {_values_cte('e', _expected_table('thumb', tag))}
            SELECT image_id, thumb_md5 FROM e
        """,
        "caption_token_stats": lambda: f"""
            WITH {meta()}
            SELECT image_id,
                   len(string_split(caption, ' ')) AS n_tokens,
                   length(caption) AS n_chars
            FROM m
        """,
        # the CTE named `documents` SHADOWS the registered view inside
        # this query, so the text family's tokenhash/simhash CTEs apply
        # verbatim to the caption column
        "images_caption_align": lambda: f"""
            WITH {meta()},
            documents AS (SELECT image_id AS doc_id, caption AS text
                          FROM m),
            {_TOK_CTES},
            {_sh_cte()},
            {_params_cte("sp", 64, _simhash_seed())},
            {_simhash_ctes()}
            SELECT m.image_id,
                   COALESCE(s.simhash, 0) AS cap_simhash,
                   bit_count(xor(m.phash, COALESCE(s.simhash, 0)))
                       AS hamming,
                   CAST(bit_count(xor(m.phash, COALESCE(s.simhash, 0)))
                        <= {_ALIGN_MAX_HAMMING()} AS BIGINT) AS aligned
            FROM m LEFT JOIN simh s ON s.doc_id = m.image_id
        """,
        "images_hard_negatives": lambda: f"""
            WITH {meta()},
            documents AS (SELECT image_id AS doc_id, caption AS text
                          FROM m),
            {_TOK_CTES},
            {_sh_cte()},
            {_params_cte("sp", 64, _simhash_seed())},
            {_simhash_ctes()},
            caps AS (SELECT m.image_id AS cap_id,
                            COALESCE(s.simhash, 0) AS sim
                     FROM m LEFT JOIN simh s ON s.doc_id = m.image_id),
            anchors AS (
              SELECT image_id AS anchor_id, phash FROM m
              WHERE ('0x' || substr(md5(image_id), 1, 15))::BIGINT
                      % 2147483647 % {_HARDNEG_MOD()} = 0),
            scored AS (
              SELECT a.anchor_id, c.cap_id AS neg_image_id,
                     bit_count(xor(a.phash, c.sim)) AS hamming
              FROM anchors a JOIN caps c ON c.cap_id <> a.anchor_id)
            SELECT anchor_id, neg_image_id,
                   CAST(hamming AS BIGINT) AS hamming,
                   CAST(rn AS BIGINT) AS rank
            FROM (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY anchor_id
                      ORDER BY hamming, neg_image_id) AS rn
                  FROM scored)
            WHERE rn <= {_HARDNEG_K()}
        """,
        # cross-modal decontamination: benchmark shingles from the
        # REAL documents view, caption shingles from a renamed CTE
        # stack (DuckDB shadows a view for the whole WITH clause, so
        # the two stacks must not share names)
        "caption_decontaminate": lambda: f"""
            WITH {meta()},
            {_TOK_CTES},
            {_sh_cte()},
            bench AS (SELECT DISTINCT s FROM sh
                      WHERE doc_id % {DECONTAM_MOD_SQL} = 0),
            caps AS (SELECT image_id AS doc_id, caption AS text FROM m),
            {_tok_ctes(src='caps', p='c')},
            {_sh_cte(p='c')},
            per AS (SELECT csh.doc_id AS image_id,
                           CAST(COUNT(*) AS BIGINT) AS ns,
                           CAST(SUM(CASE WHEN b.s IS NOT NULL
                                    THEN 1 ELSE 0 END) AS BIGINT) AS nc
                    FROM csh LEFT JOIN bench b ON csh.s = b.s
                    GROUP BY 1)
            SELECT m.image_id,
                   COALESCE(ns, 0) AS n_shingles,
                   COALESCE(nc, 0) AS n_contaminated,
                   CAST(COALESCE(nc, 0) > 0 AS BIGINT) AS contaminated
            FROM m LEFT JOIN per ON per.image_id = m.image_id
        """,
        # binary-code KNN: same md5-residue probe rule as the Ray
        # side's hash31 sample; ties by (hamming, neighbor_id)
        "images_phash_ann": lambda: f"""
            WITH {meta()},
            q AS (SELECT image_id AS query_id, phash AS qph FROM m
                  WHERE ('0x' || substr(md5(image_id), 1, 15))::BIGINT
                          % 2147483647 % {_PHASH_ANN_MOD()} = 0),
            scored AS (
              SELECT q.query_id, c.image_id AS neighbor_id,
                     bit_count(xor(q.qph, c.phash)) AS hamming
              FROM q JOIN m c ON c.image_id <> q.query_id)
            SELECT query_id, neighbor_id,
                   CAST(hamming AS BIGINT) AS hamming,
                   CAST(rn AS BIGINT) AS rank
            FROM (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY query_id
                      ORDER BY hamming, neighbor_id) AS rn
                  FROM scored)
            WHERE rn <= {_PHASH_ANN_K()}
        """,
        "images_neardup_phash": lambda: f"""
            WITH {meta()}
            SELECT a.image_id AS image_a, b.image_id AS image_b,
                   {ham} AS hamming
            FROM m a JOIN m b ON b.image_id > a.image_id
            WHERE {ham} <= 8 AND ({_blocks_pred('a.phash', 'b.phash')})
        """,
        "images_dedup_clusters": lambda: f"""
            WITH RECURSIVE {meta()},
            pairs AS (
              SELECT a.image_id AS x, b.image_id AS y
              FROM m a JOIN m b ON b.image_id > a.image_id
              WHERE {ham} <= 8 AND ({_blocks_pred('a.phash', 'b.phash')})
            ),
            und AS (SELECT x, y FROM pairs
                    UNION SELECT y, x FROM pairs),
            reach(id, r) AS (
              SELECT image_id, image_id FROM m
              UNION
              SELECT u.y, reach.r
              FROM reach JOIN und u ON u.x = reach.id
            )
            SELECT id AS image_id, MIN(r) AS cluster,
                   id = MIN(r) AS keep
            FROM reach GROUP BY id
        """,
        "images_curation": lambda: _images_curation_sql(tag),
        "crawl_images_curation": lambda: _images_curation_sql(
            tag, meta_kind="crawl"),
        # the twin reads the crawl's checkpoint parquet directly, so
        # the WET files (the Ray side) and the parquet (the source)
        # are independent serializations compared by value
        "crawl_wet_roundtrip": lambda: f"""
            SELECT url, CAST(status AS BIGINT) AS status,
                   md5(COALESCE(result_json, '')) AS content_md5
            FROM read_parquet('{_crawl_pages_glob(tag)}')
        """,
        # twin input = the UNINTERRUPTED harness run's checkpoints;
        # the Ray side re-crawls the same web interrupted-at-round-2
        # then resumed — equality pins checkpoint-resume fidelity
        # including the per-round schedule (round rides the compare)
        "crawl_resume_roundtrip": lambda: f"""
            SELECT url, CAST(round AS BIGINT) AS round,
                   CAST(status AS BIGINT) AS status,
                   md5(COALESCE(result_json, '')) AS content_md5
            FROM read_parquet('{_crawl_pages_glob(tag)}',
                              hive_partitioning = 1)
        """,
        # twin = per-sample 6-bit quantization error computed straight
        # from the source pixels + framing arithmetic (independent of
        # the codec's pack/unpack); the >=40dB verdict is exact integer
        # cross-multiplication, derived in SQL
        "images_psnr_audit": lambda: f"""
            WITH {_values_cte('e', _expected_table('psnr', tag))}
            SELECT image_id, w, h, nbytes, sse,
                   CAST(65025 * CAST(w AS BIGINT) * h * 3
                        >= 10000 * CAST(sse AS BIGINT) AS BIGINT)
                       AS psnr_ge40
            FROM e
        """,
        # twin = the sequential BFSOracle with the same per-host error
        # budget: equality pins that bans fire at exactly the right
        # round and prune exactly the right frontier rows
        "crawl_host_ban": lambda: f"""
            WITH {_values_cte('e', _expected_table('hostban', tag))}
            SELECT url, round, status FROM e
        """,
        # twin = the sequential BFSOracle with the same spider-trap
        # guards (consecutive path-repeat bound): equality proves the
        # /trap/x/x/... chain is cut exactly at the bound without
        # perturbing the rest of the schedule
        "crawl_trap_guard": lambda: f"""
            WITH {_values_cte('e', _expected_table('trap', tag))}
            SELECT url, round, depth, status FROM e
        """,
        # twin = the sequential conformance crawler reading the same
        # wildcard-robots web with its own RFC 9309 reader (wildcards,
        # $ anchors, Allow precedence, UA group selection); the
        # compare pins the full fetch schedule
        "crawl_robots_rfc": lambda: f"""
            WITH {_values_cte('e', _expected_table('robots_rfc', tag))}
            SELECT url, round, status FROM e
        """,
        # twin = pure freshness arithmetic (which pages changed at
        # epoch 1 is a deterministic function of (h, p)) + the epoch-1
        # render hashed generator-side; what the compare tests is the
        # conditional-GET chain: If-None-Match send, 304 vs 200
        # branch, validator bump, body decode+hash
        "crawl_recrawl_delta": lambda: f"""
            WITH {_values_cte('e', _expected_table('recrawl', tag))}
            SELECT url, recrawl_status, changed, new_etag, content_md5
            FROM e
        """,
        # twin = pure arithmetic: crawled-200 INTERSECT sitemap rows
        # whose advertised lastmod moved past the crawl horizon (the
        # generator couples lastmod to the revision model exactly);
        # what the compare tests is the ingest -> lastmod filter ->
        # url join -> conditional-GET chain AND that the engine
        # fetches ONLY the flagged slice (cardinality = the claim)
        "crawl_sitemap_recrawl": lambda: f"""
            WITH {_values_cte('e', _expected_table('sitemap_recrawl',
                                                   tag))}
            SELECT url, recrawl_status, changed, new_etag, content_md5
            FROM e
        """,
        # twin = the sequential BFSOracle's redirect model of the same
        # web (inline 301/302 chains, canonical-final dedup, loop -2,
        # robots-blocked hop -3) embedded as VALUES
        "crawl_redirects": lambda: f"""
            WITH {_values_cte('e', _expected_table('redirects', tag))}
            SELECT url, round, status, final_url, redirects, is_dup
            FROM e
        """,
        "crawl_url_canon": lambda: f"""
            WITH src AS (
              SELECT DISTINCT url
              FROM read_parquet('{_crawl_pages_glob(tag)}')),
            hp AS (
              SELECT url,
                     substr(substr(url, 8), 1,
                            strpos(substr(url, 8), '/') - 1) AS host,
                     substr(substr(url, 8),
                            strpos(substr(url, 8), '/')) AS path
              FROM src)
            SELECT url, CAST(0 AS BIGINT) AS variant_id,
                   url AS messy_url, url AS canon_url FROM hp
            UNION ALL
            SELECT url, 1, 'HTTP://' || upper(host) || ':80' || path,
                   url FROM hp
            UNION ALL
            SELECT url, 2, url || '?b=2&a=1&c=#frag',
                   url || '?a=1&b=2&c=' FROM hp
            UNION ALL
            SELECT url, 3, 'hTtP://' || host || path || '#sec',
                   url FROM hp
            UNION ALL
            SELECT url, 4, 'http://' || host, url FROM hp
            WHERE path = '/'
        """,
        "crawl_sitemap_ingest": lambda: f"""
            WITH {_values_cte('e', _expected_table('sitemap', tag))}
            SELECT host, sitemap_url, url, lastmod, priority_bp FROM e
        """,
        "crawl_sitemap_seed": lambda: f"""
            WITH {_values_cte('e', _expected_table('sitemap_seed', tag))}
            SELECT url, parent, depth, priority FROM e
        """,
        "images_wds_roundtrip": lambda: f"""
            SELECT image_id, md5(hex(bytes)) AS bytes_md5h,
                   CAST(octet_length(bytes) AS BIGINT) AS nbytes,
                   caption,
                   regexp_extract(filename, 'frag-([^/]+)[.]parquet', 1)
                       AS shard
            FROM read_parquet('{_images_frag_glob(tag)}', filename=true)
        """,
        "crawl_images_dedup_exact": lambda: f"""
            WITH {_values_cte('m', _expected_table('crawl', tag))}
            SELECT image_id, bytes_md5,
                   MIN(image_id) OVER (PARTITION BY bytes_md5)
                       AS keeper_id,
                   CAST(COUNT(*) OVER (PARTITION BY bytes_md5)
                        AS BIGINT) AS dup_count,
                   CAST(image_id = MIN(image_id) OVER (
                        PARTITION BY bytes_md5) AS BIGINT) AS keep
            FROM m
        """,
        "images_aspect_buckets": lambda: f"""
            WITH {meta()},
            b(idx, bname, ar) AS (SELECT * FROM (VALUES
              {_aspect_bucket_values()}) AS _b(idx, bname, ar))
            SELECT image_id, w, h, ar_key, bucket, keep FROM (
              SELECT m.image_id, CAST(m.w AS BIGINT) AS w,
                     CAST(m.h AS BIGINT) AS h,
                     (1000000 * m.w) // m.h AS ar_key,
                     b.bname AS bucket,
                     (m.w >= 32 AND m.h >= 32
                      AND (1000000 * m.w) // m.h BETWEEN 250000 AND 4000000)
                       AS keep,
                     ROW_NUMBER() OVER (
                       PARTITION BY m.image_id
                       ORDER BY abs((1000000 * m.w) // m.h - b.ar), b.idx)
                       AS rn
              FROM m CROSS JOIN b)
            WHERE rn = 1
        """,
        "images_bucket_shards": lambda: f"""
            WITH {meta()},
            {_values_cte('s', _expected_table('sizes', tag))},
            b(idx, bname, ar) AS (SELECT * FROM (VALUES
              {_aspect_bucket_values()}) AS _b(idx, bname, ar)),
            assigned AS (
              SELECT image_id, bucket FROM (
                SELECT m.image_id, b.bname AS bucket,
                       ROW_NUMBER() OVER (
                         PARTITION BY m.image_id
                         ORDER BY abs((1000000 * m.w) // m.h - b.ar),
                                  b.idx) AS rn
                FROM m CROSS JOIN b) WHERE rn = 1)
            SELECT a.image_id, a.bucket, s.nbytes,
                   CAST(COALESCE(SUM(s.nbytes) OVER (
                     PARTITION BY a.bucket ORDER BY a.image_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                     0) AS BIGINT) // 131072 AS shard
            FROM assigned a JOIN s USING (image_id)
        """,
        "images_shard_pack": lambda: f"""
            WITH {_values_cte('s', _expected_table('sizes', tag))}
            SELECT image_id, nbytes,
                   CAST(COALESCE(SUM(nbytes) OVER (
                     ORDER BY image_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                     0) AS BIGINT) // 262144 AS shard
            FROM s
        """,
        "audio_features": lambda: f"""
            WITH {_values_cte('e', _expected_table('audio', tag))}
            SELECT clip_id, duration_s, rms, zcr, peak FROM e
        """,
        "video_frames": lambda: f"""
            WITH {_values_cte('e', _expected_table('video', tag))}
            SELECT video_id, frame_index, frame_md5, t_seconds FROM e
        """,
        "audio_vad_segments": lambda: f"""
            WITH {_values_cte('e', _expected_table('vad', tag))}
            SELECT clip_id, seg_index, start_win, n_windows, active,
                   energy_sum
            FROM e
        """,
        "video_shot_boundaries": lambda: f"""
            WITH {_values_cte('e', _expected_table('shots', tag))}
            SELECT video_id, frame_index, sad, is_boundary, shot_id,
                   is_keyframe
            FROM e
        """,
        "crawl_round_metrics": lambda: f"""
            WITH {_values_cte('e', _expected_table('crawlmetrics', tag))}
            SELECT round, granted, pages_ok, images_written FROM e
        """,
        "crawl_image_lineage": lambda: f"""
            WITH {_values_cte('e', _expected_table('lineage', tag))}
            SELECT image_id, round FROM e
        """,
        "crawl_politeness_audit": lambda: f"""
            WITH {_values_cte('e', _expected_table('politeness', tag))}
            SELECT host, n_fetches, n_rounds, max_round_fetches,
                   budget_ok FROM e
        """,
        "crawl_page_lineage": lambda: f"""
            WITH {_values_cte('e', _expected_table('pagelineage', tag))}
            SELECT url, round, parent, depth, status FROM e
        """,
        "crawl_images": lambda: f"""
            WITH {_values_cte('e', _expected_table('crawl', tag))}
            SELECT image_id, w, h, fmt, caption, phash, bytes_md5 FROM e
        """,
        # link-graph oracles: expected rows from the STRUCTURAL edge
        # derivation (SynthWeb's pure link functions + single-process
        # numpy power iteration / union-find — independent of the rule
        # VM, the DOM engine, and the BSP actors)
        "web_pagerank": lambda: f"""
            WITH {_values_cte('e', _expected_table('pagerank', tag))}
            SELECT url, pr_score FROM e
        """,
        "web_hits": lambda: f"""
            WITH {_values_cte('e', _expected_table('hits', tag))}
            SELECT url, auth, hub FROM e
        """,
        "web_components": lambda: f"""
            WITH {_values_cte('e', _expected_table('components', tag))}
            SELECT component, n_pages FROM e
        """,
        "web_triangles": lambda: f"""
            WITH {_values_cte('e', _expected_table('triangles', tag))}
            SELECT n_nodes, n_edges, n_wedges, n_triangles, transitivity
            FROM e
        """,
        "web_host_degrees": lambda: f"""
            WITH {_values_cte('e', _expected_table('hostdeg', tag))}
            SELECT host, pages_ok, edges_out, cross_out, edges_in FROM e
        """,
        "web_seed_hops": lambda: f"""
            WITH {_values_cte('e', _expected_table('seedhops', tag))}
            SELECT hops, n_pages FROM e
        """,
    }


# NOTE: the multimodal entries are built through thunks + the per-kind
# lru_cache above rather than a lazy dict: a dict subclass with
# placeholder values would silently hand ``None`` oracles to any caller
# using the C-level copy paths (``dict(d)`` / ``{**d}``), and the
# correctness gate matters more than saving the one-time ~4 s build.
# Repeat oracle_sql() calls in a process are cheap (memoized tables).




def _repetition_sql() -> str:
    """Gopher-style repetition signals: identical token-id distinct
    structure as the numpy path (both count tokenhash 31-bit ids),
    fractions are exact-int/exact-int double divisions, flag is
    integer cross-multiplication — no float comparisons."""
    return f"""
            WITH {_TOK_CTES},
            tok AS (SELECT doc_id, unnest(h) AS tid FROM ids),
            cnt AS (SELECT doc_id, tid, COUNT(*) AS c
                    FROM tok GROUP BY 1, 2),
            agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n,
                           CAST(COUNT(*) AS BIGINT) AS nd,
                           CAST(MAX(c) AS BIGINT) AS topc
                    FROM cnt GROUP BY 1)
            SELECT d.doc_id,
                   COALESCE(n, 0) AS n_tokens,
                   COALESCE(nd, 0) AS n_distinct,
                   COALESCE(topc, 0) AS top_tf,
                   CASE WHEN COALESCE(n, 0) = 0 THEN 0.0
                        ELSE (n - nd) * 1.0 / n END AS dup_frac,
                   CASE WHEN COALESCE(n, 0) = 0 THEN 0.0
                        ELSE topc * 1.0 / n END AS top_frac,
                   CAST(5 * COALESCE(topc, 0) > COALESCE(n, 0)
                        OR 5 * (COALESCE(n, 0) - COALESCE(nd, 0))
                            > 4 * COALESCE(n, 0) AS BIGINT) AS repetitive
            FROM documents d LEFT JOIN agg USING (doc_id)
    """


def _perplexity_sql() -> str:
    """Unigram-LM surprisal twin: length(bin(x))-1 == floor(log2 x)
    exactly (bin() is minimal-width); the +1s cancel in the
    difference."""
    return f"""
            WITH {_TOK_CTES},
            pos AS (SELECT doc_id, unnest(h) AS tid FROM ids),
            tot AS (SELECT tid, COUNT(*) AS c FROM pos GROUP BY 1),
            n AS (SELECT GREATEST(COUNT(*), 1) AS nt FROM pos),
            per AS (
              SELECT doc_id, COUNT(*) AS n_tokens,
                     SUM(length(bin(nt)) - length(bin(c))) AS sum_bits
              FROM pos JOIN tot USING (tid) CROSS JOIN n GROUP BY 1)
            SELECT d.doc_id,
                   CAST(COALESCE(p.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(COALESCE(p.sum_bits, 0) AS BIGINT) AS sum_bits,
                   CAST(CASE WHEN COALESCE(p.n_tokens, 0) > 0
                        THEN (1000 * p.sum_bits) // p.n_tokens
                        ELSE 0 END AS BIGINT) AS mean_millibits
            FROM documents d LEFT JOIN per p USING (doc_id)
        """


def _bigram_surprisal_sql() -> str:
    """Bigram-LM surprisal twin: same length(bin()) integer logs as
    the unigram twin; prefix counts = bigram rows grouped by v, so the
    P(w|v) floors are exact and the two engines agree bit-for-bit."""
    return f"""
            WITH {_TOK_CTES},
            big AS (
              SELECT doc_id, h[i] AS v, h[i + 1] AS w
              FROM ids, unnest(generate_series(1, n - 1)) AS u(i)
              WHERE n >= 2),
            btot AS (SELECT v, w, COUNT(*) AS cb FROM big GROUP BY 1, 2),
            ptot AS (SELECT v, COUNT(*) AS cp FROM big GROUP BY 1),
            per AS (
              SELECT doc_id, COUNT(*) AS n_bigrams,
                     SUM(length(bin(cp)) - length(bin(cb))) AS sum_bits
              FROM big JOIN btot USING (v, w) JOIN ptot USING (v)
              GROUP BY 1)
            SELECT d.doc_id,
                   CAST(COALESCE(p.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(p.sum_bits, 0) AS BIGINT) AS sum_bits,
                   CAST(CASE WHEN COALESCE(p.n_bigrams, 0) > 0
                        THEN (1000 * p.sum_bits) // p.n_bigrams
                        ELSE 0 END AS BIGINT) AS mean_millibits
            FROM documents d LEFT JOIN per p USING (doc_id)
        """


def _winnow_sql() -> str:
    """Winnowing twin: positional 3-gram CTE, window min over w
    consecutive grams via plain joins, rightmost tie by MAX(i) among
    the grams equal to the window min, deduped to the fingerprint
    set.  Short docs (< w grams) winnow one all-grams window — the
    BETWEEN bound simply truncates at the gram count."""
    from uniparser_ray.pipelines.documents import WINNOW_W
    h3 = _horner_sql(["h[i]", "h[i+1]", "h[i+2]"], _HB)
    short = (f"CASE WHEN n = 1 THEN h[1] "
             f"ELSE ({_horner_sql(['h[1]', 'h[2]'], _HB)}) END")
    span = WINNOW_W - 1
    return f"""
            WITH {_TOK_CTES},
            grams AS (
              SELECT doc_id, i, {h3} AS s
              FROM ids, unnest(generate_series(1, n - 2)) AS u(i)
              WHERE n >= 3
              UNION ALL
              SELECT doc_id, 1 AS i, {short} AS s
              FROM ids WHERE n IN (1, 2)),
            cnt AS (SELECT doc_id, COUNT(*) AS c FROM grams GROUP BY 1),
            wins AS (SELECT g.doc_id, g.i AS ws
                     FROM grams g JOIN cnt USING (doc_id)
                     WHERE g.i <= GREATEST(1, c - {span})),
            sel AS (SELECT w.doc_id, w.ws, MIN(g.s) AS fp
                    FROM wins w JOIN grams g ON g.doc_id = w.doc_id
                     AND g.i BETWEEN w.ws AND w.ws + {span}
                    GROUP BY 1, 2),
            pick AS (SELECT s.doc_id, MAX(g.i) AS ipos, s.fp
                     FROM sel s JOIN grams g ON g.doc_id = s.doc_id
                      AND g.i BETWEEN s.ws AND s.ws + {span}
                      AND g.s = s.fp
                     GROUP BY s.doc_id, s.ws, s.fp)
            SELECT DISTINCT doc_id, CAST(ipos - 1 AS BIGINT) AS pos,
                   CAST(fp AS BIGINT) AS fp
            FROM pick
        """


def _countmin_sql() -> str:
    """Count-Min twin: the same affine (a, b) rows as VALUES literals,
    keys reduced mod P before hashing (int64-safe on both engines),
    point query = MIN over the d hashed cells."""
    from uniparser_ray.pipelines.stats import (CMS_DEPTH, CMS_SEED,
                                               CMS_WIDTH)
    return f"""
            WITH {_params_cte("cp", CMS_DEPTH, CMS_SEED)},
            ev AS (SELECT user_id, user_id % {_P} AS x FROM events),
            cells AS (
              SELECT cp.i, (cp.a * x + cp.b) % {_P} % {CMS_WIDTH} AS col,
                     COUNT(*) AS c
              FROM ev, cp GROUP BY 1, 2),
            tru AS (SELECT user_id, user_id % {_P} AS x,
                           CAST(COUNT(*) AS BIGINT) AS true_count
                    FROM events GROUP BY 1, 2),
            est AS (
              SELECT t.user_id, MIN(c.c) AS cms_estimate
              FROM tru t JOIN cp ON TRUE
              JOIN cells c ON c.i = cp.i
               AND c.col = (cp.a * t.x + cp.b) % {_P} % {CMS_WIDTH}
              GROUP BY 1)
            SELECT t.user_id, t.true_count,
                   CAST(e.cms_estimate AS BIGINT) AS cms_estimate,
                   CAST(e.cms_estimate - t.true_count AS BIGINT)
                       AS overestimate
            FROM tru t JOIN est e USING (user_id)
        """


def _doc_chunks_sql() -> str:
    """RAG chunking twin: windows via generate_series, the Horner
    content hash via a precomputed HB-power VALUES table — per-term
    products accumulate as HUGEINT before the mod, matching the numpy
    per-term-mod + small-sum path exactly."""
    from uniparser_ray.pipelines.documents import CHUNK_S, CHUNK_W
    p = 1
    powers = []
    for j in range(CHUNK_W):
        powers.append(f"({j}, {p})")
        p = (p * _HB) % _P
    return f"""
            WITH {_TOK_CTES},
            pw(j, p) AS (SELECT * FROM (VALUES {", ".join(powers)})
                         AS _p(j, p)),
            st AS (SELECT doc_id, h, n, s
                   FROM ids, unnest(generate_series(0, n - 1,
                                                    {CHUNK_S})) AS u(s)
                   WHERE n >= 1),
            terms AS (
              SELECT doc_id, s, LEAST({CHUNK_W}, n - s) AS wc,
                     h[s + jj + 1] AS tid, jj
              FROM st, unnest(generate_series(
                  0, LEAST({CHUNK_W}, n - s) - 1)) AS v(jj))
            SELECT doc_id,
                   CAST(s // {CHUNK_S} AS BIGINT) AS chunk_id,
                   CAST(s AS BIGINT) AS start_tok,
                   CAST(wc AS BIGINT) AS n_tokens,
                   CAST(SUM(CAST(tid AS HUGEINT) * p) % {_P}
                        AS BIGINT) AS chunk_hash
            FROM terms JOIN pw ON pw.j = wc - 1 - terms.jj
            GROUP BY doc_id, s, wc
        """


def _gopher_sql() -> str:
    """Composed Gopher keep/drop filter: the five rule thresholds as a
    violation bitmask, every comparison an integer cross-multiplication
    (mean-word-length in [3,10] ⟺ 3n ≤ Σ|w| ≤ 10n; alpha ≥ 0.6 ⟺
    5·alpha ≥ 3·chars) so the twin is bit-exact; bit 4 reuses the
    repetition CTE's tokenhash distinct structure."""
    return rf"""
            WITH {_TOK_CTES},
            tok AS (SELECT doc_id, unnest(h) AS tid FROM ids),
            cnt AS (SELECT doc_id, tid, COUNT(*) AS c
                    FROM tok GROUP BY 1, 2),
            rep AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n,
                           CAST(COUNT(*) AS BIGINT) AS nd,
                           CAST(MAX(c) AS BIGINT) AS topc
                    FROM cnt GROUP BY 1),
            base AS (
              SELECT doc_id,
                     CAST(length(regexp_extract_all(text, '\w+'))
                          AS BIGINT) AS n_words,
                     CAST(COALESCE(list_aggregate(list_transform(
                              regexp_extract_all(text, '\w+'),
                              w -> length(w)), 'sum'), 0)
                          AS BIGINT) AS sum_word_len,
                     CAST(length(regexp_extract_all(text, '[A-Za-z]'))
                          AS BIGINT) AS n_alpha,
                     CAST(length(text) AS BIGINT) AS n_chars,
                     CAST(length(list_filter(
                              regexp_extract_all(text, '\w+'),
                              w -> lower(w) IN ({_STOPWORDS_SQL})))
                          AS BIGINT) AS n_stop
              FROM documents),
            scored AS (
              SELECT b.doc_id, n_words, sum_word_len, n_alpha, n_chars,
                     n_stop,
                     CAST(CASE WHEN n_words < 5 THEN 1 ELSE 0 END
                        + CASE WHEN 3 * n_words > sum_word_len
                               OR sum_word_len > 10 * n_words
                               THEN 2 ELSE 0 END
                        + CASE WHEN 5 * n_alpha < 3 * n_chars
                               THEN 4 ELSE 0 END
                        + CASE WHEN n_stop < 2 THEN 8 ELSE 0 END
                        + CASE WHEN 5 * COALESCE(topc, 0) > COALESCE(n, 0)
                               OR 5 * (COALESCE(n, 0) - COALESCE(nd, 0))
                                   > 4 * COALESCE(n, 0)
                               THEN 16 ELSE 0 END AS BIGINT) AS violations
              FROM base b LEFT JOIN rep USING (doc_id))
            SELECT *, CAST(violations = 0 AS BIGINT) AS keep FROM scored
    """


def _decontaminate_sql() -> str:
    """Benchmark decontamination: held-out set = doc_id % MOD == 0;
    same 3-shingle hashes as the pipeline's tokenhash pass."""
    return f"""
            WITH {_TOK_CTES},
            {_sh_cte()},
            bench AS (SELECT DISTINCT s FROM sh
                      WHERE doc_id % {DECONTAM_MOD_SQL} = 0),
            per AS (SELECT sh.doc_id, CAST(COUNT(*) AS BIGINT) AS ns,
                           CAST(SUM(CASE WHEN b.s IS NOT NULL
                                    THEN 1 ELSE 0 END) AS BIGINT) AS nc
                    FROM sh LEFT JOIN bench b ON sh.s = b.s
                    WHERE sh.doc_id % {DECONTAM_MOD_SQL} <> 0
                    GROUP BY 1)
            SELECT d.doc_id,
                   COALESCE(ns, 0) AS n_shingles,
                   COALESCE(nc, 0) AS n_contaminated,
                   CAST(COALESCE(nc, 0) > 0 AS BIGINT) AS contaminated
            FROM documents d LEFT JOIN per USING (doc_id)
            WHERE d.doc_id % {DECONTAM_MOD_SQL} <> 0
    """


def _WATERMARK_LATENESS_US() -> int:
    from uniparser_ray.pipelines.stats import WATERMARK_LATENESS_US
    return WATERMARK_LATENESS_US


def _simhash_seed() -> int:
    from uniparser_ray.stages.tokenhash import SIMHASH_SEED
    return SIMHASH_SEED


def _HARDNEG_MOD() -> int:
    from uniparser_ray.pipelines.images_q import HARDNEG_ANCHOR_MOD
    return HARDNEG_ANCHOR_MOD


def _HARDNEG_K() -> int:
    from uniparser_ray.pipelines.images_q import HARDNEG_K
    return HARDNEG_K


def _PHASH_ANN_MOD() -> int:
    from uniparser_ray.pipelines.images_q import PHASH_ANN_QUERY_MOD
    return PHASH_ANN_QUERY_MOD


def _PHASH_ANN_K() -> int:
    from uniparser_ray.pipelines.images_q import PHASH_ANN_K
    return PHASH_ANN_K


def _ALIGN_MAX_HAMMING() -> int:
    from uniparser_ray.pipelines.images_q import ALIGN_MAX_HAMMING
    return ALIGN_MAX_HAMMING


def _crawl_pages_glob(tag: str) -> str:
    """Ensure the shared harness crawl exists and return its pages
    checkpoint glob (the WET-roundtrip twin reads it directly)."""
    from uniparser_ray.pipelines.images_q import _ensure_crawl
    out, _ = _ensure_crawl(tag)
    return f"{out}/pages/round=*/*.parquet"


def _images_frag_glob(tag: str) -> str:
    """Ensure the shared synthetic image table exists and return its
    Lance fragment-parquet glob (the WDS-roundtrip twin reads the
    fragments directly — the independent serialization)."""
    from uniparser_ray.pipelines.images_q import images_lance_for
    table = images_lance_for(f"/root/testdata/{tag}")
    return f"{table.data_dir}/frag-*.parquet"


def _images_curation_sql(tag: str, meta_kind: str = "meta") -> str:
    """Composed curation twin: every bit recomputed in SQL — the
    recursive-CTE components for the dedup-keep bit, the simhash CTE
    stack for alignment, integer thresholds for shape/caption.
    ``meta_kind`` picks the image table: the generated one ("meta") or
    the conformance crawl's expected rows ("crawl" — the end-to-end
    crawl -> gate composition)."""
    from uniparser_ray.pipelines.images_q import (
        _AR_KEEP_HI, _AR_KEEP_LO, _QUALITY_MIN_SIDE, ALIGN_MAX_HAMMING,
        CUR_CAP_MAX_TOKENS, CUR_CAP_MIN_TOKENS)

    ham = "bit_count(xor(a.phash, b.phash))"
    meta_cte = _values_cte("m", _expected_table(meta_kind, tag))
    return f"""
        WITH RECURSIVE {meta_cte},
        pairs AS (
          SELECT a.image_id AS x, b.image_id AS y
          FROM m a JOIN m b ON b.image_id > a.image_id
          WHERE {ham} <= 8 AND ({_blocks_pred('a.phash', 'b.phash')})
        ),
        und AS (SELECT x, y FROM pairs UNION SELECT y, x FROM pairs),
        reach(id, r) AS (
          SELECT image_id, image_id FROM m
          UNION
          SELECT u.y, reach.r FROM reach JOIN und u ON u.x = reach.id),
        cc AS (SELECT id AS image_id,
                      CAST(id = MIN(r) AS BIGINT) AS cck
               FROM reach GROUP BY id),
        documents AS (SELECT image_id AS doc_id, caption AS text FROM m),
        {_TOK_CTES},
        {_sh_cte()},
        {_params_cte("sp", 64, _simhash_seed())},
        {_simhash_ctes()},
        scored AS (
          SELECT m.image_id,
                 CASE WHEN NOT (m.w >= {_QUALITY_MIN_SIDE}
                                AND m.h >= {_QUALITY_MIN_SIDE}
                                AND (1000000 * m.w) // m.h
                                    BETWEEN {_AR_KEEP_LO}
                                        AND {_AR_KEEP_HI})
                      THEN 1 ELSE 0 END
                 + CASE WHEN len(string_split(m.caption, ' '))
                             NOT BETWEEN {CUR_CAP_MIN_TOKENS}
                                     AND {CUR_CAP_MAX_TOKENS}
                        THEN 2 ELSE 0 END
                 + CASE WHEN bit_count(xor(m.phash,
                                           COALESCE(s.simhash, 0)))
                             > {ALIGN_MAX_HAMMING}
                        THEN 4 ELSE 0 END
                 + CASE WHEN cc.cck = 0 THEN 8 ELSE 0 END AS viol
          FROM m LEFT JOIN simh s ON s.doc_id = m.image_id
                 JOIN cc USING (image_id))
        SELECT image_id, CAST(viol AS BIGINT) AS viol,
               CAST(viol = 0 AS BIGINT) AS keep
        FROM scored
    """


def _kmeans_ctes(k: int = 8, iters: int = 2, dim: int = 64) -> str:
    """Nested-CTE twin of the integer-exact distributed Lloyd iterations
    (uniparser_ray/stages/kmeans.py): quantize -> (assign -> integer
    rounded-mean update) x iters -> final assign.  Every value is
    int64, so the argmin/centroid recursion is bit-identical."""
    from uniparser_ray.stages.kmeans import QUANT_OFFSET, QUANT_SCALE

    gs = f"generate_series(1, {dim})"
    d2 = (f"CAST(list_sum(list_transform({gs}, "
          f"i -> (q.v[i] - c.v[i]) * (q.v[i] - c.v[i]))) AS BIGINT)")
    parts = [f"""q AS (
      SELECT vec_id,
             list_transform(embedding, x ->
                 CAST(FLOOR(CAST(x AS DOUBLE) * {QUANT_SCALE} + 0.5)
                      AS BIGINT) + {QUANT_OFFSET}) AS v
      FROM embeddings),
    c0 AS (SELECT vec_id AS j, v FROM q WHERE vec_id < {k})"""]
    for t in range(iters + 1):
        parts.append(f"""d{t} AS (
      SELECT q.vec_id, c.j, {d2} AS d2 FROM q, c{t} c),
    a{t} AS (
      SELECT vec_id, j AS cluster, d2 FROM (
        SELECT *, ROW_NUMBER() OVER (
            PARTITION BY vec_id ORDER BY d2, j) AS rk FROM d{t})
      WHERE rk = 1)""")
        if t == iters:
            break
        parts.append(f"""u{t} AS (
      SELECT a.cluster AS j, i, CAST(SUM(q.v[i]) AS BIGINT) AS s,
             COUNT(*) AS n
      FROM a{t} a JOIN q USING (vec_id),
           unnest({gs}) AS u_(i)
      GROUP BY 1, 2),
    c{t + 1} AS (
      SELECT j, list((2 * s + n) // (2 * n) ORDER BY i) AS v
      FROM u{t} GROUP BY j
      UNION ALL
      SELECT j, v FROM c{t} WHERE j NOT IN (SELECT j FROM u{t}))""")
    return ",\n    ".join(parts)


def _pq_kmeans_ctes(s: int, lo: int, ksub: int, iters: int,
                    sd: int) -> str:
    """Per-SUBSPACE twin of ``_kmeans_ctes``: the same integer Lloyd
    recursion over the slice embedding[lo+1 .. lo+sd], CTE names
    suffixed _{s} so all subspaces coexist in one WITH."""
    from uniparser_ray.stages.kmeans import QUANT_OFFSET, QUANT_SCALE

    gs = f"generate_series(1, {sd})"
    d2 = (f"CAST(list_sum(list_transform({gs}, "
          f"i -> (q.v[i] - c.v[i]) * (q.v[i] - c.v[i]))) AS BIGINT)")
    x = f"_{s}"
    # AS MATERIALIZED: without it DuckDB inlines every CTE reference,
    # and the Lloyd recursion x nsub subspaces x the 8-way adc join
    # explodes the plan search combinatorially (the single-space
    # k-means oracle survives inlining; eight coexisting chains do not)
    parts = [f"""q{x} AS MATERIALIZED (
      SELECT vec_id,
             list_transform(generate_series({lo + 1}, {lo + sd}), i ->
                 CAST(FLOOR(CAST(embedding[i] AS DOUBLE) * {QUANT_SCALE}
                      + 0.5) AS BIGINT) + {QUANT_OFFSET}) AS v
      FROM embeddings),
    c0{x} AS MATERIALIZED (
      SELECT vec_id AS j, v FROM q{x} WHERE vec_id < {ksub})"""]
    for t in range(iters + 1):
        parts.append(f"""d{t}{x} AS MATERIALIZED (
      SELECT q.vec_id, c.j, {d2} AS d2 FROM q{x} q, c{t}{x} c),
    a{t}{x} AS MATERIALIZED (
      SELECT vec_id, j AS cluster, d2 FROM (
        SELECT *, ROW_NUMBER() OVER (
            PARTITION BY vec_id ORDER BY d2, j) AS rk FROM d{t}{x})
      WHERE rk = 1)""")
        if t == iters:
            break
        parts.append(f"""u{t}{x} AS MATERIALIZED (
      SELECT a.cluster AS j, i, CAST(SUM(q.v[i]) AS BIGINT) AS s,
             COUNT(*) AS n
      FROM a{t}{x} a JOIN q{x} q USING (vec_id),
           unnest({gs}) AS u_(i)
      GROUP BY 1, 2),
    c{t + 1}{x} AS MATERIALIZED (
      SELECT j, list((2 * s + n) // (2 * n) ORDER BY i) AS v
      FROM u{t}{x} GROUP BY j
      UNION ALL
      SELECT j, v FROM c{t}{x} WHERE j NOT IN (SELECT j FROM u{t}{x}))""")
    return ",\n    ".join(parts)


def _pq_distortion_sql(nsub: int = 8, ksub: int = 16, iters: int = 2,
                       dim: int = 64) -> str:
    """PQ distortion twin: the per-subspace Lloyd recursion's final
    assign CTEs already carry each vector's assigned-centroid d2 —
    total reconstruction error = their sum across subspaces."""
    sd = dim // nsub
    ctes = ",\n    ".join(_pq_kmeans_ctes(s, s * sd, ksub, iters, sd)
                          for s in range(nsub))
    joins = " ".join(f"JOIN a{iters}_{s} s{s} USING (vec_id)"
                     for s in range(1, nsub))
    total = " + ".join(f"s{s}.d2" for s in range(nsub))
    return f"""
        WITH {ctes}
        SELECT s0.vec_id, CAST({total} AS BIGINT) AS dist2
        FROM a{iters}_0 s0 {joins}
    """


def _pq_sql(nsub: int = 8, ksub: int = 16, iters: int = 2, k: int = 10,
            dim: int = 64, nq: int = 5, shortlist: int = 50) -> str:
    """PQ/ADC+re-rank twin: per-subspace Lloyd codebooks (replayed
    like the k-means oracle), codes = final assigns, per-query LUTs =
    exact integer L2 from the query's subvector to each codebook
    entry, ADC = sum of the code-indexed LUT entries, top-``shortlist``
    per query re-scored by the exact quantized full-vector L2."""
    from uniparser_ray.stages.kmeans import QUANT_OFFSET, QUANT_SCALE

    sd = dim // nsub
    gs = f"generate_series(1, {sd})"
    ctes = ",\n    ".join(_pq_kmeans_ctes(s, s * sd, ksub, iters, sd)
                          for s in range(nsub))
    luts = ",\n        ".join(f"""lut_{s} AS (
          SELECT q.vec_id AS query_id, c.j AS code,
                 CAST(list_sum(list_transform({gs},
                     i -> (q.v[i] - c.v[i]) * (q.v[i] - c.v[i])))
                   AS BIGINT) AS ld
          FROM q_{s} q, c{iters}_{s} c WHERE q.vec_id < {nq})"""
                              for s in range(nsub))
    a_joins = " ".join(f"JOIN a{iters}_{s} a{s} USING (vec_id)"
                       for s in range(1, nsub))
    l_joins = " ".join(
        f"JOIN lut_{s} l{s} ON l{s}.query_id = l0.query_id "
        f"AND l{s}.code = a{s}.cluster" for s in range(1, nsub))
    adc_sum = " + ".join(f"l{s}.ld" for s in range(nsub))
    return f"""
        WITH {ctes},
        {luts},
        adc AS (
          SELECT l0.query_id, a0.vec_id,
                 CAST({adc_sum} AS BIGINT) AS adc_dist
          FROM a{iters}_0 a0 {a_joins}
          JOIN lut_0 l0 ON l0.code = a0.cluster
          {l_joins}),
        short AS (
          SELECT query_id, vec_id
          FROM (SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY query_id
                    ORDER BY adc_dist, vec_id) AS rk FROM adc)
          WHERE rk <= {shortlist}),
        qfull AS MATERIALIZED (
          SELECT vec_id,
                 list_transform(generate_series(1, {dim}), i ->
                     CAST(FLOOR(CAST(embedding[i] AS DOUBLE)
                          * {QUANT_SCALE} + 0.5) AS BIGINT)
                     + {QUANT_OFFSET}) AS v
          FROM embeddings),
        ex AS (
          SELECT s.query_id, s.vec_id,
                 CAST(list_sum(list_transform(generate_series(1, {dim}),
                     i -> (x.v[i] - y.v[i]) * (x.v[i] - y.v[i])))
                   AS BIGINT) AS l2_dist
          FROM short s
          JOIN qfull x ON x.vec_id = s.vec_id
          JOIN qfull y ON y.vec_id = s.query_id)
        SELECT query_id, vec_id, l2_dist, CAST(rk AS BIGINT) AS rank
        FROM (SELECT *, ROW_NUMBER() OVER (
                  PARTITION BY query_id
                  ORDER BY l2_dist, vec_id) AS rk FROM ex)
        WHERE rk <= {k}
    """


def _kmeans_sql(k: int = 8, iters: int = 2, dim: int = 64) -> str:
    return f"""
        WITH {_kmeans_ctes(k, iters, dim)}
        SELECT vec_id, cluster, d2 AS dist2 FROM a{iters}
    """


def _kmeans_outliers_sql(k: int = 8, iters: int = 2, dim: int = 64,
                         topk: int = 5) -> str:
    return f"""
        WITH {_kmeans_ctes(k, iters, dim)}
        SELECT cluster, CAST(rk AS BIGINT) AS rank, vec_id,
               d2 AS dist2
        FROM (SELECT *, ROW_NUMBER() OVER (
                  PARTITION BY cluster
                  ORDER BY d2 DESC, vec_id) AS rk FROM a{iters})
        WHERE rk <= {topk}
    """


def _semdedup_sql(k: int = 8, iters: int = 2, dim: int = 64,
                  threshold_bp2: int = 1225) -> str:
    """kmeans CTEs + in-cluster self-join under the quantized-cosine
    integer test (dot > 0 and S^2*dot^2 >= bp2*|a|^2*|b|^2)."""
    from uniparser_ray.stages.kmeans import COS_SCALE

    gs = f"generate_series(1, {dim})"
    return f"""
        WITH {_kmeans_ctes(k, iters, dim)},
        qr AS (
          SELECT vec_id,
                 list_transform(embedding, x ->
                     CAST(FLOOR(CAST(x AS DOUBLE) * {COS_SCALE} + 0.5)
                          AS BIGINT)) AS v
          FROM embeddings),
        met AS (
          SELECT a.vec_id, a.cluster, qr.v,
                 CAST(list_sum(list_transform({gs},
                     i -> qr.v[i] * qr.v[i])) AS BIGINT) AS nrm
          FROM a{iters} a JOIN qr USING (vec_id)),
        prs AS (
          SELECT x.vec_id AS vec_a, y.vec_id AS vec_b, x.cluster,
                 CAST(list_sum(list_transform({gs},
                     i -> x.v[i] * y.v[i])) AS BIGINT) AS dot,
                 x.nrm AS na, y.nrm AS nb
          FROM met x JOIN met y
            ON x.cluster = y.cluster AND x.vec_id < y.vec_id)
        SELECT vec_a, vec_b, cluster FROM prs
        WHERE dot > 0
          AND {COS_SCALE * COS_SCALE} * dot * dot
              >= {threshold_bp2} * na * nb
    """


def _pii_redact_sql() -> str:
    """PII redaction: both engines evaluate RE2, so regexp_replace's
    'g' pass is semantics-identical to pc.replace_substring_regex; the
    synthetic contact block is appended identically on both sides (the
    corpus itself carries no PII)."""
    return f"""
            WITH aug AS (
              SELECT doc_id,
                     text || ' Contact user' || doc_id
                          || '@mail.example or call +1-555-0'
                          || (doc_id % 1000) || ' now.'
                          || CASE WHEN doc_id % 3 = 0
                                  THEN ' cc admin' || doc_id || '@ex.org'
                                  ELSE '' END AS t
              FROM documents),
            e AS (SELECT doc_id,
                         CAST(length(regexp_extract_all(t,
                             '{PII_EMAIL_SQL}')) AS BIGINT) AS n_emails,
                         regexp_replace(t, '{PII_EMAIL_SQL}',
                                        '<EMAIL>', 'g') AS t2
                  FROM aug)
            SELECT doc_id, n_emails,
                   CAST(length(regexp_extract_all(t2,
                       '{PII_PHONE_SQL}')) AS BIGINT) AS n_phones,
                   md5(regexp_replace(t2, '{PII_PHONE_SQL}',
                                      '<PHONE>', 'g')) AS clean_md5
            FROM e
    """


def oracle_sql(sf_tag: str = None) -> dict[str, str]:
    """Per-query DuckDB oracle SQL.  ``sf_tag`` selects the scale the
    multimodal VALUES literals are built for — defaults to
    $UNIPARSER_ORACLE_SF (the driver's sf0.01); callers evaluating at
    another scale pass its tag (e.g. ``oracle_sql("sf0.1")``).  The
    expected-table builds are memoized per (kind, tag), so only the
    first call in a process pays the multimodal renders."""
    tag = sf_tag or _oracle_tag()
    eager = {
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2) AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2) AS sum_charge,
                   COUNT(*) AS count_order
            FROM lineitem GROUP BY 1, 2
        """,
        "top_customers": """
            SELECT o.o_custkey AS c_custkey, MIN(c.c_name) AS c_name,
                   ROUND(SUM(o.o_totalprice), 2) AS total_spent,
                   COUNT(*) AS order_count
            FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
            GROUP BY 1
            ORDER BY SUM(o.o_totalprice) DESC, o.o_custkey LIMIT 10
        """,
        "q3_shipping_priority": """
            SELECT l.l_orderkey,
                   ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
                   o.o_orderdate
            FROM customer c
            JOIN orders o ON c.c_custkey = o.o_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1998-01-01'
              AND l.l_shipdate > TIMESTAMP '1998-01-01'
            GROUP BY 1, 3
            ORDER BY SUM(l.l_extendedprice * (1 - l.l_discount)) DESC,
                     l.l_orderkey
            LIMIT 10
        """,
        "nation_revenue": """
            SELECT n.n_name,
                   ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
                   COUNT(*) AS n_items
            FROM lineitem l
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            GROUP BY 1
        """,
        "distinct_segments":
            "SELECT DISTINCT c_mktsegment FROM customer",
        "segment_order_stats": """
            SELECT c.c_mktsegment,
                   ROUND(SUM(o.o_totalprice), 2) AS total_price,
                   COUNT(*) AS n_orders
            FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
            GROUP BY 1
        """,
        "part_topk_price": """
            SELECT p_partkey, p_name, p_retailprice FROM part
            ORDER BY p_retailprice DESC, p_partkey LIMIT 20
        """,
        "events_tumbling": """
            SELECT user_id, date_trunc('hour', ts) AS window_start,
                   COUNT(*) AS n_events, ROUND(SUM(value), 2) AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "events_sessionize": """
            WITH marked AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_sess
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), numbered AS (
              SELECT *, SUM(new_sess) OVER
                  (PARTITION BY user_id ORDER BY ts, event_id) AS sess
              FROM marked)
            SELECT user_id, MIN(ts) AS session_start, MAX(ts) AS session_end,
                   COUNT(*) AS n_events
            FROM numbered GROUP BY user_id, sess
        """,
        "events_asof": """
            WITH right_d AS (
              SELECT user_id, ts, MAX(event_id) AS matched_event_id
              FROM events WHERE event_type = 'view' GROUP BY 1, 2
            ), left_s AS (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'purchase'
            )
            SELECT l.event_id, l.user_id, l.ts,
                   COALESCE(r.matched_event_id, -1) AS matched_event_id,
                   COALESCE(epoch_us(l.ts) - epoch_us(r.ts), -1) AS gap_us
            FROM left_s l ASOF LEFT JOIN right_d r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        "events_markov": """
            WITH seq AS (
              SELECT user_id, event_type AS from_type,
                     LEAD(event_type) OVER (
                         PARTITION BY user_id
                         ORDER BY ts, event_id) AS to_type
              FROM events)
            SELECT from_type, to_type,
                   CAST(COUNT(*) AS BIGINT) AS n_transitions
            FROM seq WHERE to_type IS NOT NULL GROUP BY 1, 2
        """,
        "events_window_anomaly": """
            WITH w AS (
              SELECT event_type,
                     epoch_us(date_trunc('hour', ts)) AS window_us,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2),
            m AS (
              SELECT event_type, CAST(COUNT(*) AS BIGINT) AS W,
                     CAST(SUM(n) AS BIGINT) AS S,
                     CAST(SUM(n * n) AS BIGINT) AS SS
              FROM w GROUP BY 1)
            SELECT event_type, window_us, n AS n_events,
                   CAST(W * n - S AS BIGINT) AS dev,
                   CAST(CASE WHEN (W * n - S) > 0
                             AND (W * n - S) * (W * n - S)
                                 > 4 * (W * SS - S * S)
                        THEN 1 ELSE 0 END AS BIGINT) AS is_anomaly
            FROM w JOIN m USING (event_type)
        """,
        "events_retention": """
            WITH w AS (
              SELECT user_id, event_type,
                     epoch_us(ts) // 604800000000 AS wk
              FROM events
            ), coh AS (
              SELECT user_id, MIN(wk) AS cw FROM w
              WHERE event_type = 'signup' GROUP BY 1
            ), act AS (
              SELECT DISTINCT w.user_id, c.cw, w.wk - c.cw AS off
              FROM w JOIN coh c USING (user_id) WHERE w.wk >= c.cw
            )
            SELECT cw AS cohort_week, off AS week_offset,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM act GROUP BY 1, 2
        """,
        "events_funnel": """
            WITH s1 AS (
              SELECT user_id, MIN(ts) AS t1 FROM events
              WHERE event_type = 'signup' GROUP BY 1
            ), s2 AS (
              SELECT e.user_id, MIN(e.ts) AS t2
              FROM events e JOIN s1 USING (user_id)
              WHERE e.event_type = 'view' AND e.ts >= s1.t1 GROUP BY 1
            ), s3 AS (
              SELECT e.user_id, MIN(e.ts) AS t3
              FROM events e JOIN s2 USING (user_id)
              WHERE e.event_type = 'purchase' AND e.ts >= s2.t2
              GROUP BY 1
            )
            SELECT u.user_id,
                   CAST(CASE WHEN t3 IS NOT NULL THEN 3
                             WHEN t2 IS NOT NULL THEN 2
                             WHEN t1 IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS stage,
                   COALESCE(epoch_us(t1), -1) AS t_signup_us,
                   COALESCE(epoch_us(t2), -1) AS t_view_us,
                   COALESCE(epoch_us(t3), -1) AS t_purchase_us
            FROM (SELECT DISTINCT user_id FROM events) u
            LEFT JOIN s1 USING (user_id)
            LEFT JOIN s2 USING (user_id)
            LEFT JOIN s3 USING (user_id)
        """,
        "events_window_join": """
            WITH lefts AS (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'purchase'
            ), rights AS (
              SELECT user_id, ts FROM events WHERE event_type = 'view'
            )
            SELECT l.event_id, l.user_id, l.ts,
                   (SELECT COUNT(*) FROM rights r
                     WHERE r.user_id = l.user_id
                       AND r.ts >  l.ts - INTERVAL 24 HOURS
                       AND r.ts <= l.ts) AS n_in_window
            FROM lefts l
        """,
        "q5_local_supplier_volume": """
            SELECT n_name,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                     AS revenue
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey
              AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey
              AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey
              AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND o_orderdate >= DATE '1996-01-01'
              AND o_orderdate < DATE '1998-01-01'
            GROUP BY n_name
        """,
        "orders_topk_per_customer": """
            SELECT o_custkey, o_orderkey, o_totalprice, rk FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     ROW_NUMBER() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey) AS rk
              FROM orders)
            WHERE rk <= 3
        """,
        "part_price_bands": """
            WITH bands(band_lo, band_hi) AS (VALUES
              (0.0, 905.0), (905.0, 912.0), (912.0, 950.0),
              (950.0, 975.0), (975.0, 1e18))
            SELECT band_lo, COUNT(*) AS n_parts,
                   ROUND(SUM(p_retailprice), 2) AS sum_price,
                   ROUND(SUM(p_retailprice) / COUNT(*), 2) AS avg_price
            FROM part JOIN bands
              ON p_retailprice >= band_lo AND p_retailprice < band_hi
            GROUP BY band_lo
        """,
        "events_distinct_users": """
            SELECT event_type, COUNT(DISTINCT user_id) AS n_users
            FROM events GROUP BY 1
        """,
        "events_stratified_sample": """
            -- class-balancing sampler: per-stratum keep rate
            -- min(1, target/count) in basis points, decided by the
            -- same md5-31bit residue the Ray side computes
            WITH c AS (SELECT event_type, COUNT(*) AS cnt
                       FROM events GROUP BY event_type)
            SELECT e.event_id, e.event_type
            FROM events e JOIN c USING (event_type)
            WHERE (('0x' || substr(md5(CAST(e.event_id AS VARCHAR)),
                                   1, 15))::BIGINT % 2147483647) % 10000
                  < LEAST(10000, (500 * 10000) // cnt)
        """,
        "events_watermark_late": f"""
            -- streaming watermark / late-data flag: arrival order is
            -- the deterministic md5-residue permutation of event_id;
            -- late iff ts + allowed_lateness < running max event-time
            WITH e AS (
              SELECT event_id, epoch_us(ts) AS ts_us,
                     ('0x' || substr(md5(CAST(event_id AS VARCHAR)),
                                     1, 15))::BIGINT % 2147483647 AS arr
              FROM events)
            SELECT event_id, ts_us,
                   COALESCE(MAX(ts_us) OVER w, 0) AS max_before,
                   CAST(ts_us + {_WATERMARK_LATENESS_US()}
                        < COALESCE(MAX(ts_us) OVER w, 0)
                        AS BIGINT) AS late
            FROM e
            WINDOW w AS (ORDER BY arr, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING)
        """,
        "events_countmin": _countmin_sql(),
        "events_heavy_hitters": """
            -- the Ray side goes through Misra-Gries candidates + an
            -- exact recount (or the adaptive exact fallback); both
            -- paths are EXACT by construction, so the twin is the
            -- plain aggregate
            SELECT CAST(ROW_NUMBER() OVER (
                       ORDER BY COUNT(*) DESC, user_id)
                     AS BIGINT) AS rank,
                   user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events GROUP BY user_id
            ORDER BY COUNT(*) DESC, user_id LIMIT 10
        """,
        "events_hll_users": """
            -- the APPROXIMATE sketch itself is value-checked: the md5
            -- 31-bit hash (stages/tokenhash construction) makes the
            -- HLL registers bit-identical in SQL
            WITH h AS (
              SELECT DISTINCT event_type,
                     ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 15))
                       ::BIGINT % 2147483647 AS hv
              FROM events),
            hb AS (SELECT event_type, hv % 64 AS bucket,
                          hv // 64 AS rem FROM h)
            SELECT event_type, bucket,
                   MAX(CASE WHEN rem = 0 THEN 26
                       ELSE 26 - length(bin(rem)) END) AS register
            FROM hb GROUP BY 1, 2
        """,
        "order_price_quantiles": """
            SELECT 0.5 AS q, quantile_disc(o_totalprice, 0.5) AS value
            FROM orders
            UNION ALL
            SELECT 0.9, quantile_disc(o_totalprice, 0.9) FROM orders
            UNION ALL
            SELECT 0.99, quantile_disc(o_totalprice, 0.99) FROM orders
        """,
        "events_cumulative": """
            SELECT event_id,
                   ROUND(SUM(value) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id), 2)
                     AS running_sum
            FROM events
        """,
        # the twin is a FULL recompute — the Ray side maintains state
        # incrementally (base partials + delta partials merged), and
        # incremental == full is exactly the property under test
        "orders_incremental_agg": """
            SELECT o_custkey,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS sum_cents
            FROM orders GROUP BY 1
        """,
        "orders_rollup": """
            SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
                   COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
                   COUNT(*) AS n_orders,
                   ROUND(SUM(o_totalprice), 2) AS revenue
            FROM orders
            GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
        """,
        "events_pivot": """
            SELECT user_id,
                   COUNT(*) FILTER (event_type = 'click') AS n_click,
                   COUNT(*) FILTER (event_type = 'error') AS n_error,
                   COUNT(*) FILTER (event_type = 'purchase') AS n_purchase,
                   COUNT(*) FILTER (event_type = 'signup') AS n_signup,
                   COUNT(*) FILTER (event_type = 'view') AS n_view
            FROM events GROUP BY user_id
        """,
        "events_value_quantiles": """
            SELECT event_type, 0.5 AS q,
                   quantile_disc(value, 0.5) AS value
            FROM events GROUP BY event_type
            UNION ALL
            SELECT event_type, 0.9, quantile_disc(value, 0.9)
            FROM events GROUP BY event_type
        """,
        "events_hopping": """
            WITH w AS (
              SELECT (epoch_us(ts) // 1800000000) * 1800000000 AS w0,
                     value FROM events
              UNION ALL
              SELECT (epoch_us(ts) // 1800000000) * 1800000000
                       - 1800000000 AS w0,
                     value FROM events)
            SELECT make_timestamp(w0) AS window_start,
                   COUNT(*) AS n_events,
                   ROUND(SUM(value), 2) AS sum_value
            FROM w GROUP BY 1
        """,
        "events_json_k": """
            SELECT event_id,
                   CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
            FROM events
        """,
        "doc_parse_rules": r"""
            SELECT doc_id, regexp_extract(text, '^\w+') AS first_word,
                   length(string_split(text, ' ')) AS n_words,
                   md5(text) AS text_md5
            FROM documents
        """,
        "doc_top_tokens": r"""
            SELECT t AS token, COUNT(*) AS n FROM (
              SELECT unnest(list_filter(
                  string_split_regex(text, '\s+'), s -> s <> '')) AS t
              FROM documents)
            GROUP BY 1 ORDER BY n DESC, token LIMIT 20
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name, c_mktsegment FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_totalprice > 400000.0)
        """,
        "q13_customer_distribution": """
            SELECT c_count, COUNT(*) AS custdist FROM (
              SELECT c.c_custkey, COUNT(o.o_custkey) AS c_count
              FROM customer c
              LEFT JOIN orders o ON o.o_custkey = c.c_custkey
              GROUP BY c.c_custkey)
            GROUP BY c_count
        """,
        "q6_forecast_revenue": """
            SELECT ROUND(SUM(l_extendedprice * l_discount), 2)
                       AS revenue,
                   COUNT(*) AS n_items
            FROM lineitem
            WHERE l_shipdate >= '1996-01-01'
              AND l_shipdate < '1997-01-01'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "q14_promo_revenue": """
            SELECT ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                     THEN l_extendedprice * (1 - l_discount)
                     ELSE 0 END)
                   / SUM(l_extendedprice * (1 - l_discount)), 4)
                       AS promo_share
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_shipdate >= '1996-04-01'
              AND l_shipdate < '1996-05-01'
        """,
        "q18_large_orders": """
            WITH per AS (
              SELECT l_orderkey, SUM(l_quantity) AS sum_qty
              FROM lineitem GROUP BY l_orderkey)
            SELECT c_name, o_custkey, o_orderkey, o_orderdate,
                   ROUND(o_totalprice, 2) AS o_totalprice,
                   ROUND(sum_qty, 2) AS sum_qty
            FROM per
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            WHERE sum_qty > 150
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 100
        """,
        "q10_returned_item_revenue": """
            WITH rev AS (
              SELECT o_custkey,
                     ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                         AS revenue
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey
              WHERE l_returnflag = 'R'
                AND o_orderdate >= '1996-10-01'
                AND o_orderdate < '1997-01-01'
              GROUP BY o_custkey)
            SELECT o_custkey, c_name, revenue,
                   ROUND(c_acctbal, 2) AS c_acctbal, n_name
            FROM rev
            JOIN customer ON c_custkey = o_custkey
            JOIN nation ON n_nationkey = c_nationkey
            ORDER BY revenue DESC, o_custkey
            LIMIT 20
        """,
        "q4_returned_order_priority": """
            SELECT o_orderpriority, COUNT(*) AS n_orders
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_returnflag = 'R')
            GROUP BY o_orderpriority
        """,
        "doc_sample_hash": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE (('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                     ::BIGINT % 2147483647) % 100 < 10
        """,
        "doc_tfidf_topk": f"""
            WITH toks AS (
              SELECT doc_id, {_SPLIT_SQL} AS t FROM documents),
            tok AS (SELECT doc_id, unnest(t) AS token FROM toks),
            tf AS (SELECT doc_id, token, COUNT(*) AS tf
                   FROM tok GROUP BY 1, 2),
            dfreq AS (SELECT token, COUNT(*) AS df FROM tf GROUP BY 1),
            scored AS (
              SELECT f.doc_id, f.token, f.tf, d.df,
                     ROUND(f.tf * ln(
                         (SELECT COUNT(*) FROM documents) * 1.0 / d.df),
                         6) AS tfidf
              FROM tf f JOIN dfreq d USING (token)),
            ranked AS (
              SELECT *, ROW_NUMBER() OVER (
                  PARTITION BY doc_id
                  ORDER BY tfidf DESC, token ASC) AS rk
              FROM scored)
            SELECT doc_id, token, tf, df, tfidf, rk
            FROM ranked WHERE rk <= 3
        """,
        "doc_shard_assign": """
            SELECT doc_id, n_chars,
                   CAST(COALESCE(SUM(n_chars) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING), 0) // 50000
                        AS BIGINT) AS shard
            FROM documents
        """,
        "doc_seq_pack": f"""
            WITH toks AS (
              SELECT doc_id, len({_SPLIT_SQL}) AS n_tokens
              FROM documents),
            cum AS (
              SELECT doc_id, n_tokens,
                     COALESCE(SUM(n_tokens) OVER (
                         ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS cb
              FROM toks)
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(cb // 512 AS BIGINT) AS seq_first,
                   CAST(cb % 512 AS BIGINT) AS off_first,
                   CAST(CASE WHEN n_tokens > 0
                        THEN (cb + n_tokens - 1) // 512
                        ELSE cb // 512 END AS BIGINT) AS seq_last,
                   CAST(CASE WHEN n_tokens > 0
                        THEN (cb + n_tokens - 1) // 512 - cb // 512 + 1
                        ELSE 0 END AS BIGINT) AS n_seqs
            FROM cum
        """,
        "doc_bpe_pairs": f"""
            WITH {_TOK_CTES},
            pairs AS (
              SELECT ((h[i] * {_HB} + h[i + 1]) % {_P}) AS pair_hash,
                     t[i] || ' ' || t[i + 1] AS ps
              FROM (SELECT ids.doc_id, toks.t, ids.h, ids.n
                    FROM ids JOIN toks USING (doc_id)) j,
                   unnest(generate_series(1, n - 1)) AS u(i)
              WHERE n >= 2),
            agg AS (
              SELECT pair_hash, MIN(ps) AS pair,
                     COUNT(*) AS n_occurrences
              FROM pairs GROUP BY 1)
            SELECT CAST(ROW_NUMBER() OVER (
                       ORDER BY n_occurrences DESC, pair_hash)
                     AS BIGINT) AS rank,
                   pair,
                   CAST(pair_hash AS BIGINT) AS pair_hash,
                   CAST(n_occurrences AS BIGINT) AS n_occurrences
            FROM agg
            ORDER BY n_occurrences DESC, pair_hash LIMIT 20
        """,
        "doc_para_dedup": f"""
            WITH paras AS (
              SELECT doc_id,
                     ('0x' || substr(md5(p), 1, 15))::BIGINT % {_P} AS ph
              FROM (SELECT doc_id,
                           unnest(string_split(text, chr(10))) AS p
                    FROM documents)),
            tot AS (SELECT ph, COUNT(*) AS c FROM paras GROUP BY 1),
            per AS (
              SELECT doc_id, COUNT(*) AS np_,
                     SUM(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS nd
              FROM paras JOIN tot USING (ph) GROUP BY 1)
            SELECT doc_id,
                   CAST(np_ AS BIGINT) AS n_paras,
                   CAST(nd AS BIGINT) AS n_dup_paras,
                   CAST((10000 * nd) // np_ AS BIGINT) AS dup_bp
            FROM per
        """,
        "doc_unigram_stats": f"""
            WITH {_TOK_CTES},
            pos AS (SELECT doc_id, unnest(h) AS tid FROM ids),
            tot AS (SELECT tid, COUNT(*) AS c FROM pos GROUP BY 1),
            per AS (
              SELECT doc_id, COUNT(*) AS n_tokens,
                     SUM(c) AS sum_tok_freq,
                     MIN(c) AS min_tok_freq,
                     SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS n_hapax
              FROM pos JOIN tot USING (tid) GROUP BY 1)
            SELECT d.doc_id,
                   CAST(COALESCE(p.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(COALESCE(p.sum_tok_freq, 0) AS BIGINT)
                     AS sum_tok_freq,
                   CAST(COALESCE(p.min_tok_freq, 0) AS BIGINT)
                     AS min_tok_freq,
                   CAST(COALESCE(p.n_hapax, 0) AS BIGINT) AS n_hapax
            FROM documents d LEFT JOIN per p USING (doc_id)
        """,
        "doc_perplexity": _perplexity_sql(),
        "doc_bigram_surprisal": _bigram_surprisal_sql(),
        "doc_chunks": _doc_chunks_sql(),
        "doc_winnow": _winnow_sql(),
        # composed corpus report: nests the langid twin so the
        # (source x predicted-lang) mix value-checks end to end
        "doc_source_lang_mix": f"""
            WITH l AS (SELECT doc_id, lang_pred
                       FROM ({_langid_sql()}) _l),
            t AS (SELECT doc_id, source,
                         len({_SPLIT_SQL}) AS nt FROM documents),
            cells AS (SELECT source, lang_pred,
                             CAST(COUNT(*) AS BIGINT) AS n_docs,
                             CAST(SUM(nt) AS BIGINT) AS n_tokens
                      FROM t JOIN l USING (doc_id) GROUP BY 1, 2),
            tot AS (SELECT source, SUM(n_docs) AS sd
                    FROM cells GROUP BY 1)
            SELECT c.source, c.lang_pred, c.n_docs, c.n_tokens,
                   CAST(10000 * c.n_docs // t.sd AS BIGINT)
                       AS doc_share_bp
            FROM cells c JOIN tot t USING (source)
        """,
        "doc_tfidf_exact": f"""
            WITH {_TOK_CTES},
            pos AS (SELECT doc_id, unnest(h) AS tid FROM ids),
            tf AS (SELECT doc_id, tid, COUNT(*) AS cnt
                   FROM pos GROUP BY 1, 2),
            dfr AS (SELECT tid, COUNT(*) AS df FROM tf GROUP BY 1),
            n AS (SELECT COUNT(*) AS nd FROM documents),
            s AS (SELECT tf.doc_id, tf.tid, tf.cnt, dfr.df,
                         tf.cnt * ((1000000 * nd) // dfr.df) AS score
                  FROM tf JOIN dfr USING (tid) CROSS JOIN n),
            r AS (SELECT s.*,
                         ROW_NUMBER() OVER (
                             PARTITION BY doc_id
                             ORDER BY score DESC, tid) AS rnk
                  FROM s)
            SELECT doc_id, CAST(rnk AS BIGINT) AS term_rank, tid,
                   CAST(cnt AS BIGINT) AS cnt,
                   CAST(df AS BIGINT) AS df,
                   CAST(score AS BIGINT) AS score
            FROM r WHERE rnk <= 6
        """,
        "doc_rarity_buckets": f"""
            WITH {_TOK_CTES},
            pos AS (SELECT doc_id, unnest(h) AS tid FROM ids),
            tot AS (SELECT tid, COUNT(*) AS c FROM pos GROUP BY 1),
            ranks AS (SELECT tid,
                             DENSE_RANK() OVER (ORDER BY c DESC) AS rnk
                      FROM tot),
            per AS (SELECT doc_id, COUNT(*) AS n_tokens,
                           SUM(rnk) AS rarity
                    FROM pos JOIN ranks USING (tid) GROUP BY 1),
            alldocs AS (
              SELECT d.doc_id,
                     CAST(COALESCE(p.n_tokens, 0) AS BIGINT) AS n_tokens,
                     CAST(COALESCE(p.rarity, 0) AS BIGINT) AS rarity
              FROM documents d LEFT JOIN per p USING (doc_id)),
            normed AS (
              SELECT doc_id, n_tokens, rarity,
                     CAST(CASE WHEN n_tokens > 0
                          THEN (1000 * rarity) // n_tokens
                          ELSE 0 END AS BIGINT) AS norm_rarity
              FROM alldocs),
            th AS (SELECT quantile_disc(norm_rarity, 1.0/3.0) AS q33,
                          quantile_disc(norm_rarity, 2.0/3.0) AS q66
                   FROM normed)
            SELECT doc_id, n_tokens, rarity, norm_rarity,
                   CAST(CASE WHEN norm_rarity <= q33 THEN 0
                             WHEN norm_rarity <= q66 THEN 1
                             ELSE 2 END AS BIGINT) AS bucket
            FROM normed, th
        """,
        "doc_incremental_novelty": f"""
            WITH {_TOK_CTES},
            {_roll_ctes()},
            marked AS (SELECT doc_id, wh,
                              doc_id % {INCR_DELTA_MOD_SQL} = 0
                                AS is_delta
                       FROM roll),
            base AS (SELECT DISTINCT wh FROM marked WHERE NOT is_delta),
            per AS (
              SELECT doc_id, COUNT(*) AS nw,
                     SUM(CASE WHEN wh IN (SELECT wh FROM base)
                         THEN 1 ELSE 0 END) AS known
              FROM marked WHERE is_delta GROUP BY 1)
            SELECT d.doc_id,
                   CAST(COALESCE(p.nw, 0) AS BIGINT) AS n_windows,
                   CAST(COALESCE(p.known, 0) AS BIGINT)
                     AS n_known_windows,
                   CAST(CASE WHEN COALESCE(p.nw, 0) = 0 THEN 0
                        ELSE (10000 * (p.nw - p.known)) // p.nw END
                     AS BIGINT) AS novelty_bp
            FROM (SELECT doc_id FROM documents
                  WHERE doc_id % {INCR_DELTA_MOD_SQL} = 0) d
            LEFT JOIN per p USING (doc_id)
        """,
        "doc_dup_ngrams": f"""
            WITH {_TOK_CTES},
            {_roll_ctes()},
            tot AS (SELECT wh, COUNT(*) AS c FROM roll GROUP BY 1),
            per AS (
              SELECT doc_id, COUNT(*) AS nw,
                     SUM(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS nd
              FROM roll JOIN tot USING (wh) GROUP BY 1)
            SELECT d.doc_id,
                   CAST(COALESCE(p.nw, 0) AS BIGINT) AS n_windows,
                   CAST(COALESCE(p.nd, 0) AS BIGINT) AS n_dup_windows,
                   CAST(CASE WHEN COALESCE(p.nw, 0) = 0 THEN 0
                        ELSE (10000 * p.nd) // p.nw END
                     AS BIGINT) AS dup_bp
            FROM documents d LEFT JOIN per p USING (doc_id)
        """,
        "doc_dup_spans": f"""
            WITH {_TOK_CTES},
            rollp AS (
              SELECT doc_id, i - 1 AS pos,
                     {_horner_sql([f"h[i+{j}]" for j in range(8)])} AS wh
              FROM ids, unnest(generate_series(1, n - 7)) AS u(i)
              WHERE n >= 8),
            tot AS (SELECT wh FROM rollp GROUP BY wh HAVING COUNT(*) >= 2),
            d AS (SELECT doc_id, pos FROM rollp JOIN tot USING (wh)),
            isl AS (
              SELECT doc_id, pos,
                     CASE WHEN pos - LAG(pos) OVER
                              (PARTITION BY doc_id ORDER BY pos) <= 8
                          THEN 0 ELSE 1 END AS brk
              FROM d),
            grp AS (
              SELECT doc_id, pos,
                     SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos
                                    ROWS UNBOUNDED PRECEDING) AS g
              FROM isl)
            SELECT doc_id, MIN(pos) AS start_tok,
                   MAX(pos) + 8 AS end_tok,
                   COUNT(*) AS n_windows
            FROM grp GROUP BY doc_id, g
        """,
        # the surgery pass: identical dup-window CTEs, then coverage =
        # union of [pos, pos+8) per doc, kept tokens re-joined in
        # position order and md5'd — an independent reconstruction of
        # the pipeline's flat-token-space diff-array cut
        "doc_dup_apply": f"""
            WITH {_TOK_CTES},
            rollp AS (
              SELECT doc_id, i - 1 AS pos,
                     {_horner_sql([f"h[i+{j}]" for j in range(8)])} AS wh
              FROM ids, unnest(generate_series(1, n - 7)) AS u(i)
              WHERE n >= 8),
            tot AS (SELECT wh FROM rollp GROUP BY wh HAVING COUNT(*) >= 2),
            d AS (SELECT doc_id, pos FROM rollp JOIN tot USING (wh)),
            cov AS (SELECT DISTINCT doc_id, pos + u.j AS k
                    FROM d, unnest(generate_series(0, 7)) AS u(j)),
            posd AS (
              SELECT doc_id, u.j AS j, t[u.j] AS tok
              FROM toks, unnest(generate_series(1, len(t))) AS u(j)),
            kept AS (
              SELECT p.doc_id, p.j, p.tok
              FROM posd p LEFT JOIN cov c
                ON c.doc_id = p.doc_id AND c.k = p.j - 1
              WHERE c.k IS NULL),
            agg AS (
              SELECT doc_id, COUNT(*) AS n_kept,
                     md5(array_to_string(list(tok ORDER BY j), ' '))
                         AS clean_md5
              FROM kept GROUP BY doc_id)
            SELECT b.doc_id, len(b.t) AS n_tokens,
                   len(b.t) - COALESCE(a.n_kept, 0) AS n_removed,
                   COALESCE(a.clean_md5, md5('')) AS clean_md5
            FROM toks b LEFT JOIN agg a USING (doc_id)
        """,
        "doc_token_stats": r"""
            SELECT doc_id,
                   length(string_split(text, ' ')) AS n_tokens,
                   length(regexp_extract_all(text, '\w+|[^\w\s]')) AS n_bpe_tokens,
                   length(text) AS n_chars
            FROM documents
        """,
        "doc_quality": rf"""
            WITH base AS (
              SELECT doc_id,
                     regexp_extract_all(text, '\w+') AS words,
                     length(regexp_extract_all(text, '[A-Za-z]')) * 1.0
                       / GREATEST(length(text), 1) AS alpha_raw,
                     length(list_filter(regexp_extract_all(lower(text), '\w+'),
                         w -> w IN ({_STOPWORDS_SQL}))) * 1.0
                       / GREATEST(length(regexp_extract_all(text, '\w+')), 1)
                       AS stop_raw,
                     COALESCE(list_aggregate(
                         list_transform(regexp_extract_all(text, '\w+'),
                                        w -> length(w) * 1.0), 'avg'), 0.0)
                       AS mwl
              FROM documents)
            SELECT doc_id,
                   length(words) AS n_words,
                   stop_raw AS stop_ratio,
                   alpha_raw AS alpha_ratio,
                   0.4 * LEAST(stop_raw, 0.5) / 0.5
                         + 0.3 * alpha_raw
                         + 0.3 * (1.0 - LEAST(ABS(mwl - 5.0), 5.0) / 5.0)
                       AS quality_score
            FROM base
        """,
        # same score CTE as doc_quality, then the window total order
        # the range-partitioned pipeline must reproduce exactly
        "doc_curriculum_rank": rf"""
            WITH base AS (
              SELECT doc_id,
                     length(regexp_extract_all(text, '[A-Za-z]')) * 1.0
                       / GREATEST(length(text), 1) AS alpha_raw,
                     length(list_filter(regexp_extract_all(lower(text), '\w+'),
                         w -> w IN ({_STOPWORDS_SQL}))) * 1.0
                       / GREATEST(length(regexp_extract_all(text, '\w+')), 1)
                       AS stop_raw,
                     COALESCE(list_aggregate(
                         list_transform(regexp_extract_all(text, '\w+'),
                                        w -> length(w) * 1.0), 'avg'), 0.0)
                       AS mwl
              FROM documents),
            scored AS (
              SELECT doc_id,
                     0.4 * LEAST(stop_raw, 0.5) / 0.5
                       + 0.3 * alpha_raw
                       + 0.3 * (1.0 - LEAST(ABS(mwl - 5.0), 5.0) / 5.0)
                         AS quality_score
              FROM base)
            SELECT doc_id, quality_score,
                   ROW_NUMBER() OVER (ORDER BY quality_score DESC, doc_id)
                       AS curriculum_rank
            FROM scored
        """,
        "doc_fingerprint":
            "SELECT doc_id, md5(text) AS fp_md5 FROM documents",
        "doc_repetition": _repetition_sql(),
        "doc_gopher_rules": _gopher_sql(),
        "doc_curation": f"""
            WITH RECURSIVE
            pairs AS ({_minhash_pairs_sql(threshold=0.6)}),
            und AS (SELECT doc_a AS x, doc_b AS y FROM pairs
                    UNION SELECT doc_b, doc_a FROM pairs),
            reach(id, r) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT u.y, reach.r FROM reach JOIN und u ON u.x = reach.id),
            cc AS (SELECT id AS doc_id,
                          CAST(id = MIN(r) AS BIGINT) AS cck
                   FROM reach GROUP BY id),
            g AS (SELECT doc_id, violations FROM ({_gopher_sql()}) _g),
            l AS (SELECT doc_id, lang_pred FROM ({_langid_sql()}) _l),
            e AS (SELECT doc_id,
                         CAST(doc_id = MIN(doc_id) OVER (
                             PARTITION BY md5(text)) AS BIGINT) AS exk
                  FROM documents),
            scored AS (
              SELECT d.doc_id,
                     CASE WHEN g.violations <> 0 THEN 1 ELSE 0 END
                   + CASE WHEN e.exk = 0 THEN 2 ELSE 0 END
                   + CASE WHEN cc.cck = 0 THEN 4 ELSE 0 END
                   + CASE WHEN l.lang_pred <> 'en' THEN 8 ELSE 0 END
                       AS viol
              FROM documents d JOIN g USING (doc_id)
                   JOIN l USING (doc_id) JOIN e USING (doc_id)
                   JOIN cc USING (doc_id))
            SELECT doc_id, CAST(viol AS BIGINT) AS viol,
                   CAST(viol = 0 AS BIGINT) AS keep
            FROM scored
        """,
        # training-mix weighting: exact integer keep rates
        "doc_source_mix": f"""
            WITH per AS (
              SELECT source,
                     CAST(COUNT(*) AS BIGINT) AS n_docs,
                     CAST(SUM(len({_SPLIT_SQL})) AS BIGINT) AS n_tokens
              FROM documents GROUP BY 1)
            SELECT source, n_docs, n_tokens,
                   (10000 * (SELECT MIN(n_tokens) FROM per))
                       // GREATEST(n_tokens, 1) AS keep_bp
            FROM per
        """,
        # the sampling pass: rates re-derived by the same window
        # arithmetic, then the md5-31bit residue gate applied per doc
        "doc_mixture_apply": f"""
            WITH per AS (
              SELECT source,
                     CAST(SUM(len({_SPLIT_SQL})) AS BIGINT) AS n_tokens
              FROM documents GROUP BY 1),
            rates AS (
              SELECT source,
                     (10000 * (SELECT MIN(n_tokens) FROM per))
                         // GREATEST(n_tokens, 1) AS keep_bp
              FROM per)
            SELECT d.doc_id, d.source, d.n_chars, r.keep_bp
            FROM documents d JOIN rates r USING (source)
            WHERE (('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 15))
                     ::BIGINT % 2147483647) % 10000 < r.keep_bp
        """,
        "doc_decontaminate": _decontaminate_sql(),
        "doc_pii_redact": _pii_redact_sql(),
        "embedding_kmeans": _kmeans_sql(),
        "embedding_outliers": _kmeans_outliers_sql(),
        "embedding_pq_topk": _pq_sql(),
        "embedding_pq_distortion": _pq_distortion_sql(),
        "embedding_semdedup": _semdedup_sql(),
        "doc_dedup_exact": """
            SELECT md5(text) AS text_hash, MIN(doc_id) AS keeper_id,
                   COUNT(*) AS dup_count
            FROM documents GROUP BY 1
        """,
        "doc_dedup_jaccard": _jaccard_sql(),
        "doc_langid": _langid_sql(),
        "doc_signatures": _signatures_sql(),
        "doc_dedup_simhash": _simhash_pairs_sql(max_hamming=6),
        "doc_dedup_minhash": _minhash_pairs_sql(threshold=0.6),
        "doc_minhash_recall": f"""
            WITH ex AS ({_jaccard_sql(threshold=0.6)}),
            lsh AS ({_minhash_pairs_sql(threshold=0.6)}),
            merged AS (
              SELECT e.jaccard_sim,
                     CASE WHEN l.doc_a IS NULL THEN 0 ELSE 1 END AS hit
              FROM ex e LEFT JOIN lsh l
                ON l.doc_a = e.doc_a AND l.doc_b = e.doc_b)
            SELECT CAST(floor(jaccard_sim * 10) AS BIGINT) AS sim_bucket,
                   COUNT(*) AS n_exact,
                   CAST(SUM(hit) AS BIGINT) AS n_lsh_hit,
                   CAST(SUM(hit) AS DOUBLE) / COUNT(*) AS recall
            FROM merged GROUP BY 1
        """,
        "doc_dedup_clusters": f"""
            WITH RECURSIVE pairs AS ({_minhash_pairs_sql(threshold=0.6)}),
            und AS (SELECT doc_a AS x, doc_b AS y FROM pairs
                    UNION SELECT doc_b, doc_a FROM pairs),
            reach(id, r) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT u.y, reach.r
              FROM reach JOIN und u ON u.x = reach.id
            )
            SELECT id AS doc_id, MIN(r) AS cluster, id = MIN(r) AS keep
            FROM reach GROUP BY id
        """,
        "embedding_neardup_lsh": _embedding_lsh_sql(threshold=0.35),
        "label_centroids": """
            WITH dim AS (
              SELECT label, u.d AS d,
                     CAST(e.embedding[u.d] AS DOUBLE) AS x
              FROM embeddings e,
                   unnest(generate_series(1, len(e.embedding))) AS u(d)),
            cent AS (SELECT label, d, SUM(x) AS sx FROM dim GROUP BY 1, 2),
            cnts AS (SELECT label, COUNT(*) AS n_vectors
                     FROM embeddings GROUP BY 1)
            SELECT c.label, n.n_vectors,
                   ROUND(sqrt(SUM((c.sx / n.n_vectors)
                                  * (c.sx / n.n_vectors))), 6)
                       AS centroid_norm
            FROM cent c JOIN cnts n USING (label)
            GROUP BY 1, 2
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   ROUND(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 6) AS cosine_sim
            FROM embeddings a JOIN embeddings b ON b.vec_id > a.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.35
        """,
        "ann_topk": """
            WITH q AS (SELECT vec_id, embedding FROM embeddings
                       WHERE vec_id < 5)
            SELECT query_id, vec_id, cosine_sim, rank FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
                     ROUND(list_cosine_similarity(
                         CAST(q.embedding AS DOUBLE[]),
                         CAST(e.embedding AS DOUBLE[])), 6) AS cosine_sim,
                     ROW_NUMBER() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(
                           CAST(q.embedding AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])) DESC,
                           e.vec_id) AS rank
              FROM q CROSS JOIN embeddings e)
            WHERE rank <= 10
        """,
        "ann_ivf_exhaustive": """
            WITH q AS (SELECT vec_id, embedding FROM embeddings
                       WHERE vec_id < 5)
            SELECT query_id, vec_id, cosine_sim, rank FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
                     ROUND(list_cosine_similarity(
                         CAST(q.embedding AS DOUBLE[]),
                         CAST(e.embedding AS DOUBLE[])), 6) AS cosine_sim,
                     ROW_NUMBER() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(
                           CAST(q.embedding AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])) DESC,
                           e.vec_id) AS rank
              FROM q CROSS JOIN embeddings e)
            WHERE rank <= 10
        """,
        # ann_ivf: intentionally no oracle — IVF is APPROXIMATE search
        # (nprobe < nlist trades recall for speed); its recall-vs-exact
        # contract is pinned by tests/test_stages.py instead.  Every
        # other queries() entry above has a value-checked SQL oracle.
    }
    eager.update({k: thunk() for k, thunk
                  in _multimodal_oracle_thunks(tag).items()})
    return eager
