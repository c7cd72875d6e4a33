"""DuckDB-oracle ↔ pipeline parity on a MESSY corpus.

The shipped testdata documents are whitespace-clean and ≥10 tokens, so
the driver's oracle runs never exercise tokenization edge cases.  This
test pins the tokenhash oracle SQL against the batch functions directly
(no Ray) on docs with double spaces, tabs, newlines, leading/trailing
whitespace, 1-2 tokens, and fully-empty text.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entry
from uniparser_ray.stages.text import fingerprint_batch, langid_batch, \
    simhash_batch

MESSY = [
    "the quick brown fox jumps over the lazy dog",
    "double  space between tokens",
    "\ttab\tseparated\ttokens here",
    "newline\nseparated\ntokens too",
    "  leading and trailing whitespace  ",
    "two tokens",
    "solo",
    "",
    "   ",
    "que de la cio los palabras frecuentes aqui",
]


@pytest.fixture(scope="module")
def con():
    docs = pa.table({"doc_id": pa.array(range(len(MESSY)), pa.int64()),
                     "text": pa.array(MESSY, pa.string())})
    c = duckdb.connect()
    c.register("documents", docs)
    return c


def _docs_table():
    return pa.table({"doc_id": pa.array(range(len(MESSY)), pa.int64()),
                     "text": pa.array(MESSY, pa.string())})


def _canon(df):
    return df.sort_values("doc_id").reset_index(drop=True)


def test_signatures_oracle_messy(con):
    docs = _docs_table()
    py = fingerprint_batch(docs).to_pandas().merge(
        simhash_batch(docs).to_pandas(),
        on="doc_id")[["doc_id", "fp_rolling", "simhash"]]
    sql = con.execute(entry._signatures_sql()).fetchdf()
    got = _canon(sql).astype(py.dtypes.to_dict())
    assert _canon(py).equals(got), pd.concat([_canon(py), got], axis=1)


def test_langid_oracle_messy(con):
    docs = _docs_table()
    py = _canon(langid_batch(docs).to_pandas())
    sql = _canon(con.execute(entry._langid_sql()).fetchdf())
    assert py.equals(sql.astype(py.dtypes.to_dict()))


def test_simhash_pairs_oracle_messy(con):
    from uniparser_ray.stages.tokenhash import (shingle_hashes,
                                                simhash_values, to_int64)
    sh, counts = shingle_hashes(MESSY, 3)
    u = to_int64(simhash_values(sh, counts)).view(np.uint64)
    want = []
    for i in range(len(MESSY)):
        for j in range(i + 1, len(MESSY)):
            ham = bin(int(u[i] ^ u[j])).count("1")
            blocks = any(((int(u[i]) >> s) & 0xFFFF)
                         == ((int(u[j]) >> s) & 0xFFFF)
                         for s in (0, 16, 32, 48))
            if ham <= 6 and blocks:
                want.append((i, j, ham))
    sql = con.execute(entry._simhash_pairs_sql(6)).fetchdf()
    got = sorted(map(tuple, sql[["doc_a", "doc_b", "hamming"]].values))
    assert got == sorted(want)


def test_jaccard_oracle_messy(con):
    """The string-shingle oracle (incl. the short-doc whole-doc
    shingle and whitespace-robust split) equals the hashed-shingle
    pipeline semantics on messy docs."""
    from uniparser_ray.stages.tokenhash import shingle_hashes62
    sh, counts = shingle_hashes62(MESSY, 3)
    sets = {}
    pos = 0
    for i, c in enumerate(counts):
        sets[i] = set(sh[pos:pos + int(c)].tolist())
        pos += int(c)
    want = []
    for i in range(len(MESSY)):
        for j in range(i + 1, len(MESSY)):
            n = len(sets[i] & sets[j])
            if not n:
                continue
            sim = n / (len(sets[i]) + len(sets[j]) - n)
            if sim >= 0.5:
                want.append((i, j, sim))
    sql = con.execute(entry._jaccard_sql()).fetchdf()
    got = sorted(map(tuple, sql[["doc_a", "doc_b", "jaccard_sim"]].values))
    assert got == sorted(want)


def test_repetition_oracle_messy(con):
    from uniparser_ray.stages.text import repetition_batch
    py = _canon(repetition_batch(_docs_table()).to_pandas())
    sql = _canon(con.execute(entry._repetition_sql()).fetchdf())
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        pd.concat([py, sql], axis=1)


def test_pii_redact_oracle_messy(con):
    from uniparser_ray.pipelines.documents import _pii_augment
    from uniparser_ray.stages.text import pii_redact_batch
    docs = _docs_table()
    ids = np.arange(len(MESSY), dtype=np.int64)
    aug = pa.table({"doc_id": docs["doc_id"],
                    "text": pa.array(_pii_augment(ids, MESSY), pa.string())})
    py = _canon(pii_redact_batch(aug).to_pandas())
    sql = _canon(con.execute(entry._pii_redact_sql()).fetchdf())
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict()))
    # every augmented doc carries exactly one phone and 1-2 emails
    assert (py["n_phones"] == 1).all()
    assert set(py["n_emails"]) <= {1, 2}


def test_decontaminate_oracle_messy(con):
    """Benchmark residue class on a corpus where doc 0 (the 'fox' doc)
    is the held-out set: any doc sharing a 3-shingle with it must flag."""
    from uniparser_ray.stages.text import contamination_counts
    from uniparser_ray.stages.tokenhash import shingle_hashes

    bench_texts = [t for i, t in enumerate(MESSY) if i % 41 == 0]
    sh, _ = shingle_hashes(bench_texts, 3)
    block = np.unique(sh)
    rest_ids = [i for i in range(len(MESSY)) if i % 41 != 0]
    rest = [MESSY[i] for i in rest_ids]
    ns, nc = contamination_counts(rest, block)
    py = pd.DataFrame({"doc_id": np.asarray(rest_ids, np.int64),
                       "n_shingles": ns, "n_contaminated": nc,
                       "contaminated": (nc > 0).astype(np.int64)})
    sql = _canon(con.execute(entry._decontaminate_sql()).fetchdf())
    assert _canon(py).equals(sql[py.columns].astype(py.dtypes.to_dict()))


def test_pii_and_decontam_constants_in_sync():
    """The SQL literals embedded in __ray_entry__ must equal the
    pipeline/stage constants they twin."""
    from uniparser_ray.pipelines.documents import DECONTAM_BENCH_MOD
    from uniparser_ray.stages.text import PII_EMAIL_RE, PII_PHONE_RE
    assert entry.DECONTAM_MOD_SQL == DECONTAM_BENCH_MOD
    assert entry.PII_EMAIL_SQL == PII_EMAIL_RE
    assert entry.PII_PHONE_SQL == PII_PHONE_RE


def test_queries_first_50_run_dom_and_phash():
    """Correctness runs check the first 50 entries of queries().  The
    entries that run the DOM builder, the selector or the image phash,
    and the crawls that admit through robots, sit among them; the
    entries they displaced keep their callables further down, and
    there are still 132 distinct keys."""
    from uniparser_ray.pipelines import (crawl_q, documents, images_q,
                                         relational)

    q = entry.queries()
    names = list(q)
    assert len(names) == len(set(names)) == 132
    assert all(callable(fn) for fn in q.values())
    moved_in = {
        "images_phash_ann": images_q.images_phash_ann,
        "images_dedup_clusters": images_q.images_dedup_clusters,
        "crawl_images_curation": images_q.crawl_images_curation,
        "crawl_page_lineage": images_q.crawl_page_lineage,
        "crawl_image_lineage": images_q.crawl_image_lineage,
        "crawl_redirects": crawl_q.crawl_redirects,
        "doc_parse_rules": documents.doc_parse_rules,
        "crawl_robots_rfc": crawl_q.crawl_robots_rfc,
        "crawl_politeness_audit": images_q.crawl_politeness_audit,
        "crawl_round_metrics": images_q.crawl_round_metrics,
        "crawl_host_ban": crawl_q.crawl_host_ban,
        "crawl_trap_guard": crawl_q.crawl_trap_guard,
        "crawl_resume_roundtrip": crawl_q.crawl_resume_roundtrip,
    }
    moved_out = {
        "doc_shard_assign": documents.doc_shard_assign,
        "doc_seq_pack": documents.doc_seq_pack,
        "doc_bpe_pairs": documents.doc_bpe_pairs,
        "doc_dup_ngrams": documents.doc_dup_ngrams,
        "doc_dup_spans": documents.doc_dup_spans,
        "doc_dup_apply": documents.doc_dup_apply,
        "doc_token_stats": documents.doc_token_stats,
        "doc_top_tokens": documents.doc_top_tokens,
        "doc_sample_hash": documents.doc_sample_hash,
        "doc_tfidf_topk": documents.doc_tfidf_topk,
        "orders_incremental_agg": relational.orders_incremental_agg,
        "events_pivot": relational.events_pivot,
    }
    for name, fn in moved_in.items():
        assert names.index(name) < 50 and q[name] is fn, name
    for name, fn in moved_out.items():
        assert names.index(name) >= 50 and q[name] is fn, name
