"""Property-based oracle↔pipeline parity: hypothesis generates
adversarial ASCII corpora (repeats, empties, whitespace runs, token
collisions) and every sketch/stat must match its DuckDB twin exactly.

Alphabet note: the twins tokenize with RE2 ``\\s+`` (ASCII whitespace)
while python ``str.split()`` also splits on unicode whitespace
(``\\u00a0`` etc.), so the generator sticks to ASCII — the shipped and
synthetic corpora are ASCII, and the boundary is documented here.
"""

import duckdb
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

import __ray_entry__ as entry

TOKEN = st.text(alphabet="abcXYZ019._-", min_size=1, max_size=5)
DOC = st.lists(TOKEN, min_size=0, max_size=12).map(" ".join)
# inject repetition + messy whitespace shapes
MESSY_DOC = st.one_of(
    DOC,
    st.builds(lambda t, n: (" " + t) * n, TOKEN, st.integers(2, 6)),
    st.builds(lambda d: d.replace(" ", "\t", 1) + "  ", DOC),
    st.just(""), st.just("   "),
)
CORPUS = st.lists(MESSY_DOC, min_size=1, max_size=8)


def _register(docs):
    con = duckdb.connect()
    con.register("documents", pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string())}))
    return con


def _canon(df):
    return df.sort_values("doc_id").reset_index(drop=True)


@settings(max_examples=40, deadline=None)
@given(CORPUS)
def test_fuzz_repetition_parity(docs):
    from uniparser_ray.stages.text import repetition_batch
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    py = _canon(repetition_batch(t).to_pandas())
    sql = _canon(_register(docs).execute(entry._repetition_sql()).fetchdf())
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (docs, py, sql)


@settings(max_examples=40, deadline=None)
@given(CORPUS)
def test_fuzz_signatures_parity(docs):
    from uniparser_ray.stages.text import fingerprint_batch, simhash_batch
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    py = fingerprint_batch(t).to_pandas().merge(
        simhash_batch(t).to_pandas(),
        on="doc_id")[["doc_id", "fp_rolling", "simhash"]]
    sql = _canon(_register(docs).execute(entry._signatures_sql()).fetchdf())
    assert _canon(py).equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (docs, py, sql)


@settings(max_examples=25, deadline=None)
@given(CORPUS)
def test_fuzz_decontaminate_parity(docs):
    import numpy as np

    from uniparser_ray.stages.text import contamination_counts
    from uniparser_ray.stages.tokenhash import shingle_hashes

    bench = [t for i, t in enumerate(docs) if i % 41 == 0]
    sh, _ = shingle_hashes(bench, 3)
    block = np.unique(sh)
    rest_ids = [i for i in range(len(docs)) if i % 41 != 0]
    ns, nc = contamination_counts([docs[i] for i in rest_ids], block)
    py = _canon(pd.DataFrame({
        "doc_id": pd.array(rest_ids, dtype="int64"),
        "n_shingles": ns, "n_contaminated": nc,
        "contaminated": (nc > 0).astype("int64")}))
    sql = _canon(_register(docs).execute(
        entry._decontaminate_sql()).fetchdf())
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (docs, py, sql)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.floats(-1, 1, allow_nan=False, width=32),
                         min_size=3, max_size=3),
                min_size=3, max_size=12))
def test_fuzz_kmeans_parity(vecs):
    """Random small embedding tables: the nested-CTE oracle equals the
    integer reference for k=2, dim=3 (duplicates/ties included by the
    shared float32 domain)."""
    import numpy as np

    from uniparser_ray.stages.kmeans import (QUANT_OFFSET, QUANT_SCALE,
                                             _assign, quantize,
                                             update_centroids)

    arr = np.asarray(vecs, np.float32)
    con = duckdb.connect()
    con.register("embeddings", pa.table({
        "vec_id": pa.array(range(len(arr)), pa.int64()),
        "embedding": pa.array([r.tolist() for r in arr],
                              pa.list_(pa.float32()))}))
    sql = con.execute(entry._kmeans_sql(k=2, iters=2, dim=3)).fetchdf() \
        .sort_values("vec_id").reset_index(drop=True)

    q = quantize(arr.astype(np.float64), QUANT_SCALE, QUANT_OFFSET)
    cents = q[:2].copy()
    for _ in range(2):
        cl, _d = _assign(q, cents)
        sums = np.zeros((2, 3), np.int64)
        np.add.at(sums, cl, q)
        counts = np.bincount(cl, minlength=2).astype(np.int64)
        cents = update_centroids(sums, counts, cents)
    cl, d2 = _assign(q, cents)
    assert sql["cluster"].astype("int64").tolist() == cl.tolist(), vecs
    assert sql["dist2"].astype("int64").tolist() == d2.tolist(), vecs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(
    alphabet="abcZ09@+-._% ", min_size=0, max_size=40), min_size=1,
    max_size=6))
def test_fuzz_pii_redact_parity(docs):
    """Random '@'/'+'/digit-heavy ASCII soup: pyarrow's RE2 pass must
    equal DuckDB's regexp_replace(...,'g') on counts AND the full
    redacted text (via md5) — including texts that already look like
    emails/phones before augmentation."""
    import numpy as np

    from uniparser_ray.pipelines.documents import _pii_augment
    from uniparser_ray.stages.text import pii_redact_batch

    ids = list(range(len(docs)))
    aug = _pii_augment(np.asarray(ids, np.int64), docs)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(aug, pa.string())})
    py = _canon(pii_redact_batch(t).to_pandas())
    sql = _canon(_register(docs).execute(entry._pii_redact_sql()).fetchdf())
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (docs, py, sql)
    assert (py["n_emails"] >= 1).all() and (py["n_phones"] >= 1).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(DOC, st.integers(-2**63, 2**63 - 1)),
                min_size=1, max_size=8))
def test_fuzz_caption_align_parity(rows):
    """Random captions x random 64-bit phashes: the alignment stage
    equals the shadowed-view SQL twin for every hamming/simhash/flag."""
    from uniparser_ray.pipelines.images_q import CaptionAlignStage

    caps = [c for c, _ in rows]
    phs = [p for _, p in rows]
    batch = pa.table({
        "image_id": pa.array([f"i{k}" for k in range(len(rows))],
                             pa.string()),
        "caption": pa.array(caps, pa.string()),
        "phash": pa.array(phs, pa.int64())})
    py = CaptionAlignStage()(batch).to_pandas() \
        .sort_values("image_id").reset_index(drop=True)

    con = duckdb.connect()
    con.register("m", pa.table({"image_id": batch["image_id"],
                                "caption": batch["caption"],
                                "phash": batch["phash"]}))
    from uniparser_ray.stages.tokenhash import SIMHASH_SEED
    sql = con.execute(f"""
        WITH documents AS (SELECT image_id AS doc_id, caption AS text
                           FROM m),
        {entry._TOK_CTES},
        {entry._sh_cte()},
        {entry._params_cte("sp", 64, SIMHASH_SEED)},
        {entry._simhash_ctes()}
        SELECT m.image_id,
               COALESCE(s.simhash, 0) AS cap_simhash,
               bit_count(xor(m.phash, COALESCE(s.simhash, 0))) AS hamming,
               CAST(bit_count(xor(m.phash, COALESCE(s.simhash, 0)))
                    <= {entry._ALIGN_MAX_HAMMING()} AS BIGINT) AS aligned
        FROM m LEFT JOIN simh s ON s.doc_id = m.image_id
    """).fetchdf().sort_values("image_id").reset_index(drop=True)
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (rows, py, sql)


@settings(max_examples=40, deadline=None)
@given(CORPUS)
def test_fuzz_perplexity_parity(docs):
    """Integer-bit surprisal: the numpy floor-log path (bit shifts +
    the shared token-count front) equals DuckDB's length(bin(x))-1
    algebra on adversarial corpora."""
    import numpy as np

    from uniparser_ray.pipelines.documents import (_doc_token_count_rows,
                                                   _ilog2)
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    g = _doc_token_count_rows(t).to_pandas()
    tot = g.groupby("tid")["cnt"].transform("sum") \
        .to_numpy(dtype="int64")
    real = (g["tid"] >= 0).to_numpy()
    n_total = int(g["cnt"].sum())
    log_n = int(_ilog2(np.array([max(n_total, 1)], np.int64))[0])
    bits = np.zeros(len(g), np.int64)
    if real.any():
        bits[real] = g["cnt"].to_numpy()[real] * (log_n - _ilog2(tot[real]))
    per = pd.DataFrame({"doc_id": g["doc_id"], "cnt": g["cnt"],
                        "bits": bits}).groupby("doc_id") \
        .agg(n_tokens=("cnt", "sum"), sum_bits=("bits", "sum")) \
        .reset_index()
    per["mean_millibits"] = (
        (1000 * per["sum_bits"])
        // per["n_tokens"].clip(lower=1)).where(per["n_tokens"] > 0, 0)
    py = _canon(per.astype("int64"))
    sql = _canon(_register(docs).execute(entry._perplexity_sql()).fetchdf())
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (docs, py, sql)


@settings(max_examples=30, deadline=None)
@given(CORPUS, st.lists(st.one_of(DOC, st.integers(0, 7)),
                        min_size=1, max_size=6))
def test_fuzz_caption_decontaminate_parity(docs, caps_spec):
    """Cross-modal decontamination: captions that QUOTE a benchmark
    document (int specs copy docs[i] verbatim, so shingle overlap with
    the doc_id%MOD==0 split genuinely occurs) must flag identically in
    the numpy searchsorted probe and the renamed-CTE DuckDB stack."""
    import numpy as np

    from uniparser_ray.pipelines.documents import DECONTAM_BENCH_MOD
    from uniparser_ray.stages.text import contamination_counts
    from uniparser_ray.stages.tokenhash import shingle_hashes

    caps = [docs[i % len(docs)] if isinstance(i, int) else i
            for i in caps_spec]
    bench = [d for j, d in enumerate(docs)
             if j % DECONTAM_BENCH_MOD == 0]
    sh, _ = shingle_hashes(bench, k=3)
    blk = np.unique(sh)
    ns, nc = contamination_counts(caps, blk)
    py = pd.DataFrame({
        "image_id": [f"img-{i:04d}" for i in range(len(caps))],
        "n_shingles": ns.astype("int64"),
        "n_contaminated": nc.astype("int64"),
        "contaminated": (nc > 0).astype("int64")})

    con = _register(docs)
    con.register("m", pa.table({
        "image_id": pa.array(py["image_id"], pa.string()),
        "caption": pa.array(caps, pa.string())}))
    sql = con.execute(f"""
        WITH {entry._TOK_CTES},
        {entry._sh_cte()},
        bench AS (SELECT DISTINCT s FROM sh
                  WHERE doc_id % {entry.DECONTAM_MOD_SQL} = 0),
        caps AS (SELECT image_id AS doc_id, caption AS text FROM m),
        {entry._tok_ctes(src='caps', p='c')},
        {entry._sh_cte(p='c')},
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
    """).fetchdf().sort_values("image_id").reset_index(drop=True)
    py = py.sort_values("image_id").reset_index(drop=True)
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (docs, caps, py, sql)


@settings(max_examples=30, deadline=None)
@given(CORPUS)
def test_fuzz_doc_chunks_parity(docs):
    """Chunk windows + Horner content hashes: a BRUTE-FORCE per-doc
    loop (independent of the pipeline's vectorized index algebra)
    equals the generate_series + HB-power DuckDB twin on adversarial
    corpora (short docs, tail chunks, whitespace runs)."""
    from uniparser_ray.pipelines.documents import CHUNK_S, CHUNK_W
    from uniparser_ray.stages.tokenhash import _horner, batch_token_ids

    rows = []
    for did, text in enumerate(docs):
        ids, _ = batch_token_ids([text])
        n = len(ids)
        for ci, s in enumerate(range(0, n, CHUNK_S)):
            w = min(CHUNK_W, n - s)
            rows.append((did, ci, s, w, _horner(ids[s:s + w])))
    py = pd.DataFrame(rows, columns=["doc_id", "chunk_id", "start_tok",
                                     "n_tokens", "chunk_hash"]) \
        .astype("int64") if rows else pd.DataFrame(
        columns=["doc_id", "chunk_id", "start_tok", "n_tokens",
                 "chunk_hash"], dtype="int64")
    sql = _register(docs).execute(entry._doc_chunks_sql()).fetchdf() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    py = py.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    assert py.equals(sql[py.columns].astype("int64")), (docs, py, sql)


# repeated single tokens make equal gram hashes inside one window —
# the rightmost-tie rule is exactly what this generator stresses
WINNOW_DOC = st.one_of(
    DOC,
    st.builds(lambda t, n: " ".join([t] * n), TOKEN, st.integers(3, 12)),
    st.builds(lambda a, b, n: " ".join(([a, b] * n)[:n + 3]),
              TOKEN, TOKEN, st.integers(3, 10)),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(WINNOW_DOC, min_size=1, max_size=6))
def test_fuzz_doc_winnow_parity(docs):
    """Winnowing fingerprints: a brute-force per-window loop
    (rightmost min via reversed scan) equals the window-min-join
    DuckDB twin — repeated-token corpora force in-window hash ties,
    pinning the rightmost-tie rule on both engines."""
    import numpy as np

    from uniparser_ray.pipelines.documents import WINNOW_K, WINNOW_W
    from uniparser_ray.stages.tokenhash import batch_token_ids, window_hashes

    rows = set()
    for did, text in enumerate(docs):
        flat, offs = batch_token_ids([text])
        wh, counts = window_hashes(flat, offs, k=WINNOW_K)
        c = int(counts[0])
        for ws in range(max(1, c - WINNOW_W + 1) if c else 0):
            win = wh[ws:ws + WINNOW_W]
            m = win.min()
            pos = ws + int(max(np.flatnonzero(win == m)))
            rows.add((did, pos, int(np.int64(m))))
    py = pd.DataFrame(sorted(rows), columns=["doc_id", "pos", "fp"]) \
        .astype("int64") if rows else pd.DataFrame(
        columns=["doc_id", "pos", "fp"], dtype="int64")
    sql = _register(docs).execute(entry._winnow_sql()).fetchdf() \
        .sort_values(["doc_id", "pos"]).reset_index(drop=True)
    py = py.sort_values(["doc_id", "pos"]).reset_index(drop=True)
    assert py.equals(sql[py.columns].astype("int64")), (docs, py, sql)


@settings(max_examples=40, deadline=None)
@given(CORPUS)
def test_fuzz_bigram_surprisal_parity(docs):
    """Bigram-LM surprisal: the numpy prefix/bigram transform algebra
    (in-bucket group sums + bit-shift floor logs) equals DuckDB's
    positional-unnest + length(bin(x))-1 twin on adversarial corpora."""
    import numpy as np

    from uniparser_ray.pipelines.documents import _ilog2
    from uniparser_ray.stages.tokenhash import batch_token_ids

    flat, offs = batch_token_ids(docs)
    lens = np.diff(offs)
    docidx = np.repeat(np.arange(len(docs)), lens)
    valid = docidx[:-1] == docidx[1:] if len(flat) else np.zeros(0, bool)
    df = pd.DataFrame({"doc_id": docidx[:-1][valid],
                       "v": flat[:-1][valid].astype("int64"),
                       "w": flat[1:][valid].astype("int64")})
    g = df.groupby(["doc_id", "v", "w"], sort=False).size() \
        .reset_index(name="cnt")
    cp = g.groupby("v")["cnt"].transform("sum").to_numpy("int64")
    cb = g.groupby(["v", "w"])["cnt"].transform("sum").to_numpy("int64")
    bits = (g["cnt"].to_numpy("int64")
            * (_ilog2(cp) - _ilog2(cb))) if len(g) else \
        np.zeros(0, np.int64)
    per = pd.DataFrame({"doc_id": g["doc_id"], "cnt": g["cnt"],
                        "bits": bits}).groupby("doc_id") \
        .agg(n_bigrams=("cnt", "sum"), sum_bits=("bits", "sum"))
    per = per.reindex(range(len(docs)), fill_value=0).reset_index() \
        .rename(columns={"index": "doc_id"})
    per["mean_millibits"] = (
        (1000 * per["sum_bits"])
        // per["n_bigrams"].clip(lower=1)).where(per["n_bigrams"] > 0, 0)
    py = _canon(per.astype("int64"))
    sql = _canon(_register(docs).execute(
        entry._bigram_surprisal_sql()).fetchdf())
    assert py.equals(sql[py.columns].astype(py.dtypes.to_dict())), \
        (docs, py, sql)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
       st.integers(0, 29))
def test_fuzz_anomaly_cross_multiplication(counts, idx):
    """The integer z-score test (d>0 and d^2 > k^2(W*SS - S^2)) agrees
    with the float mean+k*sigma comparison away from exact-boundary
    ties, for k=2 — pins the cross-multiplied algebra incl. overflow
    headroom at 1e6-count windows."""
    import math

    idx = idx % len(counts)
    n = counts[idx]
    W = len(counts)
    S = sum(counts)
    SS = sum(c * c for c in counts)
    d = W * n - S
    var_term = W * SS - S * S
    int_flag = d > 0 and d * d > 4 * var_term
    mean = S / W
    sigma = math.sqrt(max(var_term, 0)) / W
    lhs, rhs = n - mean, 2 * sigma
    if abs(lhs * lhs - rhs * rhs) > 1e-6 * max(1.0, rhs * rhs):
        assert int_flag == (lhs > 0 and lhs * lhs > rhs * rhs), \
            (counts, n, d, var_term)


# Parse rules for the pruned-vs-full differential, each with whether
# the projection analysis may prune a pack that holds it: descendant,
# class, id and attribute selectors and subtree-local udf reads prune;
# child/sibling combinators, structural pseudos, a bare '*', a udf
# that walks to .parent and a udf that imports the engine, or reaches
# it through a helper module's attributes, to css-parse the page
# string itself must fall back to the full build.
PRUNE_POOL = [
    ({"name": "desc", "chain_rules": [["css", "p a", "$text"]]}, True),
    ({"name": "kid", "chain_rules": [["css", "p > a", "@href"]]}, False),
    ({"name": "sib", "chain_rules": [["se", "li + li", "$text"]]}, False),
    ({"name": "nth", "chain_rules": [["css1", ":nth-child(2)",
                                      "$outerHTML"]]}, False),
    ({"name": "star", "chain_rules": [["css", "*", "$text"]]}, False),
    ({"name": "cls", "chain_rules": [["css", ".x", "$html"]]}, True),
    ({"name": "id", "chain_rules": [["se1", "#i", "$self"]]}, True),
    ({"name": "data", "chain_rules": [["css", "[data-i]", "@data-i"]]}, True),
    ({"name": "__request__", "chain_rules": [["css", "a[href]", "@href"]]},
     True),
    ({"name": "up", "chain_rules": [["css", "a", "$self"]],
      "iter_parse_child": True,
      "child_rules": [{"name": "tag",
                       "chain_rules": [["udf", "obj.parent.tag", ""]]}]},
     False),
    ({"name": "engine", "chain_rules": [[
        "udf", "__import__('uniparser_ray.rulevm.parsers', fromlist=['x'])"
               ".CSSParser().parse(obj, 'span', '$text')", ""]]}, False),
    ({"name": "images", "chain_rules": [["css", "img, a.x", "$self"]],
      "iter_parse_child": True,
      "child_rules": [
          {"name": "src", "chain_rules": [
              ["udf", "obj.get('src') or obj.get('href')", ""]]},
          {"name": "caption", "chain_rules": [
              ["udf", "obj.get('alt')", ""]]}]}, True),
    ({"name": "reach", "chain_rules": [[
        "udf", "re.enum.sys.modules['uniparser_ray.rulevm.parsers']"
               ".CSSParser().parse(obj, 'span', '$text')", ""]]}, False),
    ({"name": "px", "chain_rules": [["css", "p.x", "$outerHTML"]]}, True),
    ({"name": "cell", "chain_rules": [["se", "td", "$html"]]}, True),
]


def test_fuzz_pruned_build_equals_full_build():
    """FetchParseStage parses each page on the tree its rule's
    projection keeps.  For random markup and random packs, its page
    rows (result_json, links, images) must equal the rows of the same
    stage on full trees, and the analysis must prune exactly the
    packs it can prove."""
    import copy
    import json
    import sys
    from pathlib import Path
    from unittest import mock

    sys.path.insert(0, str(Path(__file__).parent))
    from test_rulevm_parsers import _markup, _OnePageAdapter, _page_batch

    from uniparser_ray.crawl.storage import JSONRuleStorage
    from uniparser_ray.rulevm import projection as proj_mod
    from uniparser_ray.rulevm.dom import _fast_build
    from uniparser_ray.stages.crawl_stages import FetchParseStage

    host = "host-0000.test"
    pruned_pages = []

    def rows(pack, markups, prune):
        stage = FetchParseStage(rule_pack=pack, web_config={})
        out = []
        with mock.patch.object(proj_mod, "rule_projection",
                               proj_mod.rule_projection if prune
                               else (lambda rule: None)):
            for markup in markups:
                stage.adapter = _OnePageAdapter(markup)
                out += stage(_page_batch([f"http://{host}/"])).to_pylist()
        return out

    def pack_of(picks):
        return {host: {"host": host, "crawler_rules": {"page": {
            "name": "page", "regex": "",
            "request_args": {"method": "get", "url": f"http://{host}/"},
            "parse_rules": [copy.deepcopy(PRUNE_POOL[i][0])
                            for i in picks]}}}}

    def projection_of(pack):
        return proj_mod.rule_projection(JSONRuleStorage(
            **copy.deepcopy(pack)).find_crawler_rule(f"http://{host}/"))

    # each entry beside the prunable 'desc': the analysis decides every
    # entry whatever packs Hypothesis happens to draw
    for i, (_, prunable) in enumerate(PRUNE_POOL):
        assert (projection_of(pack_of(sorted({0, i}))) is not None) \
            == prunable, PRUNE_POOL[i][0]["name"]

    # html.parser raises on an unknown marked section; css parses
    # return that as their value, with pruning as without
    hostile = ['<p><a href="u">x</a></p><![foo[ y ]]>']
    got = rows(pack_of([0, 8]), hostile, prune=True)
    assert "AssertionError" in got[0]["result_json"]
    assert got == rows(pack_of([0, 8]), hostile, prune=False)

    def picks_from(indexes):
        return st.lists(st.sampled_from(indexes), min_size=1, max_size=4,
                        unique=True)

    # half the packs prunable throughout, so many pages take the
    # pruned build
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        picks_from([i for i, (_, ok) in enumerate(PRUNE_POOL) if ok]),
        picks_from(range(len(PRUNE_POOL)))),
        st.lists(_markup(), min_size=1, max_size=3))
    def prop(picks, markups):
        pack = pack_of(picks)
        projection = projection_of(pack)
        assert (projection is not None) == all(
            PRUNE_POOL[i][1] for i in picks), picks
        if projection is not None:
            pruned_pages.extend(m for m in markups
                                if _fast_build(m, projection) is not None)
        got = rows(pack, markups, prune=True)
        want = rows(pack, markups, prune=False)
        assert [r["status"] for r in got] == [200] * len(markups)
        assert got == want, (picks, markups)
        assert [json.loads(r["result_json"]) for r in got]

    prop()
    assert len(pruned_pages) >= 20

    # A pack whose selectors all name tags: the builder jumps between
    # candidate start tags and runs the per-tag loop only inside kept
    # elements.  Markup the one-pass builder rejects sits before,
    # between and after the candidates; there are uppercase candidates,
    # entity-bearing attributes, kept elements closed by an implied
    # close, and an end tag closing an element outside the kept one,
    # which gives the page no pruned tree.  A pack of tagless
    # selectors makes every start tag a candidate, and jumps too.
    from test_rulevm_parsers import _std_tree

    from uniparser_ray.rulevm import dom

    jump_pack = pack_of([i for i, (r, _) in enumerate(PRUNE_POOL)
                         if r["name"] in ("desc", "__request__", "images",
                                          "px", "cell")])
    jump_projection = projection_of(jump_pack)
    assert jump_projection.scan is not None
    loose_pack = pack_of([i for i, (r, _) in enumerate(PRUNE_POOL)
                          if r["name"] in ("desc", "cls", "id", "data")])
    loose_projection = projection_of(loose_pack)
    assert loose_projection.loose and loose_projection.scan is not None
    candidates = [
        '<p><a href="/u1">one</a></p>',
        '<A CLASS="x" HREF="/u?a=1&amp;b=2">Up</A>',
        '<IMG SRC="/i&amp;j.png" alt="it&#39;s"/>',
        '<p class="x">kept<b>bold</b><div>closes it</div>',
        '<table><tr><td>c1<tr><td>c2</td></tr></table>',
        '<div id="i"><span data-i="7">d</span></div><I data-i="8"/>',
    ]
    rerun = '<div><p class="x">in<a href="/u3">x</a></div>out</p>'
    # html.parser reads these, the one-pass builder does not; none
    # holds a candidate tag, so after the last candidate none is read
    unread = ["<!-- c -->", "<script>if (a<b) f()</script>",
              "<span title='q'>s</span>", "5 < 6", "a > b", "</b c>"]
    hostile = unread + [
        '<!-- <a href="/c">c</a> -->',
        '<script>f("<a href=/s>s</a>")</script>',
        '<SCRIPT><a href="/s">s</a></SCRIPT>',
        "<a href='/q'>q</a>", "</a b>", "<![foo[ y ]]>",
        '<a\x0bhref="/v">v</a>',
    ]

    def kept_roots(root, projection):
        """outer_html of the elements the projection keeps whole: each
        matching element that no matching element encloses."""
        out = []
        for el in root.children:
            if el.kind != dom.ELEMENT:
                continue
            if any(dom._match_compound(el, c) for c in
                   projection.by_tag.get(el.tag, projection.loose)):
                out.append(el.outer_html())
            else:
                out += kept_roots(el, projection)
        return out

    def same_tree(page, projection=jump_projection):
        """The pruned tree holds html.parser's kept subtrees, or the
        page gets none (and its parses build the full tree)."""
        pruned = dom._fast_build(page, projection)
        try:
            std = _std_tree(page)
        except AssertionError:    # html.parser raises: no pruned tree
            assert pruned is None, page
            return False
        assert dom.parse_html(page).outer_html() == std.outer_html(), page
        if pruned is not None:
            assert [c.outer_html() for c in pruned.children] \
                == kept_roots(std, projection), page
        return pruned is not None

    sweep = [rerun] + ["".join(candidates[:k] + [h] + candidates[k:])
                       for h in hostile
                       for k in (0, len(candidates) // 2, len(candidates))]
    pruned = [page for page in sweep if same_tree(page)]
    assert all("".join(candidates) + h in pruned for h in unread)
    assert rows(jump_pack, sweep, prune=True) \
        == rows(jump_pack, sweep, prune=False)
    assert dom._fast_build(rerun, jump_projection) is None
    # every start tag is a loose candidate, so only the hostile pieces
    # without one are left unread after the last candidate
    loose_pruned = [page for page in sweep
                    if same_tree(page, loose_projection)]
    assert all("".join(candidates) + h in loose_pruned
               for h in ("<!-- c -->", "5 < 6", "a > b", "</b c>"))
    assert rows(loose_pack, sweep, prune=True) \
        == rows(loose_pack, sweep, prune=False)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(candidates + [rerun]),
                              st.sampled_from(hostile), _markup()),
                    min_size=1, max_size=6).map("".join))
    def jumps(page):
        for pack, projection in ((jump_pack, jump_projection),
                                 (loose_pack, loose_projection)):
            same_tree(page, projection)
            assert rows(pack, [page], prune=True) \
                == rows(pack, [page], prune=False), page

    jumps()
