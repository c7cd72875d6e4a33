"""Ray Data stage tests: rule engine, text analysis, dedup, ANN."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd
    rows = [
        {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 1, "text": "the quick brown fox jumps over the lazy cat"},
        {"doc_id": 2, "text": "completely different content about spark engines"},
        {"doc_id": 3, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 4, "text": "another unrelated piece of text entirely here"},
    ]
    return rd.from_items(rows)


def test_rule_engine_stage(ray_session):
    import ray.data as rd
    from uniparser_ray.stages.rule_engine import parse_dataset

    ds = rd.from_items([{"doc_id": i, "text": f"hello world {i}"}
                        for i in range(10)])
    rules = [
        {"name": "first", "chain_rules": [["re", r"^\w+", "#0"]],
         "child_rules": []},
        {"name": "rev", "chain_rules": [["udf", "obj[::-1]", ""]],
         "child_rules": []},
        {"name": "num", "chain_rules": [["re", r"\d+", "#0"],
                                        ["udf", "int(obj)", ""]],
         "child_rules": []},
    ]
    # Ray Data does not keep row order across batches
    out = parse_dataset(ds, rules, batch_size=4).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert list(out["doc_id"]) == list(range(10))
    assert list(out["first"]) == ["hello"] * 10
    assert out["rev"][0] == "0 dlrow olleh"
    assert list(out["num"]) == list(range(10))
    assert out["error"].isna().all()


def test_rule_engine_error_column(ray_session):
    import ray.data as rd
    from uniparser_ray.stages.rule_engine import parse_dataset

    ds = rd.from_items([{"text": "abc"}, {"text": "12"}])
    rules = [{"name": "n", "chain_rules": [["udf", "int(obj)", ""]],
              "child_rules": []}]
    out = parse_dataset(ds, rules).to_pandas()
    byv = out.set_index("text")
    assert byv.loc["12", "n"] == 12
    assert byv.loc["abc", "error_type"] == "ValueError"
    assert pd.isna(byv.loc["abc", "n"])


def test_exact_dedup(docs_ds):
    from uniparser_ray.stages.dedup import exact_dedup_groups

    out = exact_dedup_groups(docs_ds).to_pandas()
    assert len(out) == 4  # docs 0 and 3 collapse
    dup = out[out["dup_count"] > 1]
    assert len(dup) == 1 and dup.iloc[0]["keeper_id"] == 0
    assert dup.iloc[0]["dup_count"] == 2


def test_minhash_neardup(docs_ds):
    from uniparser_ray.stages.dedup import minhash_neardup_pairs

    out = minhash_neardup_pairs(docs_ds, threshold=0.5).to_pandas()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    # exact dup pair + the 1-word-difference pair must be found
    assert (0, 3) in pairs
    assert (0, 1) in pairs or (1, 3) in pairs
    # unrelated docs must not pair
    assert not any(2 in p or 4 in p for p in pairs)
    # jaccard of the exact pair is 1.0
    exact = out[(out["doc_a"] == 0) & (out["doc_b"] == 3)]
    assert float(exact["jaccard_sim"].iloc[0]) == 1.0


def test_minhash_neardup_distributed_path_equal(docs_ds):
    """broadcast_limit=0 forces the fully distributed verify (candidate
    Datasets + bucketed joins, nothing on the driver); its thresholded
    pairs must equal the bounded-broadcast path exactly."""
    from uniparser_ray.stages.dedup import minhash_neardup_pairs

    def norm(res):
        df = res.to_pandas()[["doc_a", "doc_b", "jaccard_sim"]]
        df["jaccard_sim"] = df["jaccard_sim"].round(9)
        return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    fast = norm(minhash_neardup_pairs(docs_ds, threshold=0.5))
    dist = norm(minhash_neardup_pairs(docs_ds, threshold=0.5,
                                      broadcast_limit=0))
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, dist)


def test_minhash_band_cap_hot_bucket(ray_session):
    """Hot-bucket guard: 10^3 identical docs put 1000 doc_ids into
    EVERY (band_id, band_hash) bucket — uncapped that's ~500k pair
    rows per band; with band_cap the bucket chain-links to O(m) pairs
    while transitive connectivity across all 1000 docs is preserved."""
    import ray.data as rd

    from uniparser_ray.stages.dedup import (minhash_candidate_pairs,
                                            minhash_neardup_pairs)

    n = 1000
    text = "the quick brown fox jumps over the lazy dog again and again"
    ds = rd.from_items([{"doc_id": i, "text": text} for i in range(n)])

    raw = minhash_candidate_pairs(ds, band_cap=32).to_pandas()
    # O(m) not O(m^2): each band chain-links the same sorted id
    # sequence, so only consecutive pairs are emitted — at most one
    # row per band per pair (caller-side dedup contract), vs ~500k
    # rows per band uncapped
    assert len(raw) <= 16 * (n - 1)
    pairs = raw.drop_duplicates()
    assert set(zip(pairs["doc_a"], pairs["doc_b"])) \
        == {(i, i + 1) for i in range(n - 1)}

    # connectivity: one pass of union-find spans the whole cluster
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        parent[find(int(a))] = find(int(b))
    assert len({find(i) for i in range(n)}) == 1

    # the full verify pipeline stays correct through the cap: every
    # chained pair is a true dup (jaccard exactly 1.0)
    out = minhash_neardup_pairs(ds, threshold=0.9,
                                band_cap=32).to_pandas()
    assert len(out) == n - 1
    assert (out["jaccard_sim"] == 1.0).all()


def test_minhash_band_cap_none_is_exact(docs_ds):
    """Default band_cap=None is byte-identical to a cap that never
    fires — the oracle-checked configuration is untouched."""
    from uniparser_ray.stages.dedup import minhash_candidate_pairs

    def norm(res):
        df = res.to_pandas()
        return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    base = norm(minhash_candidate_pairs(docs_ds))
    capped = norm(minhash_candidate_pairs(docs_ds, band_cap=10 ** 9))
    pd.testing.assert_frame_equal(base, capped)


def test_simhash_neardup(docs_ds):
    from uniparser_ray.stages.dedup import simhash_neardup_pairs

    out = simhash_neardup_pairs(docs_ds, max_hamming=10).to_pandas()
    pairs = {(a, b): h for a, b, h in
             zip(out["doc_a"], out["doc_b"], out["hamming"])}
    assert pairs.get((0, 3)) == 0  # identical docs -> distance 0


def test_brute_topk_matches_numpy(ray_session):
    import ray.data as rd
    from uniparser_ray.stages.ann import brute_topk

    rng = np.random.RandomState(0)
    vecs = rng.randn(200, 16)
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(200)])
    out = brute_topk(ds, [0, 1], vecs[:2], k=5).to_pandas()
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for q in (0, 1):
        sims = unit[q] @ unit.T
        want = np.lexsort((np.arange(200), -sims))[:5]
        got = out[out["query_id"] == q].sort_values("rank")["vec_id"]
        assert list(got) == list(want)


def test_ivf_recall(ray_session):
    import ray.data as rd
    from uniparser_ray.stages.ann import brute_topk, ivf_topk

    rng = np.random.RandomState(1)
    vecs = rng.randn(300, 8)
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(300)])
    exact = brute_topk(ds, [0], vecs[:1], k=10).to_pandas()
    approx = ivf_topk(ds, [0], vecs[:1], k=10, num_centroids=8,
                      nprobe=4).to_pandas()
    recall = len(set(exact["vec_id"]) & set(approx["vec_id"])) / 10
    assert recall >= 0.5  # approximate by design; sanity floor


def test_ivf_pruned_read(ray_session, tmp_path):
    """The persisted index reads ONLY the probed partitions (the 100 TB
    contract), and the exhaustive limit equals brute force exactly."""
    import ray.data as rd
    from uniparser_ray.stages.ann import IVFIndex, brute_topk

    rng = np.random.RandomState(2)
    vecs = rng.randn(300, 8)
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(300)])
    idx = IVFIndex.build(ds, str(tmp_path / "ivf"), num_centroids=8,
                         sample_size=300, seed=3)
    # nprobe=2 with one query: exactly <=2 partition dirs opened
    idx.search([0], vecs[:1], k=10, nprobe=2).materialize()
    assert 0 < len(idx.last_read_paths) <= 2
    all_lists = idx.search([0], vecs[:1], k=10, nprobe=8)
    n_all = len(idx.last_read_paths)
    assert n_all > 2  # pruning actually skipped partitions earlier
    exact = brute_topk(ds, [0], vecs[:1], k=10).to_pandas()
    got = all_lists.to_pandas().sort_values("rank")
    assert list(got["vec_id"]) == list(
        exact.sort_values("rank")["vec_id"])


def test_text_stages(ray_session):
    import ray.data as rd
    from uniparser_ray.stages.text import (fingerprint_batch, langid_batch,
                                           quality_batch, simhash_batch,
                                           token_stats_batch)

    ds = rd.from_items([
        {"doc_id": 0, "text": "the cat and the dog in the house"},
        {"doc_id": 1, "text": "schneller zug der durch und ich sch"},
    ])
    stats = ds.map_batches(token_stats_batch,
                           batch_format="pyarrow").to_pandas()
    assert stats.loc[stats["doc_id"] == 0, "n_tokens"].iloc[0] == 8
    q = ds.map_batches(quality_batch, batch_format="pandas").to_pandas()
    assert (q.loc[q["doc_id"] == 0, "stop_ratio"] > 0.3).all()
    lang = ds.map_batches(langid_batch, batch_format="pyarrow").to_pandas()
    assert lang.loc[lang["doc_id"] == 0, "lang_pred"].iloc[0] == "en"
    assert lang.loc[lang["doc_id"] == 1, "lang_pred"].iloc[0] == "de"
    fp = ds.map_batches(fingerprint_batch, batch_format="pyarrow").to_pandas()
    assert fp["fp_md5"].nunique() == 2
    sh = ds.map_batches(simhash_batch, batch_format="pyarrow").to_pandas()
    assert sh["simhash"].nunique() == 2


def test_partial_groupby_matches_pandas(ray_session):
    import ray.data as rd
    from uniparser_ray.stages.combine import grouped_aggregate

    rng = np.random.RandomState(3)
    df = pd.DataFrame({"k": rng.randint(0, 5, 1000),
                       "v": rng.rand(1000)})
    ds = rd.from_pandas(df)
    out = grouped_aggregate(ds, ["k"], {"s": ("v", "sum"),
                                        "n": ("v", "count")},
                            batch_size=128).to_pandas().sort_values("k")
    want = df.groupby("k").agg(s=("v", "sum"), n=("v", "count")).reset_index()
    assert np.allclose(out["s"].values, want["s"].values)
    assert list(out["n"]) == list(want["n"])


def test_jaccard_pairs_exact(docs_ds):
    """Inverted-index jaccard equals brute-force all-pairs."""
    from itertools import combinations

    from uniparser_ray.stages.dedup import jaccard, jaccard_pairs

    got = jaccard_pairs(docs_ds, threshold=0.5).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    rows = {r["doc_id"]: r["text"] for r in docs_ds.take_all()}
    want = sorted((a, b, round(jaccard(rows[a], rows[b]), 6))
                  for a, b in combinations(sorted(rows), 2)
                  if jaccard(rows[a], rows[b]) >= 0.5)
    assert [tuple(r) for r in got.itertuples(index=False)] == want


def test_hash_bucket_join_matches_pandas(ray_session, monkeypatch):
    """Every join type against pandas ``merge`` (which, like the
    canonical key, matches null to null), on the one-bucket and the
    many-bucket side of the exchange: null keys on both sides, an
    empty side, and a list-typed payload (Acero's join rejects list
    non-key fields; the index join carries them)."""
    import ray
    import ray.data as rd

    from uniparser_ray.stages import combine
    from uniparser_ray.stages.combine import hash_bucket_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "lv": [10., 20., 21., 30., 50.]})
    right = pd.DataFrame({"rk": [2, 3, 3, 4], "rv": ["b", "c", "c2", "d"]})
    got = hash_bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                           "k", "rk", num_buckets=4).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk", how="inner")
    cols = ["k", "lv", "rk", "rv"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    got["k"] = got["k"].astype("int64"); got["rk"] = got["rk"].astype("int64")
    want["k"] = want["k"].astype("int64"); want["rk"] = want["rk"].astype("int64")
    assert got.equals(want)

    nl = pd.DataFrame({"k": pd.Series(["a", None, "b", "c", None, "a"],
                                      dtype=object),
                       "lv": [1, 2, 3, 4, 5, 6]})
    nr = pd.DataFrame({"rk": pd.Series(["a", None, "d", "a"], dtype=object),
                       "rv": [10, 20, 30, 40]})
    empty_r = nr.iloc[:0]

    def norm(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        return int(v) if isinstance(v, (float, np.number)) else v

    def rows(records):
        return sorted((tuple(norm(v) for v in r) for r in records), key=repr)

    for rpb in (200_000, 2):                 # one bucket, many buckets
        monkeypatch.setattr(combine, "_ROWS_PER_BUCKET", rpb)
        for how in ("inner", "left", "right", "outer"):
            for r in (nr, empty_r):
                ds = hash_bucket_join(
                    rd.from_pandas(nl), rd.from_pandas(r), "k", "rk",
                    how=how, num_buckets=8, left_cols=["k", "lv"],
                    right_cols=["rk", "rv"])
                t = pa.concat_tables(ray.get(ds.to_arrow_refs()),
                                     promote_options="permissive")
                assert t.column_names == cols
                want = nl.merge(r, left_on="k", right_on="rk", how=how)
                assert rows(tuple(d.values()) for d in t.to_pylist()) \
                    == rows(want[cols].itertuples(index=False)), \
                    (rpb, how, len(r))

        # list payload, equal key names: right/outer fill the key
        ll = pd.DataFrame({"k": [1, 2, 3], "tags": [[1, 2], [], [3]]})
        rl = pd.DataFrame({"k": [2, 3, 4], "rv": ["x", "y", "z"]})
        for how, want in (
                ("inner", [(2, [], "x"), (3, [3], "y")]),
                ("outer", [(1, [1, 2], None), (2, [], "x"), (3, [3], "y"),
                           (4, None, "z")])):
            ds = hash_bucket_join(rd.from_pandas(ll), rd.from_pandas(rl),
                                  "k", "k", how=how, num_buckets=8,
                                  left_cols=["k", "tags"],
                                  right_cols=["k", "rv"])
            t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
            assert t.column_names == ["k", "tags", "rv"]
            assert pa.types.is_list(t.schema.field("tags").type)
            assert sorted(tuple(r.values()) for r in t.to_pylist()) == want


def test_hash_bucket_join_64bit_values_lossless(ray_session):
    """Null-padded int columns must survive the arrow->pandas hop
    without float64 promotion: values above 2**53 (this repo's 64-bit
    hashes) join and restore bit-exactly."""
    import ray.data as rd

    from uniparser_ray.stages.combine import hash_bucket_join

    big = [(1 << 62) + 1, (1 << 62) + 2, (1 << 53) + 1]
    left = pd.DataFrame({"k": [1, 2, 3], "lv": big})
    right = pd.DataFrame({"rk": [1, 2, 3], "rv": [b + 7 for b in big]})
    got = hash_bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                           "k", "rk", num_buckets=4).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert got["lv"].astype("int64").tolist() == big
    assert got["rv"].astype("int64").tolist() == [b + 7 for b in big]


def test_hash_bucket_join_mixed_kind_batches(ray_session):
    """A value's bucket must not depend on its batch neighbors: an
    object-dtype key batch that happens to be all-numeric ('101')
    must canonicalize the same as a mixed batch containing '101',
    so equal keys always meet.  Also: python ints >= 2**63 must not
    raise OverflowError, and float-valued object keys must not be
    truncated to ints (1.5 != 1)."""
    import ray
    import ray.data as rd

    from uniparser_ray.stages.combine import hash_bucket_join

    # left: two 1-row blocks -> one all-numeric object batch ('101')
    # and one mixed batch ('101' again + 'x') — pre-fix these bucketed
    # differently and the self-join silently dropped matches.
    l1 = pd.DataFrame({"k": pd.Series(["101"], dtype=object), "lv": [1]})
    l2 = pd.DataFrame({"k": pd.Series(["101", "x"], dtype=object),
                       "lv": [2, 3]})
    left = rd.from_pandas(l1).union(rd.from_pandas(l2))
    right = rd.from_pandas(pd.DataFrame(
        {"rk": pd.Series(["101", "x"], dtype=object), "rv": [10, 20]}))
    got = hash_bucket_join(left, right, "k", "rk", num_buckets=64,
                           left_cols=["k", "lv"], right_cols=["rk", "rv"]) \
        .to_pandas().sort_values(["lv"]).reset_index(drop=True)
    assert got["lv"].tolist() == [1, 2, 3]
    assert got["rv"].tolist() == [10, 10, 20]

    # huge uint64 keys (>= 2**63 — the old int64 cast raised
    # OverflowError): no crash, exact match.  (Object columns of
    # python ints >= 2**63 can't enter an Arrow block at all —
    # pyarrow infers int64 with no uint64 fallback — so uint64 dtype
    # is the reachable carrier for such keys.)
    huge = (1 << 63) + 3
    lh = rd.from_pandas(pd.DataFrame(
        {"k": pd.Series([huge, 7], dtype="uint64"), "lv": [1, 2]}))
    rh = rd.from_pandas(pd.DataFrame(
        {"rk": pd.Series([huge], dtype="uint64"), "rv": ["big"]}))
    goth = hash_bucket_join(lh, rh, "k", "rk", num_buckets=8,
                            left_cols=["k", "lv"], right_cols=["rk", "rv"]) \
        .to_pandas()
    assert goth["lv"].tolist() == [1] and goth["rv"].tolist() == ["big"]

    # float keys keep their value (no 1.5 -> 1 truncation) and int 1
    # never matches float 1.5; int-kind vs str-kind sides produce an
    # empty join (no schema-unification error), not a crash.
    lf = rd.from_pandas(pd.DataFrame(
        {"k": pd.Series([1.5, 1.0], dtype=object), "lv": [1, 2]}))
    rf = rd.from_pandas(pd.DataFrame(
        {"rk": pd.Series([1.5, 1], dtype=object), "rv": ["f", "i"]}))
    gotf = hash_bucket_join(lf, rf, "k", "rk", num_buckets=8,
                            left_cols=["k", "lv"], right_cols=["rk", "rv"]) \
        .to_pandas()
    assert gotf["lv"].tolist() == [1] and gotf["rv"].tolist() == ["f"]

    li = rd.from_pandas(pd.DataFrame({"k": [1, 2], "lv": [1, 2]}))
    rs = rd.from_pandas(pd.DataFrame({"rk": ["1", "2"], "rv": ["a", "b"]}))
    goti = hash_bucket_join(li, rs, "k", "rk", num_buckets=2,
                            left_cols=["k", "lv"], right_cols=["rk", "rv"]) \
        .to_pandas()
    assert len(goti) == 0

    # a uint64 payload >= 2**63 on the null side of a left join stays
    # uint64 and exact: the unmatched row gets a typed null, no float hop
    lu = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "lv": [1, 2, 3]}))
    ru = rd.from_pandas(pd.DataFrame(
        {"rk": [1, 3], "rv": pd.Series([huge, huge + 2], dtype="uint64")}))
    gotu = pa.concat_tables(ray.get(hash_bucket_join(
        lu, ru, "k", "rk", how="left", num_buckets=8,
        left_cols=["k", "lv"], right_cols=["rk", "rv"]).to_arrow_refs()))
    assert gotu.schema.field("rv").type == pa.uint64()
    assert sorted(zip(gotu["k"].to_pylist(), gotu["rv"].to_pylist())) == \
        [(1, huge), (2, None), (3, huge + 2)]


def test_events_asof_semantics(ray_session, tmp_path):
    """As-of join edge cases vs DuckDB's native ASOF LEFT JOIN: purchase
    before any view (NULL match), equal-ts purchase/view (at-or-before
    matches it), right-side ties on (user, ts) (max event_id wins), and
    users with only one side present."""
    import duckdb

    from uniparser_ray.pipelines.relational import events_asof

    t0 = pd.Timestamp("2024-01-01")
    m = pd.Timedelta(minutes=1)
    rows = [
        # user 1: purchase before any view; then view; purchase at SAME
        # ts as the view (ties to it); later purchase after 2nd view
        (1, 1, t0 + 0 * m, "purchase"),
        (2, 1, t0 + 5 * m, "view"),
        (3, 1, t0 + 5 * m, "purchase"),
        (4, 1, t0 + 9 * m, "view"),
        (5, 1, t0 + 9 * m, "view"),   # tie on (user, ts): id 5 wins
        (6, 1, t0 + 20 * m, "purchase"),
        # user 2: views only (no output rows)
        (7, 2, t0 + 1 * m, "view"),
        # user 3: purchases only (all NULL matches)
        (8, 3, t0 + 2 * m, "purchase"),
        # noise event types are filtered at the read
        (9, 1, t0 + 6 * m, "click"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet", index=False)

    got = events_asof(str(tmp_path)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = con.execute("""
        WITH right_d AS (
          SELECT user_id, ts, MAX(event_id) AS matched_event_id
          FROM events WHERE event_type = 'view' GROUP BY 1, 2
        ), left_s AS (
          SELECT event_id, user_id, ts FROM events
          WHERE event_type = 'purchase')
        SELECT l.event_id, l.user_id, l.ts, r.matched_event_id,
               epoch_us(l.ts) - epoch_us(r.ts) AS gap_us
        FROM left_s l ASOF LEFT JOIN right_d r
          ON l.user_id = r.user_id AND l.ts >= r.ts
        ORDER BY l.event_id
    """).df()

    assert got["event_id"].tolist() == [1, 3, 6, 8]
    # arrow blocks surface nullable ints as float64+NaN on to_pandas —
    # assert the null MASK and the values, not pd.NA identity
    assert got["matched_event_id"].isna().tolist() == [True, False, False,
                                                       True]
    assert got.loc[1, "matched_event_id"] == 2      # equal-ts matches
    assert got.loc[2, "matched_event_id"] == 5      # tie -> max id
    assert got.loc[2, "gap_us"] == 11 * 60_000_000
    w = want.astype({"matched_event_id": "float64", "gap_us": "float64"})
    w["ts"] = w["ts"].astype(got["ts"].dtype)
    g = got.astype({"matched_event_id": "float64", "gap_us": "float64"})
    pd.testing.assert_frame_equal(g, w[got.columns], check_dtype=False)


def test_hll_estimate_and_merge(ray_session):
    """HLL registers: estimate within theoretical error of the exact
    count, and register partials merge associatively by MAX (the
    property the distributed combine relies on)."""
    import numpy as np

    from uniparser_ray.stages.sketches import (HLL_M, hash31, hll_estimate,
                                               hll_partial)

    vals = [f"user-{i}" for i in range(5000)]
    h = hash31(vals)
    bucket, rho = hll_partial(h)
    regs = np.zeros(HLL_M, np.int64)
    np.maximum.at(regs, bucket, rho)
    est = hll_estimate(regs)
    # 3 sigma of 1.04/sqrt(64) = 13% relative error
    assert abs(est - 5000) / 5000 < 0.39, est

    # merge of two disjoint halves == whole
    r1 = np.zeros(HLL_M, np.int64)
    r2 = np.zeros(HLL_M, np.int64)
    np.maximum.at(r1, bucket[:2500], rho[:2500])
    np.maximum.at(r2, bucket[2500:], rho[2500:])
    assert np.array_equal(np.maximum(r1, r2), regs)

    # duplicates don't move the sketch
    h2 = hash31(vals + vals[:1000])
    b2, p2 = hll_partial(h2)
    regs2 = np.zeros(HLL_M, np.int64)
    np.maximum.at(regs2, b2, p2)
    assert np.array_equal(regs2, regs)


def test_exact_quantiles_skew_and_multipass(ray_session):
    """Histogram-refinement quantiles: exact under duplicate-heavy
    skew (90% of mass on one value) and when a tiny collect_limit
    forces several refinement passes; matches DuckDB quantile_disc."""
    import duckdb
    import numpy as np
    import ray.data

    from uniparser_ray.stages.sketches import exact_quantiles

    rng = np.random.RandomState(7)
    skew = np.concatenate([np.full(9000, 42.5),
                           rng.uniform(0, 100, 1000)])
    rng.shuffle(skew)
    df = pd.DataFrame({"x": skew})
    ds = ray.data.from_pandas(df).repartition(8)

    got = exact_quantiles(ds, "x", [0.0, 0.5, 0.91, 1.0],
                          num_hist_buckets=16, collect_limit=64)
    con = duckdb.connect()
    con.register("t", df)
    for q, v in zip(got["q"], got["value"]):
        want = con.execute(
            f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
        assert v == want, (q, v, want)


def test_hash_bucket_join_small_input_path_equals_shuffle(ray_session,
                                                          monkeypatch):
    """The exchange's one-bucket side (a small input: one merge task,
    no split) returns exactly the rows of its many-bucket side."""
    import ray.data

    from uniparser_ray.stages import combine
    from uniparser_ray.stages.combine import hash_bucket_join

    rng = np.random.RandomState(11)
    l = pd.DataFrame({"k": rng.randint(0, 50, 300),
                      "lv": rng.rand(300)})
    r = pd.DataFrame({"rk": rng.randint(0, 50, 80),
                      "rv": rng.rand(80)})

    def run(how):
        ds = hash_bucket_join(
            ray.data.from_pandas(l).repartition(4),
            ray.data.from_pandas(r).repartition(3),
            "k", "rk", how=how, left_cols=["k", "lv"],
            right_cols=["rk", "rv"])
        return ds.num_blocks(), ds.to_pandas() \
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True)

    for how in ("inner", "outer"):
        monkeypatch.setattr(combine, "_ROWS_PER_BUCKET", 200_000)
        n_one, fast = run(how)
        monkeypatch.setattr(combine, "_ROWS_PER_BUCKET", 10)   # 38 buckets
        n_many, slow = run(how)
        assert n_one == 1 and n_many > 1, (n_one, n_many)
        pd.testing.assert_frame_equal(fast, slow)


def test_grouped_map_one_key_per_call(ray_session, monkeypatch):
    """Every ``fn`` call sees exactly one (a, b) key and all of its
    rows, with groups spread over several input blocks, on the
    exchange's one-bucket and many-bucket sides; an all-empty input
    gives an empty result."""
    import ray.data as rd

    from uniparser_ray.stages import combine
    from uniparser_ray.stages.combine import grouped_map

    rng = np.random.RandomState(5)
    df = pd.DataFrame({"a": rng.randint(0, 7, 400),
                       "b": rng.choice(["x", "y"], 400),
                       "i": np.arange(400)})
    want = {k: sorted(g["i"]) for k, g in df.groupby(["a", "b"])}

    def seen(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[["a", "b"]].drop_duplicates()
        assert len(keys) == 1, keys
        return pd.DataFrame({"a": keys["a"], "b": keys["b"],
                             "ids": [sorted(g["i"])]})

    for rpb, one in ((200_000, True), (40, False)):
        monkeypatch.setattr(combine, "_ROWS_PER_BUCKET", rpb)
        ds = grouped_map(rd.from_pandas(df).repartition(5), ["a", "b"], seen)
        got = ds.to_pandas()
        assert (ds.num_blocks() == 1) == one, ds.num_blocks()
        assert len(got) == len(want)
        assert {(a, b): list(ids) for a, b, ids
                in got[["a", "b", "ids"]].itertuples(index=False)} == want

        empty = grouped_map(rd.from_pandas(df.iloc[:0]), ["a", "b"], seen)
        assert empty.count() == 0


def _scan_replay(order_keys, value, how, part=None):
    """Single-process exclusive scan: the rows of each ``part`` value
    in global ``order_keys`` order (first key most significant), from
    0.  Returns each row's scan, in input order."""
    part = np.zeros(len(value), np.int64) if part is None else part
    acc = np.cumsum if how == "sum" else np.maximum.accumulate
    before = np.empty(len(value), np.int64)
    for p in np.unique(part):
        rows = np.flatnonzero(part == p)
        rows = rows[np.lexsort([k[rows] for k in reversed(order_keys)])]
        before[rows] = np.concatenate([[0], acc(value[rows])[:-1]])
    return before


def test_prefix_scan_matches_numpy_replay(ray_session, monkeypatch):
    """``prefix_scan`` equals a single-process scan over the globally
    sorted rows: sum and max, with and without a partition, 1, 3 and 32
    ranges, on the exchange's one-bucket and many-bucket sides; order
    ties on the range key break on the second order column."""
    import ray.data as rd

    from uniparser_ray.stages import combine
    from uniparser_ray.stages.combine import prefix_scan

    rng = np.random.RandomState(9)
    n = 600
    df = pd.DataFrame({"k": rng.randint(-50, 5000, n),
                       "i": rng.permutation(n),
                       "p": rng.choice(["u", "v", "w"], n),
                       "v": rng.randint(0, 1000, n)})
    ds = rd.from_pandas(df).repartition(4)

    def keep(g: pd.DataFrame, before: np.ndarray) -> pd.DataFrame:
        return pd.DataFrame({"i": g["i"], "before": before})

    order = [df["k"].to_numpy(), df["i"].to_numpy()]
    for rpb in (200_000, 50):
        monkeypatch.setattr(combine, "_ROWS_PER_BUCKET", rpb)
        for how in ("sum", "max"):
            for partition in ((), ("p",)):
                want = dict(zip(df["i"], _scan_replay(
                    order, df["v"].to_numpy(), how,
                    df["p"].to_numpy() if partition else None)))
                for num_ranges in (1, 3, 32):
                    out = prefix_scan(ds, ["k", "i"], "v", how, keep,
                                      partition=partition,
                                      num_ranges=num_ranges)
                    got = out.to_pandas()
                    assert dict(zip(got["i"], got["before"])) == want, \
                        (rpb, how, partition, num_ranges)
                    if rpb > n:
                        assert out.num_blocks() == 1
                    elif num_ranges == 32:
                        assert out.num_blocks() > 1


def test_no_sort_shuffle_group_map():
    """Every group-wise map goes through ``stages.combine.grouped_map``
    on the engine's exchange; Ray Data's sort-shuffle group map is not
    used anywhere in the package."""
    from pathlib import Path

    import uniparser_ray

    root = Path(uniparser_ray.__file__).parent
    hits = [f"{p.relative_to(root)}:{i}"
            for p in sorted(root.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if "map_groups(" in line]
    assert hits == []


def test_one_politeness_model():
    """Per-host pacing lives in the crawl's fetch task alone: the
    wall-clock token-bucket shards, their client, their host family and
    the fetch stage's sleep hook are used nowhere in the package or
    the bench."""
    import re
    from pathlib import Path

    import uniparser_ray

    root = Path(uniparser_ray.__file__).parent
    banned = re.compile(
        r"PolitenessShard|PolitenessClient|politeness_shards|sleep_fn")
    hits = [f"{p.name}:{i}"
            for p in [*sorted(root.rglob("*.py")), root.parent / "bench.py"]
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if banned.search(line)]
    assert hits == []


def test_one_crawl_output_reader():
    """A crawl's round-partitioned outputs have one reader,
    ``read_rounds``: Ray Data's parquet reader is called only by the
    Lance layout and the single-file reader, and the harness's crawls,
    oracle runs and stage builds keep no memo of their own."""
    import re
    from pathlib import Path

    import uniparser_ray

    root = Path(uniparser_ray.__file__).parent
    files = sorted(root.rglob("*.py"))
    readers = {str(p.relative_to(root)) for p in files
               if re.search(r"\b(rd|ray\.data)\.read_parquet\(",
                            p.read_text())}
    assert readers == {"storage/lance_layout.py", "sources/parquet.py"}
    banned = re.compile(r"_CRAWL_RUNS|_CRAWL_MEMO|_RESUME_RUNS|_ORACLE_RUNS"
                        r"|_ENGINE_CACHE|partial_groupby")
    hits = [f"{p.name}:{i}"
            for p in [*files, root.parent / "bench.py"]
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if banned.search(line)]
    assert hits == []


def test_doc_shard_assign_prefix_sum(ray_session):
    """Global ordered prefix sum: shard boundaries match a
    single-process cumsum regardless of range partitioning."""
    import numpy as np

    from uniparser_ray.pipelines.documents import doc_shard_assign
    got = doc_shard_assign("/root/testdata/sf0.001", budget=10_000,
                           num_ranges=7).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    cum_before = np.concatenate(
        [[0], np.cumsum(got["n_chars"].to_numpy())[:-1]])
    assert (got["shard"].to_numpy() == cum_before // 10_000).all()
    # shards fill in order and are contiguous
    s = got["shard"].to_numpy()
    assert (np.diff(s) >= 0).all() and s[0] == 0


def test_doc_tfidf_topk_against_pandas(ray_session):
    """TF-IDF top-k equals a single-process pandas computation."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import doc_tfidf_topk
    got = doc_tfidf_topk("/root/testdata/sf0.001").to_pandas() \
        .sort_values(["doc_id", "rk"]).reset_index(drop=True)
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    rows = []
    for _, r in docs.iterrows():
        words = r["text"].split()
        if words:
            uniq, cnt = np.unique(np.asarray(words, object),
                                  return_counts=True)
            for t, c in zip(uniq, cnt):
                rows.append((r["doc_id"], t, int(c)))
    tf = pd.DataFrame(rows, columns=["doc_id", "token", "tf"])
    tf["df"] = tf.groupby("token")["token"].transform("size")
    tf["tfidf"] = (tf["tf"] * np.log(len(docs) / tf["df"])).round(6)
    exp = tf.sort_values(["doc_id", "tfidf", "token"],
                         ascending=[True, False, True],
                         kind="mergesort") \
        .groupby("doc_id", sort=False).head(3)
    exp["rk"] = exp.groupby("doc_id", sort=False).cumcount() + 1
    exp = exp.reset_index(drop=True)
    assert len(got) == len(exp)
    for c in ("doc_id", "token", "tf", "df", "rk"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert np.allclose(got["tfidf"], exp["tfidf"])


def test_events_funnel_order_constraint(ray_session, tmp_path):
    """The funnel counts a stage only at-or-after the PREVIOUS stage's
    first completion: views before the first signup don't advance the
    funnel, purchases before the qualifying view don't either, an
    equal-ts chain does (>= semantics), and users with no signup emit
    stage 0."""
    from uniparser_ray.pipelines.relational import events_funnel

    t0 = pd.Timestamp("2024-03-01")
    m = pd.Timedelta(minutes=1)
    rows = [
        # user 1: view BEFORE signup (ignored), then signup, view,
        # purchase in order -> stage 3
        (1, 1, t0 + 0 * m, "view"),
        (2, 1, t0 + 1 * m, "signup"),
        (3, 1, t0 + 2 * m, "view"),
        (4, 1, t0 + 3 * m, "purchase"),
        # user 2: purchase BEFORE its qualifying view -> stage 2 only
        (5, 2, t0 + 0 * m, "signup"),
        (6, 2, t0 + 1 * m, "purchase"),
        (7, 2, t0 + 2 * m, "view"),
        # user 3: all three at the SAME ts -> >= chain gives stage 3
        (8, 3, t0, "signup"),
        (9, 3, t0, "view"),
        (10, 3, t0, "purchase"),
        # user 4: activity but never signs up -> stage 0
        (11, 4, t0, "view"),
        (12, 4, t0 + 1 * m, "purchase"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    df.to_parquet(tmp_path / "events.parquet", index=False)

    got = events_funnel(str(tmp_path)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert got["user_id"].tolist() == [1, 2, 3, 4]
    assert got["stage"].tolist() == [3, 2, 3, 0]
    us = lambda ts: int(pd.Timestamp(ts).value // 1000)
    assert got.loc[0, "t_view_us"] == us(t0 + 2 * m)   # not the early view
    assert got.loc[1, "t_purchase_us"] == -1
    assert got.loc[2, "t_purchase_us"] == us(t0)
    assert (got.loc[3, ["t_signup_us", "t_view_us", "t_purchase_us"]]
            == -1).all()


def test_events_retention_cohorts(ray_session, tmp_path):
    """Retention cells count DISTINCT users per (cohort, offset):
    pre-signup activity is excluded, multiple events in one window
    count once, the cohort is the FIRST signup's window, and users
    who never sign up contribute nothing."""
    from uniparser_ray.pipelines.relational import (_WEEK_US,
                                                    events_retention)

    wk = pd.Timedelta(days=7)
    # anchor t0 to an exact 7-day epoch boundary so offsets are crisp
    t0 = pd.Timestamp(5000 * _WEEK_US * 1000)
    rows = [
        # user 1: signs up week 0, active weeks 0 (twice) and 2
        (1, 1, t0, "signup"),
        (2, 1, t0 + pd.Timedelta(days=1), "view"),
        (3, 1, t0 + 2 * wk, "purchase"),
        # user 2: pre-signup view (week -1, excluded), signup week 0,
        # second signup week 1 (ignored), active week 1
        (4, 2, t0 - pd.Timedelta(days=2), "view"),
        (5, 2, t0 + pd.Timedelta(days=2), "signup"),
        (6, 2, t0 + wk, "signup"),
        (7, 2, t0 + wk + pd.Timedelta(days=1), "click"),
        # user 3: never signs up
        (8, 3, t0, "view"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    df.to_parquet(tmp_path / "events.parquet", index=False)

    got = events_retention(str(tmp_path)).to_pandas() \
        .sort_values(["cohort_week", "week_offset"]).reset_index(drop=True)
    w0 = 5000
    # offsets: week 0 -> users 1+2 (u1's two events count once each
    # user), week 1 -> user 2 (signup+click dedupe), week 2 -> user 1
    assert got[["cohort_week", "week_offset", "n_users"]].values.tolist() \
        == [[w0, 0, 2], [w0, 1, 1], [w0, 2, 1]]


def test_doc_rarity_buckets_semantics(ray_session, tmp_path):
    """Zipf-rank rarity: rank 1 = most common token, dense over
    DISTINCT counts; per-doc score sums position ranks; terciles use
    quantile_disc semantics; empty docs score 0 and land in head."""
    from uniparser_ray.pipelines.documents import doc_rarity_buckets

    # corpus counts: 'the' x6 (rank 1), 'cat'/'dog' x2 each (rank 2,
    # dense: both share count 2), 'zyzzyva' x1 (rank 3)
    docs = [
        (1, "the the the cat"),        # rarity 1+1+1+2=5, n=4
        (2, "the the dog dog"),        # rarity 1+1+2+2=6, n=4
        (3, "the cat zyzzyva"),        # rarity 1+2+3=6,   n=3
        (4, ""),                       # rarity 0, n=0 -> norm 0
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_rarity_buckets(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["n_tokens"].tolist() == [4, 4, 3, 0]
    assert got["rarity"].tolist() == [5, 6, 6, 0]
    # norm = (1000 * rarity) // n
    assert got["norm_rarity"].tolist() == [1250, 1500, 2000, 0]
    # sorted norms [0, 1250, 1500, 2000]; q33 = ceil(4/3)-1 = idx 1 ->
    # 1250, q66 = ceil(8/3)-1 = idx 2 -> 1500
    assert got["bucket"].tolist() == [0, 1, 2, 0]


def test_ilog2_exact_all_widths():
    """floor(log2) matches int.bit_length()-1 everywhere, including
    above 2**53 where float log2/frexp round up."""
    from uniparser_ray.pipelines.documents import _ilog2

    xs = np.unique(np.concatenate([
        np.arange(1, 2000, dtype=np.int64),
        (np.int64(1) << np.arange(1, 63)) - 1,
        (np.int64(1) << np.arange(1, 63)),
        np.array([2**54 - 1, 2**53 + 1, 2**62 - 1], dtype=np.int64),
    ]))
    want = np.array([int(x).bit_length() - 1 for x in xs], dtype=np.int64)
    assert (_ilog2(xs) == want).all()


def test_doc_perplexity_semantics(ray_session, tmp_path):
    """Unigram surprisal bits: N=11 positions -> log 3; 'the' x6 ->
    1 bit, 'cat'/'dog' x2 -> 2 bits, hapax -> 3 bits; empty docs
    report zeros."""
    from uniparser_ray.pipelines.documents import doc_perplexity

    docs = [
        (1, "the the the cat"),   # 3*1 + 2 = 5 bits, n=4
        (2, "the the dog dog"),   # 1+1+2+2 = 6 bits, n=4
        (3, "the cat zyzzyva"),   # 1+2+3 = 6 bits,   n=3
        (4, ""),                  # zeros
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_perplexity(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["n_tokens"].tolist() == [4, 4, 3, 0]
    assert got["sum_bits"].tolist() == [5, 6, 6, 0]
    assert got["mean_millibits"].tolist() == [1250, 1500, 2000, 0]


def test_orders_incremental_agg_semantics(ray_session):
    """Incremental maintenance == full recompute: the cutoff genuinely
    splits the shipped orders (both ranges non-empty), and the merged
    state equals a pandas full-recompute with the same exact-cents
    quantization."""
    import numpy as np

    from uniparser_ray.pipelines.relational import (INCR_CUTOFF, _read,
                                                    orders_incremental_agg)

    sf = "/root/testdata/sf0.001"
    got = orders_incremental_agg(sf).to_pandas() \
        .sort_values("o_custkey").reset_index(drop=True)
    raw = _read(sf, "orders",
                ["o_custkey", "o_totalprice", "o_orderdate"]).to_pandas()
    cutoff = pd.Timestamp(INCR_CUTOFF)
    assert (raw["o_orderdate"] < cutoff).any()
    assert (raw["o_orderdate"] >= cutoff).any()
    raw["cents"] = np.floor(raw["o_totalprice"] * 100 + 0.5) \
        .astype("int64")
    want = raw.groupby("o_custkey").agg(
        n_orders=("cents", "size"), sum_cents=("cents", "sum")) \
        .reset_index().sort_values("o_custkey").reset_index(drop=True)
    assert got.astype(want.dtypes.to_dict()).equals(want)


def test_doc_source_lang_mix_semantics(ray_session):
    """Mix report invariants on the shipped corpus: per-source doc
    counts sum to the corpus size, every cell's share is the exact
    basis-point floor of docs/source_docs, and cells agree with a
    pandas recomputation from doc_langid + the source column."""
    from uniparser_ray.pipelines.documents import (_read, doc_langid,
                                                   doc_source_lang_mix)

    sf = "/root/testdata/sf0.001"
    got = doc_source_lang_mix(sf).to_pandas()
    lang = doc_langid(sf).to_pandas()[["doc_id", "lang_pred"]]
    src = _read(sf, ["doc_id", "text", "source"]).to_pandas()
    src["nt"] = src["text"].str.split().str.len()
    m = src.merge(lang, on="doc_id")
    want = m.groupby(["source", "lang_pred"]).agg(
        n_docs=("doc_id", "size"), n_tokens=("nt", "sum")) \
        .reset_index().sort_values(["source", "lang_pred"]) \
        .reset_index(drop=True)
    assert got[["source", "lang_pred", "n_docs", "n_tokens"]] \
        .astype(want.dtypes.to_dict()).equals(want)
    assert got["n_docs"].sum() == len(src)
    sd = got.groupby("source")["n_docs"].transform("sum")
    assert (got["doc_share_bp"] == 10_000 * got["n_docs"] // sd).all()


def test_doc_winnow_semantics(ray_session, tmp_path):
    """Winnowing invariants: positions valid and deduped, every
    fingerprint is the rightmost min of its width-4 gram window
    (brute-force recompute), short docs emit exactly one fingerprint,
    and the SWA guarantee holds — two docs sharing a k+w-1 = 6-token
    run share at least one fingerprint value."""
    import numpy as np

    from uniparser_ray.pipelines.documents import (WINNOW_K, WINNOW_W,
                                                   doc_winnow)
    from uniparser_ray.stages.tokenhash import batch_token_ids, window_hashes

    shared = "alpha beta gamma delta epsilon zeta"   # 6 tokens
    docs = [(1, "one two three " + shared),
            (2, shared + " seven eight nine"),
            (3, "xy zz"),                            # 1 gram (short fold)
            (4, "")]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_winnow(str(tmp_path)).to_pandas()
    assert 4 not in set(got["doc_id"])
    d3 = got[got["doc_id"] == 3]
    assert len(d3) == 1 and d3["pos"].tolist() == [0]
    # brute-force winnow per doc
    for did, text in docs[:2]:
        flat, offs = batch_token_ids([text])
        wh, counts = window_hashes(flat, offs, k=WINNOW_K)
        c = int(counts[0])
        want = set()
        for ws in range(max(1, c - WINNOW_W + 1)):
            win = wh[ws:ws + WINNOW_W]
            m = win.min()
            j = ws + max(np.flatnonzero(win == m))
            want.add((j, int(m)))
        g = got[got["doc_id"] == did]
        assert set(zip(g["pos"], g["fp"])) == want
    fp1 = set(got[got["doc_id"] == 1]["fp"])
    fp2 = set(got[got["doc_id"] == 2]["fp"])
    assert fp1 & fp2, "shared 6-token run must share a fingerprint"


def test_events_countmin_semantics(ray_session, tmp_path):
    """CMS invariants on a controlled stream: estimates equal a
    brute-force single-process sketch exactly, every estimate >= its
    true count (the CMS guarantee), and true counts are exact."""
    import numpy as np

    from uniparser_ray.pipelines.stats import (CMS_DEPTH, CMS_SEED,
                                               CMS_WIDTH, events_countmin)
    from uniparser_ray.stages.tokenhash import P31, affine_params

    uids = np.repeat(np.array([7, 11, 400000037, 13], np.int64),
                     [5, 3, 4, 1])
    pd.DataFrame({"user_id": uids}).to_parquet(
        tmp_path / "events.parquet", index=False)

    got = events_countmin(str(tmp_path)).to_pandas()
    assert got["true_count"].tolist() == [5, 3, 1, 4]  # sorted by uid
    assert (got["overestimate"] >= 0).all()
    assert (got["cms_estimate"] >= got["true_count"]).all()

    a, b = affine_params(CMS_DEPTH, CMS_SEED)
    P = np.uint64(P31)
    cms = np.zeros((CMS_DEPTH, CMS_WIDTH), np.int64)
    for u in uids:
        cols = (a * (np.uint64(u) % P) + b) % P % np.uint64(CMS_WIDTH)
        cms[np.arange(CMS_DEPTH), cols.astype(np.int64)] += 1
    for _, row in got.iterrows():
        cols = (a * (np.uint64(row["user_id"]) % P) + b) % P \
            % np.uint64(CMS_WIDTH)
        want = cms[np.arange(CMS_DEPTH), cols.astype(np.int64)].min()
        assert row["cms_estimate"] == want


def test_doc_chunks_semantics(ray_session, tmp_path):
    """Chunk windows: 80 tokens at width 32 / stride 24 -> starts
    0/24/48/72 with lengths 32/32/32/8; every chunk_hash equals the
    Horner fold of its token ids; empty docs emit no chunks."""
    from uniparser_ray.pipelines.documents import (CHUNK_S, CHUNK_W,
                                                   doc_chunks)
    from uniparser_ray.stages.tokenhash import _horner, batch_token_ids

    words = [f"w{i}" for i in range(80)]
    docs = [(1, " ".join(words)), (2, "solo"), (3, "")]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_chunks(str(tmp_path)).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    d1 = got[got["doc_id"] == 1]
    assert d1["start_tok"].tolist() == [0, 24, 48, 72]
    assert d1["n_tokens"].tolist() == [32, 32, 32, 8]
    assert got[got["doc_id"] == 2]["n_tokens"].tolist() == [1]
    assert 3 not in set(got["doc_id"])

    ids, _ = batch_token_ids([" ".join(words)])
    for _, row in d1.iterrows():
        s, w = int(row["start_tok"]), int(row["n_tokens"])
        assert row["chunk_hash"] == _horner(ids[s:s + w])
    assert CHUNK_W - CHUNK_S == 8  # the overlap this test assumes


def test_doc_bigram_surprisal_semantics(ray_session, tmp_path):
    """Bigram surprisal bits = ilog2(c(v.)) - ilog2(c(v,w)) per
    transition: corpus (a,b)x3 (b,a)x1 (b,c)x1 gives prefix counts
    c(a.)=3, c(b.)=2, so (a,b) costs 0 bits, (b,a)/(b,c) cost 1;
    sub-2-token docs report zero transitions."""
    from uniparser_ray.pipelines.documents import doc_bigram_surprisal

    docs = [
        (1, "a b a b"),   # (a,b),(b,a),(a,b): 0+1+0 = 1 bit, n=3
        (2, "a b c"),     # (a,b),(b,c): 0+1 = 1 bit, n=2
        (3, "x"),         # no transitions
        (4, ""),          # no transitions
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_bigram_surprisal(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["n_bigrams"].tolist() == [3, 2, 0, 0]
    assert got["sum_bits"].tolist() == [1, 1, 0, 0]
    assert got["mean_millibits"].tolist() == [333, 500, 0, 0]


def test_doc_incremental_novelty_semantics(ray_session, tmp_path):
    """Delta docs (doc_id % 5 == 0) score windows against the base
    split only: a delta window repeated WITHIN the delta but absent
    from the base stays novel; zero-token delta docs emit novelty 0;
    base docs never appear in the output."""
    from uniparser_ray.pipelines.documents import doc_incremental_novelty

    base_sent = "alpha beta gamma delta epsilon zeta eta theta"  # 1 window
    docs = [
        # base (ids not % 5)
        (1, base_sent + " iota"),                  # windows incl. the 8-gram
        (2, "totally different base content here with many words"),
        # delta (ids % 5 == 0)
        (5, base_sent),                            # 1 window, known
        (10, base_sent + " " + base_sent),         # 9 windows, some known
        (15, "unseen fresh words " + "x y z w v u t s"),  # all novel
        (20, ""),                                  # zero windows
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_incremental_novelty(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == [5, 10, 15, 20]
    assert got.loc[0, "n_windows"] == 1
    assert got.loc[0, "n_known_windows"] == 1      # exact base window
    assert got.loc[0, "novelty_bp"] == 0
    # doc 10: 16 tokens -> 9 windows; only the two pure base_sent
    # windows (positions 0 and 8) exist in base; the 7 straddling
    # windows are delta-only and MUST stay novel even though doc 10
    # repeats them nowhere and doc 5 shares window 0
    assert got.loc[1, "n_windows"] == 9
    assert got.loc[1, "n_known_windows"] == 2
    assert got.loc[1, "novelty_bp"] == (10000 * 7) // 9
    assert got.loc[2, "n_known_windows"] == 0
    assert got.loc[2, "novelty_bp"] == 10000
    assert got.loc[3, "n_windows"] == 0
    assert got.loc[3, "novelty_bp"] == 0


def test_events_window_join_boundaries(ray_session, tmp_path):
    """Interval-join window semantics (ts - W, ts]: a view exactly AT
    the purchase ts counts (inclusive upper), a view exactly at
    ts - W does NOT (exclusive lower), views of other users never
    leak across user runs, and purchases with no views count 0."""
    from uniparser_ray.pipelines.relational import events_window_join

    t0 = pd.Timestamp("2024-01-01 12:00:00")
    h = pd.Timedelta(hours=1)
    W = 24  # hours, the operator default
    rows = [
        # user 1: views at -24h (excluded: lower bound exclusive),
        # -23h, 0h (included: upper bound inclusive), +1h (excluded:
        # after) around a purchase at t0
        (1, 1, t0 - W * h, "view"),
        (2, 1, t0 - 23 * h, "view"),
        (3, 1, t0, "view"),
        (4, 1, t0, "purchase"),
        (5, 1, t0 + 1 * h, "view"),
        # user 2: purchase with no views at all
        (6, 2, t0, "purchase"),
        # user 3: views only, inside user-1's window span — must not
        # leak into user 1's count
        (7, 3, t0 - 1 * h, "view"),
        # other event types are filtered at the read
        (8, 1, t0 - 1 * h, "click"),
        # user 1: second purchase exactly 24h later — its window is
        # (t0, t0+24h], so the view AT t0 is excluded (lower bound
        # exclusive again, now from the other side) and only the +1h
        # view counts
        (9, 1, t0 + W * h, "purchase"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet", index=False)

    got = events_window_join(str(tmp_path)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert got["event_id"].tolist() == [4, 6, 9]
    assert got["n_in_window"].tolist() == [2, 0, 1]
    assert got["user_id"].tolist() == [1, 2, 1]


def test_events_stratified_sample_balances_and_reproduces(ray_session):
    """Per-stratum counts land near target (hash-residue binomial);
    identical output across repeated runs (coordination-free
    determinism)."""
    from uniparser_ray.pipelines.stats import events_stratified_sample

    sf = "/root/testdata/sf0.001"
    a = events_stratified_sample(sf, target=200).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    b = events_stratified_sample(sf, target=200).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert a.equals(b)
    per = a.groupby("event_type").size()
    import pyarrow.parquet as pq
    totals = pq.read_table(f"{sf}/events.parquet", columns=["event_type"]) \
        .to_pandas().groupby("event_type").size()
    for kind, n in per.items():
        want = min(200, totals[kind])
        # binomial noise bound: 5 sigma of rate*total
        import math
        assert abs(n - want) <= max(5, 5 * math.sqrt(want)), (kind, n, want)


def test_events_watermark_late_semantics(ray_session):
    """Late flags are range-partition-count invariant, the globally
    first arrival has max_before 0, and 14-day lateness splits the
    corpus into both classes; flags equal a single-process replay."""
    import numpy as np
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.stats import (WATERMARK_LATENESS_US,
                                               events_watermark_late)
    from uniparser_ray.stages.sketches import hash31

    sf = "/root/testdata/sf0.001"
    out32 = events_watermark_late(sf).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    out3 = events_watermark_late(sf, num_ranges=3).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert out32.equals(out3)

    src = pq.read_table(f"{sf}/events.parquet",
                        columns=["event_id", "ts"]).to_pandas()
    eid = src["event_id"].to_numpy()
    ts = src["ts"].astype("int64").to_numpy()
    arr = hash31(eid).astype(np.int64)
    before = _scan_replay([arr, eid], ts, "max")
    late = (ts + WATERMARK_LATENESS_US < before).astype("int64")
    replay = dict(zip(eid.tolist(), zip(before.tolist(), late.tolist())))
    got = dict(zip(out32["event_id"],
                   zip(out32["max_before"], out32["late"])))
    assert got == replay
    assert set(out32["late"].unique()) == {0, 1}
    first = eid[np.lexsort((eid, arr))][0]
    assert got[first][0] == 0


def test_doc_seq_pack_prefix_sum(ray_session):
    """Sequence packing equals the single-process token cumsum: every
    doc's (seq_first, off_first, seq_last, n_seqs) placement matches,
    and consecutive docs tile the packed token stream exactly."""
    import numpy as np
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import doc_seq_pack
    L = 128
    got = doc_seq_pack("/root/testdata/sf0.001", seq_len=L,
                       num_ranges=5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    n = docs["text"].map(lambda t: len(t.split())).to_numpy(np.int64)
    cb = np.concatenate([[0], np.cumsum(n)[:-1]])
    assert (got["n_tokens"].to_numpy() == n).all()
    assert (got["seq_first"].to_numpy() == cb // L).all()
    assert (got["off_first"].to_numpy() == cb % L).all()
    pos = n > 0
    assert (got["seq_last"].to_numpy()[pos]
            == (cb[pos] + n[pos] - 1) // L).all()
    assert (got["n_seqs"].to_numpy()[~pos] == 0).all()
    # tiling: doc i+1 starts exactly where doc i ended
    nxt = cb + n
    assert (nxt[:-1] == cb[1:]).all()


def test_doc_bpe_pairs_against_python(ray_session):
    """Top-k adjacent-pair counts equal a single-process Counter."""
    from collections import Counter

    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import doc_bpe_pairs
    from uniparser_ray.stages.tokenhash import HB, P31, token_id

    got = doc_bpe_pairs("/root/testdata/sf0.001", k=15).to_pandas()
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["text"]).to_pandas()
    cnt = Counter()
    best_str = {}
    for t in docs["text"]:
        ws = t.split()
        for a, b in zip(ws, ws[1:]):
            ph = (token_id(a) * int(HB) + token_id(b)) % int(P31)
            cnt[ph] += 1
            s = a + " " + b
            if ph not in best_str or s < best_str[ph]:
                best_str[ph] = s
    exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
    assert list(got["pair_hash"]) == [ph for ph, _ in exp]
    assert list(got["n_occurrences"]) == [c for _, c in exp]
    assert list(got["pair"]) == [best_str[ph] for ph, _ in exp]
    assert list(got["rank"]) == list(range(1, len(exp) + 1))


def test_doc_dup_ngrams_against_python(ray_session):
    """Duplicated-window fractions equal a single-process recompute
    with the same tokenhash windows."""
    from collections import Counter

    import numpy as np
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import doc_dup_ngrams
    from uniparser_ray.stages.tokenhash import (batch_token_ids,
                                                window_hashes)

    got = doc_dup_ngrams("/root/testdata/sf0.001", width=8).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    flat, offs = batch_token_ids(docs["text"].tolist())
    wh, counts = window_hashes(flat, offs, 8)
    glob = Counter(wh.tolist())
    starts = np.concatenate([[0], np.cumsum(counts)])
    for i, doc_id in enumerate(docs["doc_id"]):
        mine = wh[starts[i]:starts[i + 1]].tolist()
        nd = sum(1 for h in mine if glob[h] >= 2)
        row = got.iloc[i]
        assert row["doc_id"] == doc_id
        assert row["n_windows"] == len(mine)
        assert row["n_dup_windows"] == nd
        expected_bp = (10000 * nd) // len(mine) if mine else 0
        assert row["dup_bp"] == expected_bp


def test_heavy_hitters_sketch_and_fallback(ray_session):
    """Misra-Gries candidates + exact recount returns the exact top-k
    on skewed data (sketch path) AND on flat data (adaptive exact
    fallback); both equal a pandas ground truth."""
    import numpy as np
    import pandas as pd
    import ray

    from uniparser_ray.pipelines.stats import heavy_hitters_topk

    def truth(vals, k):
        s = pd.Series(vals).value_counts()
        df = s.reset_index()
        df.columns = ["uid", "cnt"]
        return df.sort_values(["cnt", "uid"], ascending=[False, True],
                              kind="mergesort").head(k) \
            .reset_index(drop=True)

    rng = np.random.RandomState(7)
    # skewed: zipf-ish over 5000 keys, 200k rows -> deep head
    skew = (rng.zipf(1.3, size=200_000) % 5000).astype(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame({"uid": skew})) \
        .repartition(16)
    got, info = heavy_hitters_topk(ds, "uid", k=10, capacity=64)
    exp = truth(skew, 10)
    assert info["method"] == "sketch", info
    assert list(got["uid"]) == list(exp["uid"])
    assert list(got["n_events"]) == list(exp["cnt"])
    assert list(got["rank"]) == list(range(1, 11))

    # flat: uniform over 3000 keys -> no sketch could prune; exact
    # fallback must still give the exact answer
    flat = rng.randint(0, 3000, size=60_000).astype(np.int64)
    ds2 = ray.data.from_pandas(pd.DataFrame({"uid": flat})) \
        .repartition(16)
    got2, info2 = heavy_hitters_topk(ds2, "uid", k=10, capacity=16)
    exp2 = truth(flat, 10)
    assert info2["method"] == "exact_fallback", info2
    assert list(got2["uid"]) == list(exp2["uid"])
    assert list(got2["n_events"]) == list(exp2["cnt"])


def test_doc_para_dedup_against_python(ray_session):
    """Paragraph dup fractions equal a single-process recompute."""
    from collections import Counter

    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import doc_para_dedup
    from uniparser_ray.stages.tokenhash import token_id

    got = doc_para_dedup("/root/testdata/sf0.001").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    per_doc = [[token_id(p) for p in t.split("\n")]
               for t in docs["text"]]
    glob = Counter(h for ps in per_doc for h in ps)
    for i, doc_id in enumerate(docs["doc_id"]):
        mine = per_doc[i]
        nd = sum(1 for h in mine if glob[h] >= 2)
        row = got.iloc[i]
        assert row["doc_id"] == doc_id
        assert row["n_paras"] == len(mine) and len(mine) >= 1
        assert row["n_dup_paras"] == nd
        assert row["dup_bp"] == (10000 * nd) // len(mine)


def test_doc_unigram_stats_against_python(ray_session):
    """Unigram LM sufficient statistics equal a single-process
    recompute over the same token-id stream."""
    from collections import Counter

    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import doc_unigram_stats
    from uniparser_ray.stages.tokenhash import batch_token_ids

    got = doc_unigram_stats("/root/testdata/sf0.001").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    flat, offs = batch_token_ids(docs["text"].tolist())
    glob = Counter(flat.tolist())
    for i, doc_id in enumerate(docs["doc_id"]):
        mine = flat[offs[i]:offs[i + 1]].tolist()
        row = got.iloc[i]
        assert row["doc_id"] == doc_id
        assert row["n_tokens"] == len(mine)
        assert row["sum_tok_freq"] == sum(glob[h] for h in mine)
        assert row["min_tok_freq"] == (min(glob[h] for h in mine)
                                       if mine else 0)
        assert row["n_hapax"] == sum(1 for h in mine if glob[h] == 1)


def test_exact_quantiles_fast_path_equals_refinement(ray_session):
    """Small-input fast path (whole column <= collect_limit) returns
    exactly what the multi-pass refinement returns, grouped and not."""
    import numpy as np
    import ray.data

    from uniparser_ray.stages.sketches import exact_quantiles

    rng = np.random.RandomState(3)
    df = pd.DataFrame({"g": rng.choice(["a", "b"], 5000),
                       "x": rng.uniform(0, 10, 5000).round(3)})
    ds = ray.data.from_pandas(df).repartition(6)
    qs = [0.1, 0.5, 0.9]
    fast = exact_quantiles(ds, "x", qs, collect_limit=100_000)
    slow = exact_quantiles(ds, "x", qs, num_hist_buckets=16,
                           collect_limit=50)
    pd.testing.assert_frame_equal(fast.reset_index(drop=True),
                                  slow.reset_index(drop=True))
    fast_g = exact_quantiles(ds, "x", qs, by="g", collect_limit=100_000)
    slow_g = exact_quantiles(ds, "x", qs, by="g", num_hist_buckets=16,
                             collect_limit=50)
    pd.testing.assert_frame_equal(fast_g.reset_index(drop=True),
                                  slow_g.reset_index(drop=True))


def test_doc_gopher_rules_bitmask(ray_session, tmp_path):
    """Each Gopher rule trips its own bit: 1=<5 words, 2=mean word
    length outside [3,10], 4=alpha<0.6, 8=<2 stopwords, 16=repetitive;
    keep only when no bit set. Short docs also trip bit 16 (one token
    of three is >20% top-frac) — pinned, not accidental."""
    from uniparser_ray.pipelines.documents import doc_gopher_rules

    docs = [
        (1, "the quick brown fox jumps over a lazy sleeping hound"),
        (2, "tiny doc here"),                       # bits 0,3 + 16
        (3, "spam spam spam spam spam is in the pot today friend"),
        (4, "1234 5678 9999 0000 4242 the in"),     # bit 2
        (5, "extraordinarily incomprehensible characterization"
            " internationalization anthropological the in"),  # bit 1
        (6, ""),                                    # bits 0,3
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_gopher_rules(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["violations"].tolist() == [0, 25, 16, 4, 2, 9]
    assert got["keep"].tolist() == [1, 0, 0, 0, 0, 0]
    # pinned raw stats for the keep doc
    row = got.iloc[0]
    assert (row["n_words"], row["sum_word_len"]) == (10, 43)
    assert (row["n_alpha"], row["n_chars"], row["n_stop"]) == (43, 52, 2)


def test_events_markov_transitions(ray_session, tmp_path):
    """Bigram transitions: within-user only (no cross-user pair at
    bucket boundaries), ordered by (ts, event_id) — equal timestamps
    break by event_id — and single-event users contribute nothing."""
    from uniparser_ray.pipelines.relational import events_markov

    rows = [
        # user 1: a -> b -> a   (b,a share ts: event_id orders them)
        (1, 1, 100, "a"), (2, 1, 200, "b"), (3, 1, 200, "a"),
        # user 2: b -> b
        (4, 2, 50, "b"), (5, 2, 60, "b"),
        # user 3: single event, no transition
        (6, 3, 10, "a"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "tsu",
                                     "event_type"])
    df["ts"] = pd.to_datetime(df.pop("tsu"), unit="us")
    df["value"] = 0.0
    df["props"] = "{}"
    df.to_parquet(tmp_path / "events.parquet", index=False)

    got = events_markov(str(tmp_path)).to_pandas() \
        .sort_values(["from_type", "to_type"]).reset_index(drop=True)
    expect = pd.DataFrame({
        "from_type": ["a", "b", "b"],
        "to_type": ["b", "a", "b"],
        "n_transitions": np.array([1, 1, 1], dtype="int64")})
    pd.testing.assert_frame_equal(got, expect)


def test_events_window_anomaly_exact_boundary(ray_session, tmp_path):
    """Cross-multiplied z-score: a lone outlier among W-1 identical
    windows sits at exactly sqrt(W-1) sigma, so with W=5 it is EXACTLY
    2-sigma (d^2 == 4*var_term -> strict > keeps it normal), while at
    W=6 the same spike crosses the bar; small jitter never flags."""
    from uniparser_ray.pipelines.relational import events_window_anomaly

    counts = {"a": [1, 1, 1, 1, 1, 9],   # W=6: 9 is sqrt(5)~2.24 sigma
              "b": [2, 3, 2, 3],          # jitter, max 1 sigma
              "c": [1, 1, 1, 1, 9]}       # W=5: exactly 2 sigma
    rows, eid = [], 0
    for typ, cs in counts.items():
        for hour, c in enumerate(cs):
            for _ in range(c):
                rows.append((eid, 1, pd.Timestamp("2024-01-01")
                             + pd.Timedelta(hours=hour, seconds=eid % 60),
                             typ))
                eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts",
                                     "event_type"])
    df["value"] = 0.0
    df["props"] = "{}"
    df.to_parquet(tmp_path / "events.parquet", index=False)

    got = events_window_anomaly(str(tmp_path)).to_pandas() \
        .sort_values(["event_type", "window_us"]).reset_index(drop=True)
    flagged = got[got["is_anomaly"] == 1]
    # only type a's spike crosses strict 2 sigma
    assert flagged["event_type"].tolist() == ["a"]
    assert flagged["n_events"].tolist() == [9]
    # boundary algebra pinned: type c spike has d^2 == 4*var_term
    c9 = got[(got["event_type"] == "c") & (got["n_events"] == 9)]
    assert c9["dev"].tolist() == [5 * 9 - 13]
    assert (c9["is_anomaly"] == 0).all()


def test_doc_tfidf_exact_semantics(ray_session, tmp_path):
    """Integer TF-IDF: idf = (1e6*N)//df, score = cnt*idf; ranks
    break ties by tid asc; zero-token docs emit no rows."""
    from uniparser_ray.pipelines.documents import doc_tfidf_exact
    from uniparser_ray.stages.tokenhash import batch_token_ids

    docs = [
        (1, "apple banana apple"),   # apple cnt=2 df=1, banana cnt=1 df=2
        (2, "banana cherry"),        # cherry cnt=1 df=1, banana cnt=1 df=2
        (3, ""),                     # no terms
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "t"
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    flat, _ = batch_token_ids(["apple banana cherry"])
    tid = {"apple": int(flat[0]), "banana": int(flat[1]),
           "cherry": int(flat[2])}

    got = doc_tfidf_exact(str(tmp_path)).to_pandas() \
        .sort_values(["doc_id", "term_rank"]).reset_index(drop=True)
    # N=3: idf(df=1)=3_000_000, idf(df=2)=1_500_000
    expect = pd.DataFrame(
        [(1, 1, tid["apple"], 2, 1, 6_000_000),
         (1, 2, tid["banana"], 1, 2, 1_500_000),
         (2, 1, tid["cherry"], 1, 1, 3_000_000),
         (2, 2, tid["banana"], 1, 2, 1_500_000)],
        columns=["doc_id", "term_rank", "tid", "cnt", "df", "score"])
    for c in expect.columns:
        expect[c] = expect[c].astype("int64")
    pd.testing.assert_frame_equal(got, expect)


def test_q13_and_q4_join_semantics(ray_session, tmp_path):
    """Edge cases for the outer-join and semi-join paths vs DuckDB:
    zero-order customers (must survive the LEFT join with c_count=0),
    orphan orders whose custkey has no customer row (dropped by both
    engines), orders with MULTIPLE returned lineitems (semi counts
    once), orders with only non-returned items, and a returned
    lineitem with no matching order."""
    import duckdb

    from uniparser_ray.pipelines.relational import (
        q4_returned_order_priority, q13_customer_distribution)

    cust = pd.DataFrame({"c_custkey": [1, 2, 3, 4],
                         "c_name": [f"c{i}" for i in range(4)],
                         "c_mktsegment": ["A", "B", "A", "B"]})
    # cust 1: 3 orders; cust 2: 1 order; cust 3/4: none; custkey 99:
    # orphan orders (no customer row)
    orders = pd.DataFrame({
        "o_orderkey": [10, 11, 12, 13, 14, 15],
        "o_custkey": [1, 1, 1, 2, 99, 99],
        "o_orderpriority": ["1-URGENT", "2-HIGH", "2-HIGH", "3-MEDIUM",
                            "1-URGENT", "2-HIGH"]})
    # order 10: two R items (counts ONCE); 11: one R; 12: only N; 13:
    # no lineitems; 14 (orphan cust): R — still counted by q4 (EXISTS
    # is on orders, not customers); key 999: R with no order row
    li = pd.DataFrame({
        "l_orderkey": [10, 10, 11, 12, 14, 999],
        "l_returnflag": ["R", "R", "R", "N", "R", "R"]})
    cust.to_parquet(tmp_path / "customer.parquet", index=False)
    orders.to_parquet(tmp_path / "orders.parquet", index=False)
    li.to_parquet(tmp_path / "lineitem.parquet", index=False)

    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")

    got13 = q13_customer_distribution(str(tmp_path)).to_pandas() \
        .sort_values("c_count").reset_index(drop=True)
    want13 = con.execute("""
        SELECT c_count, COUNT(*) AS custdist FROM (
          SELECT c.c_custkey, COUNT(o.o_custkey) AS c_count
          FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
          GROUP BY c.c_custkey) GROUP BY c_count ORDER BY c_count
    """).df().astype("int64")
    pd.testing.assert_frame_equal(got13, want13)
    # the zero-order customers are present: two of them
    assert int(got13.loc[got13["c_count"] == 0, "custdist"].iloc[0]) == 2

    got4 = q4_returned_order_priority(str(tmp_path)).to_pandas() \
        .sort_values("o_orderpriority").reset_index(drop=True)
    want4 = con.execute("""
        SELECT o_orderpriority, COUNT(*) AS n_orders FROM orders o
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_returnflag = 'R')
        GROUP BY o_orderpriority ORDER BY o_orderpriority
    """).df()
    want4["n_orders"] = want4["n_orders"].astype("int64")
    pd.testing.assert_frame_equal(got4, want4)
    # order 10's duplicate R items count once: 1-URGENT = {10, 14} = 2
    assert int(got4.loc[got4["o_orderpriority"] == "1-URGENT",
                        "n_orders"].iloc[0]) == 2


def test_doc_dup_spans_semantics(ray_session, tmp_path):
    """Hand-computed span algebra: cross-doc duplicated windows merge
    when overlapping/adjacent (gap <= width), self-repeats inside one
    doc with a gap > width stay two spans, docs shorter than the
    window width emit nothing even when fully duplicated."""
    from uniparser_ray.pipelines.documents import doc_dup_spans

    t = [f"t{i}" for i in range(10)]       # shared 10-token prefix run
    x = [f"x{i}" for i in range(8)]        # self-repeated 8-gram
    fill = [f"f{i}" for i in range(9)]     # unique separators
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [" ".join(t),              # windows at pos 0,1,2
                 " ".join(t[:9]),          # shares pos 0,1 with doc 1
                 " ".join(x + fill + x),   # dup 8-gram at pos 0 and 17
                 "s1 s2 s3 s4 s5",         # 5 tokens, duplicated ...
                 "s1 s2 s3 s4 s5"]})       # ... but below width: no row
    docs.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_dup_spans(str(tmp_path)).to_pandas() \
        .sort_values(["doc_id", "start_tok"]).reset_index(drop=True)
    want = pd.DataFrame({
        "doc_id":    [1, 2, 3, 3],
        "start_tok": [0, 0, 0, 17],
        "end_tok":   [9, 9, 8, 25],
        "n_windows": [2, 2, 1, 1]}).astype("int64")
    pd.testing.assert_frame_equal(got, want)


def test_doc_dup_apply_semantics(ray_session, tmp_path):
    """Hand-computed surgery: overlapping dup windows cut as one
    merged range, a fully-duplicated doc cuts to the empty string,
    below-width duplicates and empty docs pass through untouched —
    clean_md5 recomputed independently here with hashlib."""
    import hashlib

    from uniparser_ray.pipelines.documents import doc_dup_apply

    def h(s):
        return hashlib.md5(s.encode()).hexdigest()

    t = [f"t{i}" for i in range(10)]       # shared 10-token prefix run
    x = [f"x{i}" for i in range(8)]        # self-repeated 8-gram
    fill = [f"f{i}" for i in range(9)]     # unique separators
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [" ".join(t),              # dup windows pos 0,1 -> cut [0,9)
                 " ".join(t[:9]),          # whole doc covered -> ''
                 " ".join(x + fill + x),   # cut [0,8) + [17,25)
                 "s1 s2 s3 s4 s5",         # below width: untouched ...
                 "s1 s2 s3 s4 s5",         # ... though duplicated
                 ""]})                     # empty doc
    docs.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_dup_apply(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = pd.DataFrame({
        "doc_id":    pd.Series([1, 2, 3, 4, 5, 6], dtype="int64"),
        "n_tokens":  pd.Series([10, 9, 25, 5, 5, 0], dtype="int64"),
        "n_removed": pd.Series([9, 9, 16, 0, 0, 0], dtype="int64"),
        "clean_md5": ["t9", "", " ".join(fill),
                      "s1 s2 s3 s4 s5", "s1 s2 s3 s4 s5", ""]})
    want["clean_md5"] = want["clean_md5"].map(h)
    pd.testing.assert_frame_equal(got, want)


def test_doc_mixture_apply_semantics(ray_session, tmp_path):
    """The sampler must keep exactly the docs whose md5-31bit residue
    clears their source's keep_bp, with keep_bp == the doc_source_mix
    rate — recomputed here independently with hashlib + a pandas
    brute force over a deliberately unbalanced two-source corpus."""
    import hashlib

    from uniparser_ray.pipelines.documents import doc_mixture_apply

    # source 'big' has 4x the token mass of 'small' -> keep_bp 2500
    docs = pd.DataFrame({
        "doc_id": np.arange(40, dtype="int64"),
        "text": (["t1 t2 t3 t4 t5 t6 t7 t8"] * 20      # 8 tokens each
                 + ["t1 t2"] * 20),                     # 2 tokens each
        "lang": ["en"] * 40,
        "source": ["big"] * 20 + ["small"] * 20,
    })
    docs["n_chars"] = docs["text"].str.len().astype("int64")
    docs.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_mixture_apply(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    def h31(v):
        return int(hashlib.md5(str(v).encode()).hexdigest()[:15], 16) \
            % 2147483647

    bp = {"big": (10000 * 40) // 160, "small": 10000}
    want = docs.assign(
        keep_bp=docs["source"].map(bp).astype("int64"))
    want = want[[h31(d) % 10000 < b for d, b in
                 zip(want["doc_id"], want["keep_bp"])]]
    want = want[["doc_id", "source", "n_chars", "keep_bp"]] \
        .sort_values("doc_id").reset_index(drop=True)
    assert bp["big"] == 2500                       # the unbalanced case
    assert 0 < len(want) < 40                      # genuinely filters
    pd.testing.assert_frame_equal(got, want)


def test_doc_curriculum_rank_semantics(ray_session, tmp_path):
    """Exact total order under range partitioning: duplicate texts
    (equal scores) must tie-break by doc_id WITHIN one score class
    even when num_ranges forces many cuts, and ranks must be the
    dense 1..N permutation of (score desc, doc_id asc) — recomputed
    here independently with pandas sorting on the pipeline's own
    scores."""
    from uniparser_ray.pipelines.documents import doc_curriculum_rank

    texts = (["the quick brown fox jumps"] * 7       # one big tie class
             + [f"word{i} " * (i + 1) for i in range(9)]   # spread
             + ["", "Zz", "the the the"])
    docs = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype="int64")[::-1],  # shuffled ids
        "text": texts})
    docs.to_parquet(tmp_path / "documents.parquet", index=False)

    got = doc_curriculum_rank(str(tmp_path), num_ranges=5).to_pandas() \
        .sort_values("curriculum_rank").reset_index(drop=True)

    # independent recompute: stable sort of the returned scores
    want = got.sort_values(["quality_score", "doc_id"],
                           ascending=[False, True], kind="mergesort") \
        .reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["curriculum_rank"]) == list(range(1, len(texts) + 1))
    # every tie class is ordered by doc_id ascending
    dup_rows = got[got.duplicated("quality_score", keep=False)]
    assert len(dup_rows) >= 7          # the duplicate-text class is real
    for _, grp in dup_rows.groupby("quality_score"):
        assert list(grp["doc_id"]) == sorted(grp["doc_id"])


def test_minhash_recall_audit(ray_session, tmp_path):
    """doc_minhash_recall on a crafted borderline corpus: n_exact per
    decile must equal the brute-force exact-jaccard census, hits never
    exceed exacts, and the borderline deciles actually exercise the
    S-curve (pairs at j ~ 0.5-0.7 exist where banding CAN miss)."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines.documents import doc_minhash_recall
    from uniparser_ray.stages.dedup import jaccard

    rng = np.random.default_rng(3)
    vocab = [f"w{i:03d}" for i in range(400)]
    texts = []
    for i in range(24):
        base = list(rng.choice(vocab, 40, replace=False))
        texts.append(" ".join(base))
        # one sibling with a controlled fraction of words replaced:
        # yields pairs spread across jaccard ~0.3-0.95
        sib = base.copy()
        n_swap = int(rng.integers(2, 14))
        idxs = rng.choice(40, n_swap, replace=False)
        repl = rng.choice(vocab, n_swap, replace=False)
        for j, r in zip(idxs, repl):
            sib[j] = r
        texts.append(" ".join(sib))
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    pq.write_table(tbl, tmp_path / "documents.parquet")

    got = doc_minhash_recall(str(tmp_path), threshold=0.5) \
        .to_pandas().sort_values("sim_bucket").reset_index(drop=True)

    # brute-force exact census over the same 3-shingle jaccard
    from collections import Counter
    exp = Counter()
    for a, b in itertools.combinations(range(len(texts)), 2):
        j = jaccard(texts[a], texts[b], k=3)
        if j >= 0.5:
            exp[int(np.floor(j * 10))] += 1
    assert dict(zip(got["sim_bucket"], got["n_exact"])) == dict(exp)
    assert (got["n_lsh_hit"] <= got["n_exact"]).all()
    assert ((got["recall"] >= 0) & (got["recall"] <= 1)).all()
    assert got["n_exact"].sum() >= 10          # corpus produced pairs
    assert (got["sim_bucket"] < 8).any()       # borderline deciles exist
    expected_recall = got["n_lsh_hit"] / got["n_exact"]
    pd.testing.assert_series_equal(got["recall"], expected_recall,
                                   check_names=False)


@pytest.mark.parametrize("broadcast", [True, False])
def test_q14_counts_orphan_lineitems_in_total(ray_session, tmp_path,
                                              monkeypatch, broadcast):
    """q14 on data without FK integrity: a month lineitem whose
    l_partkey has no part row counts in 'total' as non-promo on both
    plans — the broadcast probe and the shuffle-join fallback (forced
    by a zero broadcast limit)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from uniparser_ray.pipelines import relational

    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2, 3], pa.int64()),
        "p_type": ["PROMO", "STANDARD", "PROMO"]}),
        tmp_path / "part.parquet")
    day = pd.Timestamp(relational.Q14_MONTH_LO) + pd.Timedelta(days=3)
    late = pd.Timestamp(relational.Q14_MONTH_HI) + pd.Timedelta(days=3)
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 99, 3, 1], pa.int64()),
        "l_shipdate": pa.array([day, day, day, day, late],
                               pa.timestamp("us")),
        "l_extendedprice": [100.0, 200.0, 400.0, 50.0, 1000.0],
        "l_discount": [0.0, 0.5, 0.0, 0.0, 0.0]}),
        tmp_path / "lineitem.parquet")
    if not broadcast:
        monkeypatch.setattr(relational, "_Q14_BROADCAST_LIMIT", -1)
    got = relational.q14_promo_revenue(str(tmp_path)).to_pandas()
    # promo = 100 + 50; total = 100 + 100 + 400 (orphan) + 50
    assert got["promo_share"].tolist() == [round(100.0 * 150 / 650, 4)]


def test_cached_stage_builds_once_per_worker_in_plain_tasks(ray_session):
    """Plain tasks receive the cached_stage function as an argument,
    unpickled anew in every call; the stage must still be built once
    per worker process and key.  A new key for the same class replaces
    the old stage, so an older key builds again."""
    import ray

    from uniparser_ray.crawl.loop import _task
    from uniparser_ray.stages.taskcache import cached_stage

    class _BuildProbeStage:
        """Each build draws a fresh token, and every call reports
        (worker pid, token): distinct tokens per pid count the builds
        in that worker process.  A local class ships by value, so
        workers need not import this test module."""

        def __init__(self, tag):
            import uuid
            self.token = uuid.uuid4().hex

        def __call__(self, batch):
            import os
            return os.getpid(), self.token

    def builds(fn, n):
        per_pid = {}
        for pid, token in ray.get([_task.remote(fn, None)
                                   for _ in range(n)]):
            per_pid.setdefault(pid, set()).add(token)
        return per_pid

    fn_a = cached_stage(_BuildProbeStage, tag="a")
    per_pid = builds(fn_a, 12)
    assert all(len(t) == 1 for t in per_pid.values()), per_pid
    per_pid_b = builds(cached_stage(_BuildProbeStage, tag="b"), 4)
    tokens_a = set().union(*per_pid.values())
    assert not tokens_a & set().union(*per_pid_b.values())
    # a repeat of key "a" on a worker that moved on to "b" rebuilds
    again = builds(fn_a, 12)
    for pid in set(again) & set(per_pid_b):
        assert not again[pid] & tokens_a
