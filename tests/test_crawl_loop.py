"""Distributed crawl loop vs the single-process BFS oracle:
identical URL-seen set, per-round fetch sets (crawl ordering), parsed
values, and image rows (decoded-pixel equality + caption equality)."""

import contextlib
import json
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from uniparser_ray.crawl.loop import CrawlConfig, _make_grant, run_crawl
from uniparser_ray.crawl.oracle import BFSOracle
from uniparser_ray.sources.codecs import decode_image, psnr
from uniparser_ray.sources.synthweb import SynthWeb
from uniparser_ray.storage.lance_layout import LanceLayoutTable


def _round_dirs(base):
    """round=N dirs in NUMERIC order — a lexicographic sort puts
    round=10 before round=2, silently mis-ordering per-URL fetch
    sequences once a crawl exceeds 9 rounds."""
    return sorted(base.glob("round=*"),
                  key=lambda d: int(d.name.split("=")[1]))


WEB_CFG = dict(num_hosts=3, base_pages=10, fanout=2, hot_factor=4.0)


@contextlib.contextmanager
def _many_blocks(rows=4):
    """Rounds of these small webs spread over several admit blocks and
    several grant buckets: the rows-per-admit-block and rows-per-bucket
    constants shrunk to ``rows``.  Yields the (clipped blocks, buckets
    run) of every grant exchange, for the caller to assert on."""
    from uniparser_ray.crawl import loop
    from uniparser_ray.stages import combine

    grants = []
    real = combine.exchange_refs

    def spy(sides, *args, **kwargs):
        outs = real(sides, *args, **kwargs)
        grants.append((len(sides[0]), len(outs)))
        return outs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loop, "_ADMIT_BLOCK_ROWS", rows)
        mp.setattr(combine, "_ROWS_PER_BUCKET", rows)
        mp.setattr(combine, "exchange_refs", spy)
        yield grants


def _assert_spread(grants):
    """Some round spanned several admit blocks and several buckets."""
    assert max(b for b, _ in grants) > 1, grants
    assert max(n for _, n in grants) > 1, grants


def _ray_rounds(out_dir, max_rounds=30):
    """[(round, sorted fetched urls)] from the pages checkpoints."""
    rounds = []
    for r in range(max_rounds):
        d = out_dir / "pages" / f"round={r}"
        if not d.exists():
            break
        urls = []
        for f in sorted(d.glob("*.parquet")):
            urls.extend(pq.read_table(f, columns=["url"])["url"].to_pylist())
        rounds.append(sorted(urls))
    return rounds


@pytest.fixture(scope="module")
def oracle_result():
    web = SynthWeb(**WEB_CFG)
    oracle = BFSOracle(web, web.rule_pack(), per_host_budget=3)
    return oracle.run(web.seed_urls(), max_rounds=30)


@pytest.fixture(scope="module")
def ray_crawl(ray_session, tmp_path_factory):
    """One distributed crawl shared by the conformance tests."""
    out = tmp_path_factory.mktemp("crawl_shared") / "crawl"
    web = SynthWeb(**WEB_CFG)
    cfg = CrawlConfig(web_config=WEB_CFG, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=3,
                      seen_shard_bits=2)
    totals = run_crawl(cfg, web.rule_pack())
    return out, totals


def test_crawl_matches_oracle(ray_crawl, oracle_result):
    out, totals = ray_crawl
    assert totals["pages_ok"] > 0

    # 1. crawl ordering: identical per-round fetched URL sets
    ray_rounds = _ray_rounds(out)
    oracle_rounds = [r["fetched"] for r in oracle_result["rounds"]]
    assert ray_rounds == oracle_rounds

    # 2. URL-seen set equality
    assert totals["seen"]["added"] == len(oracle_result["seen"])
    assert totals["seen"]["divergences"] == 0  # bloom vs exact tandem

    # 3. parsed values: titles from result_json match oracle bodies
    for r, _ in enumerate(ray_rounds):
        d = out / "pages" / f"round={r}"
        for f in sorted(d.glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "status", "result_json"])
            for url, status, rj in zip(t["url"].to_pylist(),
                                       t["status"].to_pylist(),
                                       t["result_json"].to_pylist()):
                o_status, o_body = oracle_result["pages"][url]
                assert status == o_status
                if status == 200:
                    body = json.loads(rj)
                    assert body["title"] == o_body["title"]

    # 4. image rows: ids, captions, decoded pixels equal
    images = LanceLayoutTable(str(out / "images_lance")).to_table()
    got = {row["image_id"]: row for row in images.to_pylist()}
    want = oracle_result["images"]
    assert set(got) == set(want)
    for image_id, row in got.items():
        blob, caption = want[image_id]
        assert row["caption"] == caption
        got_px, want_px = decode_image(row["bytes"]), decode_image(blob)
        assert np.array_equal(got_px, want_px)
        # the conformance bound as stated ("PSNR>=40dB for lossy"):
        # lossless codecs give +inf; a swapped-in lossy codec must
        # still clear 40dB here
        assert psnr(got_px, want_px) >= 40.0
        assert row["w"] > 0 and row["h"] > 0


def test_crawl_image_lineage_matches_oracle(ray_crawl, oracle_result):
    """Per-image provenance is a property of the Lance LAYOUT (round=N
    partition dirs in the committed manifest), and it must equal the
    conformance crawler's first-seen round for every image."""
    out, _ = ray_crawl
    store = LanceLayoutTable(str(out / "images_lance"))
    got = {}
    for frag in store.manifest()["fragments"]:
        rnd = int(frag["file"].split("round=")[1].split("/")[0])
        t = pq.read_table(store.data_dir / frag["file"],
                          columns=["image_id"])
        for iid in t["image_id"].to_pylist():
            assert iid not in got  # one fragment owns each image
            got[iid] = rnd
    assert got == oracle_result["image_round"]


def test_result_tree_assembly_matches_oracle(ray_crawl, oracle_result):
    """Distributed per-parent __result__ reassembly over the flat
    page rows reproduces the reference-shaped nested trees the
    single-process oracle builds (crawler.py:174-189 semantics)."""
    from uniparser_ray.crawl.assemble import assemble_results_dict
    from uniparser_ray.crawl.oracle import assemble_oracle_trees

    out, _totals = ray_crawl
    got = assemble_results_dict(str(out / "pages"))
    want = assemble_oracle_trees(oracle_result)
    assert set(got) == set(want)
    assert got == want


def test_result_tree_assembly_empty(ray_session):
    """Empty crawl -> empty dict (typed empty dataset, no KeyError)."""
    import pyarrow as pa
    import ray.data as rd

    from uniparser_ray.crawl.assemble import _COLS, assemble_results_dict

    empty = pa.table({c: pa.array([], pa.string() if c not in
                                  ("depth", "status") else pa.int32())
                      for c in _COLS})
    assert assemble_results_dict(rd.from_arrow(empty)) == {}


def test_crawl_resume(ray_session, tmp_path, oracle_result):
    """Stop after 2 rounds, resume, final state equals a clean run."""
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl2"
    cfg_partial = CrawlConfig(web_config=WEB_CFG, out_dir=str(out),
                              seeds=web.seed_urls(), max_rounds=2,
                              per_host_budget=3,
                              seen_shard_bits=2)
    run_crawl(cfg_partial, web.rule_pack())
    cfg_full = CrawlConfig(web_config=WEB_CFG, out_dir=str(out),
                           seeds=web.seed_urls(), max_rounds=30,
                           per_host_budget=3,
                           seen_shard_bits=2)
    totals = run_crawl(cfg_full, web.rule_pack(), resume=True)
    ray_rounds = _ray_rounds(out)
    oracle_rounds = [r["fetched"] for r in oracle_result["rounds"]]
    assert ray_rounds == oracle_rounds
    images = LanceLayoutTable(str(out / "images_lance")).to_table()
    assert images.num_rows == len(oracle_result["images"])
    assert totals["pages_ok"] == sum(
        1 for s, _ in oracle_result["pages"].values() if s == 200)


def test_crawl_distributed_grant_tight_backlog_identical(ray_session,
                                                         tmp_path,
                                                         oracle_result):
    """The multi-block grant (block-local clips, then the per-host
    exchange over several buckets) under a tight backlog clip:
    identical per-round fetch sets vs the oracle."""
    web = SynthWeb(**WEB_CFG)
    cfg = CrawlConfig(web_config=WEB_CFG, out_dir=str(tmp_path / "crawl3"),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=3,
                      seen_shard_bits=2,
                      max_pending_per_host=5)
    with _many_blocks() as grants:
        totals = run_crawl(cfg, web.rule_pack())
    _assert_spread(grants)
    assert totals["pages_ok"] > 0
    ray_rounds = _ray_rounds(tmp_path / "crawl3")
    # oracle with the same (tighter) backlog clip
    oracle = BFSOracle(web, web.rule_pack(), per_host_budget=3,
                       max_pending_per_host=5)
    want = oracle.run(web.seed_urls(), max_rounds=30)
    assert ray_rounds == [r["fetched"] for r in want["rounds"]]


def _naive_grant(rows, budgets, default_budget, max_pending,
                 round_seconds):
    """The grant as a per-host Python loop over row dicts: sort by
    (priority, url_hash), walk the rows counting each host's position,
    grant the first k, keep the first k + max_pending."""
    seen_per_host = {}
    out = []
    for row in sorted(rows, key=lambda r: (r["priority"], r["url_hash"])):
        k = budgets.get(row["host"], default_budget)
        delay = row.get("crawl_delay") or 0.0
        if round_seconds > 0 and delay > 0:
            k = min(k, max(1, math.floor(round_seconds / delay)))
        pos = seen_per_host.get(row["host"], 0)
        seen_per_host[row["host"]] = pos + 1
        if pos < k + max_pending:
            out.append(dict(row, granted=int(pos < k)))
    return out


def _grant_input(rng, n, with_delay=True):
    cols = {
        "url": pa.array([f"http://h/{i}" for i in range(n)],
                        pa.large_string()),
        "host": pa.array([f"h{x}.test" for x in rng.integers(0, 5, n)],
                         pa.string()),
        # few distinct priorities: plenty of ties, broken by url_hash
        "priority": pa.array(rng.integers(0, 3, n).astype(np.float32)),
        "url_hash": pa.array(rng.permutation(n).astype(np.uint64)),
    }
    if with_delay:
        # per-host delay: 0 (no cap), 10 (cap 3 at 30 s rounds) and
        # 100 (more than a round: cap 1)
        delay = {"h0.test": 0.0, "h1.test": 10.0, "h2.test": 100.0,
                 "h3.test": 10.0, "h4.test": 0.0}
        cols["crawl_delay"] = pa.array(
            [delay[h] for h in cols["host"].to_pylist()], pa.float32())
    return pa.table(cols)


@pytest.mark.parametrize("with_delay", [True, False])
@pytest.mark.parametrize("round_seconds", [0.0, 30.0])
def test_grant_matches_per_host_loop(with_delay, round_seconds):
    """The Arrow grant equals a plain per-host loop: priority ties,
    host budgets, Crawl-delay 0 and longer than a round, no
    crawl_delay column, an empty table; granting twice is a no-op."""
    rng = np.random.default_rng(7)
    budgets = {"h1.test": 5, "h3.test": 1}
    grant = _make_grant(budgets, 4, 3, round_seconds)
    for n in (0, 1, 9, 60, 400):
        t = _grant_input(rng, n, with_delay)
        got = grant(t)
        assert got.to_pylist() == _naive_grant(
            t.to_pylist(), budgets, 4, 3, round_seconds), n
        assert got.schema.field("granted").type == pa.int8()
        assert grant(got).equals(got)


def test_grant_block_clip_exact():
    """Granting each block, then the concatenated survivors, equals
    granting everything at once, over random block splits — why the
    Dataset grant may clip every block before its shuffle."""
    rng = np.random.default_rng(11)
    grant = _make_grant({"h1.test": 5}, 2, 3, 30.0)
    for _ in range(20):
        t = _grant_input(rng, int(rng.integers(1, 300)))
        cuts = np.sort(rng.integers(0, t.num_rows + 1,
                                    int(rng.integers(1, 6))))
        bounds = [0, *cuts.tolist(), t.num_rows]
        blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
        merged = grant(pa.concat_tables([grant(b) for b in blocks]))
        assert merged.equals(grant(t))


def test_crawl_retries_recover_transient_failures(ray_session, tmp_path,
                                                 oracle_result):
    """A flaky web (deterministic 503 on the first attempt for ~1/3 of
    pages) + max_fetch_retries converges to the SAME final state as
    the failure-free oracle: identical ok-page URL set, parsed values,
    and seen set — failures only shift WHEN a page is fetched (rounds
    differ), never WHAT the crawl ultimately produces."""
    flaky_cfg = dict(WEB_CFG, flaky_mod=3)
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_flaky"
    cfg = CrawlConfig(web_config=flaky_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=40,
                      per_host_budget=3,
                      seen_shard_bits=2, max_fetch_retries=2)
    totals = run_crawl(cfg, web.rule_pack())
    assert sum(m["retried"] for m in totals["per_round"]) > 0

    # final ok-set and parsed values equal the clean-web oracle
    ok_pages = {}
    for r_dir in _round_dirs(out / "pages"):
        for f in sorted(r_dir.glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "status", "result_json"])
            for u, s, rj in zip(t["url"].to_pylist(),
                                t["status"].to_pylist(),
                                t["result_json"].to_pylist()):
                if s == 200:
                    ok_pages[u] = rj
    want_ok = {u: body for u, (s, body) in oracle_result["pages"].items()
               if s == 200}
    assert set(ok_pages) == set(want_ok)
    for u, rj in ok_pages.items():
        assert json.loads(rj)["title"] == want_ok[u]["title"]

    # every url the oracle saw was eventually decided here too
    assert totals["seen"]["added"] == len(oracle_result["seen"])


def test_crawl_retry_exhaustion_is_permanent(ray_session, tmp_path):
    """Pages that keep failing past max_fetch_retries stay failed (no
    infinite requeue): the crawl terminates and records the 503s."""
    flaky_cfg = dict(WEB_CFG, flaky_mod=3, flaky_attempts=99)
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_dead"
    cfg = CrawlConfig(web_config=flaky_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=40,
                      per_host_budget=3,
                      seen_shard_bits=2, max_fetch_retries=1)
    totals = run_crawl(cfg, web.rule_pack())
    statuses = {}
    for r_dir in _round_dirs(out / "pages"):
        for f in sorted(r_dir.glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "status", "retries"])
            for u, s, k in zip(t["url"].to_pylist(),
                               t["status"].to_pylist(),
                               t["retries"].to_pylist()):
                statuses.setdefault(u, []).append((k, s))
    perma = {u: v for u, v in statuses.items()
             if all(s == 503 for _k, s in v)}
    assert perma, "expected permanently-failing pages"
    # each permanently-failing url fetched exactly max_fetch_retries+1
    # times (attempts 0..max), then dropped
    for u, v in perma.items():
        assert sorted(k for k, _s in v) == [0, 1], (u, v)


def test_crawl_robots_delay_budget_matches_oracle(ray_session, tmp_path):
    """robots Crawl-delay -> per-host politeness budget: the crawl with
    robots_delay_budget on matches the oracle twin configured the same
    way (per-round fetch sets), and the delay-declaring hosts (h%5==3,
    Crawl-delay: 20 => floor(60/20)=3 grants/round) actually throttle
    below the configured budget."""
    web_cfg = dict(WEB_CFG, num_hosts=5)   # host-0003 (h%5==3) exists
    web = SynthWeb(**web_cfg)
    out = tmp_path / "crawl_delay"
    cfg = CrawlConfig(web_config=web_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=6,
                      seen_shard_bits=2, robots_delay_budget=True,
                      round_seconds=60.0)
    run_crawl(cfg, web.rule_pack())

    from uniparser_ray.crawl.oracle import BFSOracle
    oracle = BFSOracle(web, web.rule_pack(), per_host_budget=6,
                       robots_delay_budget=True, round_seconds=60.0)
    want = oracle.run(web.seed_urls(), max_rounds=30)

    ray_rounds = _ray_rounds(out)
    oracle_rounds = [r["fetched"] for r in want["rounds"]]
    assert ray_rounds == oracle_rounds

    # host-0003 declares Crawl-delay: 20 -> at most 3 fetches/round
    # (vs budget 6); prove the throttle engaged
    per_round_hits = [
        sum(1 for u in r if u.startswith("http://host-0003.test/"))
        for r in ray_rounds]
    assert max(per_round_hits) == 3, per_round_hits


def _crawl_outputs(out):
    """(url -> (round, status, result_json, error), image table with
    md5 of bytes, image id -> committed round) of one finished crawl;
    asserts no page row is written twice."""
    import hashlib
    rows = {}
    for r_dir in _round_dirs(out / "pages"):
        rnd = int(r_dir.name.split("=")[1])
        for f in sorted(r_dir.glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "status", "result_json",
                                          "error"])
            for u, s, rj, e in zip(t["url"].to_pylist(),
                                   t["status"].to_pylist(),
                                   t["result_json"].to_pylist(),
                                   t["error"].to_pylist()):
                assert u not in rows, f"duplicate page row {u}"
                rows[u] = (rnd, s, rj, e)
    store = LanceLayoutTable(str(out / "images_lance"))
    df = store.to_table(columns=["image_id", "bytes", "caption", "phash"]) \
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    df["md5"] = df.pop("bytes").map(lambda b: hashlib.md5(b).hexdigest())
    lineage = {}
    for frag in store.manifest()["fragments"]:
        rnd = int(frag["file"].split("round=")[1].split("/")[0])
        t = pq.read_table(store.data_dir / frag["file"],
                          columns=["image_id"])
        for iid in t["image_id"].to_pylist():
            lineage[iid] = rnd
    return rows, df, lineage


@pytest.fixture(scope="module")
def block_leg_outputs(ray_session, tmp_path_factory):
    """The same crawl with every round in one admit block (the default
    constants) and with rounds spread over several admit blocks and
    grant buckets (``_many_blocks``): (one-block, many-block)
    ``(_crawl_outputs, images total, per-round fetch sets)``."""
    results = []
    for many in (False, True):
        out = tmp_path_factory.mktemp(f"crawl_many{int(many)}") / "crawl"
        web = SynthWeb(**WEB_CFG)
        cfg = CrawlConfig(web_config=WEB_CFG, out_dir=str(out),
                          seeds=web.seed_urls(), max_rounds=30,
                          per_host_budget=3,
                          seen_shard_bits=2)
        with (_many_blocks() if many else contextlib.nullcontext()) as g:
            totals = run_crawl(cfg, web.rule_pack())
        if many:
            _assert_spread(g)
        results.append((_crawl_outputs(out), totals["images"],
                        _ray_rounds(out)))
    return results


def test_crawl_fused_image_path_identical(block_leg_outputs):
    """The image side-channel runs inside the fetch tasks; one-block
    rounds and rounds spread over several blocks and buckets must
    produce the SAME image table: ids, bytes, captions, phash, and
    per-round lineage."""
    ((_, df_d, lin_d), n_d, _), ((_, df_r, lin_r), n_r, _) = \
        block_leg_outputs
    assert n_d == n_r and n_d > 0
    assert lin_d == lin_r
    import pandas.testing as pdt
    pdt.assert_frame_equal(df_d, df_r)


def test_crawl_fused_page_write_identical(block_leg_outputs,
                                         oracle_result):
    """The fetch tasks write the page checkpoint; one-block rounds and
    rounds spread over several blocks and buckets must leave equivalent
    page checkpoints: the same (url -> round, status, result_json,
    error) map, with no page row written twice (checked while
    reading), and both the oracle's per-round fetch sets."""
    ((rows_d, _, _), _, rounds_d), ((rows_r, _, _), _, rounds_r) = \
        block_leg_outputs
    assert rows_d and rows_d == rows_r
    want = [r["fetched"] for r in oracle_result["rounds"]]
    assert rounds_d == want and rounds_r == want


def test_crawl_politeness_audit_invariant(ray_session):
    """The per-host audit read back from the crawl's persisted pages
    must (a) equal the conformance replay's audit exactly and (b) show
    every host within the per-round budget — the politeness guarantee
    as data, not prose."""
    from uniparser_ray.pipelines.crawl_q import _CRAWL_BUDGET
    from uniparser_ray.pipelines.images_q import (
        crawl_politeness_audit, expected_crawl_politeness_audit)

    got = crawl_politeness_audit("/root/testdata/sf0.001").to_pandas() \
        .reset_index(drop=True)
    want = expected_crawl_politeness_audit("sf0.001").to_pandas()
    import pandas.testing as pdt
    pdt.assert_frame_equal(got, want)
    assert (got["budget_ok"] == 1).all()
    assert (got["max_round_fetches"] <= _CRAWL_BUDGET).all()
    assert got["n_fetches"].sum() > 0


def test_crawl_page_lineage_parent_chain(ray_session):
    """Lineage read back from checkpoints is internally consistent:
    seeds have depth 0 / empty parent, every child's depth is its
    parent's + 1, and a parent is always fetched in a strictly earlier
    round."""
    from uniparser_ray.pipelines.images_q import crawl_page_lineage

    df = crawl_page_lineage("/root/testdata/sf0.001").to_pandas()
    by_url = df.set_index("url")
    seeds = df[df["parent"] == ""]
    assert len(seeds) and (seeds["depth"] == 0).all()
    kids = df[df["parent"] != ""]
    assert len(kids)
    assert (kids["depth"].to_numpy()
            == by_url.loc[kids["parent"], "depth"].to_numpy() + 1).all()
    assert (kids["round"].to_numpy()
            > by_url.loc[kids["parent"], "round"].to_numpy()).all()


def test_crawl_resume_value_roundtrip(ray_session, tmp_path, ray_crawl):
    """Value-level resume fidelity (the crawl_resume_roundtrip query's
    claims, pinned without the memo): an interrupt-at-round-2 + resume
    run must (a) genuinely stop early, (b) leave every committed round
    file BYTE-identical across the resume (committed partitions are
    never rewritten), and (c) reproduce the uninterrupted run's
    (url, round, status, md5(result_json)) rows exactly."""
    import hashlib

    out_full, _ = ray_crawl
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_resume"
    base = dict(web_config=WEB_CFG, out_dir=str(out),
                seeds=web.seed_urls(), per_host_budget=3,
                seen_shard_bits=2)
    run_crawl(CrawlConfig(max_rounds=2, **base), web.rule_pack())

    def snap(root):
        return {str(p.relative_to(root)): hashlib.md5(p.read_bytes())
                .hexdigest() for p in (root / "pages").glob("round=*/*.parquet")}

    committed = snap(out)
    full_rounds = len(_ray_rounds(out_full))
    assert len(_ray_rounds(out)) == 2 < full_rounds  # (a) stopped early

    run_crawl(CrawlConfig(max_rounds=30, **base), web.rule_pack(),
              resume=True)
    after = snap(out)
    assert all(after[k] == v for k, v in committed.items())  # (b)

    assert _page_value_rows(out) == _page_value_rows(out_full)  # (c)


def _page_value_rows(root):
    """{(url, round, status, md5(result_json))} over every committed
    round — the value identity the resume checks compare."""
    import hashlib
    rows = set()
    for r, _urls in enumerate(_ray_rounds(root)):
        for f in sorted((root / "pages" / f"round={r}").glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "status", "result_json"])
            for u, s, j in zip(t["url"].to_pylist(),
                               t["status"].to_pylist(),
                               t["result_json"].to_pylist()):
                rows.add((u, r, s,
                          hashlib.md5((j or "").encode()).hexdigest()))
    return rows


def test_crawl_resume_after_midround_crash(ray_session, tmp_path, ray_crawl,
                                           oracle_result):
    """A crash INSIDE a round — after the attempt's partial page write
    and after the Lance manifest registered the attempt's image
    fragments, but before the round's `_save_state` commit — must roll
    back on resume: without the round>=start_round purge the re-run
    MERGES the stale uuid-named page file (duplicate page rows), keeps
    the orphan fragment in the manifest (duplicate image rows), and
    `_reseed_filters` poisons img_seen from the rolled-back fragment
    (the re-run then silently DROPS those images).  Forge exactly that
    on-disk state, resume, and require the uninterrupted run's values."""
    import shutil

    out_full, _ = ray_crawl
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_crash"
    base = dict(web_config=WEB_CFG, out_dir=str(out),
                seeds=web.seed_urls(), per_host_budget=3,
                seen_shard_bits=2)
    run_crawl(CrawlConfig(max_rounds=2, **base), web.rule_pack())

    # forge the crash window: a partial round-2 page checkpoint ...
    pdir = out / "pages" / "round=2"
    pdir.mkdir(parents=True)
    donor_page = next(iter(sorted((out / "pages" / "round=1")
                                  .glob("*.parquet"))))
    shutil.copy(donor_page, pdir / "crashed-attempt-uuid.parquet")
    # ... and a registered round-2 image fragment (images.commit runs
    # mid-round, so a crash can leave the manifest already advanced)
    img_tbl = LanceLayoutTable(str(out / "images_lance"))
    frags = img_tbl.fragment_files()
    assert frags, "rounds 0-1 of this web must produce images"
    frag_dir = img_tbl.data_dir / "round=2"
    frag_dir.mkdir(parents=True)
    shutil.copy(frags[0], frag_dir / "crashed-attempt.parquet")
    v_before = img_tbl.commit(["round=2/crashed-attempt.parquet"],
                              metadata={"round": 2})

    run_crawl(CrawlConfig(max_rounds=30, **base), web.rule_pack(),
              resume=True)

    assert _page_value_rows(out) == _page_value_rows(out_full)
    images = LanceLayoutTable(str(out / "images_lance"))
    assert images.count_rows() == len(oracle_result["images"])
    # the rollback committed a NEW manifest version (lineage preserved
    # — the poisoned version stays readable for audit), and no manifest
    # fragment from the crashed attempt survived
    assert images.latest_version() > v_before
    assert all("crashed-attempt" not in f
               for f in images.fragment_files())


REDIRECT_CFG = dict(num_hosts=4, base_pages=14, fanout=2, hot_factor=4.0,
                    redirect_rate=0.5)


@pytest.fixture(scope="module")
def redirect_oracle():
    """Redirect-enabled web + sitemap seeds: the sitemaps advertise
    CANONICAL /page/{p} URLs while links use legacy /old*/{p} forms,
    so the alias-vs-direct collision (RedirectDuplicate) is exercised
    alongside chains and the /loopx <-> /loopy cycle."""
    web = SynthWeb(**REDIRECT_CFG)
    oracle = BFSOracle(web, web.rule_pack(), per_host_budget=3)
    return oracle.run(web.seed_urls(), max_rounds=30, sitemap_seeds=True)


def _redirect_page_rows(out_dir):
    rows = {}
    for r_dir in _round_dirs(out_dir / "pages"):
        for f in sorted(r_dir.glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "status", "result_json",
                                          "error", "final_url",
                                          "redirects"])
            for row in t.to_pylist():
                rows[row["url"]] = row
    return rows


def test_crawl_redirects_match_oracle(ray_session, tmp_path,
                                      redirect_oracle):
    """3xx semantics vs the sequential oracle: identical per-round
    fetch sets, final-URL mapping (relative 301 + absolute 302 chains),
    RedirectDuplicate set, loop pages (-2), parsed values and URL-seen
    set (which includes the canonical finals)."""
    web = SynthWeb(**REDIRECT_CFG)
    out = tmp_path / "crawl_redir"
    cfg = CrawlConfig(web_config=REDIRECT_CFG, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=3,
                      seen_shard_bits=2, sitemap_seeds=True)
    totals = run_crawl(cfg, web.rule_pack())

    assert _ray_rounds(out) == [r["fetched"]
                                for r in redirect_oracle["rounds"]]
    rows = _redirect_page_rows(out)
    # finals carry ("", hops) for failed chains (loop / blocked hop)
    finals = {u: (r["final_url"], r["redirects"])
              for u, r in rows.items() if r["redirects"]}
    assert finals == redirect_oracle["finals"]
    # the web must actually exercise single hops AND two-hop chains
    hop_counts = {h for _f, h in finals.values()}
    assert {1, 2} <= hop_counts
    dups = {u for u, r in rows.items() if r["error"] == "RedirectDuplicate"}
    assert dups == redirect_oracle["redirect_dups"] and dups
    loops = {u for u, r in rows.items() if r["status"] == -2}
    assert loops == {u for u, (s, _b) in redirect_oracle["pages"].items()
                     if s == -2} and loops
    # redirects onto robots-disallowed targets terminate as -3 (a 301
    # chain must not smuggle a disallowed page past admission)
    blocked = {u for u, r in rows.items() if r["status"] == -3}
    assert blocked == {u for u, (s, _b) in redirect_oracle["pages"].items()
                       if s == -3} and blocked
    # seen-set equality INCLUDING the canonical finals added mid-fetch
    assert totals["seen"]["added"] == len(redirect_oracle["seen"])
    assert totals["seen"]["divergences"] == 0
    for u, r in rows.items():
        o_status, o_body = redirect_oracle["pages"][u]
        assert r["status"] == o_status
        if o_status == 200 and u not in dups:
            assert json.loads(r["result_json"])["title"] == o_body["title"]


def test_crawl_redirect_resume_replays_finals(ray_session, tmp_path,
                                              redirect_oracle):
    """Resume must replay final_hash into the seen shards: interrupt a
    redirect-heavy crawl after 2 rounds, resume, and require the clean
    run's per-round schedule — if finals were NOT reseeded, a post-
    resume alias hop would re-extract an already-crawled page and the
    fetch sets would diverge."""
    web = SynthWeb(**REDIRECT_CFG)
    out = tmp_path / "crawl_redir_resume"
    base = dict(web_config=REDIRECT_CFG, out_dir=str(out),
                seeds=web.seed_urls(), per_host_budget=3,
                seen_shard_bits=2,
                sitemap_seeds=True)
    run_crawl(CrawlConfig(max_rounds=2, **base), web.rule_pack())
    totals = run_crawl(CrawlConfig(max_rounds=30, **base),
                       web.rule_pack(), resume=True)
    assert _ray_rounds(out) == [r["fetched"]
                                for r in redirect_oracle["rounds"]]
    # seen counts may undershoot the clean run by the few hashes whose
    # admission was robots-REJECTED pre-interrupt (they're deliberately
    # not checkpointed — the per-hop robots check makes them
    # behaviorally irrelevant, as the round equality above proves)
    assert 0 <= len(redirect_oracle["seen"]) - totals["seen"]["added"] <= 3
    rows = _redirect_page_rows(out)
    dups = {u for u, r in rows.items() if r["error"] == "RedirectDuplicate"}
    assert dups == redirect_oracle["redirect_dups"]


def test_redirect_rate_zero_web_unchanged():
    """redirect_rate=0 (the default) must leave the web byte-identical
    to the historic model — every existing fixture and embedded oracle
    depends on it."""
    base = SynthWeb(num_hosts=3, base_pages=10, fanout=2, hot_factor=4.0)
    tagged = SynthWeb(num_hosts=3, base_pages=10, fanout=2, hot_factor=4.0,
                      redirect_rate=0.0)
    for h in range(3):
        for p in range(base.pages_of_host[h]):
            assert base.get(base.page_url(h, p)) == \
                tagged.get(tagged.page_url(h, p))
        assert base.robots_txt(h) == tagged.robots_txt(h)


def test_follow_fetch_units():
    """Hostile 3xx shapes against FetchParseStage._follow_fetch: a 3xx
    without Location is terminal (not followed), relative and absolute
    Location both resolve, hop budget and loop detection land -2."""
    from uniparser_ray.stages.crawl_stages import FetchParseStage

    class OddWeb:
        def get(self, url, attempt=0):
            path = url.split(".test", 1)[1] or "/"
            if path == "/noloc":
                return 301, {}, b"<html>no location</html>"
            if path == "/rel":
                return 302, {"Location": "/target"}, b""
            if path == "/abs":
                return 301, {"Location": "http://host-0000.test/target"}, b""
            if path.startswith("/hop/"):
                n = int(path.rsplit("/", 1)[1])
                return 301, {"Location": f"/hop/{n + 1}"}, b""
            if path == "/self":
                return 302, {"Location": "/self"}, b""
            return 200, {"Content-Type": "text/html"}, \
                b"<html><h1 class='page-title'>T</h1></html>"

    pack = {"host-0000.test": {
        "host": "host-0000.test",
        "crawler_rules": {"page": {
            "name": "page",
            "request_args": {"method": "get",
                             "url": "http://host-0000.test/"},
            "parse_rules": [{"name": "title",
                             "chain_rules": [["css", "h1.page-title",
                                              "$text"],
                                             ["py", "getitem", "[0]"]],
                             "child_rules": []}],
            "regex": "^http://host-0000\\.test/.*$"}}}}
    stage = FetchParseStage(rule_pack=pack, web_config={},
                            max_redirects=3)
    stage.web = OddWeb()
    from uniparser_ray.rulevm.transport import SyntheticWebAdapter
    stage.adapter = SyntheticWebAdapter(stage.web)
    rule = stage._find_rule("http://host-0000.test/rel")

    # 3xx without Location: terminal, status preserved, no hops
    _t, _r, status, final, hops, err = stage._follow_fetch(
        rule, "http://host-0000.test/noloc", 0)
    assert (status, final, hops, err) == (301, "", 0, None)
    # relative + absolute Location resolve to the canonical target
    for path in ("/rel", "/abs"):
        _t, _r, status, final, hops, _e = stage._follow_fetch(
            rule, f"http://host-0000.test{path}", 0)
        assert status == 200 and hops == 1
        assert final == "http://host-0000.test/target"
    # unbounded chain: -2 TooManyRedirects at the hop budget
    _t, _r, status, final, hops, err = stage._follow_fetch(
        rule, "http://host-0000.test/hop/0", 0)
    assert status == -2 and "TooManyRedirects" in err
    # self-redirect: -2 RedirectLoop on the first revisit
    _t, _r, status, _f, hops, err = stage._follow_fetch(
        rule, "http://host-0000.test/self", 0)
    assert status == -2 and "RedirectLoop" in err and hops == 1


def test_qpx_codec_units():
    """QPX lossy codec: deterministic framing, idempotent quantization,
    PSNR in the (40, inf) band — genuinely lossy yet above the north
    rule's bar — across hostile shapes (1x1, padding remainders)."""
    from uniparser_ray.sources.codecs import (decode_image, decode_qpx,
                                              encode_qpx)
    from uniparser_ray.sources.images import render_pixels

    for shape in ((1, 1, 3), (3, 5, 3), (2, 2, 3), (7, 13, 3)):
        rng = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
        blob = encode_qpx(rng)
        assert len(blob) == 8 + 3 * ((rng.size + 3) // 4)
        rec = decode_qpx(blob)
        assert rec.shape == rng.shape
        assert np.abs(rec.astype(int) - rng.astype(int)).max() <= 2
        # quantization is idempotent: re-encoding the decode is stable
        assert encode_qpx(rec) == blob
        # magic dispatch
        assert np.array_equal(decode_image(blob), rec)
    px = render_pixels(7)
    rec = decode_qpx(encode_qpx(px))
    p = psnr(px, rec)
    assert 40.0 <= p < float("inf"), p


def test_crawl_lossy_web_matches_oracle(ray_session, tmp_path):
    """Crawl over a web serving a deterministic QPX (lossy) slice of
    its images: engine and oracle fetch byte-identical blobs (exact
    pixel equality between them), and every lossy row clears the north
    rule's PSNR>=40dB bound against the ORIGINAL source pixels while
    being genuinely lossy (psnr < inf)."""
    from uniparser_ray.sources.images import render_pixels

    lossy_cfg = dict(WEB_CFG, lossy_rate=0.5)
    web = SynthWeb(**lossy_cfg)
    out = tmp_path / "crawl_lossy"
    cfg = CrawlConfig(web_config=lossy_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=3,
                      seen_shard_bits=2)
    run_crawl(cfg, web.rule_pack())
    oracle = BFSOracle(SynthWeb(**lossy_cfg), web.rule_pack(),
                       per_host_budget=3)
    want = oracle.run(web.seed_urls(), max_rounds=30)

    images = LanceLayoutTable(str(out / "images_lance")).to_table()
    got = {row["image_id"]: row for row in images.to_pylist()}
    assert set(got) == set(want["images"])
    lossy_seen = 0
    for image_id, row in got.items():
        blob, caption = want["images"][image_id]
        assert row["bytes"] == blob      # engine & oracle byte-identical
        assert row["caption"] == caption
        px = decode_image(row["bytes"])
        if row["fmt"] == "qpx":
            lossy_seen += 1
            src = render_pixels(int(image_id.split("-")[1]))
            p = psnr(px, src)
            assert 40.0 <= p < float("inf"), (image_id, p)
            assert row["w"] == src.shape[1] and row["h"] == src.shape[0]
        else:
            src = render_pixels(int(image_id.split("-")[1]))
            assert np.array_equal(px, src)
    assert lossy_seen > 0, "lossy slice must be exercised"


def test_freshness_epoch_model_units():
    """Conditional-GET model: epoch 0 is byte-identical to the
    historic web; at epoch 1 exactly the deterministic changed slice
    re-renders (revision line + bumped ETag) while unchanged pages
    stay byte-identical AND answer 304 to a matching If-None-Match."""
    base = SynthWeb(**WEB_CFG)
    e0 = SynthWeb(**WEB_CFG, epoch=0)
    e1 = SynthWeb(**WEB_CFG, epoch=1)
    changed = unchanged = 0
    for h in range(e1.num_hosts):
        for p in range(e1.pages_of_host[h]):
            url = base.page_url(h, p)
            assert base.get(url) == e0.get(url)   # epoch-0 identity
            if base.page_status(h, p) != 200:
                continue
            old_etag = e0.page_etag(h, p)
            s, hdr, body = e1.get(url, headers={"If-None-Match": old_etag})
            if e1.page_rev(h, p):
                changed += 1
                assert s == 200 and b"revision 1" in body
                assert hdr["ETag"] != old_etag
                # new validator round-trips: matching it gives 304
                s2, hdr2, body2 = e1.get(
                    url, headers={"If-None-Match": hdr["ETag"]})
                assert (s2, body2) == (304, b"")
            else:
                unchanged += 1
                assert (s, body) == (304, b"")
                assert hdr["ETag"] == old_etag
                # unconditional fetch of an unchanged page: identical
                assert e1.get(url) == e0.get(url)
    assert changed > 0 and unchanged > 0


def test_crawl_checkpoints_carry_etag(ray_crawl):
    """Every 200-page row checkpoints the server's validator — the
    recrawl scheduler's input."""
    out, _ = ray_crawl
    seen_any = False
    for f in sorted((out / "pages").glob("round=*/*.parquet")):
        t = pq.read_table(f, columns=["url", "status", "etag"])
        for u, s, e in zip(t["url"].to_pylist(), t["status"].to_pylist(),
                           t["etag"].to_pylist()):
            if s == 200:
                seen_any = True
                assert e.startswith('W/"'), (u, e)
    assert seen_any


def test_crawl_trap_guards_match_oracle(ray_session, tmp_path):
    """Spider-trap guards: a web whose roots link an infinite
    /trap/x/x/... chain would crawl forever (to max_rounds) without
    guards; with max_path_repeats the chain is cut at the bound and
    the whole crawl still matches the sequential oracle configured
    the same way.  A depth-bound leg cross-checks max_depth."""
    trap_cfg = dict(WEB_CFG, trap_links=True)
    web = SynthWeb(**trap_cfg)

    out = tmp_path / "crawl_trap"
    cfg = CrawlConfig(web_config=trap_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=3,
                      seen_shard_bits=2, max_path_repeats=2)
    run_crawl(cfg, web.rule_pack())
    oracle = BFSOracle(SynthWeb(**trap_cfg), web.rule_pack(),
                       per_host_budget=3, max_path_repeats=2)
    want = oracle.run(web.seed_urls(), max_rounds=30)
    assert _ray_rounds(out) == [r["fetched"] for r in want["rounds"]]
    fetched = {u for r in _ray_rounds(out) for u in r}
    # the trap was entered (guards bound it, they don't blind the
    # crawl) but never beyond 3 consecutive repeats
    assert any("/trap/x" in u for u in fetched)
    assert not any(u.endswith("/trap/x/x/x/x") for u in fetched)

    # depth-bound leg: same web, max_depth=2 — identical to the
    # depth-bounded oracle, and nothing deeper than 2 is fetched
    out2 = tmp_path / "crawl_depth"
    cfg2 = CrawlConfig(web_config=trap_cfg, out_dir=str(out2),
                       seeds=web.seed_urls(), max_rounds=30,
                       per_host_budget=3,
                       seen_shard_bits=2, max_depth=2)
    run_crawl(cfg2, web.rule_pack())
    oracle2 = BFSOracle(SynthWeb(**trap_cfg), web.rule_pack(),
                        per_host_budget=3, max_depth=2)
    want2 = oracle2.run(web.seed_urls(), max_rounds=30)
    assert _ray_rounds(out2) == [r["fetched"] for r in want2["rounds"]]
    depths = []
    for f in sorted((out2 / "pages").glob("round=*/*.parquet")):
        depths.extend(pq.read_table(f, columns=["depth"])
                      ["depth"].to_pylist())
    assert depths and max(depths) <= 2


def test_trap_filter_units(ray_session):
    """make_trap_filter edge cases: off-by-one at the repeat bound,
    the vectorized prefilter not masking short URLs, URL length on
    the canonical form, depth boundary inclusive."""
    import pyarrow as pa

    from uniparser_ray.stages.crawl_stages import make_trap_filter

    def tbl(urls, depths):
        return pa.table({"url": pa.array(urls, pa.large_string()),
                         "depth": pa.array(depths, pa.int32())})

    f = make_trap_filter(max_path_repeats=2)
    t = tbl(["http://h.test/trap/x/x",        # 2 repeats: kept
             "http://h.test/trap/x/x/x",      # 3 repeats: cut
             "http://h.test/a/b/a/b/a/b/c",   # alternating: kept
             "http://h.test/aa/aa/aa"],       # 3 repeats: cut
            [1, 1, 1, 1])
    assert f(t)["url"].to_pylist() == ["http://h.test/trap/x/x",
                                       "http://h.test/a/b/a/b/a/b/c"]

    f2 = make_trap_filter(max_depth=3, max_url_len=30)
    t2 = tbl(["http://h.test/ok", "http://h.test/" + "y" * 40,
              "http://h.test/deep"], [3, 1, 4])
    assert f2(t2)["url"].to_pylist() == ["http://h.test/ok"]


def test_qpx_codec_fuzz():
    """Property fuzz (hypothesis): for ANY pixel array, QPX decode
    equals the pure 6-bit quantizer applied elementwise — the packing
    layer can never leak between samples — and framing length matches
    the arithmetic."""
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    from uniparser_ray.sources.codecs import decode_qpx, encode_qpx

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.data())
    def run(h, w, data):
        px = data.draw(arrays(np.uint8, (h, w, 3)))
        blob = encode_qpx(px)
        assert len(blob) == 8 + 3 * ((px.size + 3) // 4)
        rec = decode_qpx(blob)
        want = ((px.astype(np.uint32) >> 2) << 2) + 2
        assert np.array_equal(rec, want.astype(np.uint8))

    run()


def test_crawl_host_error_budget_matches_oracle(ray_session, tmp_path):
    """Dead-host pruning: on a web where ~1/3 of pages serve permanent
    503s, host_error_budget bans hosts whose cumulative error count
    crosses the budget — frontier rows of banned hosts are dropped at
    admission from the NEXT round on.  The full schedule must equal
    the budget-configured sequential oracle, bans must actually fire,
    and an interrupt-resume run must reconstruct the counters from
    the page checkpoints."""
    dead_cfg = dict(WEB_CFG, flaky_mod=3, flaky_attempts=99)
    web = SynthWeb(**WEB_CFG)
    budget = 3

    oracle = BFSOracle(SynthWeb(**dead_cfg), web.rule_pack(),
                       per_host_budget=3, host_error_budget=budget)
    want = oracle.run(web.seed_urls(), max_rounds=30)

    out = tmp_path / "crawl_deadhost"
    base = dict(web_config=dead_cfg, out_dir=str(out),
                seeds=web.seed_urls(), per_host_budget=3,
                seen_shard_bits=2,
                host_error_budget=budget)
    run_crawl(CrawlConfig(max_rounds=30, **base), web.rule_pack())
    assert _ray_rounds(out) == [r["fetched"] for r in want["rounds"]]

    # bans fired: some host has >= budget errors and stops appearing
    errs = {}
    ban_round = {}      # host -> round its cumulative errors hit budget
    fetch_rounds = {}   # host -> set of rounds it was fetched in
    for rd_dir in _round_dirs(out / "pages"):
        rnd = int(rd_dir.name.split("=")[1])
        for f in sorted(rd_dir.glob("*.parquet")):
            t = pq.read_table(f, columns=["host", "status"])
            for h, s in zip(t["host"].to_pylist(), t["status"].to_pylist()):
                fetch_rounds.setdefault(h, set()).add(rnd)
                if s == -1 or s >= 500:
                    errs[h] = errs.get(h, 0) + 1
                    if errs[h] == budget and h not in ban_round:
                        ban_round[h] = rnd
    assert ban_round, "expected at least one banned host"
    # a banned host is NEVER fetched after the round its count crossed
    # the budget
    for h, b in ban_round.items():
        assert not {r for r in fetch_rounds[h] if r > b}, (h, b)

    # interrupt-resume: counters rebuilt from checkpoints
    out2 = tmp_path / "crawl_deadhost_resume"
    base2 = dict(base, out_dir=str(out2))
    run_crawl(CrawlConfig(max_rounds=3, **base2), web.rule_pack())
    run_crawl(CrawlConfig(max_rounds=30, **base2), web.rule_pack(),
              resume=True)
    assert _ray_rounds(out2) == [r["fetched"] for r in want["rounds"]]


def test_crawl_rounds_start_no_ray_data_execution(ray_session, tmp_path,
                                                 monkeypatch):
    """A crawl runs on plain Ray tasks: seeding (with sitemap ingest),
    admit, grant, the dead-host error fold, fetch, the next frontier
    and a resume's replays start no Ray Data execution (pinned with
    host_error_budget and retries on, so those steps run)."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    runs = []
    real = StreamingExecutor.execute

    def spy(self, *args, **kwargs):
        runs.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    rd.range(3).materialize()
    assert runs, "the spy must see a Ray Data execution"
    runs.clear()
    flaky_cfg = dict(WEB_CFG, flaky_mod=3)
    web = SynthWeb(**WEB_CFG)
    base = dict(web_config=flaky_cfg, out_dir=str(tmp_path / "c"),
                seeds=web.seed_urls(), per_host_budget=3,
                seen_shard_bits=2, host_error_budget=50,
                max_fetch_retries=1, sitemap_seeds=True)
    run_crawl(CrawlConfig(max_rounds=2, **base), web.rule_pack())
    totals = run_crawl(CrawlConfig(max_rounds=4, **base), web.rule_pack(),
                       resume=True)
    assert totals["rounds"] == 4
    assert sum(m["retried"] for m in totals["per_round"]) > 0
    assert runs == []


def _frontier_schemas_ok(out):
    from uniparser_ray.crawl.loop import FRONTIER_SCHEMA
    files = sorted((out / "frontier").glob("round=*/*.parquet"))
    assert files
    for f in files:
        assert pq.read_schema(f).remove_metadata() == FRONTIER_SCHEMA, f


def test_crawl_empty_admit_block(ray_session, tmp_path, oracle_result,
                                 monkeypatch):
    """One admit block of a round comes out empty (every row already
    seen) while the other does not: the next frontiers keep
    FRONTIER_SCHEMA and the per-round fetch sets equal the oracle's.
    The round-1 frontier gets a second file of round-0 URLs, and the
    admit rows per block equal the first file's rows, so each file is
    one admit block."""
    from uniparser_ray.crawl import loop
    from uniparser_ray.crawl.loop import CrawlRun, _frontier_table

    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_empty_block"
    base = dict(web_config=WEB_CFG, out_dir=str(out), seeds=web.seed_urls(),
                per_host_budget=3, seen_shard_bits=2)
    run_crawl(CrawlConfig(max_rounds=1, **base), web.rule_pack())
    (part,) = (out / "frontier" / "round=1").glob("*.parquet")
    n = pq.read_metadata(part).num_rows
    fetched = oracle_result["rounds"][0]["fetched"]
    urls = [fetched[i % len(fetched)] for i in range(n)]
    pq.write_table(_frontier_table(urls, [""] * n, [0] * n, [0.0] * n,
                                   [0] * n), part.parent / "seen.parquet")

    counts = []
    real = CrawlRun._admit

    def spy(self, *args):
        admitted = real(self, *args)
        counts.append([c for _, _, c in admitted])
        return admitted

    monkeypatch.setattr(CrawlRun, "_admit", spy)
    monkeypatch.setattr(loop, "_ADMIT_BLOCK_ROWS", n)
    run_crawl(CrawlConfig(max_rounds=30, **base), web.rule_pack(),
              resume=True)
    first = counts[0]
    assert len(first) == 2 and first[1][0] == 0 and first[0][0] > 0, first
    _frontier_schemas_ok(out)
    assert _ray_rounds(out) == [r["fetched"] for r in oracle_result["rounds"]]


def test_crawl_all_deferred_round(ray_session, tmp_path, oracle_result):
    """A round whose rows are all deferred (honor_retry_after; every
    round-1 frontier row rewritten to ready_round 3) fetches nothing,
    carries its rows on in FRONTIER_SCHEMA, and the crawl then runs
    the oracle's schedule two rounds late."""
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_deferred"
    base = dict(web_config=WEB_CFG, out_dir=str(out), seeds=web.seed_urls(),
                per_host_budget=3, seen_shard_bits=2,
                honor_retry_after=True)
    run_crawl(CrawlConfig(max_rounds=1, **base), web.rule_pack())
    (part,) = (out / "frontier" / "round=1").glob("*.parquet")
    t = pq.read_table(part)
    pq.write_table(t.set_column(
        t.schema.get_field_index("ready_round"), "ready_round",
        pa.array([3] * t.num_rows, pa.int32())), part)
    totals = run_crawl(CrawlConfig(max_rounds=30, **base), web.rule_pack(),
                       resume=True)
    rounds = totals["per_round"]
    assert [m["deferred"] for m in rounds[1:3]] == [t.num_rows] * 2
    assert [m["granted"] for m in rounds[1:3]] == [0, 0]
    _frontier_schemas_ok(out)
    want = [r["fetched"] for r in oracle_result["rounds"]]
    assert _ray_rounds(out) == [want[0], [], [], *want[1:]]


def _state_host_actors():
    """{actor id: state} of every StateHost actor of the session."""
    from ray._private import state as gcs
    return {a["ActorID"]: a["State"] for a in gcs.actors().values()
            if a["ActorClassName"] == "StateHost"}


def _await_state_hosts(done, timeout=30.0):
    """Poll the StateHost actors until ``done(actors)`` (``ray.kill``
    is asynchronous) or the timeout; returns the last poll."""
    import time
    deadline = time.monotonic() + timeout
    while True:
        actors = _state_host_actors()
        if done(actors) or time.monotonic() > deadline:
            return actors
        time.sleep(0.2)


def test_crawl_state_hosts_leased_one_per_node(ray_session, tmp_path):
    """Back-to-back default crawls lease their state hosts from the
    session's pool: after each of 3 runs at most one StateHost per
    alive node is ALIVE (the seen, image-seen and robots shards all
    live on it), the later runs start no actor and use the first run's
    actors, and the seen totals still count 2^seen_shard_bits logical
    shards once each (71 URLs on this web, as the oracle says) and
    every run fetches the first run's pages round by round."""
    import ray

    web = SynthWeb(**WEB_CFG)
    want = BFSOracle(web, web.rule_pack()).run(
        web.seed_urls(), max_rounds=CrawlConfig.max_rounds)
    nodes = sum(1 for n in ray.nodes() if n["Alive"])
    first = None
    for i in range(3):
        cfg = CrawlConfig(web_config=WEB_CFG, out_dir=str(tmp_path / f"c{i}"),
                          seeds=web.seed_urls())
        totals = run_crawl(cfg, web.rule_pack())
        hosts = min(1 << cfg.seen_shard_bits, nodes)
        assert sum(totals["state_hosts"].values()) == hosts
        actors = _await_state_hosts(
            lambda a: list(a.values()).count("ALIVE") <= nodes)
        alive = {k for k, v in actors.items() if v == "ALIVE"}
        assert 0 < len(alive) <= nodes
        rounds = _ray_rounds(tmp_path / f"c{i}")
        if first is None:
            first = (set(actors), alive, rounds)
        else:
            assert totals["state_hosts"] == {"started": 0, "reused": hosts}
            assert (set(actors), alive, rounds) == first
        assert totals["seen"]["shards"] == 1 << cfg.seen_shard_bits
        assert totals["seen"]["added"] == len(want["seen"]) == 71
        assert totals["state_ramp_s"] >= 0
        assert all("state_ramp" not in m["phases"]
                   for m in totals["per_round"])


def test_crawl_second_run_starts_no_state_host(ray_session, tmp_path,
                                               oracle_result):
    """The second of two back-to-back runs in one session (here a
    resume of the interrupted first) starts no state host: it resets
    the pooled ones, and the resumed crawl still equals the BFS oracle
    (``metrics.json`` reports the lease)."""
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_lease"
    base = dict(web_config=WEB_CFG, out_dir=str(out), seeds=web.seed_urls(),
                per_host_budget=3, seen_shard_bits=2)
    run_crawl(CrawlConfig(max_rounds=2, **base), web.rule_pack())
    totals = run_crawl(CrawlConfig(max_rounds=30, **base), web.rule_pack(),
                       resume=True)
    assert totals["state_hosts"]["started"] == 0
    assert totals["state_hosts"]["reused"] >= 1
    assert json.loads((out / "metrics.json").read_text())["state_hosts"] \
        == totals["state_hosts"]
    assert _ray_rounds(out) == [r["fetched"] for r in oracle_result["rounds"]]
    assert totals["seen"]["added"] == len(oracle_result["seen"])
    images = LanceLayoutTable(str(out / "images_lance")).to_table()
    assert images.num_rows == len(oracle_result["images"])


def test_crawl_replaces_killed_pooled_state_host(ray_session, tmp_path,
                                                 oracle_result):
    """A pooled state host that died while idle is replaced: the next
    crawl's reset finds it dead, starts a new actor in its place, and
    the crawl still equals the BFS oracle."""
    import ray

    from uniparser_ray.state import host

    web = SynthWeb(**WEB_CFG)
    base = dict(web_config=WEB_CFG, seeds=web.seed_urls(), max_rounds=30,
                per_host_budget=3, seen_shard_bits=2)
    run_crawl(CrawlConfig(out_dir=str(tmp_path / "warm"), **base),
              web.rule_pack())
    victim = host._idle_pool()[-1]
    victim_id = victim._actor_id.hex()
    ray.kill(victim)
    assert _await_state_hosts(
        lambda a: a.get(victim_id) == "DEAD")[victim_id] == "DEAD"
    out = tmp_path / "crawl"
    totals = run_crawl(CrawlConfig(out_dir=str(out), **base),
                       web.rule_pack())
    assert totals["state_hosts"]["started"] == 1
    assert _ray_rounds(out) == [r["fetched"] for r in oracle_result["rounds"]]
    assert totals["seen"]["added"] == len(oracle_result["seen"])
    images = LanceLayoutTable(str(out / "images_lance")).to_table()
    assert images.num_rows == len(oracle_result["images"])


def test_failed_crawl_kills_its_state_hosts(ray_session, tmp_path,
                                            monkeypatch):
    """A run that raises kills its state hosts instead of returning
    them to the pool (tasks it left running may still call them), so
    the next run starts fresh ones."""
    from uniparser_ray.crawl import loop

    web = SynthWeb(**WEB_CFG)
    base = dict(web_config=WEB_CFG, seeds=web.seed_urls(), max_rounds=2,
                per_host_budget=3, seen_shard_bits=2)
    run_crawl(CrawlConfig(out_dir=str(tmp_path / "warm"), **base),
              web.rule_pack())
    leased = []
    real_init = loop.CrawlRun.__init__

    def init(self, cfg):
        real_init(self, cfg)
        leased.extend(h._actor_id.hex() for h in self.state_hosts)

    def crash(self):
        raise RuntimeError("crash before round 0")

    with monkeypatch.context() as mp:
        mp.setattr(loop.CrawlRun, "__init__", init)
        mp.setattr(loop.CrawlRun, "_seed_round0", crash)
        with pytest.raises(RuntimeError, match="crash before round 0"):
            run_crawl(CrawlConfig(out_dir=str(tmp_path / "bad"), **base),
                      web.rule_pack())
    actors = _await_state_hosts(
        lambda a: all(a.get(i) == "DEAD" for i in leased))
    assert leased and all(actors.get(i) == "DEAD" for i in leased)
    totals = run_crawl(CrawlConfig(out_dir=str(tmp_path / "next"), **base),
                       web.rule_pack())
    assert totals["state_hosts"] == {"started": len(leased), "reused": 0}


def test_crawl_resume_on_fresh_state_hosts_with_busy_cpus(
        ray_session, tmp_path, monkeypatch, oracle_result):
    """A resume whose state host is started anew while every CPU of
    the session is held: the new host is placed before the replay
    tasks start (they wait on it keeping their CPU, so they could
    otherwise hold every CPU ahead of it), and the resume equals the
    BFS oracle."""
    import threading
    import time

    import ray

    from uniparser_ray.crawl import loop
    from uniparser_ray.state import host

    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_fresh"
    base = dict(web_config=WEB_CFG, out_dir=str(out), seeds=web.seed_urls(),
                per_host_budget=3, seen_shard_bits=2)
    run_crawl(CrawlConfig(max_rounds=2, **base), web.rule_pack())
    pool = host._idle_pool()
    pooled = [h._actor_id.hex() for h in pool]
    for h in pool:
        ray.kill(h)
    pool.clear()
    _await_state_hosts(lambda a: all(a.get(i) == "DEAD" for i in pooled))

    flag = tmp_path / "release"

    @ray.remote(num_cpus=1)
    def busy(path):
        import os
        import time
        while not os.path.exists(path):
            time.sleep(0.02)

    states = []
    reseed = loop.CrawlRun._reseed_filters

    def look_and_reseed(self, upto_round):
        actors = _state_host_actors()
        states.extend(actors[h._actor_id.hex()] for h in self.state_hosts)
        return reseed(self, upto_round)

    cpus = int(ray.cluster_resources()["CPU"])
    blockers = [busy.remote(str(flag)) for _ in range(cpus)]
    release = threading.Timer(1.0, flag.touch)
    try:
        deadline = time.monotonic() + 60
        while ray.available_resources().get("CPU", 0) >= 0.01:
            assert time.monotonic() < deadline, "blockers never all ran"
            time.sleep(0.05)
        release.start()
        with monkeypatch.context() as mp:
            mp.setattr(loop.CrawlRun, "_reseed_filters", look_and_reseed)
            totals = run_crawl(CrawlConfig(max_rounds=30, **base),
                               web.rule_pack(), resume=True)
    finally:
        release.cancel()
        flag.touch()
        ray.get(blockers)
    assert states and set(states) == {"ALIVE"}
    assert totals["state_hosts"] == {"started": len(states), "reused": 0}
    assert _ray_rounds(out) == [r["fetched"] for r in oracle_result["rounds"]]
    assert totals["seen"]["added"] == len(oracle_result["seen"])


def test_state_host_lease_renames_clients(ray_session, tmp_path):
    """Fetch stages are cached per worker under their kwargs' reprs, so
    two back-to-back runs on the same pooled actor must give clients
    that never compare equal: the lease number is in the repr."""
    from uniparser_ray.crawl.loop import CrawlRun

    web = SynthWeb(**WEB_CFG)
    reprs, actors = [], []
    for i in range(2):
        run = CrawlRun(CrawlConfig(web_config=WEB_CFG,
                                   out_dir=str(tmp_path / f"c{i}"),
                                   seeds=web.seed_urls()))
        reprs.append(repr(run.seen))
        actors.append([h._actor_id for h in run.state_hosts])
        run.shutdown()
    assert actors[0] == actors[1]
    assert reprs[0] != reprs[1]


def test_crawl_honors_retry_after(ray_session, tmp_path):
    """Server-requested backoff: flaky pages answer 503 with
    Retry-After 60 or 120 (deterministic per page); with
    honor_retry_after the requeue's second fetch lands EXACTLY
    ceil(RA/round_seconds) rounds after the first (vs always next
    round without), deferred rows ride checkpoints without seen or
    politeness side effects, and the crawl still converges to the
    failure-free oracle's ok-set and values."""
    from uniparser_ray.sources.images import _mix

    flaky_cfg = dict(WEB_CFG, flaky_mod=3)   # recovers on attempt 1
    web = SynthWeb(**WEB_CFG)
    out = tmp_path / "crawl_ra"
    cfg = CrawlConfig(web_config=flaky_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=40,
                      per_host_budget=3,
                      seen_shard_bits=2, max_fetch_retries=2,
                      honor_retry_after=True, round_seconds=60.0)
    totals = run_crawl(cfg, web.rule_pack())

    # reconstruct each url's fetch rounds + statuses
    fetches = {}
    for rd_dir in _round_dirs(out / "pages"):
        rnd = int(rd_dir.name.split("=")[1])
        for f in sorted(rd_dir.glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "status", "retry_after"])
            for u, s, ra in zip(t["url"].to_pylist(),
                                t["status"].to_pylist(),
                                t["retry_after"].to_pylist()):
                fetches.setdefault(u, []).append((rnd, s, ra))
    deferred_cases = {60: 0, 120: 0}
    for u, seq in fetches.items():
        if len(seq) < 2:
            continue
        (r1, s1, ra1), (r2, s2, _ra2) = seq[0], seq[1]
        if s1 == 500:        # the web's permanent-500 slice: no
            assert ra1 == 0.0   # Retry-After -> plain next-round requeue
            assert r2 - r1 == 1, (u, seq)
            continue
        assert s1 == 503 and ra1 in (60.0, 120.0)
        want_gap = max(1, int(np.ceil(ra1 / 60.0)))
        assert r2 - r1 == want_gap, (u, seq)
        deferred_cases[int(ra1)] += 1
    # both deferral widths must actually occur
    assert deferred_cases[60] > 0 and deferred_cases[120] > 0

    # convergence invariant (same as the plain-retry test): final
    # ok-set equals the failure-free oracle
    oracle = BFSOracle(web, web.rule_pack(), per_host_budget=3)
    want = oracle.run(web.seed_urls(), max_rounds=40)
    ok = {u for u, seq in fetches.items()
          if any(s == 200 for _r, s, _a in seq)}
    want_ok = {u for u, (s, _b) in want["pages"].items() if s == 200}
    assert ok == want_ok
    assert sum(m.get("deferred", 0) for m in totals["per_round"]) > 0


_SWEEP_COMBOS = [
    # randomized-web differential sweep: each combo drives a DIFFERENT
    # feature mix of the whole engine through full-schedule equality
    # with the sequential oracle (fetch sets per round, statuses,
    # seen count) — the crawl analog of the rule-VM differential fuzz
    dict(web=dict(num_hosts=5, base_pages=9, fanout=3, hot_factor=7.0,
                  redirect_rate=0.6),
         cfg=dict(per_host_budget=2), oracle=dict(per_host_budget=2)),
    dict(web=dict(num_hosts=2, base_pages=30, fanout=2, hot_factor=2.0,
                  seed=7, trap_links=True),
         cfg=dict(per_host_budget=5, max_path_repeats=1, max_depth=6),
         oracle=dict(per_host_budget=5, max_path_repeats=1, max_depth=6)),
    dict(web=dict(num_hosts=7, base_pages=6, fanout=4, hot_factor=3.0,
                  seed=13, redirect_rate=0.3, lossy_rate=0.4),
         cfg=dict(per_host_budget=4, sitemap_seeds=True),
         oracle=dict(per_host_budget=4), run=dict(sitemap_seeds=True)),
    dict(web=dict(num_hosts=4, base_pages=12, fanout=3, hot_factor=9.0,
                  seed=23, flaky_mod=4, flaky_attempts=99),
         cfg=dict(per_host_budget=3, host_error_budget=2,
                  robots_delay_budget=True),
         oracle=dict(per_host_budget=3, host_error_budget=2,
                     robots_delay_budget=True)),
    dict(web=dict(num_hosts=6, base_pages=8, fanout=2, hot_factor=5.0,
                  seed=31, redirect_rate=0.5, trap_links=True),
         cfg=dict(per_host_budget=2, max_pending_per_host=4,
                  max_path_repeats=2),
         oracle=dict(per_host_budget=2, max_pending_per_host=4,
                     max_path_repeats=2)),
    # round-5: RFC-9309 wildcard robots + redirects (per-hop robots
    # checks run through the RFC 9309 matcher) + sitemap seeding (seeded
    # URLs admitted through wildcard rules) in one mix
    dict(web=dict(num_hosts=8, base_pages=10, fanout=3, hot_factor=4.0,
                  seed=41, robots_wildcards=True, redirect_rate=0.35),
         cfg=dict(per_host_budget=3,
                  sitemap_seeds=True, robots_delay_budget=True),
         oracle=dict(per_host_budget=3,
                     robots_delay_budget=True),
         run=dict(sitemap_seeds=True)),
    # per-host pacing: three of six hosts ruled at one request per
    # 10 ms (``paced`` = their indices), the other hosts' rows cut in
    # 2-row fetch batches; pacing moves requests in time only, so the
    # schedule still equals the oracle's
    dict(web=dict(num_hosts=6, base_pages=9, fanout=3, hot_factor=5.0,
                  seed=53, redirect_rate=0.4),
         cfg=dict(per_host_budget=3, fetch_batch_size=2),
         oracle=dict(per_host_budget=3), paced=(0, 2, 3)),
]


@pytest.mark.parametrize("combo,many", [
    pytest.param(c, many, id=f"combo{i}{suffix}")
    for many, suffix in ((False, ""), (True, "-distributed"))
    for i, c in enumerate(_SWEEP_COMBOS)])
def test_crawl_differential_sweep(ray_session, tmp_path, combo, many):
    """Engine == oracle across randomized web/feature combos:
    redirects, traps+guards, sitemap seeding with lossy images,
    permanent failures + dead-host ban + Crawl-delay budgets, and the
    grant under tight backlog clipping — one parametrized
    differential test per mix, each with one-block rounds and with
    rounds spread over several admit blocks and grant buckets
    (``-distributed``)."""
    web = SynthWeb(**combo["web"])
    out = tmp_path / "sweep"
    ruled = {web.host_name(h): (1.0, 0.01) for h in combo.get("paced", ())}
    cfg = CrawlConfig(web_config=combo["web"], out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=25,
                      seen_shard_bits=2, host_rates=ruled, **combo["cfg"])
    with (_many_blocks() if many else contextlib.nullcontext()) as grants:
        totals = run_crawl(cfg, web.rule_pack())
    if many:
        _assert_spread(grants)
    oracle = BFSOracle(SynthWeb(**combo["web"]), web.rule_pack(),
                       **combo["oracle"])
    want = oracle.run(web.seed_urls(), max_rounds=25,
                      **combo.get("run", {}))
    assert _ray_rounds(out, max_rounds=25) == \
        [r["fetched"] for r in want["rounds"]]
    assert totals["pages_ok"] == sum(
        1 for s, _b in want["pages"].values() if s == 200)
    statuses, files_of = {}, {}
    for f in sorted((out / "pages").glob("round=*/*.parquet")):
        t = pq.read_table(f, columns=["url", "host", "status"])
        statuses.update(zip(t["url"].to_pylist(), t["status"].to_pylist()))
        for h in set(t["host"].to_pylist()) & set(ruled):
            files_of.setdefault((f.parent.name, h), []).append(f.name)
    assert statuses == {u: s for u, (s, _b) in want["pages"].items()}
    # one task owns a ruled host's round: its pages sit in one file
    assert all(len(fs) == 1 for fs in files_of.values()), files_of
    if ruled:
        paced = [m["pacing"] for m in totals["per_round"]]
        assert sum(p["requests"] for p in paced) == sum(
            1 for u in want["pages"] if u.split("/")[2] in ruled)
        assert min(p["min_gap_s"] for p in paced
                   if p["min_gap_s"] is not None) >= 0.01


def test_crawl_builds_fetch_stage_once_per_worker(ray_session, tmp_path,
                                                  monkeypatch,
                                                  oracle_result):
    """The fetch tasks take their FetchParseStage (transport, compiled
    rule pack, VM caches) from the per-worker stage cache: a crawl of
    many small fetch tasks builds it at most once per worker process,
    and still matches the oracle round for round."""
    import os
    import uuid
    from pathlib import Path

    from uniparser_ray.crawl import loop
    from uniparser_ray.stages.crawl_stages import FetchParseStage

    builds = tmp_path / "builds"
    builds.mkdir()

    class CountingFetch(FetchParseStage):
        # a local class ships by value, with this attribute
        record_dir = str(builds)

        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            (Path(self.record_dir)
             / f"{os.getpid()}-{uuid.uuid4().hex}").touch()

    monkeypatch.setattr(loop, "FetchParseStage", CountingFetch)
    web = SynthWeb(**WEB_CFG)
    cfg = CrawlConfig(web_config=WEB_CFG, out_dir=str(tmp_path / "c"),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=3, seen_shard_bits=2,
                      fetch_batch_size=2)
    totals = run_crawl(cfg, web.rule_pack())
    pids = [p.name.split("-")[0] for p in builds.iterdir()]
    assert pids and len(pids) == len(set(pids)), sorted(pids)
    assert totals["rounds"] > 3
    assert _ray_rounds(tmp_path / "c") == \
        [r["fetched"] for r in oracle_result["rounds"]]


def _run_fetch_task(tmp_path, n_pages, batch_size):
    """One fetch task over the first ``n_pages`` pages of the web, as
    round 3, in-process (no image-seen filter); returns its block."""
    from uniparser_ray.crawl.loop import (_fetch_block, _frontier_table,
                                          _make_retry)
    from uniparser_ray.stages.crawl_stages import (FetchParseStage,
                                                   ImageFetchStage,
                                                   canonicalize_batch)

    web = SynthWeb(**WEB_CFG)
    urls = web.all_page_urls()[:n_pages]
    n = len(urls)
    block = canonicalize_batch(_frontier_table(
        urls, [""] * n, [0] * n, [1.0] * n, [0] * n))
    block = block.append_column("granted", pa.array([1] * n, pa.int8()))
    (tmp_path / "pages" / "round=3").mkdir(parents=True, exist_ok=True)
    _fetch_block(FetchParseStage(rule_pack=web.rule_pack(),
                                 web_config=WEB_CFG),
                 ImageFetchStage(web_config=WEB_CFG), batch_size, 3,
                 _make_retry(0, 3, 60.0, False), {}, str(tmp_path / "pages"),
                 str(tmp_path / "images"), [(None, 0, n)], block)
    return block


def _image_fragments(tmp_path):
    """{chunk index: file} of the round-3 image fragments; asserts
    every name is ``fused-3-{min url_hash}-{chunk}``."""
    import re
    out = {}
    for f in (tmp_path / "images" / "round=3").iterdir():
        m = re.fullmatch(r"fused-3-([0-9a-f]{16})-(\d+)\.parquet", f.name)
        assert m, f.name
        out[int(m[2])] = f
    return out


def test_fetch_task_writes_one_page_file(tmp_path):
    """A fetch task writes its pages' checkpoint rows as one file,
    whatever its number of stage calls.  The name follows from the
    task's rows (round, min url_hash, rows), so a rerun of the task,
    as a retry would run it, overwrites that file."""
    for _ in range(2):
        block = _run_fetch_task(tmp_path, 7, 2)
        lo = min(block["url_hash"].to_pylist())
        files = sorted((tmp_path / "pages" / "round=3").iterdir())
        assert [f.name for f in files] == [f"fused-3-{lo:016x}-7.parquet"]
        pages = pq.read_table(files[0])
        assert sorted(pages["url"].to_pylist()) == \
            sorted(block["url"].to_pylist())
        assert "links" not in pages.column_names


def test_fetch_images_fragment_names_pinned(tmp_path, monkeypatch):
    """A fetch task's image fragments are named from the round, the
    task's minimum url_hash (the pair that names its page file) and
    the chunk index, 0..n-1; a rerun of the task, as a retry would run
    it, rewrites the same files with the same bytes."""
    from uniparser_ray.crawl import loop
    monkeypatch.setattr(loop, "_IMAGE_CHUNK_ROWS", 2)
    listings = []
    for _ in range(2):
        block = _run_fetch_task(tmp_path, 7, 3)
        frags = _image_fragments(tmp_path)
        listings.append({k: f.read_bytes() for k, f in frags.items()})
    lo = min(block["url_hash"].to_pylist())
    assert len(listings[0]) > 1
    assert sorted(listings[0]) == list(range(len(listings[0])))
    assert all(f.name.startswith(f"fused-3-{lo:016x}-")
               for f in frags.values())
    assert listings[0] == listings[1]


def test_fetch_task_writes_full_image_fragments(tmp_path, monkeypatch):
    """A fetch task chunks the image candidates of all its pages, not
    of each stage call: over 4 stage calls it writes ceil(images /
    chunk) fragments, each but the last full."""
    from uniparser_ray.crawl import loop
    monkeypatch.setattr(loop, "_IMAGE_CHUNK_ROWS", 3)
    _run_fetch_task(tmp_path, 7, 2)
    frags = _image_fragments(tmp_path)
    sizes = [pq.read_metadata(frags[k]).num_rows for k in sorted(frags)]
    assert sum(sizes) > 3
    assert len(sizes) == -(-sum(sizes) // 3), sizes
    assert all(n == 3 for n in sizes[:-1]), sizes


def test_read_rounds_matches_duckdb(ray_crawl, tmp_path):
    """``read_rounds``, the one reader of the round-partitioned
    checkpoints, returns the rows DuckDB's own hive-partitioned read
    of the same files returns, for a pages dir (with an empty round
    dir added) and for the Lance manifest's fragment list; strings
    come back as string, integers but uint64 as int64."""
    import shutil

    import duckdb
    import pandas.testing as pdt

    from uniparser_ray.crawl.loop import read_rounds
    from uniparser_ray.stages.crawl_stages import (IMAGE_ROW_SCHEMA,
                                                   PAGE_SCHEMA)

    out, _ = ray_crawl
    pages = tmp_path / "pages"
    shutil.copytree(out / "pages", pages)
    (pages / "round=99").mkdir()
    store = LanceLayoutTable(str(out / "images_lance"))
    cases = [
        (str(pages), pages, ["url", "round", "status", "depth", "parent",
                             "url_hash", "priority"], PAGE_SCHEMA),
        (store.fragment_files(), store.data_dir, ["image_id", "phash"],
         IMAGE_ROW_SCHEMA)]
    for source, base, cols, schema in cases:
        ds = read_rounds(source, cols, schema)
        got = ds.to_pandas()
        assert list(got.columns) == cols + ["round"] * ("round" not in cols)
        types = dict(zip(ds.schema().names, ds.schema().types))
        assert types["round"] == pa.int64()
        for c in cols:
            if c in ("url", "parent", "image_id"):
                assert types[c] == pa.string(), c
            elif c in ("status", "depth", "phash"):
                assert types[c] == pa.int64(), c
            elif c == "url_hash":
                assert types[c] == pa.uint64(), c
        want = duckdb.sql(
            f"SELECT {', '.join(got.columns)} FROM read_parquet("
            f"'{base}/round=*/*.parquet', hive_partitioning=true)").df()
        key = cols[0]
        assert len(got) > 0
        pdt.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            want.sort_values(key).reset_index(drop=True), check_dtype=False)


def test_read_rounds_empty_is_typed(ray_session, tmp_path):
    """With no file to read (a dir holding only an empty round), the
    reader returns no rows but the requested columns plus ``round``,
    typed as a read of the writer's files would type them."""
    from uniparser_ray.crawl.loop import read_rounds
    from uniparser_ray.stages.crawl_stages import PAGE_SCHEMA

    (tmp_path / "round=0").mkdir()
    ds = read_rounds(str(tmp_path), ["url", "status", "url_hash"],
                     PAGE_SCHEMA)
    schema = ds.schema()
    assert schema.names == ["url", "status", "url_hash", "round"]
    assert list(schema.types) == [pa.string(), pa.int64(), pa.uint64(),
                                  pa.int64()]
    assert ds.count() == 0


def test_fetch_block_paces_ruled_hosts(tmp_path, monkeypatch):
    """One fetch task paces the hosts it owns on its own clock (fake
    here: a stage call costs 0.25 s, and sleeping advances the clock).
    Two hosts ruled at 1 request / 2 s, 3 rows each, go out in slots
    of one row per host: each host's requests start at least 2 s after
    the end of the call carrying its previous one, the last slot
    starts near 4.75 s (not near 10 s, as one host after the other
    would), and the task returns only 2 s after its last call.  A host
    without a rule never waits: its rows go out first, in one call,
    before any sleep."""
    from uniparser_ray.crawl import loop
    from uniparser_ray.crawl.loop import (_fetch_block, _frontier_table,
                                          _make_retry)
    from uniparser_ray.stages.crawl_stages import (FetchParseStage,
                                                   canonicalize_batch)

    class Clock:
        def __init__(self):
            self.now, self.slept = 0.0, []

        def monotonic(self):
            return self.now

        def sleep(self, sec):
            assert sec > 0
            self.slept.append((self.now, sec))
            self.now += sec

    clock = Clock()
    monkeypatch.setattr(loop, "time", clock)
    web = SynthWeb(**WEB_CFG)
    real = FetchParseStage(rule_pack=web.rule_pack(), web_config=WEB_CFG)
    calls = []

    def stage(batch):
        start = clock.now
        clock.now += 0.25
        calls.append((start, clock.now, batch["host"].to_pylist()))
        return real(batch)

    urls = [web.page_url(h, p) for h in range(3) for p in range(3)]
    n = len(urls)
    block = canonicalize_batch(_frontier_table(
        urls, [""] * n, [0] * n, [1.0] * n, [0] * n))
    block = block.append_column("granted", pa.array([1] * n, pa.int8()))
    a, b, free = (web.host_name(h) for h in range(3))
    (tmp_path / "pages" / "round=3").mkdir(parents=True)
    _nxt, counters = _fetch_block(
        stage, lambda cand: cand.slice(0, 0), 128, 3,
        _make_retry(0, 3, 60.0, False), {a: (1, 2.0), b: (1, 2.0)},
        str(tmp_path / "pages"), str(tmp_path / "images"),
        [(None, 0, 3), ((a, b), 0, 6)], block, block)

    assert calls[0][2] == [free] * 3 and calls[0][0] == 0.0
    assert all(free not in hosts for _s, _e, hosts in calls[1:])
    assert all(t >= calls[0][1] for t, _sec in clock.slept)
    for h in (a, b):
        mine = [(s, e) for s, e, hosts in calls if h in hosts]
        assert len(mine) == 3
        assert all(s - e_prev >= 2.0
                   for (_s, e_prev), (s, _e) in zip(mine, mine[1:]))
    assert [sorted(hosts) for _s, _e, hosts in calls[1:]] == [[a, b]] * 3
    assert calls[-1][0] == 4.75
    assert clock.now == calls[-1][1] + 2.0
    assert counters["pacing"] == (2, 6, 2.0)
    (page_file,) = (tmp_path / "pages" / "round=3").iterdir()
    assert pq.read_metadata(page_file).num_rows == 9

    # no rule for any host of the task: batches of 4 rows, no sleep
    clock.now, clock.slept, calls[:] = 0.0, [], []
    _fetch_block(stage, lambda cand: cand.slice(0, 0), 4, 3,
                 _make_retry(0, 3, 60.0, False), {}, str(tmp_path / "pages"),
                 str(tmp_path / "images"), [(None, 0, n)], block)
    assert clock.slept == [] and [len(h) for _s, _e, h in calls] == [4, 4, 1]
