"""Benchmark driver: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
    {"metric": "...", "value": <total sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "pages_per_sec": ..., "frontier_ops_per_sec": ...}

``--scaling`` runs the same suite in two fresh processes at
num_cpus=8 and num_cpus=32 and reports both plus scaling efficiency —
the sandbox evidence for the north rule's two-cluster-size criterion.
Add ``--fast`` (or set BENCH_SCALING_REPEATS) to run one leg per
width — fits a 600 s harness budget.

``--steady`` runs one sustained-throughput leg at $RAY_GRAFT_CPUS
(the per-leg unit ``--scaling`` composes).  ``--frontier`` runs the
~10^7-URL single-round frontier-machinery stress (canonicalize →
seen-filter → block-clipped grant shuffle; fetch work ~0.3%) and reports
frontier-ops/sec plus the per-phase breakdown.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run_suite(sf_dir: str, num_cpus: int) -> dict:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from uniparser_ray.crawl.loop import CrawlConfig, run_crawl
    from uniparser_ray.pipelines import documents, relational, vectors
    from uniparser_ray.sources.synthweb import SynthWeb

    timings: dict = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return out

    # -- headline: the distributed crawl (fetched-pages/s + frontier-ops/s)
    web_cfg = dict(num_hosts=48, base_pages=24, fanout=4, hot_factor=24.0)
    web = SynthWeb(**web_cfg)
    out_dir = f"/tmp/uniparser_ray_bench/crawl_{num_cpus}"
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)

    # untimed warm-up: the first pipeline after ray.init pays worker
    # spawn + numpy/pandas import across num_cpus workers (~2x on the
    # first run measured interleaved); the metric is SUSTAINED
    # throughput, so warm every worker with a 2-round slice first —
    # same methodology as run_steady
    warm_dir = out_dir + "_warm"
    shutil.rmtree(warm_dir, ignore_errors=True)
    warm_cfg = CrawlConfig(web_config=web_cfg, out_dir=warm_dir,
                           seeds=web.seed_urls(), max_rounds=2,
                           per_host_budget=8,
                           fetch_concurrency=max(4, num_cpus // 2),
                           fetch_batch_size=64, seen_shard_bits=4,
                           seen_mode="tandem")
    run_crawl(warm_cfg, web.rule_pack())
    shutil.rmtree(warm_dir, ignore_errors=True)
    cfg = CrawlConfig(web_config=web_cfg, out_dir=out_dir,
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=120,
                      fetch_concurrency=max(4, num_cpus // 2),
                      fetch_batch_size=64,
                      seen_shard_bits=4, seen_mode="tandem")
    t0 = time.perf_counter()
    totals = run_crawl(cfg, web.rule_pack())
    crawl_sec = time.perf_counter() - t0
    timings["crawl"] = round(crawl_sec, 3)
    pages = totals["granted"]
    frontier_ops = sum(m["candidates"] + m["next_frontier"]
                      for m in totals["per_round"])
    pages_per_sec = round(pages / crawl_sec, 1)
    frontier_ops_per_sec = round(frontier_ops / crawl_sec, 1)

    # -- operator suite over the sf tables
    def consume(ds):
        if hasattr(ds, "iter_batches"):
            n = 0
            for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
                n += b.num_rows
            return n
        return ds.num_rows if hasattr(ds, "num_rows") else len(ds)

    timed("q1_pricing_summary",
          lambda: consume(relational.q1_pricing_summary(sf_dir)))
    timed("events_sessionize",
          lambda: consume(relational.events_sessionize(sf_dir)))
    timed("events_json_k", lambda: consume(relational.events_json_k(sf_dir)))
    timed("doc_quality", lambda: consume(documents.doc_quality(sf_dir)))
    timed("doc_parse_rules",
          lambda: consume(documents.doc_parse_rules(sf_dir)))
    timed("doc_dedup_minhash",
          lambda: consume(documents.doc_dedup_minhash(sf_dir)))
    timed("ann_topk", lambda: consume(vectors.ann_topk(sf_dir)))
    timed("embedding_neardup",
          lambda: consume(vectors.embedding_neardup(sf_dir)))

    # -- wall-clock politeness mode (PolitenessShard acquire path):
    # same fetch+parse stage, per-request pacing through the shard
    # actors under a per-host rule; reported beside its paced ceiling
    pol = politeness_fetch_rate(num_cpus)

    # `value` keeps the round-1 composition (crawl + operator queries)
    # so cross-round comparisons stay apples-to-apples; the politeness
    # path reports separately below
    total = round(sum(timings.values()), 3)
    timings["politeness_fetch"] = pol["sec"]

    # round-3 operators, timed OUTSIDE `value` (same comparability
    # rule as politeness_fetch): the two-shuffle six-table join, the
    # iterative-refinement quantiles, grouped top-k, and the as-of join
    from uniparser_ray.pipelines import stats as stats_p
    ops_r3: dict = {}

    def timed3(name, fn):
        t0 = time.perf_counter()
        out = fn()
        ops_r3[name] = round(time.perf_counter() - t0, 3)
        return out

    timed3("q5_local_supplier_volume",
           lambda: consume(relational.q5_local_supplier_volume(sf_dir)))
    timed3("events_asof", lambda: consume(relational.events_asof(sf_dir)))
    timed3("orders_topk_per_customer",
           lambda: consume(relational.orders_topk_per_customer(sf_dir)))
    timed3("order_price_quantiles",
           lambda: len(stats_p.order_price_quantiles(sf_dir)))
    timed3("events_hll_users",
           lambda: consume(stats_p.events_hll_users(sf_dir)))
    timed3("events_stratified_sample",
           lambda: consume(stats_p.events_stratified_sample(sf_dir)))
    # image training-data shaping: bucket_shards reads every encoded
    # byte once (binary-read throughput), aspect_buckets is the
    # column-pruned no-bytes path
    from uniparser_ray.pipelines import images_q as images_p
    timed3("images_aspect_buckets",
           lambda: consume(images_p.images_aspect_buckets(sf_dir)))
    timed3("images_bucket_shards",
           lambda: consume(images_p.images_bucket_shards(sf_dir)))
    # link-graph family: first call pays the distributed edge
    # extraction + BSP shard build; components reuses the sealed shards
    from uniparser_ray.pipelines import graph as graph_p
    timed3("web_pagerank", lambda: consume(graph_p.web_pagerank(sf_dir)))
    timed3("web_components",
           lambda: consume(graph_p.web_components(sf_dir)))
    timed3("web_host_degrees",
           lambda: consume(graph_p.web_host_degrees(sf_dir)))

    # round-5 operators, timed OUTSIDE `value` (same comparability
    # rule): surprisal scoring, integer z-score burst windows,
    # per-cluster outliers, seed-hop BFS (reuses the sealed shards
    # above), and the crawl audit pair (one shared harness crawl)
    ops_r5: dict = {}

    def timed5(name, fn):
        t0 = time.perf_counter()
        out = fn()
        ops_r5[name] = round(time.perf_counter() - t0, 3)
        return out

    timed5("web_seed_hops",
           lambda: graph_p.web_seed_hops(sf_dir).num_rows)
    timed5("web_hits",
           lambda: graph_p.web_hits(sf_dir).num_rows)
    graph_p.reset_shard_cache()
    # training-data cleaning / clustering family (round-3 additions):
    # decontamination + PII are shuffle-free sweeps, kmeans is 2 Lloyd
    # partial-sum passes + a labeling pass, semdedup adds the
    # in-cluster pair pass, caption_align is the CLIP-shaped gate
    from uniparser_ray.pipelines import documents as docs_p
    from uniparser_ray.pipelines import relational as rel_p
    from uniparser_ray.pipelines import vectors as vecs_p
    timed3("doc_decontaminate",
           lambda: consume(docs_p.doc_decontaminate(sf_dir)))
    timed3("doc_pii_redact",
           lambda: consume(docs_p.doc_pii_redact(sf_dir)))
    timed3("doc_repetition",
           lambda: consume(docs_p.doc_repetition(sf_dir)))
    timed3("embedding_kmeans",
           lambda: consume(vecs_p.embedding_kmeans(sf_dir)))
    timed3("embedding_semdedup",
           lambda: consume(vecs_p.embedding_semdedup(sf_dir)))
    timed3("images_caption_align",
           lambda: consume(images_p.images_caption_align(sf_dir)))
    timed3("events_watermark_late",
           lambda: consume(stats_p.events_watermark_late(sf_dir)))
    timed3("video_shot_boundaries",
           lambda: consume(images_p.video_shot_boundaries(sf_dir)))
    timed3("audio_vad_segments",
           lambda: consume(images_p.audio_vad_segments(sf_dir)))
    timed3("doc_source_mix",
           lambda: consume(docs_p.doc_source_mix(sf_dir)))

    # round-4 curation operators, timed OUTSIDE `value` (same
    # comparability rule): sequence packing (ordered prefix sum), BPE
    # pair counting, cross-doc n-gram / paragraph dup fractions,
    # unigram LM stats (all single-shuffle hash families), and the
    # Misra-Gries exact heavy hitters
    ops_r4: dict = {}

    def timed4(name, fn):
        t0 = time.perf_counter()
        out = fn()
        ops_r4[name] = round(time.perf_counter() - t0, 3)
        return out

    timed4("doc_seq_pack", lambda: consume(docs_p.doc_seq_pack(sf_dir)))
    timed4("doc_bpe_pairs",
           lambda: docs_p.doc_bpe_pairs(sf_dir).num_rows)
    timed4("doc_dup_ngrams",
           lambda: consume(docs_p.doc_dup_ngrams(sf_dir)))
    timed4("doc_para_dedup",
           lambda: consume(docs_p.doc_para_dedup(sf_dir)))
    timed4("doc_unigram_stats",
           lambda: consume(docs_p.doc_unigram_stats(sf_dir)))
    timed4("events_heavy_hitters",
           lambda: stats_p.events_heavy_hitters(sf_dir).num_rows)
    timed4("embedding_pq_topk",
           lambda: vecs_p.embedding_pq_topk(sf_dir).num_rows)
    # round-3 continuation batch (same comparability rule)
    timed4("events_window_join",
           lambda: consume(rel_p.events_window_join(sf_dir)))
    timed4("events_funnel",
           lambda: consume(rel_p.events_funnel(sf_dir)))
    timed4("doc_rarity_buckets",
           lambda: consume(docs_p.doc_rarity_buckets(sf_dir)))
    timed4("doc_incremental_novelty",
           lambda: consume(docs_p.doc_incremental_novelty(sf_dir)))
    timed4("images_hard_negatives",
           lambda: consume(images_p.images_hard_negatives(sf_dir)))
    timed5("doc_perplexity",
           lambda: consume(docs_p.doc_perplexity(sf_dir)))
    timed5("events_window_anomaly",
           lambda: consume(rel_p.events_window_anomaly(sf_dir)))
    timed5("embedding_outliers",
           lambda: consume(vecs_p.embedding_outliers(sf_dir)))
    # the harness crawl is a FIXTURE for the audit/lineage/curation
    # queries, not the operator under test (the headline `crawl` entry
    # already times a full crawl) — warm it with its cost reported
    # under its own key so each audit op's timing is the op itself
    timed5("crawl_fixture",
           lambda: images_p._ensure_crawl(images_p._sf_tag(sf_dir))[0])
    timed5("crawl_politeness_audit",
           lambda: images_p.crawl_politeness_audit(sf_dir).num_rows)
    timed5("crawl_page_lineage",
           lambda: consume(images_p.crawl_page_lineage(sf_dir)))
    # composed ship-it gates (each re-runs its component machinery:
    # minhash+components for docs, phash-CC for images)
    timed5("embedding_pq_distortion",
           lambda: consume(vecs_p.embedding_pq_distortion(sf_dir)))
    timed5("orders_incremental_agg",
           lambda: consume(rel_p.orders_incremental_agg(sf_dir)))
    timed5("doc_source_lang_mix",
           lambda: docs_p.doc_source_lang_mix(sf_dir).num_rows)
    timed5("doc_winnow",
           lambda: consume(docs_p.doc_winnow(sf_dir)))
    timed5("events_countmin",
           lambda: stats_p.events_countmin(sf_dir).num_rows)
    timed5("doc_chunks",
           lambda: consume(docs_p.doc_chunks(sf_dir)))
    timed5("caption_decontaminate",
           lambda: consume(images_p.caption_decontaminate(sf_dir)))
    timed5("images_phash_ann",
           lambda: consume(images_p.images_phash_ann(sf_dir)))
    timed5("doc_bigram_surprisal",
           lambda: consume(docs_p.doc_bigram_surprisal(sf_dir)))
    timed5("doc_curation", lambda: consume(docs_p.doc_curation(sf_dir)))
    # crawl -> gate composition: reuses the harness crawl (timed cost
    # = the gate itself + the crawl-table cluster machinery)
    timed5("crawl_images_curation",
           lambda: consume(images_p.crawl_images_curation(sf_dir)))
    timed5("crawl_wet_roundtrip",
           lambda: consume(images_p.crawl_wet_roundtrip(sf_dir)))
    timed5("images_wds_roundtrip",
           lambda: consume(images_p.images_wds_roundtrip(sf_dir)))
    from uniparser_ray.pipelines import crawl_q as crawl_qp
    timed5("crawl_url_canon",
           lambda: consume(crawl_qp.crawl_url_canon(sf_dir)))
    # interrupt-at-round-2 + resume re-crawl; cost is the second crawl
    # itself (attributed here, not to the shared crawl_fixture)
    timed5("crawl_resume_roundtrip",
           lambda: consume(crawl_qp.crawl_resume_roundtrip(sf_dir)))
    timed5("crawl_images_dedup_exact",
           lambda: consume(images_p.crawl_images_dedup_exact(sf_dir)))
    timed5("images_curation",
           lambda: consume(images_p.images_curation(sf_dir)))
    # final-session additions: outer-join distribution, EXISTS
    # semi-join, exact-substring dedup spans
    timed5("q13_customer_distribution",
           lambda: consume(rel_p.q13_customer_distribution(sf_dir)))
    timed5("q4_returned_order_priority",
           lambda: consume(rel_p.q4_returned_order_priority(sf_dir)))
    timed5("doc_dup_spans",
           lambda: consume(docs_p.doc_dup_spans(sf_dir)))
    timed5("doc_dup_apply",
           lambda: consume(docs_p.doc_dup_apply(sf_dir)))
    timed5("doc_mixture_apply",
           lambda: consume(docs_p.doc_mixture_apply(sf_dir)))
    timed5("doc_curriculum_rank",
           lambda: consume(docs_p.doc_curriculum_rank(sf_dir)))
    # round-4/6 operators, timed OUTSIDE `value` (same comparability
    # rule): the LSH recall audit and the BSP triangle census
    from uniparser_ray.pipelines import graph as graph_p6
    ops_r6: dict = {}

    def timed6(name, fn):
        t0 = time.perf_counter()
        out = fn()
        ops_r6[name] = round(time.perf_counter() - t0, 3)
        return out

    timed6("doc_minhash_recall",
           lambda: consume(documents.doc_minhash_recall(sf_dir)))
    timed6("web_triangles",
           lambda: graph_p6.web_triangles(sf_dir).num_rows)
    from uniparser_ray.pipelines import crawl_q as crawl_q6
    from uniparser_ray.pipelines import images_q as images_q6
    timed6("crawl_redirects",
           lambda: consume(crawl_q6.crawl_redirects(sf_dir)))
    timed6("images_psnr_audit",
           lambda: consume(images_q6.images_psnr_audit(sf_dir)))
    timed6("crawl_recrawl_delta",
           lambda: consume(crawl_q6.crawl_recrawl_delta(sf_dir)))
    timed6("crawl_trap_guard",
           lambda: consume(crawl_q6.crawl_trap_guard(sf_dir)))
    timed6("crawl_host_ban",
           lambda: consume(crawl_q6.crawl_host_ban(sf_dir)))

    return {
        "metric": "crawl+operator suite wall time",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "pages_per_sec": pages_per_sec,
        "frontier_ops_per_sec": frontier_ops_per_sec,
        "crawl_pages": pages,
        "crawl_images": totals["images"],
        "politeness_pages_per_sec": pol["pages_per_sec"],
        "politeness_ceiling_pages_per_sec": pol["ceiling_pages_per_sec"],
        "ops_r3": ops_r3,
        "ops_r4": ops_r4,
        "ops_r5": ops_r5,
        "ops_r6": ops_r6,
    }


def politeness_fetch_rate(num_cpus: int) -> dict:
    """Throughput of the CONTINUOUS-fetch path: FetchParseStage with
    wall-clock politeness shards attached, every host ruled at ``rate``
    requests per ``interval`` (per-request pacing via shard-clock
    schedules, stages/crawl_stages.py).  Each host serves the same
    ``per_host`` pages, so hosts * rate / interval is the paced
    ceiling.  Every request is stamped on the node's monotonic clock;
    the observed per-host gaps must honour the rule up to one request
    of scheduling jitter."""
    from collections import defaultdict

    import pyarrow as pa
    import ray
    import ray.data as rd

    from uniparser_ray.rulevm.request import get_host
    from uniparser_ray.sources.synthweb import SynthWeb
    from uniparser_ray.stages.crawl_stages import FetchParseStage
    from uniparser_ray.stages.taskcache import cached_stage
    from uniparser_ray.state.host import PolitenessClient, start_state_hosts

    class StampedFetch(FetchParseStage):
        """Adds each row's request start time as ``fetched_at``."""

        def _follow_fetch(self, rule, url, attempt):
            self.stamps[url] = time.monotonic()
            return super()._follow_fetch(rule, url, attempt)

        def __call__(self, batch):
            self.stamps = {}
            out = super().__call__(batch)
            return out.append_column("fetched_at", pa.array(
                [self.stamps.get(u) for u in out["url"].to_pylist()],
                pa.float64()))

    per_host, rate, interval = 28, 25.0, 1.0
    web_cfg = dict(num_hosts=32, base_pages=160, fanout=4, hot_factor=4.0)
    web = SynthWeb(**web_cfg)
    urls = [web.page_url(h, p) for h in range(web_cfg["num_hosts"])
            for p in range(per_host)]
    host_names = sorted({get_host(u, "") for u in urls})
    hosts = start_state_hosts(seen={}, politeness_shards=4)
    politeness = PolitenessClient(hosts, 4)
    for h in host_names:
        politeness.set_rule(h, rate, interval)
    t = pa.table({
        "url": pa.array(urls, pa.large_string()),
        "url_hash": pa.array([0] * len(urls), pa.uint64()),
        "host": pa.array([get_host(u, "") for u in urls], pa.string()),
        "depth": pa.array([0] * len(urls), pa.int32()),
        "priority": pa.array([0.0] * len(urls), pa.float32()),
        "parent": pa.array([""] * len(urls), pa.large_string()),
    })
    ds = rd.from_arrow(t).repartition(max(4, num_cpus))
    rule_pack_ref = ray.put(web.rule_pack())
    t0 = time.perf_counter()
    rows = ds.map_batches(
        cached_stage(StampedFetch, rule_pack_ref=rule_pack_ref,
                     web_config=web_cfg, politeness=politeness),
        batch_format="pyarrow", batch_size=256) \
        .select_columns(["host", "fetched_at"]).take_all()
    sec = time.perf_counter() - t0
    for h in hosts:
        ray.kill(h)
    by_host = defaultdict(list)
    for r in rows:
        by_host[r["host"]].append(r["fetched_at"])
    # any k consecutive requests of a host span at least (k - 2) gaps:
    # with u_i = t_i - i * gap, u_j - u_i >= -gap for every i < j
    gap = interval / rate
    slack = 0.0
    for ts in by_host.values():
        ts.sort()
        peak = ts[0]
        for i, ti in enumerate(ts):
            u = ti - i * gap
            slack = min(slack, u - peak)
            peak = max(peak, u)
    assert len(rows) == len(urls) and slack >= -gap, \
        f"politeness rule broken: {len(rows)}/{len(urls)} rows, " \
        f"a host ran {-slack:.3f}s ahead of its {gap:.3f}s gaps"
    return {"sec": round(sec, 3), "pages": len(rows),
            "pages_per_sec": round(len(rows) / sec, 1),
            "ceiling_pages_per_sec": round(
                len(host_names) * rate / interval, 1)}


def run_steady(num_cpus: int) -> dict:
    """Sustained-throughput crawl (the scaling-criterion workload).

    At 10^10-URL scale the frontier is never ramp-up-small, so the
    honest two-cluster-size comparison is the steady-state regime: the
    frontier pre-seeded with the full URL universe, one giant round of
    fetch+parse+image ingest over realistic (~8 KB) pages.  Both runs
    use the same seed list and politeness budget, per the north rule.
    """
    import shutil
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from uniparser_ray.crawl.loop import CrawlConfig, run_crawl
    from uniparser_ray.sources.synthweb import SynthWeb

    # page_weight=60 -> ~8 KB pages (compute-bound parse, as on the
    # real web); image_rate=0.1 keeps the image decode/phash/Lance
    # path exercised while bounding bytes written — this sandbox
    # throttles buffered disk writes to ~60-80 MB/s, a machine-level
    # constant that would otherwise dominate both runs equally and
    # mask the compute scaling being measured (see BASELINE.md)
    # STEADY_SCALE multiplies the universe (efficiency measurements
    # want rounds big enough that fixed per-round costs — grant,
    # barriers, straggler tail, ~8-10s at 32 cpus — amortize the way
    # they would in a real 10^10-URL crawl's far larger rounds; at
    # the default 320k-page universe they are ~20% of a wide leg but
    # ~5% of a narrow one, which reads as false inefficiency)
    scale = int(os.environ.get("STEADY_SCALE", "1"))
    web_cfg = dict(num_hosts=768, base_pages=4000 * scale, fanout=8,
                   hot_factor=8.0, page_weight=60, image_rate=0.1)
    web = SynthWeb(**web_cfg)
    seeds = web.all_page_urls()
    out_dir = f"/tmp/uniparser_ray_bench/steady_{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)

    # untimed warm-up: spawn + import-warm every worker process with a
    # small slice of the same workload, so the timed section measures
    # SUSTAINED throughput (the metric) rather than cold-start, which
    # would otherwise penalize the larger cluster 4x (4x the workers
    # to cold-start)
    warm_cfg = CrawlConfig(web_config=web_cfg,
                           out_dir=out_dir + "_warm", seeds=seeds[:2048],
                           max_rounds=1, per_host_budget=10**9,
                           fetch_batch_size=256, seen_shard_bits=5,
                           seen_mode="bloom", use_robots=False)
    shutil.rmtree(out_dir + "_warm", ignore_errors=True)
    run_crawl(warm_cfg, web.rule_pack())

    cfg = CrawlConfig(web_config=web_cfg, out_dir=out_dir, seeds=seeds,
                      max_rounds=2, per_host_budget=10**9,
                      fetch_batch_size=256, seen_shard_bits=5,
                      seen_mode="bloom")
    t0 = time.perf_counter()
    totals = run_crawl(cfg, web.rule_pack())
    sec = time.perf_counter() - t0
    frontier_ops = sum(m["candidates"] + m["next_frontier"]
                       for m in totals["per_round"])
    # per-phase wall split summed over rounds (grant / fetch_parse /
    # pages_write / images / frontier_next) — the decomposition the
    # scaling-efficiency analysis reads to attribute the narrow->wide
    # residual to a named phase instead of guessing
    phases: dict = {}
    for m in totals["per_round"]:
        for k, v in m.get("phases", {}).items():
            phases[k] = round(phases.get(k, 0.0) + v, 3)
    return {
        "num_cpus": num_cpus,
        "universe": len(seeds),
        "granted": totals["granted"],
        "images": totals["images"],
        "sec": round(sec, 2),
        "pages_per_sec": round(totals["granted"] / sec, 1),
        "frontier_ops_per_sec": round(frontier_ops / sec, 1),
        "phases": phases,
    }


def run_graph(num_cpus: int, n_nodes: int = 200_000, degree: int = 8,
              iters: int = 8) -> dict:
    """BSP graph-engine stress: integer PageRank over a deterministic
    synthetic graph (each node -> ``degree`` hash-derived neighbors).
    Reports superstep edge throughput — the number that scales with
    cluster size once edges are pinned in the shard actors."""
    import numpy as np
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from uniparser_ray.stages import graph_bsp

    B = max(2, min(32, num_cpus))
    shards = graph_bsp.build_shards(B)
    ids = np.arange(n_nodes, dtype=np.uint64)
    # deterministic pseudo-random neighbors: splitmix-style mix
    futs = []
    for chunk in np.array_split(ids, 64):
        src = np.repeat(chunk, degree)
        salt = np.tile(np.arange(degree, dtype=np.uint64), len(chunk))
        x = (src * np.uint64(0x9E3779B97F4A7C15)
             + salt * np.uint64(0xBF58476D1CE4E5B9))
        x ^= x >> np.uint64(31)
        dst = x % np.uint64(n_nodes)
        futs += graph_bsp.ingest_nodes(shards, chunk,
                                       [int(v) for v in chunk])
        futs += graph_bsp.ingest_edge_batch(shards, src, dst)
    ray.get(futs)
    infos = ray.get([s.seal.remote() for s in shards])
    n_edges = sum(i["fwd_edges"] for i in infos)
    # warm-up superstep (first touch pays numpy paging), then timed
    ray.get([s.pr_init.remote() for s in shards])
    ray.get(graph_bsp._exchange(shards, "pr_messages", "pr_apply"))
    t0 = time.perf_counter()
    ray.get([s.pr_init.remote() for s in shards])
    for _ in range(iters):
        ray.get(graph_bsp._exchange(shards, "pr_messages", "pr_apply"))
    sec = time.perf_counter() - t0
    # components leg on the same sealed shards (propagation + adaptive
    # pointer jumping to convergence)
    t0 = time.perf_counter()
    cc = graph_bsp.connected_components(shards)
    cc_sec = time.perf_counter() - t0
    for s in shards:
        ray.kill(s, no_restart=True)
    return {"num_cpus": num_cpus, "shards": B, "nodes": n_nodes,
            "edges": n_edges, "supersteps": iters,
            "sec": round(sec, 3),
            "edge_traversals_per_sec": round(n_edges * iters / sec, 1),
            "components": cc.num_rows,
            "components_sec": round(cc_sec, 3)}


def run_frontier(num_cpus: int, num_hosts: int = 8192,
                 base_pages: int = 82000) -> dict:
    """Pure frontier-machinery stress: ONE crawl round over a
    pre-seeded ~10^7-URL frontier with a tiny per-host budget, so the
    timed round is dominated by the frontier pipeline itself —
    canonicalize → sharded bloom seen-filter → per-host priority
    grant shuffle → checkpoint/next-frontier write — not by
    fetching (grants ≈ hosts × budget ≈ 0.3% of candidates).  The
    hottest host holds ~6% of the whole universe (Zipf hot_factor),
    so the grant's block-local clip does real work.  This is the
    sandbox's direct evidence for the north rule's 10^10-URL frontier
    design: per-round frontier cost is all shuffle/scan of tiny URL
    rows, and the reported ops/sec is what one node contributes to a
    cluster-wide frontier round."""
    import shutil
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from uniparser_ray.crawl.loop import CrawlConfig, run_crawl
    from uniparser_ray.sources.synthweb import SynthWeb

    web_cfg = dict(num_hosts=num_hosts, base_pages=base_pages, fanout=4,
                   hot_factor=8.0, page_weight=1, image_rate=0.0)
    web = SynthWeb(**web_cfg)
    seeds = web.all_page_urls()
    out_dir = f"/tmp/uniparser_ray_bench/frontier_{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)

    # The north rule's metric is SUSTAINED frontier-ops/sec: a long
    # crawl pays Ray's worker-pool ramp (process spawn + package
    # imports, amplified by workers blocked in the seen stage's
    # ray.get triggering replacement spawns) once across thousands of
    # rounds, so the cold first round under-reports the engine.  Run
    # the identical crawl twice in this session — fresh CrawlRun and
    # out_dir each time (actor ramp is excluded by the readiness
    # barrier inside CrawlRun.run()) — and report the steady second
    # run, keeping the cold round for reference.
    runs = []
    for leg in ("cold", "steady"):
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = CrawlConfig(web_config=web_cfg, out_dir=out_dir, seeds=seeds,
                          max_rounds=1, per_host_budget=4,
                          max_pending_per_host=8, fetch_batch_size=512,
                          seen_shard_bits=5, seen_mode="bloom")
        totals = run_crawl(cfg, web.rule_pack())
        runs.append(totals["per_round"][0])
    cold, m = runs
    sec = m["sec"]   # the round itself; driver-side seed write excluded
    return {
        "num_cpus": num_cpus,
        "universe": len(seeds),
        "candidates": m["candidates"],
        "granted": m["granted"],
        "next_frontier": m["next_frontier"],
        "sec": sec,
        "frontier_ops_per_sec": round(
            (m["candidates"] + m["next_frontier"]) / sec, 1),
        "cold_round_sec": cold["sec"],
        "cold_frontier_ops_per_sec": round(
            (cold["candidates"] + cold["next_frontier"]) / cold["sec"], 1),
        "phases": m["phases"],
    }


def _cpu_work(n):
    x = 0
    for i in range(n):
        x += i * i % 7
    return x


def _cpu_mops(procs: int, per: int = 6_000_000) -> float:
    """Aggregate pure-python ops/s with ``procs`` worker processes —
    the hardware's own 8->32 scaling ceiling, free of any engine."""
    import multiprocessing as mp
    t0 = time.perf_counter()
    with mp.Pool(procs) as p:
        p.map(_cpu_work, [per] * procs * 3)
    return procs * 3 * per / (time.perf_counter() - t0)


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if "--graph" in sys.argv:
        # size the stress graph via env: per-shard superstep compute
        # must exceed the single-host ~100ms RPC floor before strong
        # scaling is visible (128M edges: GRAPH_NODES=2000000
        # GRAPH_DEGREE=64; see BASELINE.md)
        print(json.dumps(run_graph(
            num_cpus,
            n_nodes=int(os.environ.get("GRAPH_NODES", 200_000)),
            degree=int(os.environ.get("GRAPH_DEGREE", 8)))))
        import ray
        ray.shutdown()
        return

    if "--frontier" in sys.argv:
        print(json.dumps(run_frontier(num_cpus)))
        import ray
        ray.shutdown()
        return

    if "--steady" in sys.argv:
        print(json.dumps(run_steady(num_cpus)))
        import ray
        ray.shutdown()
        return

    if "--scaling" in sys.argv:
        def run_once(ncpu):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
            cmd = [sys.executable, os.path.abspath(__file__), "--steady"]
            out = subprocess.run(
                cmd, env=env, capture_output=True, text=True,
                check=True).stdout
            return json.loads(out.strip().splitlines()[-1])

        # --fast: one rep per width — fits a 600 s harness budget;
        # env override BENCH_SCALING_REPEATS picks any rep count
        n_reps = int(os.environ.get("BENCH_SCALING_REPEATS",
                                    "1" if "--fast" in sys.argv else "3"))

        def run(ncpu, repeats=n_reps):
            # this sandbox VM shows ±20-30% host-level noise between
            # identical runs; report BOTH best-of-N (min wall time —
            # measures the machine rather than its neighbors) and the
            # median (robust central tendency, doesn't inflate
            # efficiency when the slow legs are noisier)
            runs = []
            for _ in range(repeats):
                runs.append(run_once(ncpu))
                time.sleep(10)
            runs.sort(key=lambda r: r["sec"])
            return runs[0], runs[len(runs) // 2]

        (lo_best, lo_med), (hi_best, hi_med) = run(8), run(32)

        def eff(lo, hi):
            return round((hi["pages_per_sec"] / lo["pages_per_sec"])
                         / (32 / 8), 3)

        # hardware ceiling: pure-CPU multiprocess throughput at the same
        # two widths (no Ray, no I/O, no coordination).  This sandbox's
        # hypervisor does not deliver 32 independent full-speed vCPUs
        # even though the guest advertises them (measured 0.83-0.95),
        # so raw efficiency must be read against this ceiling — on a
        # real 4N-NODE cluster the resources genuinely quadruple and
        # only the engine-side gap (eff / ceiling) applies.
        ceiling = round((_cpu_mops(32) / _cpu_mops(8)) / (32 / 8), 3)

        print(json.dumps({
            "workload": "steady-state crawl "
                        f"({lo_best['universe']} pages, ~8KB each)",
            "repeats": n_reps,
            "sec_8": lo_best["sec"], "sec_32": hi_best["sec"],
            "pages_per_sec_8": lo_best["pages_per_sec"],
            "pages_per_sec_32": hi_best["pages_per_sec"],
            "frontier_ops_per_sec_8": lo_best["frontier_ops_per_sec"],
            "frontier_ops_per_sec_32": hi_best["frontier_ops_per_sec"],
            "scaling_efficiency": eff(lo_best, hi_best),
            "median_pages_per_sec_8": lo_med["pages_per_sec"],
            "median_pages_per_sec_32": hi_med["pages_per_sec"],
            "scaling_efficiency_median": eff(lo_med, hi_med),
            "cpu_ceiling_efficiency": ceiling,
            "efficiency_vs_ceiling": round(eff(lo_best, hi_best) / ceiling,
                                           3),
        }))
        return

    result = run_suite(sf_dir, num_cpus)
    # The driver captures a bounded TAIL of stdout and parses the last
    # line: keep that line compact (BENCH_r03's single giant line got
    # its head truncated → parsed:null).  Full ops detail goes on its
    # own prior line; the final line is the headline summary only.
    ops_detail = {k: result.pop(k)
                  for k in ("ops_r3", "ops_r4", "ops_r5", "ops_r6")
                  if k in result}
    print(json.dumps({"ops_detail": ops_detail}))
    print(json.dumps(result))
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
