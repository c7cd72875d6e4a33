"""Per-layer replays for the traced run.

After a traced crawl job, its own inputs (the frontier checkpoints, the
granted page rows and the image rows) are replayed through each layer's
public functions, one span per layer, from this file.  Which
end-to-end metric each layer should move is listed in LAYERS.md.
"""

from __future__ import annotations

import dataclasses
import statistics
import tempfile
from pathlib import Path
from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tracing import Tracer

SAMPLE_PAGES = 256       # pages replayed through fetch / parse
SAMPLE_IMAGES = 256      # images replayed through decode / commit
FRAGMENT_ROWS = 64       # image rows per replayed Lance fragment
MAX_HOSTS = 1024         # hosts replayed through the robots parser


def _read_dir(base: Path, columns) -> pa.Table:
    files = sorted(base.glob("round=*/*.parquet"))
    tables = [pq.read_table(f, columns=columns) for f in files]
    return pa.concat_tables(tables) if tables else None


def _every_nth(t: pa.Table, n: int) -> pa.Table:
    step = max(1, t.num_rows // n)
    return t.take(pa.array(np.arange(0, t.num_rows, step)[:n]))


def _image_rows(out_dir: Path) -> pa.Table:
    from uniparser_ray.storage.lance_layout import LanceLayoutTable
    table = LanceLayoutTable(str(out_dir / "images_lance"))
    return _every_nth(table.to_table(columns=["image_id", "bytes"]),
                      SAMPLE_IMAGES)


def replay(tr: Tracer, cfg, web, rule_pack: dict, out_dir: Path,
           work: Path) -> Dict[str, float]:
    """Run every layer replay under the open span; return the raw
    measures (seconds, counts) the session turns into metrics."""
    import ray
    import ray.data as rd

    from uniparser_ray.crawl.loop import CrawlRun
    from uniparser_ray.crawl.storage import JSONRuleStorage
    from uniparser_ray.rulevm.transport import SyntheticWebAdapter
    from uniparser_ray.rulevm.vm import RuleVM
    from uniparser_ray.sources.codecs import average_hash64, decode_image
    from uniparser_ray.stages.combine import hash_bucket_combine
    from uniparser_ray.stages.crawl_stages import (FetchParseStage,
                                                   canonicalize_batch)
    from uniparser_ray.state.robots import (RobotsMatcher, RobotsShard,
                                            parse_robots,
                                            parse_robots_rfc9309)
    from uniparser_ray.state.seen import SeenShard
    from uniparser_ray.storage.lance_layout import LanceLayoutTable

    m: Dict[str, float] = {}

    # -- state: per-run actor ramp (the run's seen + robots shards) ----
    run = CrawlRun(dataclasses.replace(cfg, out_dir=str(work / "ramp")))
    actors = (list(run.seen.shards) + list(run.img_seen.shards)
              + list(run.robots_shards))
    try:
        with tr.span("state.actor_ramp", actors=len(actors)) as s:
            ray.get([a.stats.remote() for a in actors])
    finally:
        run.shutdown()
    m["actor_ramp_s"] = s.duration

    # -- stages.crawl_stages: canonicalize every frontier candidate ----
    cand = _read_dir(out_dir / "frontier", ["url", "priority"])
    with tr.span("stages.crawl_stages.canonicalize_batch",
                 rows=cand.num_rows) as s:
        canon = canonicalize_batch(cand)
    m["canonicalize_s"], m["candidates"] = s.duration, cand.num_rows

    # -- state.seen: in-process test-and-set of the candidate hashes ---
    shard = SeenShard(mode=cfg.seen_mode, capacity=cfg.seen_capacity)
    hashes = canon["url_hash"].to_numpy()
    with tr.span("state.seen.add_batch", rows=len(hashes)) as s:
        new = shard.add_batch(hashes)
    m["seen_s"], m["seen_new"] = s.duration, int(np.count_nonzero(new))

    # -- state.robots: the configured matcher over hosts and paths -----
    hosts = sorted(set(canon["host"].to_pylist()))[:MAX_HOSTS]
    texts = [web.get(f"http://{h}/robots.txt")[2].decode() for h in hosts]
    with tr.span("state.robots.parse", hosts=len(texts)) as s:
        for text in texts:
            if cfg.robots_matcher == "rfc9309":
                RobotsMatcher(parse_robots_rfc9309(
                    text, cfg.robots_user_agent))
            else:
                parse_robots(text)
    m["robots_parse_s"], m["robots_hosts"] = s.duration, len(texts)
    robots = RobotsShard(web_factory=lambda: web,
                         matcher=cfg.robots_matcher,
                         user_agent=cfg.robots_user_agent)
    for h in hosts:
        robots.allowed_batch(h, ["/"])      # warm the per-host cache
    keep = set(hosts)
    pairs = [(h, "/" + u.split("/", 3)[3] if u.count("/") >= 3 else "/")
             for h, u in zip(canon["host"].to_pylist(),
                             canon["url"].to_pylist()) if h in keep]
    with tr.span("state.robots.allowed_many", paths=len(pairs)) as s:
        robots.allowed_many(pairs)
    m["robots_allowed_s"], m["robots_paths"] = s.duration, len(pairs)

    # -- stages.combine: host-keyed shuffle over the same frontier -----
    def top1(df):
        return df.sort_values(["priority", "url_hash"]) \
            .groupby("host", sort=False).head(1)
    frontier = canon.select(["host", "url_hash", "priority"])
    with tr.span("stages.combine.hash_bucket_combine",
                 rows=frontier.num_rows) as s:
        hash_bucket_combine(rd.from_arrow(frontier), ["host"], top1).count()
    m["combine_s"], m["combine_rows"] = s.duration, frontier.num_rows

    # -- ray_data: the fixed cost of one warm, empty execution ---------
    floors = []
    for _ in range(3):
        with tr.span("ray_data.map_batches_floor") as s:
            rd.range(1).map_batches(lambda b: b,
                                    batch_format="pyarrow").materialize()
        floors.append(s.duration)
    m["ray_data_floor_s"] = statistics.median(floors)

    # -- fetch + parse: the stage in-process, then its two halves -----
    pages = _read_dir(out_dir / "pages", ["url", "url_hash", "host", "depth",
                                          "priority", "parent"])
    sample = _every_nth(pages, SAMPLE_PAGES)
    stage = FetchParseStage(rule_pack=rule_pack, web_config=cfg.web_config)
    with tr.span("stages.crawl_stages.FetchParseStage",
                 pages=sample.num_rows) as s:
        stage(sample)
    m["fetch_parse_stage_s"], m["sample_pages"] = s.duration, sample.num_rows

    storage = JSONRuleStorage(**rule_pack)
    adapter = SyntheticWebAdapter(web)
    urls = sample["url"].to_pylist()
    rules = [storage.find_crawler_rule(u) for u in urls]
    with tr.span("rulevm.transport.request", pages=len(urls)) as s:
        fetched = [adapter.request(**dict(r.get_request(url=u)))
                   for u, r in zip(urls, rules)]
    m["transport_s"] = s.duration
    vm = RuleVM()
    todo = [(text, rule, {"resp": resp,
                          "request_args": {"url": u, "method": "get"}})
            for u, rule, (text, resp) in zip(urls, rules, fetched)
            if getattr(resp, "status_code", 0) == 200]
    with tr.span("rulevm.vm.parse", pages=len(todo)) as s:
        for text, rule, ctx in todo:
            vm.parse(text, rule, ctx)
    m["parse_s"], m["parse_pages"] = s.duration, len(todo)

    # -- images: decode + phash, then Lance fragment write + commit ----
    images = _image_rows(out_dir)
    blobs = images["bytes"].to_pylist()
    with tr.span("sources.codecs.decode_image", images=len(blobs)) as s:
        for b in blobs:
            average_hash64(decode_image(b))
    m["decode_s"], m["images"] = s.duration, len(blobs)
    lance = LanceLayoutTable(tempfile.mkdtemp(dir=work))
    n_frag = 0
    with tr.span("storage.lance_layout.commit") as s:
        for off in range(0, images.num_rows, FRAGMENT_ROWS):
            name = lance.write_fragment(images.slice(off, FRAGMENT_ROWS),
                                        f"frag-{off}.parquet")
            lance.commit([name])
            n_frag += 1
    m["commit_s"], m["fragments"] = s.duration, n_frag
    return m
