"""End-to-end tour for a reference (ClericPy/uniparser) user switching
to this engine: define a rule pack, crawl a deterministic synthetic
web with the Ray-Data loop, read the checkpoints back, reassemble the
reference-shaped nested ``__result__`` trees, and run one dedup query
over the harvested image table.

Run:  python examples/end_to_end.py          (own Ray session;
                                              ~10 s, all local)
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    # 1. a deterministic offline web (pure function of its config: any
    #    worker and the conformance oracle see identical bytes)
    from uniparser_ray.sources.synthweb import SynthWeb
    web_cfg = dict(num_hosts=3, base_pages=12, fanout=2, hot_factor=3.0)
    web = SynthWeb(**web_cfg)

    # 2. the rule pack — the same CrawlerRule/ParseRule JSON shapes the
    #    reference uses ({host: {"host":…, "crawler_rules": {…}}});
    #    web.rule_pack() builds the image+caption extraction pack
    pack = web.rule_pack()
    one_rule = next(iter(next(iter(pack.values()))
                         ["crawler_rules"].values()))
    print("rule fields:", sorted(one_rule))

    # 3. crawl: round-based BFS over a checkpointed frontier — sharded
    #    URL-seen actors, robots cache, per-host politeness grant,
    #    fused fetch+parse+image ingest, resumable checkpoints
    from uniparser_ray.crawl.loop import CrawlConfig, run_crawl
    out = Path(tempfile.mkdtemp(prefix="uniparser_ray_example_"))
    totals = run_crawl(CrawlConfig(
        web_config=web_cfg, out_dir=str(out), seeds=web.seed_urls(),
        max_rounds=10, per_host_budget=4, seen_shard_bits=2),
        pack)
    print("crawl:", {k: totals[k] for k in ("granted", "pages_ok",
                                            "images")})

    # 4. the durable artifacts: pages checkpoints (one dir per round)
    #    and a Lance-layout image+caption table (input_hint schema)
    from uniparser_ray.crawl.loop import read_rounds
    from uniparser_ray.stages.crawl_stages import PAGE_SCHEMA
    pages = read_rounds(out / "pages", ["url", "status", "rule_name"],
                        PAGE_SCHEMA)
    print("pages checkpoint rows:", pages.count())
    from uniparser_ray.storage.lance_layout import LanceLayoutTable
    images = LanceLayoutTable(str(out / "images_lance")).to_table(
        columns=["image_id", "w", "h", "fmt", "caption", "phash"])
    print("image table:", images.num_rows, "rows,",
          images.schema.names)

    # 5. reference-shaped nested result trees from the checkpoints
    from uniparser_ray.crawl.assemble import assemble_results_dict
    trees = assemble_results_dict(str(out / "pages"))
    seed0 = web.seed_urls()[0]
    print("tree for", seed0, "->",
          json.dumps(trees[seed0], default=repr)[:120], "...")

    # 6. one training-data query over the harvest: exact image dedup
    #    (hash-partitioned; only (hash, id) rows shuffle, never bytes)
    import ray.data as rd
    from uniparser_ray.stages.dedup import hamming_block_pairs
    near = hamming_block_pairs(
        rd.from_arrow(images.select(["image_id", "phash"])),
        "image_id", "phash", max_hamming=4, out_prefix="img")
    print("phash near-dup pairs (hamming<=4):", near.count())

    ray.shutdown()


if __name__ == "__main__":
    main()
