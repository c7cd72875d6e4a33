"""The benchmark's crawl workloads.

Each workload sets only size and budget fields of ``SynthWeb`` and
``CrawlConfig``; mode knobs keep the program's defaults, so a later
change to a default is measured rather than bypassed (``extract_heavy``
alone turns robots off and uses one seen shard bit, to keep its actor
ramp small).  The seed
given on the command line reaches the program only as ``SynthWeb(seed=)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

# Ray's CPU count for every session, pinned at or below the core count
# of a 4-core machine; all load comes from the one process that calls
# run_crawl.
NUM_CPUS = 4

# CrawlConfig fields the BFS oracle mirrors
ORACLE_KEYS = ("per_host_budget", "max_pending_per_host", "use_robots")


@dataclass(frozen=True)
class Workload:
    name: str
    web: Dict                      # SynthWeb kwargs (seed excluded)
    crawl: Dict                    # CrawlConfig size/budget kwargs
    seed_all_pages: bool           # seeds = every page vs. host roots
    checks: Tuple[str, ...]        # gate comparisons, see gate.py
    why: str

    def make_web(self, seed: int):
        from uniparser_ray.sources.synthweb import SynthWeb
        return SynthWeb(seed=seed, **self.web)

    def seeds(self, web) -> List[str]:
        return web.all_page_urls() if self.seed_all_pages else web.seed_urls()

    def config(self, seed: int, out_dir: str, seeds: List[str]):
        from uniparser_ray.crawl.loop import CrawlConfig
        return CrawlConfig(web_config=dict(self.web, seed=seed),
                           out_dir=out_dir, seeds=seeds, **self.crawl)

    def oracle(self, web):
        from uniparser_ray.crawl.oracle import BFSOracle
        kw = {k: self.crawl[k] for k in ORACLE_KEYS if k in self.crawl}
        return BFSOracle(web, web.rule_pack(), **kw)

    @property
    def max_rounds(self) -> int:
        return self.crawl["max_rounds"]

    def small(self) -> "Workload":
        """The same workload on a 6-host web, for the benchmark's tests."""
        return dataclasses.replace(
            self, web=dict(self.web, num_hosts=6, base_pages=6))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="crawl_discover",
        web=dict(num_hosts=192, base_pages=6, fanout=4, hot_factor=12.0),
        crawl=dict(per_host_budget=16, max_rounds=5),
        seed_all_pages=False,
        checks=("rounds", "status_title", "images"),
        why=("multi-round BFS under small_grant_threshold: time goes to "
             "per-run actor start-up, per-round fixed costs and seen/robots "
             "RPCs; the seen layer mostly answers duplicates")),
    Workload(
        name="extract_heavy",
        # image_rate 0.3, not 0.1: ~3x the images keeps the per-seed
        # spread of out_bytes_per_page under 8% (18% at 0.1)
        web=dict(num_hosts=160, base_pages=64, fanout=8, hot_factor=8.0,
                 page_weight=60, image_rate=0.3),
        crawl=dict(per_host_budget=10 ** 9, max_rounds=1, use_robots=False,
                   seen_shard_bits=1),
        seed_all_pages=True,
        checks=("universe", "status_title"),
        why=("one round that fetches and parses ~8 KB pages: rule-VM, "
             "DOM, image and Lance-commit work; robots off and one seen "
             "shard bit keep the actor ramp small")),
)}
