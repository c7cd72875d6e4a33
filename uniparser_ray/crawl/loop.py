"""The distributed crawl: round-based BFS over a checkpointed frontier.

One round = one pipeline of named per-block steps (SURVEY.md §3.1):

    read frontier_r (parquet checkpoint)
      -> admit: canonicalize + url_hash + host, trap and dead-host
         filters, seen test-and-set + robots filter     [actor RPCs]
      -> grant: per-host politeness top-k               [the one shuffle]
      -> fetch tasks (FetchParseStage): fetch + rule-VM parse; each
         task also writes its batch's page-checkpoint rows and runs the
         image side-channel (explode -> dedup -> fetch -> Lance
         fragments) for its own pages
      -> links + retries + backlog -> frontier_{r+1} checkpoint

Every step is a function over one ``pa.Table`` block, written once.
The frontier read makes the round's one size decision: a frontier of
at most ``small_grant_threshold`` rows is read as one driver table and
the steps are called on it directly (the state hosts are reached by
direct RPC, no Ray Data execution before the fetch); a bigger
frontier is read as a Dataset and the same steps run through
``map_batches``.  The grant is one function too: on a Dataset it runs
as an exact block-local clip followed by the round's one shuffle,
which calls it again per host bucket.  The fetch always runs in Ray
tasks.

Determinism: which URLs are fetched in round r is decided by a stable
per-host sort on (priority, url_hash) under a fixed per-host budget —
the virtual-clock politeness model — so the round assignment, the
URL-seen set, and every parsed value are reproducible and equal to the
single-process oracle's (tests assert this).  Lineage: every frontier
row carries (parent, depth); every sink is partitioned by round, so a
failed run resumes from the last committed round.

Scale notes (the 10^10 design):
* the frontier lives on disk between rounds — the driver never holds
  URLs of a distributed round, only Dataset handles and per-round
  counters;
* the only all-to-all exchange is the groupby(host) grant (politeness
  locality); each block is clipped to its hosts' top budget +
  max_pending rows before the shuffle, so a hot host reaches its
  reduce task as at most blocks x (budget + max_pending) rows — skew
  is clipped, not shuffled;
* the seen anti-join is sharded by hash prefix into logical shards on
  one state-host actor per node (state/host.py; no shuffle);
* image payloads are fetched in small chunks inside the fetch tasks,
  so multi-MB bodies never concentrate in one block.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..rulevm.urlutil import url_hash64
from ..stages.crawl_stages import (_PAGE_SCHEMA, FetchParseStage,
                                   SeenRobotsStage, canonicalize_batch)
from ..state.host import RobotsClient, SeenFilter, start_state_hosts
from ..storage.lance_layout import LanceLayoutTable

FRONTIER_SCHEMA = pa.schema([
    ("url", pa.large_string()),
    ("parent", pa.large_string()),
    ("depth", pa.int32()),
    ("priority", pa.float32()),
    ("retries", pa.int32()),
    ("seen_ok", pa.int8()),
    # earliest round this row may be admitted (0 = always) — the
    # Retry-After deferral lane: a deferred row rides frontier
    # checkpoints untouched until its round arrives
    ("ready_round", pa.int32()),
])

# logical robots-cache shards of a run (routing: url_hash64(host) % n)
_ROBOTS_SHARDS = 4

# a distributed round's frontier files hold at least this many rows,
# so the next round reads a few files, not one tiny file per fetch block
_MIN_FRONTIER_FILE_ROWS = 16384


@dataclass
class CrawlConfig:
    web_config: dict
    out_dir: str
    seeds: List[str] = None
    max_rounds: int = 20
    per_host_budget: int = 8          # fetches per host per round (politeness)
    max_pending_per_host: int = 1000  # backlog cap (frontier bound)
    fetch_concurrency: int = 4
    fetch_batch_size: int = 128
    image_batch_size: int = 128       # keep small when payloads are MBs
    seen_shard_bits: int = 3
    # exact | bloom | tandem (exact + bloom, divergence-counted)
    seen_mode: str = "tandem"
    # per-shard capacity of the bloom seen filter; size to
    # (expected URLs) / 2^seen_shard_bits with headroom
    seen_capacity: int = 1_000_000
    use_robots: bool = True
    # the one robots dialect (state/robots.py); a class constant that
    # perfbench/layers.py reads
    robots_matcher: ClassVar[str] = "rfc9309"
    robots_user_agent: str = "uniparser-ray"
    host_budgets: Dict[str, int] = field(default_factory=dict)
    # frontiers at or below this row count run admit and grant on the
    # driver over one table (no shuffle, no Ray Data execution before
    # the fetch) — an Arrow sort of 100k rows is milliseconds, while a
    # Ray groupby shuffle has seconds of fixed cost
    small_grant_threshold: int = 100_000
    # transient-failure requeue: pages that fetch with a transport
    # error (status -1) or a 5xx are re-admitted to the NEXT round's
    # frontier (seen_ok=1 bypasses the seen anti-join) up to this many
    # times; retry counts ride the frontier rows, so requeues are
    # checkpointed/resumable like any other frontier row and compete
    # for the per-host politeness budget.  404s / rule-misses are
    # permanent and never retried.  Opt-in (default 0): with retries
    # on, per-round fetch sets legitimately diverge from the BFS
    # oracle's (a 5xx page re-fetches in a LATER round), so the
    # ordering-parity invariant only holds at 0 — see
    # test_crawl_retries_recover_transient_failures for the invariant
    # that holds with retries on (identical FINAL ok-set/values/seen).
    max_fetch_retries: int = 0
    # robots Crawl-delay -> per-host politeness budget: a round models
    # round_seconds of crawl time, so a host with Crawl-delay d is
    # granted at most floor(round_seconds/d) fetches per round (never
    # raising the configured budget).  The delay reaches the granter
    # as a column attached during robots admission — zero extra RPCs.
    # Opt-in to keep the default grant bit-identical to round-2 runs.
    robots_delay_budget: bool = False
    round_seconds: float = 60.0
    # sitemap-seeded frontier: round 0 additionally ingests every seed
    # host's advertised sitemap (robots.txt ``Sitemap:`` discovery,
    # <sitemapindex> chunk files followed) DISTRIBUTED — one task per
    # host batch, rows written task-parallel into the round-0 frontier
    # checkpoint.  Advertised URLs enter at depth 0 with priority
    # (0, 1) mapped from the sitemap's <priority> (crawl/sitemap.py
    # seed_priority): after the explicit seeds (0.0), before any
    # discovered link (>= 1.0).  URLs that are ALSO explicit seeds are
    # dropped at ingest so lineage stays deterministic (otherwise the
    # seen test-and-set would pick an arbitrary one of the two rows).
    # The conformance oracle models the same seeding (sitemap_seeds=
    # True on BFSOracle.run).
    sitemap_seeds: bool = False
    # 3xx handling: redirects are followed INLINE by the fetch stage
    # (requests semantics — one politeness token per granted URL no
    # matter the hops, bounded by max_redirects; loops/exhaustion land
    # as status -2, permanent).  The canonical FINAL URL is
    # test-and-set against the URL-seen shards from inside the fetch
    # workers (the shards are atomic), so a page reachable both via a
    # legacy URL and its canonical URL extracts once and later direct
    # links to the canonical form dedup at admission.  final_url /
    # final_hash / redirects ride the page checkpoint rows (resume
    # replays final_hash into the seen shards).
    max_redirects: int = 5
    # spider-trap guards (0 = off), applied after canonicalization and
    # BEFORE the seen test-and-set (a trapped candidate leaves no
    # seen-set side effect; a later shallow rediscovery still fetches):
    # BFS depth bound, canonical-URL byte bound, and a consecutive
    # path-segment repeat bound (/x/x/x/... calendar traps)
    max_depth: int = 0
    max_url_len: int = 0
    max_path_repeats: int = 0
    # dead-host pruning (0 = off): a host whose CUMULATIVE count of
    # error fetches (transport -1 or 5xx) reaches the budget is banned
    # — its frontier rows are dropped at admission from the NEXT round
    # on (after canonicalization, before the seen test-and-set, so no
    # seen-set side effect).  Error counts fold per page block each
    # round (tiny per-host partials) and are recomputed from the page
    # checkpoints on resume.  At 10^10 scale this is what stops a dead
    # CDN from eating the politeness budget round after round.
    host_error_budget: int = 0
    # honor 5xx Retry-After headers (opt-in): a transient-failure
    # requeue whose response carried Retry-After: S re-enters the
    # frontier with ready_round = round + max(1, ceil(S/round_seconds))
    # and rides the checkpoints UNTOUCHED (no seen/politeness cost)
    # until its round arrives — the polite server-requested backoff.
    # Requires max_fetch_retries > 0 to matter.
    honor_retry_after: bool = False


def _frontier_table(urls: List[str], parents: List[str], depths: List[int],
                    priorities: List[float], seen_ok: List[int],
                    retries: List[int] = None,
                    ready_round: List[int] = None) -> pa.Table:
    return pa.Table.from_arrays([
        pa.array(urls, pa.large_string()),
        pa.array(parents, pa.large_string()),
        pa.array(depths, pa.int32()),
        pa.array(priorities, pa.float32()),
        pa.array(retries or [0] * len(urls), pa.int32()),
        pa.array(seen_ok, pa.int8()),
        pa.array(ready_round or [0] * len(urls), pa.int32()),
    ], schema=FRONTIER_SCHEMA)


def _normalize_frontier(t: pa.Table) -> pa.Table:
    """Checkpoint-format migration: frontier files written before the
    retry lane (no ``retries``) or the Retry-After deferral lane (no
    ``ready_round``) read as zeros — a resume of an old-out-dir crawl
    proceeds instead of KeyErroring on the new columns."""
    for name in ("retries", "ready_round"):
        if name not in t.column_names:
            t = t.append_column(
                name, pa.array(np.zeros(t.num_rows, np.int32), pa.int32()))
    return t.select([f.name for f in FRONTIER_SCHEMA]).cast(FRONTIER_SCHEMA)


# -- per-block round steps ----------------------------------------------------

def _apply(step, data, **map_kwargs):
    """Apply one per-block step: called directly on a driver table, or
    as a ``map_batches`` stage over a Dataset."""
    if isinstance(data, pa.Table):
        return step(data)
    return data.map_batches(step, batch_format="pyarrow", **map_kwargs)


def _count(data) -> int:
    return data.num_rows if isinstance(data, pa.Table) else data.count()


def _collect(data) -> Optional[pa.Table]:
    """A step's (small) output as one driver table; None if empty."""
    import ray
    if isinstance(data, pa.Table):
        return data
    blocks = ray.get(data.to_arrow_refs())
    return pa.concat_tables(blocks, promote_options="default") \
        if blocks else None


def _chain(*steps):
    """Compose per-block steps (``None`` entries skipped) into one."""
    steps = [s for s in steps if s is not None]

    def run(t: pa.Table) -> pa.Table:
        for step in steps:
            t = step(t)
        return t
    return run


def _readiness(round_idx: int, ready: bool):
    """The Retry-After deferral lane: the frontier rows whose
    ``ready_round`` has arrived (``ready=True``) or not yet.  Deferred
    rows skip the round (no seen/politeness side effects) and ride
    into the next checkpoint untouched."""
    def split(t: pa.Table) -> pa.Table:
        t = _normalize_frontier(t)
        mask = pc.less_equal(t["ready_round"],
                             pa.scalar(round_idx, pa.int32()))
        return t.filter(mask if ready else pc.invert(mask))
    return split


def _drop_hosts(hosts):
    """Dead-host ban: drop the rows of banned hosts."""
    banned = pa.array(sorted(hosts), pa.string())

    def ban(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t["host"], value_set=banned)))
    return ban


def _granted_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t["granted"], 1))


def _ok_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t["status"], 200))


def _tag_round(round_idx: int):
    """``_round`` rides the fetch batches so the warm-worker stage
    cache stays keyed by constants."""
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_round", pa.array(
            np.full(t.num_rows, round_idx, dtype=np.int32), pa.int32()))
    return tag


def _transient(t: pa.Table) -> pa.Array:
    """Error fetches: transport failure (-1) or a 5xx."""
    st = t["status"]
    return pc.or_(pc.equal(st, pa.scalar(-1, pa.int32())),
                  pc.greater_equal(st, pa.scalar(500, pa.int32())))


def _host_error_counts(t: pa.Table) -> pa.Table:
    """Per-host count of error fetches in one page block — the tiny
    partials the dead-host counters fold."""
    agg = t.filter(_transient(t)).group_by("host") \
        .aggregate([("host", "count")])
    return pa.table({"host": agg["host"],
                     "n": agg["host_count"].cast(pa.int64())})


def _backlog_rows(t: pa.Table) -> pa.Table:
    """Decided rows the grant did not take re-enter the next frontier
    with seen_ok=1: they were admitted already, so they bypass the
    seen anti-join."""
    t = t.filter(pc.equal(t["granted"], 0))
    n = t.num_rows
    return pa.Table.from_arrays([
        t["url"], t["parent"], t["depth"], t["priority"], t["retries"],
        pa.array(np.ones(n, np.int8), pa.int8()),
        pa.array(np.zeros(n, np.int32), pa.int32()),
    ], names=FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)


def _make_retry(max_retries: int, round_idx: int, round_seconds: float,
                honor_retry_after: bool):
    """Transient-failure requeue: -1 / 5xx pages re-enter the next
    frontier with retries+1 and seen_ok=1 (already in the seen set from
    this round's admission).  404 / rule-miss stay permanent."""
    def retry(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(_transient(t), pc.less(
            t["retries"], pa.scalar(max_retries, pa.int32()))))
        ready = np.zeros(t.num_rows, np.int64)
        if honor_retry_after:
            # server-requested backoff: requeue no earlier than
            # ceil(Retry-After / round_seconds) rounds out (minimum 1 =
            # the normal next-round requeue)
            ra = t["retry_after"].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            ready += round_idx + np.maximum(
                1, np.ceil(ra / max(round_seconds, 1e-9)).astype(np.int64))
        return pa.Table.from_arrays([
            t["url"], t["parent"], t["depth"], t["priority"],
            pc.add(t["retries"], pa.scalar(1, pa.int32())).cast(pa.int32()),
            pa.array(np.ones(t.num_rows, np.int8), pa.int8()),
            pa.array(ready.astype(np.int32), pa.int32()),
        ], schema=FRONTIER_SCHEMA)
    return retry


def _make_grant(budgets: Dict[str, int], default_budget: int,
                max_pending: int, round_seconds: float = 0.0):
    """The politeness grant over one block of admitted rows.

    Deterministic and vectorized: a stable sort on (priority,
    url_hash), each row's position within its host, the first k rows
    of each host granted (``granted`` = 1) and the backlog clipped at
    k + max_pending rows, so one hot host cannot grow the frontier
    unboundedly.  k is the host's budget, tightened by its robots
    Crawl-delay when ``round_seconds`` > 0.  A ``granted`` column
    already present is replaced, so granting granted rows again is
    safe — and exact: a row in its host's global top k + max_pending
    is in any block's top k + max_pending."""
    def grant(t: pa.Table) -> pa.Table:
        if "granted" in t.column_names:
            t = t.drop_columns(["granted"])
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("priority", "ascending"), ("url_hash", "ascending")]))
        hosts = pc.dictionary_encode(t["host"].combine_chunks(),
                                     null_encoding="encode")
        codes = hosts.indices.to_numpy(zero_copy_only=False)
        # position within host: stable group-by-host order, minus each
        # group's start
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        sizes = np.diff(np.append(starts, len(codes)))
        pos = np.empty(len(codes), np.int64)
        pos[order] = np.arange(len(codes)) - np.repeat(starts, sizes)
        k = np.array([budgets.get(h, default_budget)
                      for h in hosts.dictionary.to_pylist()],
                     np.float64)[codes]
        if round_seconds > 0 and "crawl_delay" in t.column_names:
            # robots Crawl-delay -> per-host budget: a round models
            # round_seconds of crawl time, so a host asking for d sec
            # between fetches gets at most floor(round_seconds/d)
            # grants (>= 1 so delayed hosts still progress); only ever
            # TIGHTENS the configured budget
            d = t["crawl_delay"].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            with np.errstate(divide="ignore"):
                k = np.where(d > 0, np.minimum(
                    k, np.maximum(1, np.floor(round_seconds / d))), k)
        t = t.append_column("granted", pa.array(
            (pos < k).astype(np.int8), pa.int8()))
        return t.filter(pa.array(pos < k + max_pending))
    return grant


def _explode_links(batch: pa.Table) -> pa.Table:
    """One page row -> N frontier rows, all-Arrow: ``list_flatten`` +
    ``list_parent_indices`` + ``take`` (no per-row Python)."""
    links = batch["links"]
    flat = pc.list_flatten(links).cast(pa.large_string())
    idx = pc.list_parent_indices(links)
    parents = pc.take(batch["url"], idx).cast(pa.large_string())
    depths = pc.add(pc.take(batch["depth"], idx),
                    pa.scalar(1, pa.int32())).cast(pa.int32())
    return pa.Table.from_arrays([
        flat, parents, depths, depths.cast(pa.float32()),
        pa.array(np.zeros(len(flat), dtype=np.int32), pa.int32()),
        pa.array(np.zeros(len(flat), dtype=np.int8), pa.int8()),
        pa.array(np.zeros(len(flat), dtype=np.int32), pa.int32()),
    ], schema=FRONTIER_SCHEMA)


def _next_rows(retry):
    """Page block -> its next-frontier rows: links, plus the transient
    failures' requeues when retries are on."""
    def rows(t: pa.Table) -> pa.Table:
        if retry is None:
            return _explode_links(t)
        return pa.concat_tables([_explode_links(t), retry(t)])
    return rows


class CrawlRun:
    """Driver for one crawl (resumable)."""

    def __init__(self, cfg: CrawlConfig):
        import ray  # noqa: F401  (driver owns the session)
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.frontier_dir = self.out / "frontier"
        self.pages_dir = self.out / "pages"
        self.images = LanceLayoutTable(str(self.out / "images_lance"))
        self.metrics: List[dict] = []
        # every state family's logical shards on one actor per node
        img_bits = max(cfg.seen_shard_bits - 1, 1)
        n_robots = _ROBOTS_SHARDS if cfg.use_robots else 0
        self.state_hosts = start_state_hosts(
            seen={"seen": cfg.seen_shard_bits, "img_seen": img_bits},
            seen_mode=cfg.seen_mode, seen_capacity=cfg.seen_capacity,
            robots_shards=n_robots, web_config=dict(cfg.web_config),
            robots_user_agent=cfg.robots_user_agent)
        self.seen = SeenFilter(self.state_hosts, "seen", cfg.seen_shard_bits)
        self.img_seen = SeenFilter(self.state_hosts, "img_seen", img_bits)
        self.robots = (RobotsClient(self.state_hosts, n_robots)
                       if n_robots else None)
        self.robots_shards = self.robots.shards if n_robots else []
        self.rule_pack_ref = None

    def shutdown(self):
        """Kill this run's state hosts so back-to-back runs in one Ray
        session don't accumulate actor processes contending for CPU
        slots."""
        import ray
        for actor in self.state_hosts:
            try:
                ray.kill(actor)
            except Exception:
                pass
        self.state_hosts = []
        self.robots_shards = []

    # -- state / resume ----------------------------------------------------
    def _state_path(self) -> Path:
        return self.out / "_state.json"

    def _load_state(self) -> Optional[dict]:
        if self._state_path().exists():
            return json.loads(self._state_path().read_text())
        return None

    def _save_state(self, round_idx: int):
        tmp = self.out / "_state.json.tmp"
        tmp.write_text(json.dumps({
            "next_round": round_idx,
            "metrics": self.metrics,
        }))
        tmp.replace(self._state_path())

    def _rollback_uncommitted(self, start_round: int):
        """Crash-window rollback.  A round commits only at
        ``_save_state(round+1)``, so on resume ANY on-disk artifact
        tagged ``round >= start_round`` is an orphan of a crashed
        attempt: partial page checkpoints, image fragments (possibly
        already registered: ``images.commit`` runs mid-round, before
        the state commit), and the attempt's next-frontier dir.  Purge
        them BEFORE ``_reseed_filters`` runs, else the reseed would
        poison ``img_seen`` with rolled-back fetches and the re-run
        would silently drop those images.  The frontier dir for
        ``round=start_round`` itself is committed state (written by
        round ``start_round-1``) and is kept."""
        def purge(base: Path, min_round: int):
            for d in base.glob("round=*"):
                if int(d.name.split("=")[1]) >= min_round:
                    shutil.rmtree(d, ignore_errors=True)

        purge(self.pages_dir, start_round)
        purge(self.frontier_dir, start_round + 1)
        if self.images.exists():
            def keep(name: str) -> bool:
                head = name.split("/", 1)[0]
                if head.startswith("round="):
                    return int(head.split("=")[1]) < start_round
                return True
            self.images.rollback_fragments(
                keep, metadata={"rollback_before_round": start_round})
        purge(self.images.data_dir, start_round)

    def _reseed_host_errors(self, upto_round: int):
        """Rebuild the dead-host error counters from the committed
        page checkpoints (resume): the round's own per-block error
        fold over a projection-pruned read — only the tiny (host, n)
        rows reach the driver."""
        import ray.data as rd
        files = [str(f) for r in range(upto_round)
                 for f in sorted(
                     (self.pages_dir / f"round={r}").glob("*.parquet"))]
        if files:
            self._absorb_host_errors(_collect(_apply(
                _host_error_counts,
                rd.read_parquet(files, columns=["host", "status"]))))

    def _absorb_host_errors(self, counts: Optional[pa.Table]):
        """Fold per-host error counts into the dead-host counters
        (bans apply from the NEXT round's admission)."""
        if counts is not None:
            for host, n in zip(counts["host"].to_pylist(),
                               counts["n"].to_pylist()):
                self._host_errors[host] = self._host_errors.get(host, 0) + n
        budget = self.cfg.host_error_budget
        self._banned_hosts = frozenset(
            h for h, n in self._host_errors.items() if n >= budget)

    def _reseed_filters(self, upto_round: int):
        """Rebuild seen state from committed checkpoints (resume).

        ALL replayed state streams task-parallel: parquet fragments are
        read in tasks and their hashes pushed to the state hosts in
        batches (``SeenFilter.add_futures``: one RPC per host) — the
        driver never materializes a column.  At 10^10-URL scale a
        resume replays billions of page hashes and image URLs; any
        ``to_table()`` here would be a driver OOM."""
        import ray.data as rd

        def replay(files, columns, make_hashes, seen):
            def push(t: pa.Table) -> pa.Table:
                import ray as _ray
                _slices, futs = seen.add_futures(make_hashes(t))
                if futs:
                    _ray.get(futs)
                return pa.table({"n": pa.array([t.num_rows], pa.int64())})

            rd.read_parquet(files, columns=columns) \
                .map_batches(push, batch_format="pyarrow",
                             batch_size=16384).count()

        page_dirs = [str(f) for r in range(upto_round)
                     for f in sorted(
                         (self.pages_dir / f"round={r}").glob("*.parquet"))
                     if (self.pages_dir / f"round={r}").exists()]
        if page_dirs:
            # checkpoint-format guard: pages written before the
            # redirect lane have no final_hash column — replay just
            # the URL hashes for those (missing finals read as "none").
            # Sniffed per FILE (metadata-only read) so a checkpoint
            # upgraded mid-crawl — old rounds without the column, new
            # rounds with it — splits into two replay passes instead
            # of erroring or dropping the new rounds' finals.
            with_final = [f for f in page_dirs
                          if "final_hash" in pq.read_schema(f).names]
            without_final = [f for f in page_dirs if f not in
                             set(with_final)]

            def page_hashes(t: pa.Table) -> np.ndarray:
                uh = t["url_hash"].to_numpy(zero_copy_only=False) \
                    .astype(np.uint64)
                if "final_hash" not in t.column_names:
                    return uh
                # redirect finals were test-and-set during the fetch —
                # replay the nonzero ones alongside the requested URLs
                fh = t["final_hash"].to_numpy(zero_copy_only=False) \
                    .astype(np.uint64)
                return np.concatenate([uh, fh[fh != 0]])
            if with_final:
                replay(with_final, ["url_hash", "final_hash"],
                       page_hashes, self.seen)
            if without_final:
                replay(without_final, ["url_hash"], page_hashes,
                       self.seen)
        if self.images.exists():
            frag_files = self.images.fragment_files()
            if frag_files:
                def img_hashes(t: pa.Table) -> np.ndarray:
                    col = t.column("src_url").to_pylist()
                    return np.fromiter(
                        (url_hash64("img|" + u) for u in col),
                        dtype=np.uint64, count=len(col))
                replay(frag_files, ["src_url"], img_hashes, self.img_seen)
        # frontier seen_ok rows were already admitted
        d = self.frontier_dir / f"round={upto_round}"
        if d.exists():
            def frontier_hashes(t: pa.Table) -> np.ndarray:
                ok = t.column("seen_ok").to_numpy(zero_copy_only=False) \
                    .astype(bool)
                urls = [u for u, m
                        in zip(t.column("url").to_pylist(), ok) if m]
                return np.fromiter((url_hash64(u) for u in urls),
                                   dtype=np.uint64, count=len(urls))
            replay([str(f) for f in sorted(d.glob("*.parquet"))],
                   ["url", "seen_ok"], frontier_hashes, self.seen)

    # -- frontier checkpoints ----------------------------------------------
    def _write_frontier(self, round_idx: int, parts: list) -> int:
        """Write a frontier checkpoint from per-step outputs
        (``FRONTIER_SCHEMA`` rows; ``None`` parts skipped): driver
        tables as one compacted file, Datasets task-parallel (so URLs
        of a distributed round never pass through the driver).
        Returns the checkpoint's row count; an empty one is removed."""
        d = self.frontier_dir / f"round={round_idx}"
        if d.exists():  # stale partial write from a crashed run
            shutil.rmtree(d)
        d.mkdir(parents=True)
        parts = [p for p in parts if p is not None]
        tables = [p for p in parts if isinstance(p, pa.Table)]
        if tables:
            pq.write_table(pa.concat_tables(tables), d / "part-0.parquet")
        for p in parts:
            if not isinstance(p, pa.Table):
                p.write_parquet(str(d),
                                min_rows_per_file=_MIN_FRONTIER_FILE_ROWS)
        n = 0
        for f in list(d.glob("*.parquet")):
            rows = pq.read_metadata(f).num_rows
            if rows == 0:
                f.unlink()
            n += rows
        if n == 0:
            shutil.rmtree(d)
        return n

    def _seed_round0(self) -> None:
        seeds = self.cfg.seeds
        n = len(seeds)
        parts = [_frontier_table(seeds, [""] * n, [0] * n, [0.0] * n,
                                 [0] * n)]
        if self.cfg.sitemap_seeds:
            parts.append(self._sitemap_rows(seeds))
        self._write_frontier(0, parts)

    def _sitemap_rows(self, seeds: List[str]):
        """Distributed sitemap ingest of the seed hosts -> extra
        round-0 frontier rows (a Dataset, one task per host batch)."""
        import ray
        import ray.data as rd

        from ..rulevm.request import get_host
        from ..rulevm.urlutil import canonicalize_url
        from .sitemap import make_ingest_stage, seed_priority

        hosts = sorted({get_host(canonicalize_url(u), "")
                        for u in seeds} - {""})
        if not hosts:
            return None
        seed_canon_ref = ray.put(
            frozenset(canonicalize_url(u) for u in seeds))
        web_cfg = dict(self.cfg.web_config)
        ingest = make_ingest_stage(web_cfg)

        def to_frontier(t: pa.Table) -> pa.Table:
            seed_canon = ray.get(seed_canon_ref)
            urls, parents, prios = [], [], []
            for row in ingest(t).to_pylist():
                if canonicalize_url(row["url"]) in seed_canon:
                    continue
                urls.append(row["url"])
                parents.append(row["sitemap_url"])
                prios.append(seed_priority(row["priority_bp"]))
            n = len(urls)
            return _frontier_table(urls, parents, [0] * n, prios, [0] * n)

        return rd.from_items([{"host": h} for h in hosts],
                             override_num_blocks=min(len(hosts), 16)) \
            .map_batches(to_frontier, batch_format="pyarrow", batch_size=4)

    def _read_frontier(self, round_idx: int):
        """Round ``round_idx``'s frontier and its row count — the
        round's one size decision: at most ``small_grant_threshold``
        rows read as one driver table, more as a Dataset."""
        import ray.data as rd
        fdir = self.frontier_dir / f"round={round_idx}"
        files = sorted(fdir.glob("*.parquet"))
        if not files:
            return None, 0
        n = sum(pq.read_metadata(f).num_rows for f in files)
        if n <= self.cfg.small_grant_threshold:
            return pa.concat_tables([pq.read_table(f) for f in files],
                                    promote_options="default"), n
        # a checkpoint file is one block; split at the READ so every
        # stage of the round fans out across the pool (block splitting
        # is free — measured 15% off the warm grant phase at 255k
        # candidates vs a separate repartition)
        n_blocks = max(1, min(4 * self.cfg.fetch_concurrency, (n + 63) // 64))
        return rd.read_parquet(str(fdir), override_num_blocks=n_blocks), n

    def _grant(self, admitted):
        """The politeness grant.  A host's pending rows must meet in one
        call: a driver table already is one; a Dataset is clipped block
        by block, then hosts hash into a bounded number of buckets and
        the same grant runs once per bucket."""
        from ..stages.combine import hash_bucket_combine
        decided = _apply(self._grant_fn, admitted)
        if isinstance(decided, pa.Table):
            return decided
        # materialized before the shuffle: overlapping the RPC-blocking
        # admit chain with the shuffle's map side DOUBLED the grant
        # phase (7.0s -> 3.3s warm at 255k candidates, 8 cpus)
        decided = hash_bucket_combine(decided.materialize(), ["host"], None,
                                      num_buckets=64, arrow_fn=self._grant_fn)
        # the round's pipeline cache: counts, fetch input and backlog
        # all read these blocks
        return decided.materialize()

    def _fetch(self, granted, n_granted: int, round_idx: int,
               fetch_kwargs: dict):
        """Fetch + rule-VM parse in the warm-worker task pool (the
        transport / compiled-pack state is cached per worker).  Each
        task also writes its batch's page-checkpoint rows and its
        pages' image fragments.  A driver-table round gets its pages
        back as one table."""
        import ray
        import ray.data as rd
        from ..stages.taskcache import cached_stage
        if not n_granted:
            return _PAGE_SCHEMA.empty_table()
        # row-balanced fetch blocks, whatever the host skew the grant
        # left: 8 tasks per cpu — at 4x a giant round ran as ~4 waves
        # of ~15s tasks and the straggler tail idled a measurable slice
        # of the machine (A/B'd at 32 cpus)
        cpus = int(ray.cluster_resources().get("CPU", 8))
        n_blocks = max(1, min(-(-n_granted // self.cfg.fetch_batch_size),
                              8 * cpus))
        granted = _apply(_tag_round(round_idx), granted,
                         zero_copy_batch=True)
        if isinstance(granted, pa.Table):
            cuts = np.linspace(0, n_granted, n_blocks + 1).astype(int)
            blocks = rd.from_arrow([granted.slice(a, b - a)
                                    for a, b in zip(cuts, cuts[1:]) if b > a])
        else:
            blocks = granted.repartition(n_blocks)
        pages = blocks.map_batches(
            cached_stage(FetchParseStage, **fetch_kwargs),
            batch_format="pyarrow",
            batch_size=self.cfg.fetch_batch_size).materialize()
        return _collect(pages) if isinstance(granted, pa.Table) else pages

    def _commit_images(self, round_idx: int) -> int:
        """Commit the round's image fragments (written by the fetch
        tasks) as one table version; returns the rows committed.  ONE
        footer read per fragment: a big round writes thousands."""
        img_dir = self.images.data_dir / f"round={round_idx}"
        names, n_images = [], 0
        for p in sorted(img_dir.glob("*.parquet")):
            n = pq.read_metadata(p).num_rows
            if n > 0:
                names.append(f"round={round_idx}/{p.name}")
                n_images += n
            else:
                p.unlink()
        self.images.commit(names, metadata={"round": round_idx})
        return n_images

    def run(self, rule_pack: dict, resume: bool = True) -> dict:
        import ray
        cfg = self.cfg
        self.out.mkdir(parents=True, exist_ok=True)
        self.rule_pack_ref = ray.put(rule_pack)
        # readiness pings, fired before the round-0 frontier is written
        # so the hosts' start overlaps it
        ramp = [h.ready.remote() for h in self.state_hosts]
        start_round = 0
        state = self._load_state() if resume else None
        self._host_errors: Dict[str, int] = {}
        self._banned_hosts: frozenset = frozenset()
        if state:
            start_round = state["next_round"]
            self.metrics = state["metrics"]
            self._rollback_uncommitted(start_round)
            self._reseed_filters(start_round)
            if cfg.host_error_budget > 0:
                self._reseed_host_errors(start_round)
        else:
            self._seed_round0()

        from ..stages.crawl_stages import make_trap_filter
        trap_filter = (make_trap_filter(cfg.max_depth, cfg.max_url_len,
                                        cfg.max_path_repeats)
                       if (cfg.max_depth or cfg.max_url_len
                           or cfg.max_path_repeats) else None)
        seen_stage = SeenRobotsStage(self.seen, self.robots)
        self._grant_fn = _make_grant(
            cfg.host_budgets, cfg.per_host_budget, cfg.max_pending_per_host,
            round_seconds=(cfg.round_seconds if cfg.robots_delay_budget
                           else 0.0))
        fetch_kwargs = dict(rule_pack_ref=self.rule_pack_ref,
                            web_config=cfg.web_config,
                            max_redirects=cfg.max_redirects,
                            seen=self.seen, robots=self.robots,
                            page_ckpt_dir=str(self.pages_dir),
                            image_data_dir=str(self.images.data_dir),
                            image_seen=self.img_seen,
                            image_batch_size=cfg.image_batch_size)
        honor = cfg.honor_retry_after

        # the state hosts' start (a fresh worker process each) is paid
        # once, here, outside every round's clock
        t_ramp = time.perf_counter()
        ray.get(ramp)
        state_ramp_s = round(time.perf_counter() - t_ramp, 3)

        for r in range(start_round, cfg.max_rounds):
            frontier, n_candidates = self._read_frontier(r)
            if frontier is None:
                break
            t0 = time.perf_counter()
            phase_t: Dict[str, float] = {}

            def _mark(name, _last=[t0]):
                now = time.perf_counter()
                phase_t[name] = round(now - _last[0], 3)
                _last[0] = now

            # -- admit + politeness grant --------------------------------
            admit = _chain(
                _readiness(r, True) if honor else _normalize_frontier,
                canonicalize_batch, trap_filter,
                (_drop_hosts(self._banned_hosts)
                 if self._banned_hosts else None),
                seen_stage)
            deferred = _apply(_readiness(r, False), frontier) \
                if honor else None
            n_deferred = _count(deferred) if honor else 0
            decided = self._grant(_apply(admit, frontier, batch_size=4096))
            _mark('grant')
            n_decided = _count(decided)
            granted = _apply(_granted_rows, decided)
            n_granted = _count(granted)
            _mark('counts')
            if n_granted == 0 and not n_deferred:
                break

            # -- fetch + parse; page checkpoint and images inside -------
            pages = self._fetch(granted, n_granted, r, fetch_kwargs)
            _mark('fetch_parse')
            if cfg.host_error_budget > 0:
                self._absorb_host_errors(
                    _collect(_apply(_host_error_counts, pages)))
            # the dir exists even for an all-empty round, so resume
            # replay and the round readers see a committed round
            (self.pages_dir / f"round={r}").mkdir(parents=True,
                                                  exist_ok=True)
            _mark('pages_write')
            n_images = self._commit_images(r)
            _mark('images')

            # -- next frontier: links + retries, backlog, deferred -------
            retry = (_make_retry(cfg.max_fetch_retries, r, cfg.round_seconds,
                                 honor)
                     if cfg.max_fetch_retries > 0 else None)
            parts = [_apply(_next_rows(retry), pages)]
            if n_decided > n_granted:
                parts.append(_apply(_backlog_rows, decided))
            if n_deferred:
                parts.append(deferred)
            n_next = self._write_frontier(r + 1, parts)
            n_retry = _count(_apply(retry, pages)) if retry else 0
            _mark('frontier_next')
            self.metrics.append({
                "round": r,
                "candidates": n_candidates,
                "granted": n_granted,
                "backlog": n_decided - n_granted,
                "pages_ok": _count(_apply(_ok_rows, pages)),
                "retried": n_retry,
                "deferred": n_deferred,
                "images_written": n_images,
                "next_frontier": n_next,
                "sec": round(time.perf_counter() - t0, 3),
                "phases": phase_t,
            })
            self._save_state(r + 1)
            if not n_next:
                break

        totals = {
            "rounds": len(self.metrics),
            "pages_ok": sum(m["pages_ok"] for m in self.metrics),
            "granted": sum(m["granted"] for m in self.metrics),
            "images": self.images.count_rows(),
            "seen": self.seen.stats(),
            "state_ramp_s": state_ramp_s,
            "per_round": self.metrics,
        }
        (self.out / "metrics.json").write_text(json.dumps(totals, indent=1))
        return totals


def run_crawl(cfg: CrawlConfig, rule_pack: dict, resume: bool = True) -> dict:
    run = CrawlRun(cfg)
    try:
        return run.run(rule_pack, resume=resume)
    finally:
        run.shutdown()
