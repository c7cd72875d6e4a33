"""The distributed crawl: round-based BFS over a checkpointed frontier.

One round = one pipeline of named per-block steps (SURVEY.md §3.1),
each run as plain Ray tasks over Arrow blocks:

    read frontier_r (parquet checkpoint)
      -> admit tasks, one per row range of the checkpoint (at least
         ``_ADMIT_BLOCK_ROWS`` rows each): canonicalize + url_hash +
         host, trap and dead-host filters, seen test-and-set + robots
         filter [actor RPCs], then the block-local grant clip
      -> grant: per-host politeness top-k           [the one shuffle]
      -> fetch tasks (FetchParseStage) over row-balanced spans of the
         granted rows: fetch + rule-VM parse.  A host with a rate rule
         (``host_rates``) is owned by one task, which paces its
         requests in real time.  Each task then writes
         every file of its pages: their checkpoint rows, and the Lance
         fragments of their new images (explode -> dedup -> fetch,
         ImageFetchStage), all named from the round and the task's
         minimum url_hash; it returns its pages' next-frontier rows
         (links + retries) and small counters
      -> writer tasks: next rows + backlog + deferred -> frontier_{r+1}

Every step is a function over one ``pa.Table`` block, written once,
and a round of any size runs the same tasks: a small round is one
admit block (whose clip is already the grant), a few fetch tasks and
one frontier file.  No round starts a Ray Data execution.

Determinism: which URLs are fetched in round r is decided by a stable
per-host sort on (priority, url_hash) under a fixed per-host budget —
the virtual-clock politeness model — so the round assignment, the
URL-seen set, and every parsed value are reproducible and equal to the
single-process oracle's (tests assert this).  Lineage: every frontier
row carries (parent, depth); every sink is partitioned by round, so a
failed run resumes from the last committed round.

Scale notes (the 10^10 design):
* the frontier lives on disk between rounds — the driver never holds
  a round's URLs, only block refs and per-round counters;
* the only all-to-all exchange is the host-keyed grant (politeness
  locality), on the engine's one plain-task ``exchange``
  (stages/combine.py; its bucket count follows the clipped row count);
  each block is clipped to its hosts' top budget + max_pending rows
  before the exchange, so a hot host reaches its reduce task as at
  most blocks x (budget + max_pending) rows — skew is clipped, not
  shuffled;
* the seen anti-join is sharded by hash prefix into logical shards on
  one state-host actor per node (state/host.py; no shuffle);
* image payloads are fetched in small chunks inside the fetch tasks,
  so multi-MB bodies never concentrate in one block.

Every round-partitioned output (``round=R`` dirs) is written by the
round's tasks here and read back by one function, :func:`read_rounds`,
which the checkpoint queries share.
"""

from __future__ import annotations

import functools
import json
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..rulevm.urlutil import url_hash64
from ..stages.crawl_stages import (FetchParseStage, ImageFetchStage,
                                   SeenRobotsStage, canonicalize_batch,
                                   explode_images)
from ..state.host import (RobotsClient, SeenFilter, release_state_hosts,
                          rpc_get, start_state_hosts)
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

# frontier files hold at least this many rows (one writer task per
# file), so a small round writes one file and the next round reads a
# few files, not one tiny file per fetch task
_MIN_FRONTIER_FILE_ROWS = 16384

# an admit task's row range holds at least this many frontier rows, so
# a frontier below 2x this is one admit block
_ADMIT_BLOCK_ROWS = 4096

# an image fragment holds at most this many candidates' rows: a fetch
# task fetches and decodes one chunk at a time, so at most one chunk
# of (possibly multi-MB) payloads is live
_IMAGE_CHUNK_ROWS = 128


@dataclass
class CrawlConfig:
    web_config: dict
    out_dir: str
    seeds: List[str] = None
    max_rounds: int = 20
    per_host_budget: int = 8          # fetches per host per round (politeness)
    max_pending_per_host: int = 1000  # backlog cap (frontier bound)
    fetch_batch_size: int = 128
    seen_shard_bits: int = 3
    # bloom | tandem (bloom + an exact set that answers and counts
    # the bloom's divergences)
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
    # per-host request pacing, the reference's Frequency(n, interval):
    # host -> (n, interval), at most n requests per interval seconds.
    # The grant still decides what a round fetches; the one fetch task
    # that owns a ruled host's round spaces its requests (_paced).
    # Empty = unpaced.
    host_rates: Dict[str, Tuple[float, float]] = field(default_factory=dict)
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
    # Requires max_fetch_retries > 0 to matter.  A stored ready_round
    # is honoured whatever config resumes the run.
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


# -- per-block round steps ----------------------------------------------------

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
    ``ready_round`` has arrived (``ready=True``) or not yet.
    Deferred rows skip the round (no seen/politeness side effects) and
    ride into the next checkpoint untouched."""
    def split(t: pa.Table) -> pa.Table:
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
    this round's admission).  404 / rule-miss stay permanent.  At
    ``max_retries`` 0 the requeue is empty, and without
    ``honor_retry_after`` every requeued row has ``ready_round`` 0."""
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


# -- plain-task dispatch ------------------------------------------------------

@ray.remote
def _task(fn, *args):
    """``fn(*args)`` in one plain Ray task (ref arguments resolved;
    Ray's default task retries).  Every round step and resume pass runs
    through it."""
    return fn(*args)


def _spans(counts: Sequence[int], n: int,
           unit: int = 1) -> List[List[tuple]]:
    """Cut the concatenated rows of parts holding ``counts`` rows into
    ``n`` spans, balanced in whole ``unit``-row steps: per span, its
    ``(part, lo, hi)`` pieces in part order."""
    starts = np.cumsum([0, *counts])
    cuts = np.minimum(np.linspace(0, -(-starts[-1] // unit), n + 1)
                      .astype(np.int64) * unit, starts[-1])
    return [[(j, int(max(a, lo) - lo), int(min(b, hi) - lo))
             for j, (lo, hi) in enumerate(zip(starts, starts[1:]))
             if min(b, hi) > max(a, lo)]
            for a, b in zip(cuts, cuts[1:])]


def _is_ruled(ruled, hosts) -> pa.Array:
    """Which ``hosts`` are among the ``ruled`` host names."""
    return pc.is_in(hosts, value_set=pa.array(list(ruled), pa.string()))


def _grant_counts(rates: dict, t: pa.Table) -> tuple:
    """(rows, granted rows, {ruled host: its granted rows}) of a grant
    output block; the fetch spans are cut from these."""
    hosts = t["host"].filter(pc.equal(t["granted"], 1))
    vc = pc.value_counts(hosts.filter(_is_ruled(rates, hosts)))
    return t.num_rows, len(hosts), dict(zip(
        vc.field("values").to_pylist(), vc.field("counts").to_pylist()))


def _admit_block(admit, grant, count, deferred, pieces):
    """One admit task: its row range of the frontier through the admit
    chain and the block-local grant clip, and the deferred rows apart.
    Returns (clipped rows, deferred rows, (rows, granted, paced,
    deferred))."""
    t = pa.concat_tables([pq.read_table(f).slice(lo, hi - lo)
                          for f, lo, hi in pieces])
    decided = grant(admit(t))
    later = deferred(t)
    return decided, later, count(decided) + (later.num_rows,)


def _piece_rows(rates: dict, piece, block: pa.Table) -> pa.Table:
    """A fetch task's rows of one granted block: for ``(None, lo,
    hi)``, rows lo..hi of the block's unruled granted rows; for
    ``(hosts, 0, n)``, all n granted rows of those ruled hosts."""
    hosts, lo, hi = piece
    t = _granted_rows(block)
    ruled = _is_ruled(hosts or rates, t["host"])
    return t.filter(ruled if hosts else pc.invert(ruled)).slice(lo, hi - lo)


def _paced(rows: pa.Table, rates: dict, call) -> tuple:
    """``call`` over the rows of ruled hosts, in slots of one row per
    free host.  A host is free ``interval / n`` after the end of the
    call that carried its previous request, so a host's request starts
    are at least that far apart; between slots the task sleeps until
    the earliest host is free.  Before returning it waits until every
    host is free again, so across the round barrier the next round's
    first request to a host keeps the gap too.  Returns (hosts,
    requests, smallest gap from the end of a call to the start of the
    call carrying the host's next request, or None)."""
    queue: Dict[str, deque] = {}
    for i, h in enumerate(rows["host"].to_pylist()):
        queue.setdefault(h, deque()).append(i)
    free: Dict[str, float] = {}
    ends: Dict[str, float] = {}
    gaps = []
    while queue:
        now = time.monotonic()
        ready = [h for h in queue if free.get(h, now) <= now]
        if not ready:
            time.sleep(min(free[h] for h in queue) - now)
            continue
        slot = rows.take([queue[h].popleft() for h in ready])
        start = time.monotonic()
        call(slot)
        end = time.monotonic()
        for h in ready:
            if h in ends:
                gaps.append(start - ends[h])
            n, interval = rates[h]
            ends[h], free[h] = end, end + interval / n
            if not queue[h]:
                del queue[h]
    if free:
        wait = max(free.values()) - time.monotonic()
        if wait > 0:
            time.sleep(wait)
    return len(ends), rows.num_rows, min(gaps, default=None)


def _fetch_block(stage, images, batch_size: int, round_idx: int, retry,
                 rates: dict, pages_dir: str, images_dir: str, pieces,
                 *blocks):
    """One fetch task: its rows of the granted blocks (``pieces``, see
    :func:`_piece_rows`) through the fetch stage, unruled rows
    ``batch_size`` per call and the rows of ruled hosts paced by
    :func:`_paced`; then every file of its pages: their checkpoint
    rows as one file, and their new images as one fragment per
    ``_IMAGE_CHUNK_ROWS`` candidates (``images`` dedups, fetches and
    decodes one chunk per call).  Each name follows from the round and
    the task's minimum url_hash alone, so a retried task overwrites its
    own files instead of duplicating rows.  Returns the pages'
    next-frontier rows and the counters the driver folds (next, ok,
    retried, per-host error counts, pacing)."""
    rows = pa.concat_tables([_piece_rows(rates, p, b)
                             for p, b in zip(pieces, blocks)])
    nxt, ok, retried, errors, done = [], 0, 0, [], []

    def fetch(batch: pa.Table) -> None:
        nonlocal ok, retried
        pages = stage(batch)
        requeue = retry(pages)
        nxt.extend([_explode_links(pages), requeue])
        ok += _ok_rows(pages).num_rows
        retried += requeue.num_rows
        errors.append(_host_error_counts(pages))
        done.append(pages)

    ruled = _is_ruled(rates, rows["host"])
    unruled = rows.filter(pc.invert(ruled))
    for off in range(0, unruled.num_rows, batch_size):
        fetch(unruled.slice(off, batch_size))
    pacing = _paced(rows.filter(ruled), rates, fetch)
    if rows.num_rows:
        pages = pa.concat_tables(done)
        part = f"fused-{round_idx}-{pc.min(rows['url_hash']).as_py():016x}"
        pq.write_table(
            pages.drop_columns(["links", "img_srcs", "img_captions"]),
            Path(pages_dir, f"round={round_idx}",
                 f"{part}-{rows.num_rows}.parquet"))
        cand = explode_images(pages)
        img_dir = Path(images_dir, f"round={round_idx}")
        if cand.num_rows:
            img_dir.mkdir(parents=True, exist_ok=True)
        for off in range(0, cand.num_rows, _IMAGE_CHUNK_ROWS):
            imgs = images(cand.slice(off, _IMAGE_CHUNK_ROWS))
            if imgs.num_rows:
                pq.write_table(imgs, img_dir / f"{part}-"
                               f"{off // _IMAGE_CHUNK_ROWS}.parquet")
    nxt = pa.concat_tables(nxt)
    return nxt, {"next": nxt.num_rows, "ok": ok, "retried": retried,
                 "errors": pa.concat_tables(errors), "pacing": pacing}


def _write_block(path: str, pieces, *blocks) -> None:
    """One writer task: its span of the next frontier as one file
    (each piece's ``view`` maps its block to frontier rows)."""
    pq.write_table(pa.concat_tables([
        (view(b) if view is not None else b).slice(lo, hi - lo)
        for (view, lo, hi), b in zip(pieces, blocks)]), path)


# -- round-partitioned checkpoints --------------------------------------------

def _round_of(path) -> int:
    """R of a ``round=R`` dir, or of the dir of a file in one."""
    path = Path(path)
    name = path.name if path.name.startswith("round=") else path.parent.name
    return int(name.split("=", 1)[1])


def round_files(base) -> List[str]:
    """Every file of the ``round=R`` dirs under ``base``, in (R, name)
    order."""
    return [str(f) for d in sorted(Path(base).glob("round=*"), key=_round_of)
            for f in sorted(d.glob("*.parquet"))]


def _widen(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Strings as ``string``; integers but uint64 as ``int64``."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return col.cast(pa.string())
    if pa.types.is_integer(col.type) and col.type != pa.uint64():
        return col.cast(pa.int64())
    return col


def read_rounds(source, columns: Sequence[str], schema: pa.Schema):
    """A Dataset of the crawl's round-partitioned files: ``columns`` of
    every file plus ``round`` (int64, from the file's ``round=R`` dir),
    placed where ``columns`` names it, else last.  Strings come back as
    ``string``, integers but ``uint64`` as ``int64``.  ``source`` is a
    round-partitioned dir or a list of its files (the Lance manifest's
    fragments).  One task per 4 files, each reading only the named
    columns.  ``schema`` is the writer's: with no file to read, the
    Dataset is empty but typed from it."""
    import ray.data as rd
    files = (round_files(source) if isinstance(source, (str, Path))
             else list(source))
    names = list(columns) if "round" in columns else [*columns, "round"]
    read = [c for c in names if c != "round"]

    def typed(t: pa.Table, round_idx: int) -> pa.Table:
        cols = {c: _widen(t[c]) for c in read}
        cols["round"] = pa.array(np.full(t.num_rows, round_idx, np.int64))
        return pa.table({c: cols[c] for c in names})

    def read_files(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            typed(pq.read_table(f, columns=read), _round_of(f))
            for f in batch["path"].to_pylist()])

    if not files:
        return rd.from_arrow(typed(schema.empty_table(), 0))
    return rd.from_items([{"path": f} for f in files]).map_batches(
        read_files, batch_format="pyarrow", batch_size=4)


class CrawlRun:
    """Driver for one crawl (resumable)."""

    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg
        # task counts follow row counts, at most 8 tasks per cpu
        self.max_tasks = 8 * int(ray.cluster_resources().get("CPU", 8))
        self.out = Path(cfg.out_dir)
        self.frontier_dir = self.out / "frontier"
        self.pages_dir = self.out / "pages"
        self.images = LanceLayoutTable(str(self.out / "images_lance"))
        self.metrics: List[dict] = []
        # every state family's logical shards on one actor per node,
        # leased from the session's pool of warm hosts
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

    def shutdown(self, release: bool = True):
        """Return this run's state hosts to the session's pool, where
        the next run leases and resets them instead of starting new
        actor processes.  ``release=False`` kills them instead: after
        a failed run, tasks it left running may still call them."""
        if release:
            release_state_hosts(self.state_hosts)
        else:
            for actor in self.state_hosts:
                ray.kill(actor)
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
                if _round_of(d) >= min_round:
                    shutil.rmtree(d, ignore_errors=True)

        purge(self.pages_dir, start_round)
        purge(self.frontier_dir, start_round + 1)
        if self.images.exists():
            def keep(name: str) -> bool:
                return (not name.startswith("round=")
                        or _round_of(name) < start_round)
            self.images.rollback_fragments(
                keep, metadata={"rollback_before_round": start_round})
        purge(self.images.data_dir, start_round)

    def _per_group(self, fn, items: list, num_returns: int = 1) -> list:
        """``fn(group)`` in one plain task per contiguous group of
        ``items``; returns the tasks' refs."""
        return [_task.options(num_returns=num_returns).remote(
            fn, [items[j] for j, _, _ in span]) for span in
            _spans([1] * len(items), min(len(items), self.max_tasks))]

    def _page_files(self, upto_round: int) -> List[str]:
        return [f for f in round_files(self.pages_dir)
                if _round_of(f) < upto_round]

    def _reseed_host_errors(self, upto_round: int):
        """Rebuild the dead-host error counters from the committed
        page checkpoints (resume): the round's own per-block error
        fold in tasks over groups of files, reading two columns — only
        the tiny (host, n) rows reach the driver."""
        def counts(group):
            return pa.concat_tables([_host_error_counts(
                pq.read_table(f, columns=["host", "status"]))
                for f in group])
        files = self._page_files(upto_round)
        if files:
            self._absorb_host_errors(pa.concat_tables(
                ray.get(self._per_group(counts, files))))

    def _absorb_host_errors(self, counts: pa.Table):
        """Fold per-host error counts into the dead-host counters
        (bans apply from the NEXT round's admission)."""
        for host, n in zip(counts["host"].to_pylist(),
                           counts["n"].to_pylist()):
            self._host_errors[host] = self._host_errors.get(host, 0) + n
        budget = self.cfg.host_error_budget
        self._banned_hosts = frozenset(
            h for h, n in self._host_errors.items() if n >= budget)

    def _reseed_filters(self, upto_round: int):
        """Rebuild seen state from committed checkpoints (resume).

        ALL replayed state streams task-parallel: groups of parquet
        files are read in tasks and their hashes pushed to the state
        hosts in batches (``SeenFilter.add_futures``: one RPC per host)
        — the driver never materializes a column.  At 10^10-URL scale
        a resume replays billions of page hashes and image URLs; any
        ``to_table()`` here would be a driver OOM."""
        def replay(files, columns, make_hashes, seen):
            def push(group):
                for f in group:
                    t = pq.read_table(f, columns=columns)
                    for off in range(0, t.num_rows, 16384):
                        _slices, futs = seen.add_futures(
                            make_hashes(t.slice(off, 16384)))
                        if futs:
                            rpc_get(futs)

            ray.get(self._per_group(push, files))

        def page_hashes(t: pa.Table) -> np.ndarray:
            uh = t["url_hash"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            # redirect finals were test-and-set during the fetch —
            # replay the nonzero ones alongside the requested URLs
            fh = t["final_hash"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            return np.concatenate([uh, fh[fh != 0]])
        replay(self._page_files(upto_round), ["url_hash", "final_hash"],
               page_hashes, self.seen)

        def img_hashes(t: pa.Table) -> np.ndarray:
            col = t.column("src_url").to_pylist()
            return np.fromiter((url_hash64("img|" + u) for u in col),
                               dtype=np.uint64, count=len(col))
        replay(self.images.fragment_files(), ["src_url"], img_hashes,
               self.img_seen)
        # frontier seen_ok rows were already admitted
        def frontier_hashes(t: pa.Table) -> np.ndarray:
            ok = t.column("seen_ok").to_numpy(zero_copy_only=False) \
                .astype(bool)
            urls = [u for u, m in zip(t.column("url").to_pylist(), ok) if m]
            return np.fromiter((url_hash64(u) for u in urls),
                               dtype=np.uint64, count=len(urls))
        replay([f for f, _ in self._frontier_files(upto_round)],
               ["url", "seen_ok"], frontier_hashes, self.seen)

    # -- frontier checkpoints ----------------------------------------------
    def _write_frontier(self, round_idx: int, parts: list) -> int:
        """Write a frontier checkpoint from ``(ref, rows, view)`` parts
        (``view`` maps the block to its ``FRONTIER_SCHEMA`` rows; None:
        the block already is).  Writer tasks write row-balanced spans,
        one file each of at least ``_MIN_FRONTIER_FILE_ROWS`` rows (a
        small round is one file), so a round's URLs never pass through
        the driver.  Returns the checkpoint's row count; an empty one
        leaves no dir."""
        d = self.frontier_dir / f"round={round_idx}"
        if d.exists():  # stale partial write from a crashed run
            shutil.rmtree(d)
        parts = [p for p in parts if p[1]]
        n = sum(p[1] for p in parts)
        if not n:
            return 0
        d.mkdir(parents=True)
        n_files = max(1, min(n // _MIN_FRONTIER_FILE_ROWS, self.max_tasks))
        ray.get([_task.remote(
            _write_block, str(d / f"part-{i}.parquet"),
            [(parts[j][2], lo, hi) for j, lo, hi in span],
            *[parts[j][0] for j, _, _ in span])
            for i, span in enumerate(_spans([p[1] for p in parts],
                                            n_files))])
        return n

    def _seed_round0(self) -> None:
        seeds = self.cfg.seeds
        n = len(seeds)
        parts = [(ray.put(_frontier_table(seeds, [""] * n, [0] * n,
                                          [0.0] * n, [0] * n)), n, None)]
        if self.cfg.sitemap_seeds:
            parts += self._sitemap_rows(seeds)
        self._write_frontier(0, parts)

    def _sitemap_rows(self, seeds: List[str]) -> list:
        """Distributed sitemap ingest of the seed hosts -> extra
        round-0 frontier parts (one task per group of hosts)."""
        from ..rulevm.request import get_host
        from ..rulevm.urlutil import canonicalize_url
        from .sitemap import make_ingest_stage, seed_priority

        hosts = sorted({get_host(canonicalize_url(u), "")
                        for u in seeds} - {""})
        if not hosts:
            return []
        seed_canon_ref = ray.put(
            frozenset(canonicalize_url(u) for u in seeds))
        web_cfg = dict(self.cfg.web_config)
        ingest = make_ingest_stage(web_cfg)

        def to_frontier(group):
            seed_canon = ray.get(seed_canon_ref)
            urls, parents, prios = [], [], []
            for row in ingest(pa.table({"host": group})).to_pylist():
                if canonicalize_url(row["url"]) in seed_canon:
                    continue
                urls.append(row["url"])
                parents.append(row["sitemap_url"])
                prios.append(seed_priority(row["priority_bp"]))
            n = len(urls)
            return (_frontier_table(urls, parents, [0] * n, prios, [0] * n),
                    n)

        refs = self._per_group(to_frontier, hosts, num_returns=2)
        return [(t, n, None) for (t, _), n
                in zip(refs, ray.get([n for _, n in refs]))]

    def _frontier_files(self, round_idx: int) -> list:
        """Round ``round_idx``'s frontier files with their row counts
        (footer reads only)."""
        fdir = self.frontier_dir / f"round={round_idx}"
        return [(str(f), pq.read_metadata(f).num_rows)
                for f in sorted(fdir.glob("*.parquet"))]

    def _admit(self, files: list, admit, deferred) -> list:
        """Admit tasks over row ranges of the frontier files, each at
        least ``_ADMIT_BLOCK_ROWS`` rows; returns per task (clipped
        ref, deferred ref, (rows, granted, paced, deferred))."""
        counts = [n for _, n in files]
        n_tasks = max(1, min(sum(counts) // _ADMIT_BLOCK_ROWS,
                             self.max_tasks))
        tasks = [_task.options(num_returns=3).remote(
            _admit_block, admit, self._grant_fn, self._count_fn, deferred,
            [(files[j][0], lo, hi) for j, lo, hi in span])
            for span in _spans(counts, n_tasks)]
        return [(b, d, c) for (b, d, _), c
                in zip(tasks, ray.get([c for _, _, c in tasks]))]

    def _grant(self, clipped: list) -> list:
        """The politeness grant over the admit tasks' clipped blocks
        ``(ref, rows, granted, paced)``.  A host's pending rows must
        meet in one call: a single block holds them all, so its clip is
        the grant; more blocks are exchanged on host and the same grant
        runs once per bucket.  Returns the grant's non-empty blocks in the same
        form."""
        from ..stages.combine import exchange_refs
        if len(clipped) <= 1:
            return clipped
        outs = exchange_refs([[(b, n) for b, n, _, _ in clipped]],
                             ["host"], self._grant_fn, count=self._count_fn)
        return [(o, *c) for o, c in outs if c[0]]

    def _fetch(self, decided: list, round_idx: int, stage, images,
               retry) -> list:
        """Fetch + rule-VM parse in plain tasks (the fetch and image
        stages are cached per worker process): unruled granted rows in
        balanced spans, and each ruled host's rows whole in one task.
        Each task also writes its pages' checkpoint file and image
        fragments.  Returns per task its next-frontier ref and
        counters."""
        # the dir exists even for an all-empty round, so resume replay
        # and the round readers see a committed round
        (self.pages_dir / f"round={round_idx}").mkdir(parents=True,
                                                      exist_ok=True)
        # 8 tasks per cpu at most — at 4x a giant round ran as ~4 waves
        # of ~15s tasks and the straggler tail idled a measurable slice
        # of the machine (A/B'd at 32 cpus).  Spans hold whole batches
        bs = self.cfg.fetch_batch_size
        unruled = [g - sum(p.values()) for _, _, g, p in decided]
        n_tasks = max(1, min(-(-sum(unruled) // bs), self.max_tasks))
        spans = [[(j, (None, lo, hi)) for j, lo, hi in span]
                 for span in _spans(unruled, n_tasks, bs)
                 ] if sum(unruled) else []
        # ruled hosts, dealt whole over at most one task per cpu: a
        # paced task mostly sleeps, and the hosts it holds share its
        # sleeps, so fewer, fuller paced tasks all run at once
        ruled = sorted((h, j, n) for j, (_, _, _, p) in enumerate(decided)
                       for h, n in p.items())
        n_paced = min(len(ruled), self.max_tasks // 8)
        for i in range(n_paced):
            pieces: Dict[int, tuple] = {}
            for h, j, n in ruled[i::n_paced]:
                hosts, _, rows = pieces.get(j, ((), 0, 0))
                pieces[j] = (hosts + (h,), 0, rows + n)
            spans.append(sorted(pieces.items()))
        tasks = [_task.options(num_returns=2).remote(
            _fetch_block, stage, images, bs, round_idx, retry,
            self.cfg.host_rates, str(self.pages_dir),
            str(self.images.data_dir), [p for _, p in span],
            *[decided[j][0] for j, _ in span]) for span in spans]
        return list(zip((t for t, _ in tasks),
                        ray.get([c for _, c in tasks])))

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
        from ..stages.taskcache import cached_stage
        cfg = self.cfg
        self.out.mkdir(parents=True, exist_ok=True)
        self.rule_pack_ref = ray.put(rule_pack)
        start_round = 0
        state = self._load_state() if resume else None
        self._host_errors: Dict[str, int] = {}
        self._banned_hosts: frozenset = frozenset()
        if state:
            start_round = state["next_round"]
            self.metrics = state["metrics"]
            self._rollback_uncommitted(start_round)
        else:
            self._seed_round0()
        # a started state host's start (a fresh worker process) overlaps
        # the steps above and is paid here, outside every round's clock;
        # it must be placed before the first task that calls it
        # (start_state_hosts), and every step below starts such tasks
        t_ramp = time.perf_counter()
        ray.get(self.state_hosts.ready)
        state_ramp_s = round(time.perf_counter() - t_ramp, 3)
        if state:
            self._reseed_filters(start_round)
            if cfg.host_error_budget > 0:
                self._reseed_host_errors(start_round)

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
        self._count_fn = functools.partial(_grant_counts, cfg.host_rates)
        stage = cached_stage(FetchParseStage,
                             rule_pack_ref=self.rule_pack_ref,
                             web_config=cfg.web_config,
                             max_redirects=cfg.max_redirects,
                             seen=self.seen, robots=self.robots)
        images = cached_stage(ImageFetchStage, web_config=cfg.web_config,
                              seen=self.img_seen)

        for r in range(start_round, cfg.max_rounds):
            files = self._frontier_files(r)
            n_candidates = sum(n for _, n in files)
            if not n_candidates:
                break
            t0 = time.perf_counter()
            phase_t: Dict[str, float] = {}

            def _mark(name, _last=[t0]):
                now = time.perf_counter()
                phase_t[name] = round(now - _last[0], 3)
                _last[0] = now

            # -- admit + politeness grant --------------------------------
            admit = _chain(
                _readiness(r, True), canonicalize_batch, trap_filter,
                (_drop_hosts(self._banned_hosts)
                 if self._banned_hosts else None),
                seen_stage)
            admitted = self._admit(files, admit, _readiness(r, False))
            decided = self._grant([(b, *c[:3]) for b, _, c in admitted
                                   if c[0]])
            n_deferred = sum(c[3] for _, _, c in admitted)
            n_decided = sum(d[1] for d in decided)
            n_granted = sum(d[2] for d in decided)
            _mark('grant')
            if n_granted == 0 and not n_deferred:
                break

            # -- fetch + parse; page checkpoint and images inside -------
            retry = _make_retry(cfg.max_fetch_retries, r, cfg.round_seconds,
                                cfg.honor_retry_after)
            fetched = self._fetch(decided, r, stage, images, retry)
            _mark('fetch_parse')
            if cfg.host_error_budget > 0 and fetched:
                self._absorb_host_errors(pa.concat_tables(
                    [c["errors"] for _, c in fetched]))
            # the page checkpoint is written inside the fetch tasks
            _mark('pages_write')
            n_images = self._commit_images(r)
            _mark('images')

            # -- next frontier: links + retries, backlog, deferred -------
            n_next = self._write_frontier(r + 1, [
                *((t, c["next"], None) for t, c in fetched),
                *((b, n - g, _backlog_rows) for b, n, g, _ in decided),
                *((d, c[3], None) for _, d, c in admitted)])
            _mark('frontier_next')
            self.metrics.append({
                "round": r,
                "candidates": n_candidates,
                "granted": n_granted,
                "backlog": n_decided - n_granted,
                "pages_ok": sum(c["ok"] for _, c in fetched),
                "retried": sum(c["retried"] for _, c in fetched),
                "deferred": n_deferred,
                "images_written": n_images,
                "next_frontier": n_next,
                "sec": round(time.perf_counter() - t0, 3),
                "phases": phase_t,
            })
            if cfg.host_rates:
                hosts, requests, gaps = zip(
                    (0, 0, None), *(c["pacing"] for _, c in fetched))
                self.metrics[-1]["pacing"] = {
                    "hosts": sum(hosts), "requests": sum(requests),
                    "min_gap_s": min([g for g in gaps if g is not None],
                                     default=None)}
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
            "state_hosts": {
                "started": self.state_hosts.started,
                "reused": len(self.state_hosts) - self.state_hosts.started},
            "per_round": self.metrics,
        }
        (self.out / "metrics.json").write_text(json.dumps(totals, indent=1))
        return totals


def run_crawl(cfg: CrawlConfig, rule_pack: dict, resume: bool = True) -> dict:
    run = CrawlRun(cfg)
    try:
        totals = run.run(rule_pack, resume=resume)
    except BaseException:
        run.shutdown(release=False)
        raise
    run.shutdown()
    return totals
