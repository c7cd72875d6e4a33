"""Crawl-scheduler query surfaces beyond the loop itself, and the
harness's crawl fixture.

The fixture: every crawl-backed harness query reads one of a few
memoized crawls of the sf-scaled synthetic web, and every
crawl-backed oracle reads the sequential BFSOracle run of the same
variant.  ``HARNESS_VARIANTS`` holds each variant's inputs once (web
override + the CrawlConfig override its oracle mirrors); the crawl
and its oracle share those inputs and nothing else.

The north rule keys the URL-seen set by *canonicalized-URL hash*
(rulevm/urlutil.py — the crawl's ``canonicalize_batch`` canonicalizes
every frontier row before the seen anti-join).  ``crawl_url_canon``
puts that canonicalizer under a value-check: deterministic MESSY
variants of every fetched URL (case-shifted scheme/host, default :80
port, unsorted query with a blank-value param, fragments, empty path)
run through the production ``canonicalize_url`` distributed, and a
DuckDB twin constructs the same variants plus the EXPECTED canonical
form with independent SQL string arithmetic — if the canonicalizer
drifts on any rule (port strip, query sort, blank-value keep,
fragment drop, empty-path slash), the hash compare goes red.

The Ray side deliberately does NOT dedup its input: page-checkpoint
URLs are unique by the crawl's seen-set invariant, while the twin
SELECTs DISTINCT — so this check ALSO pins "no URL fetched twice"
(a duplicate fetch would surface as a row-count mismatch).
"""

from __future__ import annotations

import hashlib
import re
import shutil
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.crawl_stages import PAGE_SCHEMA


def _sf_tag(sf_dir: str) -> str:
    return Path(sf_dir).name or "sf0.01"


_CRAWL_BY_SF = {"sf0.001": dict(num_hosts=3, base_pages=8, fanout=2,
                                hot_factor=3.0),
                "sf0.01": dict(num_hosts=6, base_pages=12, fanout=3,
                               hot_factor=5.0),
                "sf0.1": dict(num_hosts=16, base_pages=40, fanout=3,
                              hot_factor=10.0)}

_CRAWL_BUDGET = 6
_CRAWL_ROUNDS = 40
_RESUME_INTERRUPT_ROUND = 2

# variant -> (web override, CrawlConfig override its oracle mirrors).
# "resume" is "base" in a fresh dir, interrupted after
# _RESUME_INTERRUPT_ROUND rounds and resumed.  "redirect" turns on
# legacy-URL aliases dense enough that single hops, two-hop chains,
# RedirectDuplicates, robots-blocked hops and the /loopx cycle all
# occur at every sf, with sitemap seeding (sitemaps advertise
# CANONICAL URLs while links use legacy forms).  "trap" links an
# infinite /trap/x/x/... chain from every root; "robots_rfc" serves
# RFC 9309 wildcard robots files; "deadhost" serves permanent 503s on
# ~1/3 of pages so hosts cross the error budget.
HARNESS_VARIANTS = {
    "base": ({}, {}),
    "resume": ({}, {}),
    "redirect": (dict(redirect_rate=0.4), dict(sitemap_seeds=True)),
    "trap": (dict(trap_links=True),
             dict(max_path_repeats=2, max_depth=0, max_url_len=0)),
    "robots_rfc": (dict(robots_wildcards=True), {}),
    "deadhost": (dict(flaky_mod=3, flaky_attempts=99),
                 dict(host_error_budget=4)),
}


def _web_cfg(variant: str, tag: str, **over) -> dict:
    return dict(_CRAWL_BY_SF.get(tag, _CRAWL_BY_SF["sf0.01"]),
                **HARNESS_VARIANTS[variant][0], **over)


def harness_crawl(variant: str, tag: str):
    """The distributed crawl of ``variant`` at ``tag``, once per
    process: (out_dir, totals)."""
    from .sharedcache import memo
    return memo(("harness_crawl", variant, tag),
                lambda: _run_harness_crawl(variant, tag))


def _run_harness_crawl(variant: str, tag: str):
    from ..crawl.loop import CrawlConfig, run_crawl
    from ..sources.synthweb import SynthWeb

    web_cfg = _web_cfg(variant, tag)
    web = SynthWeb(**web_cfg)
    out = f"/tmp/uniparser_ray_cache/crawl_{variant}_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    base = dict(web_config=web_cfg, out_dir=out, seeds=web.seed_urls(),
                per_host_budget=_CRAWL_BUDGET, seen_shard_bits=3,
                **HARNESS_VARIANTS[variant][1])
    resume = variant == "resume"
    if resume:
        run_crawl(CrawlConfig(max_rounds=_RESUME_INTERRUPT_ROUND, **base),
                  web.rule_pack())
    totals = run_crawl(CrawlConfig(max_rounds=_CRAWL_ROUNDS, **base),
                       web.rule_pack(), resume=resume)
    return out, totals


def harness_oracle(variant: str, tag: str) -> dict:
    """The sequential BFSOracle run over ``variant``'s web and config,
    once per process (``BFSOracle.run``'s result dict)."""
    from .sharedcache import memo
    return memo(("harness_oracle", variant, tag),
                lambda: _run_harness_oracle(variant, tag))


def _run_harness_oracle(variant: str, tag: str) -> dict:
    from ..crawl.oracle import BFSOracle
    from ..sources.synthweb import SynthWeb

    web = SynthWeb(**_web_cfg(variant, tag))
    cfg = dict(HARNESS_VARIANTS[variant][1])
    sitemap_seeds = cfg.pop("sitemap_seeds", False)
    oracle = BFSOracle(web, web.rule_pack(), per_host_budget=_CRAWL_BUDGET,
                       **cfg)
    return oracle.run(web.seed_urls(), max_rounds=_CRAWL_ROUNDS,
                      sitemap_seeds=sitemap_seeds)


def _schedule_rows(variant: str, tag: str, columns) -> pa.Table:
    """The oracle run's fetch schedule: ``columns`` of one
    (url, round, depth, status) row per fetched URL."""
    res = harness_oracle(variant, tag)
    fetched = [(u, r["round"]) for r in res["rounds"] for u in r["fetched"]]
    cols = {"url": pa.array([u for u, _ in fetched], pa.string()),
            "round": pa.array([r for _, r in fetched], pa.int64()),
            "depth": pa.array([res["depths"][u] for u, _ in fetched],
                              pa.int64()),
            "status": pa.array([res["pages"][u][0] for u, _ in fetched],
                               pa.int64())}
    return pa.table({c: cols[c] for c in columns})


def _read_pages(out: str, columns):
    """``columns`` (and ``round``) of a crawl's page checkpoints."""
    from ..crawl.loop import read_rounds
    return read_rounds(f"{out}/pages", columns, PAGE_SCHEMA)


def _variants(df: pd.DataFrame) -> pd.DataFrame:
    """Deterministic messy variants, vectorized string arithmetic only
    (the SQL twin mirrors this construction exactly).  variant_id:
      0 identity            3 mixed-case scheme + fragment
      1 upper host + :80    4 empty path (root URLs only)
      2 unsorted query (blank-value param) + fragment
    """
    url = df["url"]
    if not url.str.startswith("http://").all():
        raise ValueError("crawl_url_canon expects http:// page URLs")
    sp = url.str.slice(7).str.split("/", n=1)
    host, path = sp.str[0], "/" + sp.str[1]

    def frame(vid: int, messy: pd.Series, mask=None) -> pd.DataFrame:
        out = pd.DataFrame({"url": url, "variant_id": vid,
                            "messy_url": messy})
        return out if mask is None else out[mask]

    parts = [
        frame(0, url),
        frame(1, "HTTP://" + host.str.upper() + ":80" + path),
        frame(2, url + "?b=2&a=1&c=#frag"),
        frame(3, "hTtP://" + host + path + "#sec"),
        frame(4, "http://" + host, mask=(path == "/")),
    ]
    out = pd.concat(parts, ignore_index=True)
    out["variant_id"] = out["variant_id"].astype("int64")
    return out


def _canon_stage(t: pa.Table) -> pa.Table:
    """Canonicalization — the same per-URL code the crawl's
    ``canonicalize_batch`` runs on every frontier row.  Stateless (the
    canonicalizer is a pure function, no model/index to load), so a
    plain task-based map_batches: no actor ramp."""
    from ..rulevm.urlutil import canonicalize_url
    canon = [canonicalize_url(m) for m in t["messy_url"].to_pylist()]
    return t.append_column("canon_url", pa.array(canon, pa.string()))


def _read_pages_hashed(out: str):
    """Task-parallel pruned read of round-partitioned page checkpoints
    -> (url, round, status, content_md5); result_json never reaches
    the driver (hashed where read)."""
    def hashed(t: pa.Table) -> pa.Table:
        md5s = [hashlib.md5((s or "").encode()).hexdigest()
                for s in t["result_json"].to_pylist()]
        return t.drop_columns(["result_json"]).append_column(
            "content_md5", pa.array(md5s, pa.string()))

    return _read_pages(out, ["url", "round", "status", "result_json"]) \
        .map_batches(hashed, batch_format="pyarrow")


def crawl_resume_roundtrip(sf_dir: str):
    """The north rule's 'resumes from per-partition checkpoints'
    claim as a VALUE check: a second crawl of the same web is killed
    after round 2's checkpoint commit and resumed from `_state.json` +
    the committed round partitions (seen shards replayed task-parallel,
    frontier reloaded from its checkpoint) — its final per-page output
    (url, round, status, md5(result_json)) must equal the UNINTERRUPTED
    harness run's, which the DuckDB twin reads directly from the
    latter's checkpoint files.  Two independent runs, one interrupted:
    equality pins that resume loses nothing, refetches nothing, and
    reproduces the exact round-by-round schedule (round rides the
    compare, so a resumed run that reshuffles work across rounds goes
    red even if the page set matches)."""
    tag = _sf_tag(sf_dir)
    harness_crawl("base", tag)  # the twin's input: the uninterrupted run
    out, _totals = harness_crawl("resume", tag)
    return _read_pages_hashed(out)


def crawl_redirects(sf_dir: str):
    """3xx semantics under a value oracle: a redirect-enabled crawl's
    per-page (url, round, status, final_url, redirects, is_dup) rows —
    covering inline 301/302 chains (relative + absolute Location),
    canonical-final seen dedup (is_dup marks the losing legacy fetch),
    redirect loops (-2) and robots-blocked hops (-3) — must equal the
    sequential conformance crawler's model of the same web.  One
    projection-pruned task-parallel read of the pages checkpoints; the
    round rides the compare so redirect handling that shifts WHEN a
    page is fetched goes red too."""
    def dup(t: pa.Table) -> pa.Table:
        is_dup = pc.equal(t["error"], "RedirectDuplicate")
        return t.drop_columns(["error"]).append_column(
            "is_dup", pc.fill_null(is_dup, False).cast(pa.int64()))

    out, _totals = harness_crawl("redirect", _sf_tag(sf_dir))
    return _read_pages(out, [
        "url", "round", "status", "final_url", "redirects", "error"]) \
        .map_batches(dup, batch_format="pyarrow")


def expected_crawl_redirects(tag: str) -> pa.Table:
    """Generator-side twin: the single-process BFSOracle (an
    independent sequential implementation of the same crawl + redirect
    semantics) run over the identical web/config."""
    res = harness_oracle("redirect", tag)
    url_round = {u: r["round"] for r in res["rounds"] for u in r["fetched"]}
    rows = []
    for url, (status, _body) in res["pages"].items():
        fc, hops = res["finals"].get(url, ("", 0))
        rows.append({"url": url, "round": url_round[url],
                     "status": status, "final_url": fc,
                     "redirects": hops,
                     "is_dup": 1 if url in res["redirect_dups"] else 0})
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("round", pa.int64()),
        ("status", pa.int64()), ("final_url", pa.string()),
        ("redirects", pa.int64()), ("is_dup", pa.int64())]))


def crawl_url_canon(sf_dir: str):
    """Value-check the frontier's URL canonicalizer: messy variants of
    every fetched URL must canonicalize back to the SQL-predicted
    form.  One projection-pruned read of the pages checkpoints, no
    shuffle — variants and canonicalization are row-local."""
    out, _totals = harness_crawl("base", _sf_tag(sf_dir))
    return (_read_pages(out, ["url"]).drop_columns(["round"])
              .map_batches(_variants, batch_format="pandas")
              .map_batches(_canon_stage, batch_format="pyarrow"))


def crawl_sitemap_ingest(sf_dir: str):
    """Sitemap discovery + ingest as a distributed pipeline: every
    host of the crawl's web fans out as a Dataset row, each task runs
    robots.txt discovery -> sitemap fetch (following <sitemapindex>
    chunk files on big hosts) -> one regex sweep per XML blob, and
    emits (host, sitemap_url, url, lastmod, priority_bp) rows.

    Oracle: expected rows come from the generator's PURE entry list
    (sources/synthweb.sitemap_entries — no XML involved), so the value
    compare proves the whole render -> robots-discovery -> chunked
    fetch -> parse chain, including lastmod/priority defaults for
    entries whose optional tags are omitted."""
    return _sitemap_ingest(_web_cfg("base", _sf_tag(sf_dir)))


def _sitemap_ingest(web_cfg: dict):
    """Every host of ``web_cfg``'s web as a Dataset row, run through
    the sitemap ingest stage."""
    import ray.data as rd

    from ..crawl.sitemap import make_ingest_stage
    from ..sources.synthweb import SynthWeb

    web = SynthWeb(**web_cfg)
    hosts = rd.from_items([{"host": web.host_name(h)}
                           for h in range(web.num_hosts)],
                          override_num_blocks=min(web.num_hosts, 16))
    return hosts.map_batches(make_ingest_stage(web_cfg),
                             batch_format="pyarrow", batch_size=4)


def _sitemap_entries(web):
    """(host, sitemap_url, url, lastmod, priority_bp) per advertised
    entry of every host, sitemap_url from the chunk layout arithmetic."""
    for h in range(web.num_hosts):
        entries = web.sitemap_entries(h)
        host = web.host_name(h)
        chunked = len(entries) > web.SITEMAP_CHUNK
        for i, (url, lastmod, prio_bp) in enumerate(entries):
            sm = (f"http://{host}/sitemap-{i // web.SITEMAP_CHUNK}.xml"
                  if chunked else f"http://{host}/sitemap.xml")
            yield host, sm, url, lastmod, prio_bp


def expected_sitemap_rows(tag: str):
    """Generator-side twin for the crawl_sitemap_ingest oracle: the
    same rows from sitemap_entries() directly (never rendered to XML),
    with sitemap_url derived from the chunk layout arithmetic."""
    from ..sources.synthweb import SynthWeb

    web = SynthWeb(**_web_cfg("base", tag))
    rows = [{"host": host, "sitemap_url": sm, "url": url,
             "lastmod": lastmod, "priority_bp": prio_bp}
            for host, sm, url, lastmod, prio_bp in _sitemap_entries(web)]
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("host", pa.string()), ("sitemap_url", pa.string()),
        ("url", pa.string()), ("lastmod", pa.string()),
        ("priority_bp", pa.int64())]))


def crawl_sitemap_seed(sf_dir: str):
    """Sitemap SEEDING under a value oracle (companion to
    ``crawl_sitemap_ingest``, which checks discovery+parse): the
    round-0 frontier checkpoint of the sitemap-seeded crawl must hold
    exactly the explicit seeds (parent "", priority 0.0) plus every
    generator-advertised sitemap URL that is not itself a seed, each
    carrying its sitemap chunk file as lineage parent and the
    priority-bp -> (0,1) frontier priority mapping
    (crawl/sitemap.seed_priority) at depth 0.  One projection-pruned
    read of the checkpoint files — seeding correctness is proven from
    the engine's own durable artifact, not from in-memory state."""
    from ..crawl.loop import FRONTIER_SCHEMA, read_rounds

    out, _totals = harness_crawl("redirect", _sf_tag(sf_dir))
    files = [str(f) for f in
             sorted(Path(out, "frontier", "round=0").glob("*.parquet"))]

    def project(t: pa.Table) -> pa.Table:
        return t.select(["url", "parent", "depth", "priority"]).set_column(
            3, "priority", t["priority"].cast(pa.float64()))

    return read_rounds(files, ["url", "parent", "depth", "priority"],
                       FRONTIER_SCHEMA) \
        .map_batches(project, batch_format="pyarrow")


def expected_sitemap_seed(tag: str) -> pa.Table:
    """Twin for crawl_sitemap_seed: the same rows from the generator's
    PURE entry lists (sources/synthweb.sitemap_entries — never
    rendered to XML) + the explicit seed list, with the engine's
    canonical-seed skip and f32 priority mapping reproduced
    independently (mirrors BFSOracle's sitemap seeding model,
    crawl/oracle.py)."""
    from ..crawl.sitemap import seed_priority
    from ..rulevm.urlutil import canonicalize_url
    from ..sources.synthweb import SynthWeb

    web = SynthWeb(**_web_cfg("redirect", tag))
    seeds = web.seed_urls()
    seed_canon = {canonicalize_url(u) for u in seeds}
    rows = [{"url": u, "parent": "", "depth": 0, "priority": 0.0}
            for u in seeds]
    for _host, sm, url, _lastmod, prio_bp in _sitemap_entries(web):
        if canonicalize_url(url) not in seed_canon:
            rows.append({"url": url, "parent": sm, "depth": 0,
                         "priority": seed_priority(prio_bp)})
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("parent", pa.string()),
        ("depth", pa.int64()), ("priority", pa.float64())]))


class RecrawlStage:
    """Conditional-GET delta fetch (task pool via cached_stage): each
    row carries the page's stored ETag from the epoch-0 crawl; the
    stage sends If-None-Match and emits the freshness verdict.  304 =
    validator still good (empty body, nothing re-parsed); 200 = page
    changed, new validator + content hash emitted.  At 10^10-URL scale
    this is the recrawl scheduler's cheap path: unchanged pages cost a
    header exchange, bytes only move for the changed slice."""

    def __init__(self, web_config: dict = None):
        from ..rulevm.transport import SyntheticWebAdapter
        from ..sources.synthweb import SynthWeb
        self.adapter = SyntheticWebAdapter(SynthWeb(**web_config))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib as _hl
        urls = batch["url"].to_pylist()
        etags = batch["etag"].to_pylist()
        st, ch, ne, md = [], [], [], []
        for url, etag in zip(urls, etags):
            kwargs = {"url": url, "method": "get"}
            if etag:
                kwargs["headers"] = {"If-None-Match": etag}
            text, resp = self.adapter.request(**kwargs)
            if isinstance(resp, Exception):
                st.append(-1)
                ch.append(0)
                ne.append("")
                md.append("")
                continue
            status = getattr(resp, "status_code", 200)
            st.append(status)
            ch.append(1 if status == 200 else 0)
            ne.append(resp.headers.get("ETag") or "")
            md.append(_hl.md5(text.encode()).hexdigest()
                      if status == 200 else "")
        return pa.table({
            "url": pa.array([str(u) for u in urls], pa.string()),
            "recrawl_status": pa.array(st, pa.int64()),
            "changed": pa.array(ch, pa.int64()),
            "new_etag": pa.array(ne, pa.string()),
            "content_md5": pa.array(md, pa.string())})


def crawl_recrawl_delta(sf_dir: str):
    """Freshness recrawl under a value oracle: every 200-page of the
    epoch-0 harness crawl is conditionally re-fetched (If-None-Match
    with the checkpointed ETag) against the SAME web at epoch 1, where
    a deterministic ~25% slice of pages changed.  Unchanged pages must
    come back 304 (no body), changed pages 200 with the bumped
    validator and the new content hash.  One projection-pruned read of
    the pages checkpoints -> task-pool conditional fetches; no
    shuffle, bodies only exist inside tasks for the changed slice."""
    from ..stages.taskcache import cached_stage

    tag = _sf_tag(sf_dir)
    out, _totals = harness_crawl("base", tag)
    return (_read_pages(out, ["url", "status", "etag"])
              .filter(expr="status == 200")
              .map_batches(cached_stage(RecrawlStage,
                                        web_config=_web_cfg("base", tag,
                                                            epoch=1)),
                           batch_format="pyarrow", batch_size=512))


def crawl_sitemap_recrawl(sf_dir: str):
    """Sitemap-lastmod-DRIVEN delta recrawl — the cheapest freshness
    path a real crawler has: instead of conditionally re-fetching the
    whole corpus (crawl_recrawl_delta pays one header exchange per
    unchanged page), re-read only the hosts' sitemaps and re-fetch
    exactly the pages whose advertised ``<lastmod>`` moved past the
    epoch-0 crawl horizon.  Composition: distributed sitemap ingest of
    the epoch-1 web -> vectorized post-horizon lastmod filter -> one
    bucketed url join against the epoch-0 crawl's checkpointed
    (url, etag) 200-rows (advertised-updated INTERSECT crawled) ->
    conditional-GET task pool.  Every selected page must come back 200
    with the bumped validator (the generator couples lastmod to the
    revision model exactly), and the RESULT CARDINALITY is the
    efficiency claim: fetches == changed-and-advertised pages only —
    unchanged pages cost nothing at all, not even a 304."""
    from ..stages.combine import hash_bucket_join
    from ..stages.taskcache import cached_stage

    tag = _sf_tag(sf_dir)
    out, _totals = harness_crawl("base", tag)
    web_cfg = _web_cfg("base", tag, epoch=1)

    def updated_only(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["lastmod"], "2027-")
        return t.filter(keep).select(["url"]) \
            .rename_columns(["sm_url"])

    updated = _sitemap_ingest(web_cfg).map_batches(updated_only,
                                                   batch_format="pyarrow")
    crawled = _read_pages(out, ["url", "status", "etag"]) \
        .filter(expr="status == 200")
    selected = hash_bucket_join(
        updated, crawled, "sm_url", "url",
        left_cols=["sm_url"], right_cols=["url", "status", "etag"]) \
        .map_batches(lambda t: t.select(["url", "etag"]),
                     batch_format="pyarrow")
    return selected.map_batches(
        cached_stage(RecrawlStage, web_config=web_cfg),
        batch_format="pyarrow", batch_size=512)


_PAGE_URL = re.compile(r"http://host-(\d{4})\.test(?:/page/(\d+))?/?")

_RECRAWL_SCHEMA = pa.schema([
    ("url", pa.string()), ("recrawl_status", pa.int64()),
    ("changed", pa.int64()), ("new_etag", pa.string()),
    ("content_md5", pa.string())])


def _page_hp(url: str):
    m = _PAGE_URL.fullmatch(url)
    return int(m.group(1)), int(m.group(2) or 0)


def _recrawl_row(web1, url: str, changed: bool) -> dict:
    """The expected conditional re-fetch of ``url`` on the epoch-1
    web: 200 with the new validator and the rendered page's hash when
    it changed, else 304."""
    h, p = _page_hp(url)
    md5 = (hashlib.md5(web1.render_page(h, p).encode()).hexdigest()
           if changed else "")
    return {"url": url, "recrawl_status": 200 if changed else 304,
            "changed": int(changed), "new_etag": web1.page_etag(h, p),
            "content_md5": md5}


def expected_sitemap_recrawl(tag: str) -> pa.Table:
    """Twin: pure arithmetic — {epoch-0-crawled 200 pages} INTERSECT
    {sitemap-advertised with revision bumped at epoch 1}; each row's
    status/validator/hash from the epoch-1 generator directly."""
    from ..sources.synthweb import SynthWeb

    web1 = SynthWeb(**_web_cfg("base", tag, epoch=1))
    res = harness_oracle("base", tag)
    # lastmod startswith 2027 <=> revision bumped, by construction —
    # the same predicate the engine's vectorized filter applies
    advertised = {url for _h, _sm, url, lm, _bp in _sitemap_entries(web1)
                  if lm.startswith("2027-")}
    rows = [_recrawl_row(web1, url, True)
            for url, (status, _body) in res["pages"].items()
            if status == 200 and url in advertised]
    return pa.Table.from_pylist(rows, schema=_RECRAWL_SCHEMA)


def expected_recrawl_delta(tag: str) -> pa.Table:
    """Generator-side twin: which pages changed at epoch 1 is a pure
    function of (h, p) (SynthWeb.page_rev), the new validator is the
    rev arithmetic, and the changed content hash comes from rendering
    the epoch-1 page directly — the conditional-GET chain (header
    send, 304 vs 200 branch, body decode) is what the compare tests."""
    from ..sources.synthweb import SynthWeb

    web1 = SynthWeb(**_web_cfg("base", tag, epoch=1))
    res = harness_oracle("base", tag)
    rows = [_recrawl_row(web1, url, bool(web1.page_rev(*_page_hp(url))))
            for url, (status, _body) in res["pages"].items()
            if status == 200]
    return pa.Table.from_pylist(rows, schema=_RECRAWL_SCHEMA)


def crawl_trap_guard(sf_dir: str):
    """Spider-trap guards under a value oracle: the engine crawls a
    web whose roots link an infinite /trap/x/x/... chain with the
    consecutive-path-repeat guard on, and its full (url, round, depth,
    status) schedule must equal the sequential oracle configured the
    same way — proving the guard cuts the trap at the bound (the trap
    IS entered up to it) without perturbing anything else.  One
    projection-pruned task-parallel read of the pages checkpoints."""
    out, _totals = harness_crawl("trap", _sf_tag(sf_dir))
    return _read_pages(out, ["url", "round", "depth", "status"])


def expected_trap_guard(tag: str) -> pa.Table:
    """Twin: the sequential BFSOracle with the same guards."""
    return _schedule_rows("trap", tag, ["url", "round", "depth", "status"])


def crawl_robots_rfc(sf_dir: str):
    """RFC 9309 robots semantics under a value oracle: the engine
    crawls a web whose robots files use wildcards, $ anchors, Allow
    overrides and specific-UA groups, with its REP matcher
    (longest-match precedence, Allow wins ties, UA group selection)
    in the sharded robots actors — and the full (url, round, status)
    schedule must equal the sequential oracle, which reads the SAME
    files with its own naive RFC 9309 reader.  A page one side blocks
    and the other fetches shifts the whole schedule and goes red.  One
    projection-pruned task-parallel read of the pages checkpoints."""
    out, _totals = harness_crawl("robots_rfc", _sf_tag(sf_dir))
    return _read_pages(out, ["url", "round", "status"])


def expected_robots_rfc(tag: str) -> pa.Table:
    """Twin: the sequential BFSOracle and its own RFC 9309 reader."""
    return _schedule_rows("robots_rfc", tag, ["url", "round", "status"])


def crawl_host_ban(sf_dir: str):
    """Dead-host pruning under a value oracle: the engine crawls a web
    where a deterministic slice of pages serves permanent 503s with a
    cumulative per-host error budget; hosts crossing it are banned
    from the next round's admission.  The full (url, round, status)
    schedule must equal the budget-configured sequential oracle —
    proving bans fire at exactly the right round and prune exactly the
    right frontier rows."""
    out, _totals = harness_crawl("deadhost", _sf_tag(sf_dir))
    return _read_pages(out, ["url", "round", "status"])


def expected_host_ban(tag: str) -> pa.Table:
    """Twin: the sequential BFSOracle with the same error budget."""
    return _schedule_rows("deadhost", tag, ["url", "round", "status"])
