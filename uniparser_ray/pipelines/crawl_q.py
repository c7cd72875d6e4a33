"""Crawl-scheduler query surfaces beyond the loop itself.

The north rule keys the URL-seen set by *canonicalized-URL hash*
(rulevm/urlutil.py — the crawl's AnnotateStage canonicalizes every
frontier row before the seen anti-join).  ``crawl_url_canon`` puts
that canonicalizer under a value-check: deterministic MESSY variants
of every fetched URL (case-shifted scheme/host, default :80 port,
unsorted query with a blank-value param, fragments, empty path) run
through the production ``canonicalize_url`` distributed, and a DuckDB
twin constructs the same variants plus the EXPECTED canonical form
with independent SQL string arithmetic — if the canonicalizer drifts
on any rule (port strip, query sort, blank-value keep, fragment drop,
empty-path slash), the hash compare goes red.

The Ray side deliberately does NOT dedup its input: page-checkpoint
URLs are unique by the crawl's seen-set invariant, while the twin
SELECTs DISTINCT — so this check ALSO pins "no URL fetched twice"
(a duplicate fetch would surface as a row-count mismatch).
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.crawl_stages import PAGE_SCHEMA
from .images_q import _ensure_crawl, _sf_tag


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
    AnnotateStage runs on every frontier row.  Stateless (the
    canonicalizer is a pure function, no model/index to load), so a
    plain task-based map_batches beats an actor pool: no actor ramp,
    and no 'constructor arguments in the object store' restart hazard
    the fused actor form warned about."""
    from ..rulevm.urlutil import canonicalize_url
    canon = [canonicalize_url(m) for m in t["messy_url"].to_pylist()]
    return t.append_column("canon_url", pa.array(canon, pa.string()))


_RESUME_RUNS: dict = {}
_RESUME_INTERRUPT_ROUND = 2


def _ensure_resumed_crawl(tag: str) -> str:
    """Interrupted-then-resumed twin of the harness crawl: same web,
    same config, FRESH out dir.  The first invocation stops after
    ``_RESUME_INTERRUPT_ROUND`` rounds (a simulated driver death after
    the round-N checkpoint commit); the second reloads ``_state.json``,
    replays the committed page checkpoints into the seen shards
    task-parallel, and continues to completion.  Memoized per
    (process, tag) like the harness crawl itself."""
    if tag in _RESUME_RUNS:
        return _RESUME_RUNS[tag]
    from ..crawl.loop import CrawlConfig, run_crawl
    from ..sources.synthweb import SynthWeb
    from .images_q import _CRAWL_BUDGET, _CRAWL_BY_SF, _CRAWL_ROUNDS

    web_cfg = _CRAWL_BY_SF.get(tag, _CRAWL_BY_SF["sf0.01"])
    web = SynthWeb(**web_cfg)
    out = f"/tmp/uniparser_ray_cache/crawl_resume_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    base = dict(web_config=web_cfg, out_dir=out, seeds=web.seed_urls(),
                per_host_budget=_CRAWL_BUDGET,
                seen_shard_bits=3)
    run_crawl(CrawlConfig(max_rounds=_RESUME_INTERRUPT_ROUND, **base),
              web.rule_pack())
    run_crawl(CrawlConfig(max_rounds=_CRAWL_ROUNDS, **base),
              web.rule_pack(), resume=True)
    _RESUME_RUNS[tag] = out
    return out


_CRAWL_MEMO: dict = {}


def _memo_crawl(name: str, tag: str, web_cfg: dict, **cfg) -> str:
    """One crawl per (process, name, tag) over ``web_cfg`` with the
    harness budget and rounds (``cfg`` adds CrawlConfig fields);
    returns its out dir."""
    if (name, tag) not in _CRAWL_MEMO:
        from ..crawl.loop import CrawlConfig, run_crawl
        from ..sources.synthweb import SynthWeb
        from .images_q import _CRAWL_BUDGET, _CRAWL_ROUNDS

        web = SynthWeb(**web_cfg)
        out = f"/tmp/uniparser_ray_cache/crawl_{name}_{tag}"
        shutil.rmtree(out, ignore_errors=True)
        run_crawl(CrawlConfig(web_config=web_cfg, out_dir=out,
                              seeds=web.seed_urls(),
                              max_rounds=_CRAWL_ROUNDS,
                              per_host_budget=_CRAWL_BUDGET,
                              seen_shard_bits=3, **cfg), web.rule_pack())
        _CRAWL_MEMO[name, tag] = out
    return _CRAWL_MEMO[name, tag]


def _read_pages_hashed(pages_dir: str):
    """Task-parallel pruned read of round-partitioned page checkpoints
    -> (url, round, status, content_md5); result_json never reaches
    the driver (hashed where read)."""
    from ..crawl.loop import read_rounds

    def hashed(t: pa.Table) -> pa.Table:
        md5s = [hashlib.md5((s or "").encode()).hexdigest()
                for s in t["result_json"].to_pylist()]
        return t.drop_columns(["result_json"]).append_column(
            "content_md5", pa.array(md5s, pa.string()))

    return read_rounds(pages_dir, ["url", "round", "status", "result_json"],
                       PAGE_SCHEMA).map_batches(hashed, batch_format="pyarrow")


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
    _ensure_crawl(tag)  # the twin's input: the uninterrupted run
    out = _ensure_resumed_crawl(tag)
    return _read_pages_hashed(f"{out}/pages")


# alias density for the redirect fixture web: high enough that single
# hops, two-hop chains, RedirectDuplicates (sitemap-advertised
# canonical vs legacy link), robots-blocked hops and the /loopx cycle
# ALL occur at every sf
_REDIRECT_RATE = 0.4


def _redirect_web_cfg(tag: str) -> dict:
    from .images_q import _CRAWL_BY_SF
    return dict(_CRAWL_BY_SF.get(tag, _CRAWL_BY_SF["sf0.01"]),
                redirect_rate=_REDIRECT_RATE)


def _ensure_redirect_crawl(tag: str) -> str:
    """One redirect-enabled crawl per (process, tag): same sf-scaled
    web as the harness crawl but with legacy-URL aliases on
    (sources/synthweb.py redirect model) and sitemap seeding (the
    sitemaps advertise CANONICAL URLs while links use legacy forms —
    the alias-vs-direct RedirectDuplicate path needs both)."""
    return _memo_crawl("redirect", tag, _redirect_web_cfg(tag),
                       sitemap_seeds=True)


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
    from ..crawl.loop import read_rounds

    def dup(t: pa.Table) -> pa.Table:
        is_dup = pc.equal(t["error"], "RedirectDuplicate")
        return t.drop_columns(["error"]).append_column(
            "is_dup", pc.fill_null(is_dup, False).cast(pa.int64()))

    out = _ensure_redirect_crawl(_sf_tag(sf_dir))
    return read_rounds(f"{out}/pages", [
        "url", "round", "status", "final_url", "redirects", "error"],
        PAGE_SCHEMA).map_batches(dup, batch_format="pyarrow")


def expected_crawl_redirects(tag: str) -> pa.Table:
    """Generator-side twin: the single-process BFSOracle (an
    independent sequential implementation of the same crawl + redirect
    semantics) run over the identical web/config."""
    from ..crawl.oracle import BFSOracle
    from ..sources.synthweb import SynthWeb
    from .images_q import _CRAWL_BUDGET, _CRAWL_ROUNDS

    web_cfg = _redirect_web_cfg(tag)
    web = SynthWeb(**web_cfg)
    oracle = BFSOracle(SynthWeb(**web_cfg), web.rule_pack(),
                       per_host_budget=_CRAWL_BUDGET)
    res = oracle.run(web.seed_urls(), max_rounds=_CRAWL_ROUNDS,
                     sitemap_seeds=True)
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
    from ..sources.parquet import read_parquet_clean

    tag = _sf_tag(sf_dir)
    out, _totals = _ensure_crawl(tag)
    ds = read_parquet_clean(f"{out}/pages", columns=["url"])
    return (ds.map_batches(_variants, batch_format="pandas")
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
    import ray.data as rd

    from ..crawl.sitemap import make_ingest_stage
    from .images_q import _CRAWL_BY_SF

    from ..sources.synthweb import SynthWeb

    tag = _sf_tag(sf_dir)
    web_cfg = _CRAWL_BY_SF.get(tag, _CRAWL_BY_SF["sf0.01"])
    n_hosts = web_cfg["num_hosts"]
    names = SynthWeb(**web_cfg)
    hosts = rd.from_items([{"host": names.host_name(h)}
                           for h in range(n_hosts)],
                          override_num_blocks=min(n_hosts, 16))
    return hosts.map_batches(make_ingest_stage(web_cfg),
                             batch_format="pyarrow", batch_size=4)


def expected_sitemap_rows(tag: str):
    """Generator-side twin for the crawl_sitemap_ingest oracle: the
    same rows from sitemap_entries() directly (never rendered to XML),
    with sitemap_url derived from the chunk layout arithmetic."""
    import pyarrow as _pa

    from ..sources.synthweb import SynthWeb
    from .images_q import _CRAWL_BY_SF

    web_cfg = _CRAWL_BY_SF.get(tag, _CRAWL_BY_SF["sf0.01"])
    web = SynthWeb(**web_cfg)
    rows = []
    for h in range(web.num_hosts):
        entries = web.sitemap_entries(h)
        host = web.host_name(h)
        chunked = len(entries) > web.SITEMAP_CHUNK
        for i, (url, lastmod, prio_bp) in enumerate(entries):
            sm = (f"http://{host}/sitemap-{i // web.SITEMAP_CHUNK}.xml"
                  if chunked else f"http://{host}/sitemap.xml")
            rows.append({"host": host, "sitemap_url": sm, "url": url,
                         "lastmod": lastmod, "priority_bp": prio_bp})
    return _pa.Table.from_pylist(rows, schema=_pa.schema([
        ("host", _pa.string()), ("sitemap_url", _pa.string()),
        ("url", _pa.string()), ("lastmod", _pa.string()),
        ("priority_bp", _pa.int64())]))


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
    import ray.data as rd

    tag = _sf_tag(sf_dir)
    out = _ensure_redirect_crawl(tag)
    files = [str(f) for f in
             sorted(Path(out, "frontier", "round=0").glob("*.parquet"))]

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "url": t["url"].cast(pa.string()),
            "parent": t["parent"].cast(pa.string()),
            "depth": t["depth"].cast(pa.int64()),
            "priority": t["priority"].cast(pa.float64())})

    return rd.read_parquet(files,
                           columns=["url", "parent", "depth",
                                    "priority"]) \
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

    web_cfg = _redirect_web_cfg(tag)
    web = SynthWeb(**web_cfg)
    seeds = web.seed_urls()
    seed_canon = {canonicalize_url(u) for u in seeds}
    rows = [{"url": u, "parent": "", "depth": 0, "priority": 0.0}
            for u in seeds]
    for h in range(web.num_hosts):
        entries = web.sitemap_entries(h)
        if not entries:
            continue
        host = web.host_name(h)
        chunked = len(entries) > web.SITEMAP_CHUNK
        for i, (url, _lastmod, prio_bp) in enumerate(entries):
            if canonicalize_url(url) in seed_canon:
                continue
            sm = (f"http://{host}/sitemap-{i // web.SITEMAP_CHUNK}.xml"
                  if chunked else f"http://{host}/sitemap.xml")
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
    from ..sources.parquet import read_parquet_clean
    from ..stages.taskcache import cached_stage
    from .images_q import _ensure_crawl

    tag = _sf_tag(sf_dir)
    out, _totals = _ensure_crawl(tag)
    web_cfg = dict(_CRAWL_BY_SF_OF(tag), epoch=1)
    ds = read_parquet_clean(f"{out}/pages", columns=["url", "status",
                                                     "etag"])
    return (ds.filter(expr="status == 200")
              .map_batches(cached_stage(RecrawlStage, web_config=web_cfg),
                           batch_format="pyarrow", batch_size=512))


def _CRAWL_BY_SF_OF(tag: str) -> dict:
    from .images_q import _CRAWL_BY_SF
    return dict(_CRAWL_BY_SF.get(tag, _CRAWL_BY_SF["sf0.01"]))


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
    import ray.data as rd

    from ..crawl.sitemap import make_ingest_stage
    from ..sources.parquet import read_parquet_clean
    from ..sources.synthweb import SynthWeb
    from ..stages.combine import hash_bucket_join
    from ..stages.taskcache import cached_stage
    from .images_q import _ensure_crawl

    tag = _sf_tag(sf_dir)
    out, _totals = _ensure_crawl(tag)
    web_cfg = dict(_CRAWL_BY_SF_OF(tag), epoch=1)

    n_hosts = web_cfg["num_hosts"]
    names = SynthWeb(**web_cfg)
    hosts = rd.from_items([{"host": names.host_name(h)}
                           for h in range(n_hosts)],
                          override_num_blocks=min(n_hosts, 16))
    advertised = hosts.map_batches(make_ingest_stage(web_cfg),
                                   batch_format="pyarrow", batch_size=4)

    def updated_only(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["lastmod"], "2027-")
        return t.filter(keep).select(["url"]) \
            .rename_columns(["sm_url"])

    updated = advertised.map_batches(updated_only, batch_format="pyarrow")
    crawled = read_parquet_clean(f"{out}/pages",
                                 columns=["url", "status", "etag"]) \
        .filter(expr="status == 200")
    selected = hash_bucket_join(
        updated, crawled, "sm_url", "url",
        left_cols=["sm_url"], right_cols=["url", "status", "etag"]) \
        .map_batches(lambda t: t.select(["url", "etag"]),
                     batch_format="pyarrow")
    return selected.map_batches(
        cached_stage(RecrawlStage, web_config=web_cfg),
        batch_format="pyarrow", batch_size=512)


def expected_sitemap_recrawl(tag: str) -> pa.Table:
    """Twin: pure arithmetic — {epoch-0-crawled 200 pages} INTERSECT
    {sitemap-advertised with revision bumped at epoch 1}; each row's
    status/validator/hash from the epoch-1 generator directly."""
    import hashlib as _hl
    import re as _re

    from ..sources.synthweb import SynthWeb

    web1 = SynthWeb(**dict(_CRAWL_BY_SF_OF(tag), epoch=1))
    res = _harness_oracle(tag)
    # lastmod startswith 2027 <=> revision bumped, by construction —
    # the same predicate the engine's vectorized filter applies
    advertised = {u for h in range(web1.num_hosts)
                  for (u, lm, _bp) in web1.sitemap_entries(h)
                  if lm.startswith("2027-")}
    rows = []
    for url, (status, _body) in res["pages"].items():
        if status != 200 or url not in advertised:
            continue
        m = _re.fullmatch(r"http://host-(\d{4})\.test(?:/page/(\d+))?/?",
                          url)
        h, p = int(m.group(1)), int(m.group(2) or 0)
        rows.append({"url": url, "recrawl_status": 200, "changed": 1,
                     "new_etag": web1.page_etag(h, p),
                     "content_md5": _hl.md5(
                         web1.render_page(h, p).encode()).hexdigest()})
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("recrawl_status", pa.int64()),
        ("changed", pa.int64()), ("new_etag", pa.string()),
        ("content_md5", pa.string())]))


def expected_recrawl_delta(tag: str) -> pa.Table:
    """Generator-side twin: which pages changed at epoch 1 is a pure
    function of (h, p) (SynthWeb.page_rev), the new validator is the
    rev arithmetic, and the changed content hash comes from rendering
    the epoch-1 page directly — the conditional-GET chain (header
    send, 304 vs 200 branch, body decode) is what the compare tests."""
    import hashlib as _hl
    import re as _re

    from ..sources.synthweb import SynthWeb

    web1 = SynthWeb(**dict(_CRAWL_BY_SF_OF(tag), epoch=1))
    res = _harness_oracle(tag)
    rows = []
    for url, (status, _body) in res["pages"].items():
        if status != 200:
            continue
        m = _re.fullmatch(r"http://host-(\d{4})\.test(?:/page/(\d+))?/?",
                          url)
        h, p = int(m.group(1)), int(m.group(2) or 0)
        rev = web1.page_rev(h, p)
        if rev:
            rows.append({"url": url, "recrawl_status": 200, "changed": 1,
                         "new_etag": web1.page_etag(h, p),
                         "content_md5": _hl.md5(
                             web1.render_page(h, p).encode()).hexdigest()})
        else:
            rows.append({"url": url, "recrawl_status": 304, "changed": 0,
                         "new_etag": web1.page_etag(h, p),
                         "content_md5": ""})
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("recrawl_status", pa.int64()),
        ("changed", pa.int64()), ("new_etag", pa.string()),
        ("content_md5", pa.string())]))


def _harness_oracle(tag: str):
    from .images_q import _oracle_result
    return _oracle_result(tag)


_TRAP_GUARDS = dict(max_path_repeats=2, max_depth=0, max_url_len=0)


def _ensure_trap_crawl(tag: str) -> str:
    """One trap-web crawl per (process, tag): every root links an
    infinite /trap/x/x/... chain; the max_path_repeats guard must cut
    it at the bound while the rest of the crawl is untouched."""
    return _memo_crawl("trap", tag,
                       dict(_CRAWL_BY_SF_OF(tag), trap_links=True),
                       **_TRAP_GUARDS)


def crawl_trap_guard(sf_dir: str):
    """Spider-trap guards under a value oracle: the engine crawls a
    web whose roots link an infinite /trap/x/x/... chain with the
    consecutive-path-repeat guard on, and its full (url, round, depth,
    status) schedule must equal the sequential oracle configured the
    same way — proving the guard cuts the trap at the bound (the trap
    IS entered up to it) without perturbing anything else.  One
    projection-pruned task-parallel read of the pages checkpoints."""
    from ..crawl.loop import read_rounds
    out = _ensure_trap_crawl(_sf_tag(sf_dir))
    return read_rounds(f"{out}/pages", ["url", "round", "depth", "status"],
                       PAGE_SCHEMA)


def expected_trap_guard(tag: str) -> pa.Table:
    """Twin: the sequential BFSOracle with the same guards."""
    from ..crawl.oracle import BFSOracle
    from ..sources.synthweb import SynthWeb
    from .images_q import _CRAWL_BUDGET, _CRAWL_ROUNDS

    web_cfg = dict(_CRAWL_BY_SF_OF(tag), trap_links=True)
    web = SynthWeb(**web_cfg)
    oracle = BFSOracle(SynthWeb(**web_cfg), web.rule_pack(),
                       per_host_budget=_CRAWL_BUDGET, **_TRAP_GUARDS)
    res = oracle.run(web.seed_urls(), max_rounds=_CRAWL_ROUNDS)
    rows = []
    for r in res["rounds"]:
        for u in r["fetched"]:
            rows.append({"url": u, "round": r["round"],
                         "depth": res["depths"][u],
                         "status": res["pages"][u][0]})
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("round", pa.int64()),
        ("depth", pa.int64()), ("status", pa.int64())]))


def _ensure_robots_rfc_crawl(tag: str) -> str:
    """One RFC-9309-robots crawl per (process, tag) over the wildcard-
    robots web (``*`` globs, ``$`` anchors, Allow overrides, a
    specific-UA group behind a disallow-everything decoy group, a
    decoy group whose token is a prefix of ours)."""
    return _memo_crawl("robots_rfc", tag,
                       dict(_CRAWL_BY_SF_OF(tag), robots_wildcards=True))


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
    from ..crawl.loop import read_rounds
    out = _ensure_robots_rfc_crawl(_sf_tag(sf_dir))
    return read_rounds(f"{out}/pages", ["url", "round", "status"],
                       PAGE_SCHEMA)


def expected_robots_rfc(tag: str) -> pa.Table:
    """Twin: the sequential BFSOracle and its own RFC 9309 reader."""
    from ..crawl.oracle import BFSOracle
    from ..sources.synthweb import SynthWeb
    from .images_q import _CRAWL_BUDGET, _CRAWL_ROUNDS

    web_cfg = dict(_CRAWL_BY_SF_OF(tag), robots_wildcards=True)
    web = SynthWeb(**web_cfg)
    oracle = BFSOracle(SynthWeb(**web_cfg), web.rule_pack(),
                       per_host_budget=_CRAWL_BUDGET)
    res = oracle.run(web.seed_urls(), max_rounds=_CRAWL_ROUNDS)
    rows = [{"url": u, "round": r["round"],
             "status": res["pages"][u][0]}
            for r in res["rounds"] for u in r["fetched"]]
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("round", pa.int64()),
        ("status", pa.int64())]))


_DEADHOST_BUDGET = 4
_DEADHOST_FLAKY = dict(flaky_mod=3, flaky_attempts=99)


def _ensure_deadhost_crawl(tag: str) -> str:
    """One dead-host crawl per (process, tag): ~1/3 of pages serve
    permanent 503s, so hosts cross the error budget and get banned
    mid-crawl."""
    return _memo_crawl("deadhost", tag,
                       dict(_CRAWL_BY_SF_OF(tag), **_DEADHOST_FLAKY),
                       host_error_budget=_DEADHOST_BUDGET)


def crawl_host_ban(sf_dir: str):
    """Dead-host pruning under a value oracle: the engine crawls a web
    where a deterministic slice of pages serves permanent 503s with a
    cumulative per-host error budget; hosts crossing it are banned
    from the next round's admission.  The full (url, round, status)
    schedule must equal the budget-configured sequential oracle —
    proving bans fire at exactly the right round and prune exactly the
    right frontier rows."""
    from ..crawl.loop import read_rounds
    out = _ensure_deadhost_crawl(_sf_tag(sf_dir))
    return read_rounds(f"{out}/pages", ["url", "round", "status"],
                       PAGE_SCHEMA)


def expected_host_ban(tag: str) -> pa.Table:
    """Twin: the sequential BFSOracle with the same error budget."""
    from ..crawl.oracle import BFSOracle
    from ..sources.synthweb import SynthWeb
    from .images_q import _CRAWL_BUDGET, _CRAWL_ROUNDS

    web_cfg = dict(_CRAWL_BY_SF_OF(tag), **_DEADHOST_FLAKY)
    web = SynthWeb(**web_cfg)
    oracle = BFSOracle(SynthWeb(**web_cfg), web.rule_pack(),
                       per_host_budget=_CRAWL_BUDGET,
                       host_error_budget=_DEADHOST_BUDGET)
    res = oracle.run(web.seed_urls(), max_rounds=_CRAWL_ROUNDS)
    rows = [{"url": u, "round": r["round"],
             "status": res["pages"][u][0]}
            for r in res["rounds"] for u in r["fetched"]]
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("round", pa.int64()),
        ("status", pa.int64())]))
