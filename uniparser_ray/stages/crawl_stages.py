"""map_batches stages of the crawl pipeline.

Stage contract (all ``batch_format="pyarrow"``):

* :func:`canonicalize_batch` — stateless task: canonical URL, 64-bit
  hash, host (vectorized-ish; cheap string work).
* :class:`SeenRobotsStage` — batched RPCs to the state hosts (seen
  test-and-set anti-join and robots cache); returns the surviving
  rows.  Rows with ``seen_ok=1`` (backlog re-admissions) bypass the
  seen test.
* :class:`FetchParseStage` — task pool: transport + compiled rule
  pack + RuleVM built once per worker; per batch it fetches pages and
  runs the rule VM, emitting parsed results + link/image candidates as
  list columns (the crawl's fetch task explodes the links into
  next-round frontier rows and writes the page checkpoint).
* :class:`ImageFetchStage` — image-seen test-and-set, then fetch +
  decode + phash of the new image URLs, emitting rows in the Lance
  image+caption schema (the crawl's fetch task runs it over its
  pages' image candidates and writes the fragments).

Reference trace being reproduced: Crawler.crawl -> find rule -> fetch
-> parse -> recurse on __request__ (reference: crawler.py:156-189),
re-expressed as one Dataset round (SURVEY.md §3.1).
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

import numpy as np
import pyarrow as pa

from ..config import EngineConfig
from ..rulevm.urlutil import canonicalize_url, url_hash64
from ..rulevm.request import get_host
from ..sources.codecs import average_hash64, decode_image

PAGE_SCHEMA = pa.schema([
    ("url", pa.large_string()),
    ("url_hash", pa.uint64()),
    ("host", pa.string()),
    ("depth", pa.int32()),
    ("priority", pa.float32()),
    ("parent", pa.large_string()),
    ("retries", pa.int32()),
    ("status", pa.int32()),
    ("rule_name", pa.string()),
    ("result_json", pa.large_string()),
    ("links", pa.list_(pa.large_string())),
    ("img_srcs", pa.list_(pa.large_string())),
    ("img_captions", pa.list_(pa.large_string())),
    ("error", pa.string()),
    # redirect lineage: canonical post-redirect URL ("" when the fetch
    # did not redirect), its 64-bit hash (0 when ""), and the hop count
    ("final_url", pa.large_string()),
    ("final_hash", pa.uint64()),
    ("redirects", pa.int32()),
    # validator for conditional recrawl (If-None-Match), "" if absent
    ("etag", pa.string()),
    # server-requested requeue delay in seconds (Retry-After header on
    # 5xx/3xx responses), 0 when absent
    ("retry_after", pa.float32()),
])

# 3xx statuses the fetcher follows (requests' default semantics — the
# reference's downloader follows redirects transparently)
_REDIRECT_STATUSES = frozenset((301, 302, 303, 307, 308))

IMAGE_ROW_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
])


# URLs matching this are FIXED POINTS of canonicalize_url, provable
# by construction: scheme already lowercase-http, netloc limited to
# lowercase [a-z0-9.-] (no port to strip, no uppercase, no userinfo,
# no IPv6 brackets that could make urlsplit raise), a non-empty path,
# no query (nothing to sort), no fragment (nothing to drop), and no
# \t\r\n (the bytes urlsplit silently REMOVES).  For them canonical
# url == url and host == the text between '//' and the next '/'.
# Everything else takes the per-row slow path — the fast path is an
# optimization, never a semantic change (pinned by a hypothesis fuzz
# comparing the two paths).  Arrow's vectorized regex is ~250x the
# urlsplit loop, which dominated the frontier admit stage's CPU.
_CANON_FAST_RE = r"^http://[a-z0-9.-]+/[^?#\t\r\n]*$"


def canonicalize_batch(batch: pa.Table) -> pa.Table:
    """Add canonical url / url_hash / host columns."""
    import pyarrow.compute as pc
    urls = batch["url"].to_pylist()
    fast = pc.match_substring_regex(
        batch["url"], _CANON_FAST_RE).to_numpy(zero_copy_only=False)
    fast = np.asarray(fast, dtype=bool)
    canon = [u if f else canonicalize_url(u)
             for u, f in zip(urls, fast)]
    hashes = np.fromiter((url_hash64(u) for u in canon), dtype=np.uint64,
                         count=len(canon))
    hosts = [u.split("/", 3)[2] if f else get_host(u, "")
             for u, f in zip(canon, fast)]
    batch = batch.drop_columns([c for c in ("url", "url_hash", "host")
                                if c in batch.column_names])
    out = batch.add_column(0, "url", pa.array(canon, pa.large_string())) \
        .append_column("url_hash", pa.array(hashes, pa.uint64())) \
        .append_column("host", pa.array(hosts, pa.string()))
    # schemas with metadata (e.g. the 'pandas' blob parquet files
    # carry) are UNHASHABLE, which defeats Ray's block-schema dedup
    # and spams "Failed to hash the schemas" warnings — strip it
    return out.replace_schema_metadata(None)


def make_trap_filter(max_depth: int = 0, max_url_len: int = 0,
                     max_path_repeats: int = 0):
    """Spider-trap guards, applied AFTER canonicalization and BEFORE
    the seen test-and-set (a trapped candidate leaves no seen-set
    side effect, so a later legitimate shallow rediscovery still
    fetches).  All three are 0=off:

    * ``max_depth`` — BFS depth bound (calendar/pagination traps grow
      depth without bound);
    * ``max_url_len`` — canonical-URL byte bound (session-id and
      recursive-path traps grow the URL);
    * ``max_path_repeats`` — drop URLs with any path segment repeated
      consecutively more than k times (/x/x/x/...).  RE2 (Arrow's
      regex) has no backreferences, so the repeat check prefilters
      vectorized on segment COUNT (a URL with <= k+1 segments cannot
      repeat one more than k times) and runs Python re only on the
      rare survivors — traps are pathological, not the common case.
    """
    import re as _re
    rep_re = (_re.compile(r"(/[^/]+)\1{%d,}" % max_path_repeats)
              if max_path_repeats > 0 else None)

    def trap_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = np.ones(t.num_rows, dtype=bool)
        if max_depth > 0:
            keep &= (t["depth"].to_numpy(zero_copy_only=False)
                     <= max_depth)
        if max_url_len > 0:
            keep &= (pc.binary_length(t["url"]).to_numpy(
                zero_copy_only=False) <= max_url_len)
        if rep_re is not None:
            # k+1 repeated segments need >= k+3 slashes total (2 are
            # in the scheme) — everything below that is safe
            nseg = pc.count_substring(t["url"], "/").to_numpy(
                zero_copy_only=False)
            sus = np.flatnonzero(keep & (nseg >= max_path_repeats + 3))
            if sus.size:
                urls = t["url"].take(pa.array(sus)).to_pylist()
                for i, u in zip(sus, urls):
                    parts = u.split("/", 3)
                    path = "/" + parts[3] if len(parts) > 3 else "/"
                    if rep_re.search(path):
                        keep[i] = False
        return t.filter(pa.array(keep))

    return trap_filter


def _url_path(url: str) -> str:
    """The path (+ query) robots rules match against."""
    return "/" + url.split("/", 3)[3] if url.count("/") >= 3 else "/"


class SeenRobotsStage:
    """Anti-join against the seen shards + robots allow filter.

    Holds only state-host clients; safe at any concurrency because the
    shards' test-and-set is atomic per shard."""

    def __init__(self, seen, robots=None):
        self.seen = seen
        self.robots = robots

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..state.host import rpc_get
        if batch.num_rows == 0:
            # keep the output schema identical to the non-empty path
            return batch.append_column(
                "crawl_delay", pa.array([], pa.float32()))
        hashes = batch["url_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        if "seen_ok" in batch.column_names:
            bypass = batch["seen_ok"].to_numpy(zero_copy_only=False).astype(bool)
        else:
            bypass = np.zeros(len(hashes), dtype=bool)
        fresh = np.ones(len(hashes), dtype=bool)
        todo = ~bypass
        # launch the seen test-and-set AND the robots lookups, then
        # wait ONCE (off the task's main thread, see rpc_get): one
        # coalesced wait per batch overlaps the two RPC families'
        # latencies
        s_slices, s_futs = self.seen.add_futures(hashes[todo])
        r_slices, r_futs = ([], [])
        if self.robots is not None:
            r_slices, r_futs = self.robots.futures(
                batch["host"].to_pylist(),
                [_url_path(u) for u in batch["url"].to_pylist()])
        results = rpc_get(s_futs + r_futs)
        sub = np.zeros(int(todo.sum()), dtype=bool)
        for idxs, res in zip(s_slices, results):
            sub[idxs] = res
        fresh[todo] = sub
        keep = fresh | bypass
        allowed = np.ones(len(hashes), dtype=bool)
        delays = np.zeros(len(hashes), dtype=np.float32)
        for idxs, (mask, ds) in zip(r_slices, results[len(s_futs):]):
            allowed[idxs] = mask
            delays[idxs] = ds
        keep &= allowed
        # the host's robots Crawl-delay rides the admitted rows so the
        # politeness granter can derive per-host budgets with NO extra
        # robots round-trip
        batch = batch.append_column("crawl_delay",
                                    pa.array(delays, pa.float32()))
        return batch.filter(pa.array(keep))


class FetchParseStage:
    """Fetch + rule-match + rule-VM parse of a batch of granted rows: a
    pure function of its rows, with no clock and no sleep (the crawl's
    fetch task paces ruled hosts around its calls, crawl/loop.py).

    ``__init__`` does the once-per-worker work (the crawl's fetch tasks
    take the stage from the per-worker cache, stages/taskcache.py;
    reference analog: the compiled-rule cache CompiledString + HTTP
    session, parsers.py:980-1003 / utils.py:321-334): build the
    transport from the web config, compile the broadcast rule pack,
    warm the VM.
    """

    def __init__(self, rule_pack_ref=None, web_config: dict = None,
                 rule_pack: dict = None, max_redirects: int = 5,
                 seen=None, robots=None):
        import ray
        from ..crawl.storage import JSONRuleStorage
        from ..rulevm.transport import SyntheticWebAdapter
        from ..rulevm.vm import RuleVM
        from ..sources.synthweb import SynthWeb

        if rule_pack is None:
            rule_pack = ray.get(rule_pack_ref)
        self.storage = JSONRuleStorage(**rule_pack)
        self.web = SynthWeb(**web_config)
        self.adapter = SyntheticWebAdapter(self.web)
        self.vm = RuleVM()
        self._rule_cache: Dict[str, object] = {}
        # 3xx handling: hops are followed INLINE (requests semantics —
        # the reference's transports follow redirects transparently,
        # so a granted URL costs one politeness token regardless of
        # hops).  The canonical FINAL URL is test-and-set against the
        # URL-seen shards so (a) a page reachable both by a legacy URL
        # and its canonical URL is extracted once — whichever arrives
        # first wins, the loser keeps its status/lineage but parses
        # nothing (error=RedirectDuplicate) — and (b) later direct
        # links to the canonical URL dedup at admission.  A chain that
        # exceeds max_redirects or revisits a URL lands as status -2
        # (permanent: never requeued by the retry path, which only
        # takes -1/5xx).
        self.max_redirects = max_redirects
        self.seen = seen
        # robots on redirect TARGETS: admission only vets the requested
        # URL, so without a per-hop check a 301 chain would smuggle a
        # disallowed page past robots.  A disallowed hop terminates the
        # chain as status -3 (permanent).  This also keeps redirect
        # dedup independent of admission-time seen side effects: a
        # disallowed canonical URL is stopped by THIS check, never by
        # the (resume-unreplayable) hash its rejected admission left in
        # the seen shards.  RPCs happen only on actual 3xx hops.
        self.robots = robots

    def _find_rule(self, url: str):
        # host-level cache: single-rule hosts resolve without regex scans
        host = get_host(url, "")
        cached = self._rule_cache.get(host)
        if cached is not None:
            rules, single = cached
        else:
            host_rule = self.storage.get(host)
            rules = list(host_rule["crawler_rules"].values()) if host_rule else []
            single = len(rules) == 1 and not rules[0]["regex"]
            self._rule_cache[host] = (rules, single)
        if single:
            return rules[0]
        for rule in rules:
            if rule.check_regex(url):
                return rule
        return None

    def _hop_allowed(self, url: str) -> bool:
        """robots check for one redirect target (rare: one RPC per
        actual 3xx hop; the requested URL was vetted at admission)."""
        if self.robots is None:
            return True
        return self.robots.allowed(get_host(url, ""), _url_path(url))

    def _follow_fetch(self, rule, url: str, attempt: int):
        """One logical fetch with inline 3xx following (bounded by
        ``max_redirects``; a chain that revisits a URL is a loop).
        Returns (text, resp|None, status, final_canon_url, hops, err) —
        final_canon_url is "" when the fetch never redirected."""
        from urllib.parse import urljoin

        cur, hops, visited = url, 0, {url}
        while True:
            args = dict(rule.get_request(url=cur))
            # attempt number reaches the (synthetic) web so transient
            # failures can be deterministic per (url, attempt)
            args["attempt"] = attempt
            text, resp = self.adapter.request(**args)
            if isinstance(resp, Exception):
                return "", None, -1, "", hops, \
                    f"{type(resp).__name__}: {resp}"
            status = getattr(resp, "status_code", 200)
            if status in _REDIRECT_STATUSES:
                loc = (resp.headers.get("Location")
                       or resp.headers.get("location"))
                if loc:
                    nxt = urljoin(cur, loc)
                    hops += 1
                    if hops > self.max_redirects or nxt in visited:
                        reason = ("RedirectLoop" if nxt in visited
                                  else "TooManyRedirects")
                        return "", None, -2, "", hops, \
                            f"{reason}: {url} -> {nxt}"
                    if not self._hop_allowed(nxt):
                        return "", None, -3, "", hops, \
                            f"RedirectDisallowed: {url} -> {nxt}"
                    visited.add(nxt)
                    cur = nxt
                    continue
                # 3xx without Location is terminal — fall through
            final = canonicalize_url(cur) if hops else ""
            return text, resp, status, final, hops, None

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        hashes = batch["url_hash"].to_pylist()
        hosts = batch["host"].to_pylist()
        depths = batch["depth"].to_pylist()
        priors = batch["priority"].to_pylist()
        parents = batch["parent"].to_pylist()
        retries = (batch["retries"].to_pylist()
                   if "retries" in batch.column_names else [0] * len(urls))
        # pass 1 — fetch (with redirect following); parse is deferred
        # so redirected rows can be dedup-checked in ONE sharded RPC
        # wave before any content is parsed
        fetched = [None] * len(urls)
        for i, url in enumerate(urls):
            rule = self._find_rule(url)
            if rule is None:
                fetched[i] = (None, "", None, 0, "", 0, "RuleNotFoundError")
                continue
            text, resp, status, final, hops, err = \
                self._follow_fetch(rule, url, retries[i])
            fetched[i] = (rule, text, resp, status, final, hops, err)
        # batched final-URL test-and-set: a redirected 200 row extracts
        # only if its canonical final URL is NEW to the seen set (the
        # requested URL's own hash was added at admission)
        redirected = [i for i, f in enumerate(fetched)
                      if f[3] == 200 and f[4] and f[4] != urls[i]]
        fresh_final = {i: True for i in redirected}
        if redirected and self.seen is not None:
            fh = np.fromiter((url_hash64(fetched[i][4]) for i in redirected),
                             dtype=np.uint64, count=len(redirected))
            ok = self.seen.add_batch(fh)
            fresh_final = {i: bool(o) for i, o in zip(redirected, ok)}
        out = {k: [] for k in ("status", "rule_name", "result_json", "links",
                               "img_srcs", "img_captions", "error",
                               "final_url", "final_hash", "redirects",
                               "etag", "retry_after")}
        # pass 2 — parse the survivors
        for i, (rule, text, resp, status, final, hops, err) in \
                enumerate(fetched):
            out["final_url"].append(final)
            out["final_hash"].append(url_hash64(final) if final else 0)
            out["redirects"].append(hops)
            out["etag"].append(
                (resp.headers.get("ETag") or "") if resp is not None else "")
            try:
                out["retry_after"].append(
                    float(resp.headers.get("Retry-After", 0) or 0)
                    if resp is not None else 0.0)
            except (TypeError, ValueError):   # HTTP-date form: ignore
                out["retry_after"].append(0.0)
            if rule is None:
                out["status"].append(0)
                out["rule_name"].append("")
                out["result_json"].append("")
                out["links"].append([])
                out["img_srcs"].append([])
                out["img_captions"].append([])
                out["error"].append("RuleNotFoundError")
                continue
            name = rule["name"]
            links: List[str] = []
            srcs: List[str] = []
            caps: List[str] = []
            result_json = ""
            if status == 200 and not fresh_final.get(i, True):
                err = "RedirectDuplicate"
            elif status == 200:
                context = {"resp": resp,
                           "request_args": {"url": urls[i], "method": "get"}}
                try:
                    result = self.vm.parse(text, rule, context)
                    body = result.get(name, {})
                    raw_links = body.get(EngineConfig.__request__) or []
                    if isinstance(raw_links, (list, tuple)):
                        links = [l for l in raw_links if isinstance(l, str)]
                    elif isinstance(raw_links, str):
                        links = [raw_links]
                    for img in body.get("images") or []:
                        if isinstance(img, dict) and img.get("src"):
                            srcs.append(img["src"])
                            caps.append(img.get("caption") or "")
                    result_json = json.dumps(body, default=repr,
                                             sort_keys=False)
                except Exception as e:  # InvalidSchema / Unknown parser etc.
                    err = f"{type(e).__name__}: {e}"
            out["status"].append(status)
            out["rule_name"].append(name)
            out["result_json"].append(result_json)
            out["links"].append(links)
            out["img_srcs"].append(srcs)
            out["img_captions"].append(caps)
            out["error"].append(err)
        return self._page_table(urls, hashes, hosts, depths, priors,
                                parents, retries, out)

    @staticmethod
    def _page_table(urls, hashes, hosts, depths, priors, parents,
                    retries, out) -> pa.Table:
        return pa.Table.from_arrays([
            pa.array(urls, pa.large_string()),
            pa.array(hashes, pa.uint64()),
            pa.array(hosts, pa.string()),
            pa.array(depths, pa.int32()),
            pa.array(priors, pa.float32()),
            pa.array(parents, pa.large_string()),
            pa.array(retries, pa.int32()),
            pa.array(out["status"], pa.int32()),
            pa.array(out["rule_name"], pa.string()),
            pa.array(out["result_json"], pa.large_string()),
            pa.array(out["links"], pa.list_(pa.large_string())),
            pa.array(out["img_srcs"], pa.list_(pa.large_string())),
            pa.array(out["img_captions"], pa.list_(pa.large_string())),
            pa.array(out["error"], pa.string()),
            pa.array(out["final_url"], pa.large_string()),
            pa.array(out["final_hash"], pa.uint64()),
            pa.array(out["redirects"], pa.int32()),
            pa.array(out["etag"], pa.string()),
            pa.array(out["retry_after"], pa.float32()),
        ], schema=PAGE_SCHEMA)


def explode_images(batch: pa.Table) -> pa.Table:
    """Page rows -> image-candidate rows.  Flatten/take/regex are Arrow
    kernels; only the seen-filter hash (md5-backed, must match the
    oracle's url_hash64) stays per-element."""
    import pyarrow.compute as pc
    srcs_col = batch["img_srcs"]
    flat_src = pc.list_flatten(srcs_col).cast(pa.large_string())
    flat_cap = pc.list_flatten(batch["img_captions"]).cast(pa.large_string())
    idx = pc.list_parent_indices(srcs_col)
    parents = pc.take(batch["url"], idx).cast(pa.large_string())
    # origin (scheme://host) of the parent for relative srcs
    origins = pc.struct_field(
        pc.extract_regex(parents, r"^(?P<o>[^/]+//[^/]*)"), "o")
    joined = pc.binary_join_element_wise(
        pc.fill_null(origins.cast(pa.large_string()), ""), flat_src,
        pa.scalar("", pa.large_string()))
    img_urls_arr = pc.if_else(pc.starts_with(flat_src, "http"),
                              flat_src, joined)
    img_urls = img_urls_arr.to_pylist()
    t = pa.Table.from_arrays([img_urls_arr, flat_cap, parents],
                             names=["img_url", "caption", "parent"])
    # in-batch dedup by image URL (cross-batch dedup via the seen shards)
    hashes = pa.array([url_hash64("img|" + u) for u in img_urls], pa.uint64())
    return t.append_column("url_hash", hashes)

_IMG_ID_RE = re.compile(r"/img/(\d+)\.(?:ppm|bmp|png|qpx)$")


class ImageFetchStage:
    """Fetch + decode + phash image URLs -> Lance image+caption rows.

    At 100 TB this is the byte-heavy stage: the crawl's fetch task
    calls it on small chunks of candidates (payloads are MBs); decode
    is numpy-vectorized per image.  image_id derives from the URL (the
    synthetic web encodes the global image index; foreign URLs fall
    back to a hash id)."""

    def __init__(self, web_config: dict = None, seen=None):
        from ..rulevm.transport import SyntheticWebAdapter
        from ..sources.synthweb import SynthWeb
        self.adapter = SyntheticWebAdapter(SynthWeb(**web_config))
        # optional cross-batch dedup against the image-seen filter
        self.seen = seen

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..rulevm.parsers import md5 as _md5
        if self.seen is not None and batch.num_rows:
            # keep the rows whose url_hash is new to the filter
            batch = batch.filter(pa.array(self.seen.add_batch(
                batch["url_hash"].to_numpy(zero_copy_only=False)
                .astype(np.uint64))))
        urls = batch["img_url"].to_pylist()
        captions = batch["caption"].to_pylist()
        ids, blobs, ws, hs, fmts, caps, hashes, srcs = [], [], [], [], [], [], [], []
        for url, caption in zip(urls, captions):
            resp = self.adapter.fetch(url=url, method="get")
            if isinstance(resp, Exception) or resp.status_code != 200:
                continue
            blob = resp.content
            try:
                px = decode_image(blob)
            except Exception:
                continue
            m = _IMG_ID_RE.search(url)
            ids.append(f"img-{int(m.group(1)):010d}" if m else f"img-{_md5(url, 16)}")
            blobs.append(blob)
            hs.append(px.shape[0])
            ws.append(px.shape[1])
            fmts.append(url.rsplit(".", 1)[-1])
            caps.append(caption)
            hashes.append(average_hash64(px))
            srcs.append(url)
        table = pa.Table.from_arrays([
            pa.array(ids, pa.string()),
            pa.array(blobs, pa.binary()),
            pa.array(ws, pa.int32()),
            pa.array(hs, pa.int32()),
            pa.array(fmts, pa.string()),
            pa.array(caps, pa.string()),
            pa.array(hashes, pa.int64()),
        ], schema=IMAGE_ROW_SCHEMA)
        # lineage sidecar column: the fetched URL (also the resume key
        # for the image-seen filter)
        return table.append_column("src_url", pa.array(srcs, pa.large_string()))
