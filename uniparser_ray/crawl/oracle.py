"""Single-process recursive crawler — the conformance ORACLE.

Reproduces the reference's recursive ``__request__`` / ``__result__``
crawl loop exactly (reference: crawler.py:129-224) in one process with
deterministic sequential fan-out.  The distributed round-based engine
(uniparser_ray.crawl.loop) must produce the same URL-seen set, crawl
tree and parsed values as this oracle on the same seeds + rule pack;
tests assert that equivalence.
"""

from __future__ import annotations

from ..config import EngineConfig
from ..exceptions import RuleNotFoundError
from ..rulevm.request import ensure_request
from ..rulevm.vm import RuleVM
from .storage import RulePackSource


class OracleCrawler:
    """Sequential version of the reference Crawler: child requests are
    crawled depth-first in extraction order (the reference's
    ThreadPoolExecutor fan-out preserves result order too — task list
    order, crawler.py:177-184 — so results are identical)."""

    def __init__(self, vm: RuleVM = None, storage: RulePackSource = None,
                 max_depth: int = 50):
        self.vm = vm or RuleVM()
        self.storage = storage
        self.max_depth = max_depth

    def crawl(self, request, context=None, _depth: int = 0):
        if not request:
            return None
        if _depth > self.max_depth:
            return RuntimeError(f"max crawl depth {self.max_depth} exceeded")
        request_args = ensure_request(request)
        url = request_args["url"]
        crawler_rule = self.storage.find_crawler_rule(url)
        if not crawler_rule:
            return RuleNotFoundError(f"No rule matched the given url: {url}")
        result = self.vm.crawl(crawler_rule, context=context, **request_args)
        if isinstance(result, BaseException):
            return result
        child = result[crawler_rule["name"]].get(EngineConfig.__request__)
        if child:
            if isinstance(child, (list, tuple)):
                result[crawler_rule["name"]][EngineConfig.__result__] = [
                    self.crawl(req, context=context, _depth=_depth + 1) if req else None
                    for req in child
                ]
            else:
                result[crawler_rule["name"]][EngineConfig.__result__] = self.crawl(
                    child, context=context, _depth=_depth + 1)
        return result


    async def acrawl(self, request, context=None):
        """Async twin (reference: crawler.py:191-224): awaitable, runs
        the sync recursion on the loop's thread executor — identical
        results, never blocks the event loop."""
        import asyncio
        return await asyncio.to_thread(self.crawl, request, context)


# reference-shaped alias
Crawler = OracleCrawler


def naive_product_token(value: str) -> str:
    """RFC 9309 s2.2.1 product token by character walk: the leading
    ASCII letters, ``_`` and ``-`` of a user-agent value, lower-cased;
    ``*`` stays ``*``."""
    if value == "*":
        return "*"
    out = ""
    for ch in value:
        if not (ch.isascii() and (ch.isalpha() or ch in "_-")):
            break
        out += ch
    return out.lower()


def naive_robots_group(text: str, user_agent: str):
    """The oracle's own RFC 9309 reading of a robots.txt -> the chosen
    group's ([(pattern, is_allow)], Crawl-delay).

    A state machine over the lines: a run of User-agent lines opens
    one group shared by all its tokens, any other field closes the
    run, lines before the first User-agent belong to no group, groups
    of the same token merge, an empty Allow/Disallow records nothing,
    and a group's first Crawl-delay line wins (invalid or negative
    reads 0).  The group whose token equals ours is chosen, else
    ``*``."""
    groups, delays, cur, last_ua = {}, {}, [], False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if ":" not in line:
            continue
        f, v = [x.strip() for x in line.split(":", 1)]
        f = f.lower()
        if f == "user-agent":
            if not last_ua:
                cur = []
            key = naive_product_token(v)
            cur.append(key)
            groups.setdefault(key, [])
            last_ua = True
            continue
        last_ua = False
        if f in ("allow", "disallow") and v:
            for t in cur:
                groups[t].append((v, f == "allow"))
        elif f == "crawl-delay":
            try:
                d = float(v)
            except ValueError:
                d = 0.0
            for t in cur:
                if t not in delays:
                    delays[t] = d if d > 0 else 0.0
    ours = naive_product_token(user_agent)
    key = ours if ours and ours in groups else "*"
    return groups.get(key, []), delays.get(key, 0.0)


def naive_rule_match(pattern: str, path: str) -> bool:
    """Does one robots rule match ``path``?  Character walk with
    backtracking on ``*``; a trailing ``$`` anchors the end."""
    anchored = pattern.endswith("$")
    body = pattern[:-1] if anchored else pattern

    def walk(pi, si):
        while True:
            if pi == len(body):
                return si == len(path) if anchored else True
            c = body[pi]
            if c == "*":
                return any(walk(pi + 1, k) for k in range(si, len(path) + 1))
            if si < len(path) and path[si] == c:
                pi += 1
                si += 1
                continue
            return False

    return walk(0, 0)


def naive_allowed(rules, path: str) -> bool:
    """The longest matching rule decides, Allow wins a tie in length;
    no matching rule allows."""
    best = None
    for pattern, allow in rules:
        if naive_rule_match(pattern, path):
            cand = (len(pattern), allow)   # True > False: Allow wins ties
            if best is None or cand > best:
                best = cand
    return True if best is None else best[1]


class BFSOracle:
    """Single-process mirror of the distributed round loop
    (crawl/loop.py): same canonicalization, URL-seen set, robots
    filter, per-host (priority, url_hash) politeness grant, rule-VM
    parse, image dedup — all sequential Python.  The Ray engine must
    match this oracle's per-round fetched-URL sets, parsed values and
    image rows exactly; the conformance tests assert it.
    """

    def __init__(self, web, rule_pack: dict, per_host_budget: int = 8,
                 max_pending_per_host: int = 1000, use_robots: bool = True,
                 host_budgets: dict = None, robots_delay_budget: bool = False,
                 round_seconds: float = 60.0, max_redirects: int = 5,
                 max_depth: int = 0, max_url_len: int = 0,
                 max_path_repeats: int = 0, host_error_budget: int = 0,
                 robots_user_agent: str = "uniparser-ray"):
        from ..rulevm.transport import SyntheticWebAdapter
        from .storage import JSONRuleStorage

        self.web = web
        self.adapter = SyntheticWebAdapter(web)
        self.storage = JSONRuleStorage(**rule_pack)
        self.vm = RuleVM()
        self.budget = per_host_budget
        self.host_budgets = host_budgets or {}
        self.max_pending = max_pending_per_host
        self.use_robots = use_robots
        self.robots_delay_budget = robots_delay_budget
        self.round_seconds = round_seconds
        self.max_redirects = max_redirects
        # spider-trap guards — the sequential mirror of the engine's
        # make_trap_filter (depth bound, URL byte bound, consecutive
        # path-segment repeat bound), applied after canonicalization
        # and before the seen test-and-set
        import re as _re
        self.max_depth = max_depth
        self.max_url_len = max_url_len
        self._rep_re = (_re.compile(r"(/[^/]+)\1{%d,}" % max_path_repeats)
                        if max_path_repeats > 0 else None)
        # dead-host pruning mirror: cumulative -1/5xx counts per host;
        # a host at/over the budget is dropped at admission from the
        # round AFTER the errors happened
        self.host_error_budget = host_error_budget
        self.robots_user_agent = robots_user_agent
        self._robots_cache: dict = {}

    def _robots_entry(self, host: str):
        """(allow_fn|None, crawl_delay) of a host, read by the oracle's
        own :func:`naive_robots_group` (it shares no code with the
        engine's state/robots.py)."""
        entry = self._robots_cache.get(host)
        if entry is None:
            try:
                status, _h, body = self.web.get(f"http://{host}/robots.txt")
                text = body.decode() if status == 200 else ""
            except Exception:
                text = ""
            rules, delay = naive_robots_group(text, self.robots_user_agent)
            allow_fn = (None if not rules else
                        (lambda p, _r=rules: naive_allowed(_r, p)))
            entry = (allow_fn, delay)
            self._robots_cache[host] = entry
        return entry

    def _allowed(self, host: str, url: str) -> bool:
        if not self.use_robots:
            return True
        allow_fn, _delay = self._robots_entry(host)
        if allow_fn is None:
            return True
        path = "/" + url.split("/", 3)[3] if url.count("/") >= 3 else "/"
        return allow_fn(path)

    def _budget_of(self, host: str) -> int:
        k = self.host_budgets.get(host, self.budget)
        if self.robots_delay_budget and self.use_robots:
            _rules, delay = self._robots_entry(host)
            if delay > 0:
                k = min(k, max(1, int(self.round_seconds // delay)))
        return k

    def run(self, seeds, max_rounds: int = 20,
            sitemap_seeds: bool = False) -> dict:
        from collections import defaultdict
        from ..rulevm.urlutil import canonicalize_url, url_hash64
        from ..rulevm.request import get_host

        seen: set = set()
        img_seen: set = set()
        rounds = []          # [{fetched urls (sorted), ...}]
        pages = {}           # url -> (status, result_json-able body)
        images = {}          # image_id -> (bytes, caption)
        image_round = {}     # image_id -> round first seen (lineage)
        parents = {}         # url -> fetching parent url ("" for seeds)
        rule_names = {}      # url -> crawler rule name
        finals = {}          # url -> (final_canon_url, hops) when 3xx'd
        redirect_dups = set()  # urls whose final landed on a seen page
        depths = {}          # url -> frontier depth at fetch time
        host_errors = {}     # host -> cumulative -1/5xx fetches
        banned = set()       # hosts at/over host_error_budget
        candidates = [(u, "", 0, 0.0, False) for u in seeds]
        if sitemap_seeds:
            # mirror of CrawlRun._seed_sitemaps: every seed host's
            # advertised sitemap enters round 0 at depth 0 with
            # priority seed_priority(bp); URLs that are also explicit
            # seeds are dropped (deterministic lineage)
            from .sitemap import ingest_host, seed_priority
            seed_canon = {canonicalize_url(u) for u in seeds}
            hosts = sorted({get_host(canonicalize_url(u), "")
                            for u in seeds} - {""})
            for host in hosts:
                for row in ingest_host(self.web, host):
                    if canonicalize_url(row["url"]) in seed_canon:
                        continue
                    candidates.append(
                        (row["url"], row["sitemap_url"], 0,
                         seed_priority(row["priority_bp"]), False))
        for r in range(max_rounds):
            if not candidates:
                break
            admitted = []
            for url, parent, depth, prio, seen_ok in candidates:
                cu = canonicalize_url(url)
                if self.max_depth and depth > self.max_depth:
                    continue
                # BYTES, not characters — the engine's vectorized
                # guard uses pc.binary_length (UTF-8 byte count), so
                # the oracle must measure the same unit or the
                # differential diverges on any non-ASCII URL
                if self.max_url_len and len(cu.encode()) > self.max_url_len:
                    continue
                if self._rep_re is not None:
                    parts = cu.split("/", 3)
                    if self._rep_re.search(
                            "/" + parts[3] if len(parts) > 3 else "/"):
                        continue
                if banned and get_host(cu, "") in banned:
                    continue
                h = url_hash64(cu)
                if not seen_ok:
                    if h in seen:
                        continue
                    seen.add(h)
                host = get_host(cu, "")
                if not self._allowed(host, cu):
                    continue
                admitted.append((cu, parent, depth, prio, host, h))
            by_host = defaultdict(list)
            for row in admitted:
                by_host[row[4]].append(row)
            granted, backlog = [], []
            for host, rows in by_host.items():
                rows.sort(key=lambda t: (t[3], t[5]))
                k = self._budget_of(host)
                granted.extend(rows[:k])
                backlog.extend(rows[k:k + self.max_pending])
            if not granted:
                # granted==0 implies admitted==0 (every non-empty host
                # grants >=1), mirroring the loop's early break
                break
            imgs_before = len(images)
            fetched_urls = sorted(u for u, *_ in granted)
            next_candidates = []
            for url, parent, depth, prio, host, h in granted:
                parents[url] = parent
                depths[url] = depth
                rule = self.storage.find_crawler_rule(url)
                if rule is None:
                    pages[url] = (0, None)
                    continue
                # inline 3xx following — the sequential mirror of
                # FetchParseStage._follow_fetch (hop bound, loop
                # detection, canonical-final seen dedup)
                from urllib.parse import urljoin
                cur, hops, visited = url, 0, {url}
                text = resp = None
                status = -2
                while True:
                    text, resp = self.adapter.request(
                        **dict(rule.get_request(url=cur)))
                    if isinstance(resp, Exception):
                        status = -1
                        break
                    status = resp.status_code
                    if status in (301, 302, 303, 307, 308):
                        loc = (resp.headers.get("Location")
                               or resp.headers.get("location"))
                        if loc:
                            nxt = urljoin(cur, loc)
                            hops += 1
                            if hops > self.max_redirects or nxt in visited:
                                status = -2
                                break
                            # robots applies to redirect TARGETS too —
                            # a 301 chain must not smuggle a disallowed
                            # page past the admission filter
                            if not self._allowed(get_host(nxt, ""), nxt):
                                status = -3
                                break
                            visited.add(nxt)
                            cur = nxt
                            continue
                    break
                if status in (-1, -2, -3):
                    if hops:   # failed chains keep their hop count
                        finals[url] = ("", hops)
                    pages[url] = (status, None)
                    continue
                if hops:
                    fc = canonicalize_url(cur)
                    finals[url] = (fc, hops)
                    if status == 200 and fc != url:
                        fh = url_hash64(fc)
                        if fh in seen:
                            redirect_dups.add(url)
                            pages[url] = (status, None)
                            continue
                        seen.add(fh)
                if status != 200:
                    pages[url] = (status, None)
                    continue
                context = {"resp": resp,
                           "request_args": {"url": url, "method": "get"}}
                body = self.vm.parse(text, rule, context)[rule["name"]]
                pages[url] = (status, body)
                rule_names[url] = rule["name"]
                origin = url.split("/", 3)
                origin = f"{origin[0]}//{origin[2]}"
                for img in body.get("images") or []:
                    src = img.get("src")
                    if not src:
                        continue
                    img_url = src if src.startswith("http") else origin + src
                    ih = url_hash64("img|" + img_url)
                    if ih in img_seen:
                        continue
                    img_seen.add(ih)
                    try:
                        s, _hh, blob = self.web.get(img_url)
                    except Exception:
                        continue
                    if s != 200:
                        continue
                    import re as _re
                    m = _re.search(r"/img/(\d+)\.(?:ppm|bmp|png|qpx)$", img_url)
                    if m:
                        image_id = f"img-{int(m.group(1)):010d}"
                    else:
                        from ..rulevm.parsers import md5 as _md5
                        image_id = f"img-{_md5(img_url, 16)}"
                    images[image_id] = (blob, img.get("caption") or "")
                    image_round[image_id] = r
                for link in body.get(EngineConfig.__request__) or []:
                    if isinstance(link, str):
                        next_candidates.append(
                            (link, url, depth + 1, float(depth + 1), False))
            if self.host_error_budget > 0:
                for url, _p, _d, _pr, host, _h in granted:
                    s = pages[url][0]
                    if s == -1 or s >= 500:
                        host_errors[host] = host_errors.get(host, 0) + 1
                banned = {hh for hh, n in host_errors.items()
                          if n >= self.host_error_budget}
            for url, parent, depth, prio, host, h in backlog:
                next_candidates.append((url, parent, depth, prio, True))
            rounds.append({"round": r, "fetched": fetched_urls,
                           "granted": len(granted), "backlog": len(backlog),
                           "pages_ok": sum(
                               1 for u in fetched_urls
                               if pages[u][0] == 200),
                           "images": len(images) - imgs_before})
            candidates = next_candidates
        return {"rounds": rounds, "pages": pages, "images": images,
                "image_round": image_round,
                "seen": seen, "parents": parents, "rule_names": rule_names,
                "finals": finals, "redirect_dups": redirect_dups,
                "depths": depths}


def assemble_oracle_trees(result: dict) -> dict:
    """Single-process reference assembly of the nested ``__result__``
    trees from a BFSOracle run — the independent twin the distributed
    ``crawl.assemble.assemble_results`` stage is asserted against.

    Shape per node (reference: crawler.py:174-189):
    ``{rule_name: {**body, '__result__': [child trees]}}`` in the
    page's ``__request__`` extraction order; a link whose page was
    first fetched under a DIFFERENT parent (BFS dedup) contributes
    ``None`` — documented deviation from the reference's refetching
    recursion, identical in both assemblers."""
    from ..config import EngineConfig
    from ..rulevm.urlutil import canonicalize_url

    pages, parents = result["pages"], result["parents"]
    rule_names = result["rule_names"]

    def node(url):
        status, body = pages[url]
        if status != 200 or body is None:
            return None
        out = dict(body)
        links = body.get(EngineConfig.__request__) or []
        if links:
            kids = []
            for link in links:
                cu = canonicalize_url(link)
                kids.append(node(cu) if parents.get(cu) == url else None)
            out[EngineConfig.__result__] = kids
        return {rule_names[url]: out}

    roots = [u for u, p in parents.items() if p == ""]
    return {u: node(u) for u in roots}
