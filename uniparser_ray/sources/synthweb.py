"""Deterministic synthetic web — the offline page server.

The sandbox has no network, so crawls run against this in-process web:
a fixed universe of hosts ``host-{h:04d}.test`` whose page-count
distribution is Zipf-skewed (a few hot domains exercise the engine's
skew-splitting path).  Every byte served is a pure function of the URL,
so fetch tasks on any worker — and the single-process oracle — see the
same web without sharing state.

Page graph (per host): page ``p`` links to children ``p*fanout+1 ..
p*fanout+fanout`` (within the host's page budget) plus a duplicate
back-link to page ``p`` itself and an occasional cross-host link to a
hot host's root — giving the URL-seen filter real work.  Pages embed
0-3 ``<img>`` tags whose ``src`` resolves to an image endpoint
(``/img/{image_index}.{fmt}``) backed by the deterministic image table
(sources.images) and whose ``alt`` is the caption — the crawl's
image+caption pairs.

Status codes are deterministic: ~2.7% of pages 404, ~1.9% 500 —
exercising the error-as-value columns.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .images import caption_for, image_spec, render_encoded, _mix

_URL_RE = re.compile(r"^http://host-(\d{4})\.test(/.*)?$")


class SynthWeb:
    def __init__(self, num_hosts: int = 50, base_pages: int = 40,
                 fanout: int = 3, hot_factor: float = 25.0, seed: int = 42,
                 page_weight: int = 0, image_rate: float = 1.0,
                 flaky_mod: int = 0, flaky_attempts: int = 1,
                 redirect_rate: float = 0.0, lossy_rate: float = 0.0,
                 epoch: int = 0, change_rate: float = 0.25,
                 trap_links: bool = False,
                 robots_wildcards: bool = False):
        self.num_hosts = num_hosts
        self.base_pages = base_pages
        self.fanout = fanout
        self.seed = seed
        # page_weight = extra filler paragraphs per page: scales the
        # DOM size toward real-web page sizes (~100 bytes each) so
        # benchmarks exercise a compute-bound parse stage; content is
        # a pure function of (h, p), so conformance is unaffected
        self.page_weight = page_weight
        # fraction of pages carrying <img> tags (image density knob —
        # deterministic per (h, p); default 1.0 keeps historic behavior)
        self.image_rate = image_rate
        # transient-failure model: pages with _mix(h*1e6+p, 77) %
        # flaky_mod == 0 serve 503 on attempts < flaky_attempts, then
        # recover — deterministic per (url, attempt), so any worker
        # (and the oracle, passing attempt >= flaky_attempts or
        # flaky_mod=0) sees the same web
        self.flaky_mod = flaky_mod
        self.flaky_attempts = flaky_attempts
        # legacy-URL redirect model (off by default — byte-identical
        # web when 0): a deterministic ~redirect_rate fraction of
        # non-root pages are "moved" — every link to such a page is
        # emitted in its LEGACY form (/old/{p}, or /old2/{p} for a
        # sub-slice that chains two hops) and the legacy paths answer
        # 301 (relative Location) / 302 (absolute Location) toward the
        # canonical /page/{p}.  The alias form is a pure function of
        # the TARGET (h, p), so the whole web agrees on one alias per
        # page — at most one legacy URL ever maps to a canonical URL,
        # which keeps redirect dedup deterministic under any fetch
        # order.  Hosts h % 7 == 1 additionally link a 2-cycle
        # redirect loop (/loopx <-> /loopy) from their root page —
        # the TooManyRedirects path.
        self.redirect_rate = redirect_rate
        # lossy-image model (off by default): a deterministic
        # ~lossy_rate fraction of image endpoints serve the SAME source
        # pixels QPX-encoded (6-bit quantized — PSNR ~46 dB vs the
        # render) instead of the lossless spec format.  Pure function
        # of the image index, so the crawl engine and the oracle fetch
        # identical bytes; the conformance bound for these rows is the
        # north rule's "PSNR>=40dB for lossy", not bit equality with
        # the source.
        self.lossy_rate = lossy_rate
        # freshness model (epoch 0 = the historic web, byte-identical):
        # at each later epoch a deterministic ~change_rate slice of
        # pages changes — its revision count bumps, the body gains a
        # revision line, and the ETag (W/"h-p-rev", served on every
        # page response) moves.  Conditional GETs (If-None-Match)
        # answer 304 with an empty body when the tag still matches —
        # the recrawl scheduler's delta-fetch path.
        self.epoch = epoch
        self.change_rate = change_rate
        # spider trap (off by default): every root page links /trap/x,
        # and each /trap(/x)+ page serves one link a segment DEEPER —
        # an infinite crawl unless a guard (CrawlConfig.max_depth /
        # max_url_len / max_path_repeats) cuts it
        self.trap_links = trap_links
        # RFC-9309 robots model (off by default — byte-identical robots
        # when False): hosts serve wildcard/anchor/Allow rules and
        # specific-UA groups (see robots_txt) so the RFC 9309 matcher
        # has real semantics to chew on; pure function of h, so engine
        # and oracle agree.
        self.robots_wildcards = robots_wildcards
        # Zipf-ish page budget: rank-0 host has hot_factor * base pages
        self.pages_of_host = [
            max(3, int(base_pages * (hot_factor / (h + 1) ** 0.9)))
            for h in range(num_hosts)
        ]
        self.total_pages = sum(self.pages_of_host)

    # -- identity helpers --------------------------------------------------
    def host_name(self, h: int) -> str:
        return f"host-{h:04d}.test"

    def page_url(self, h: int, p: int) -> str:
        return f"http://{self.host_name(h)}/" if p == 0 else \
            f"http://{self.host_name(h)}/page/{p}"

    def image_index(self, h: int, p: int, k: int) -> int:
        """Global image-table index for slot k of page (h, p)."""
        return (_mix(h * 1_000_003 + p, self.seed) + k) % (1 << 31)

    # -- page content ------------------------------------------------------
    def page_status(self, h: int, p: int) -> int:
        m = _mix(h * 1_000_003 + p, self.seed + 7)
        if p > 0 and m % 37 == 13:
            return 404
        if p > 0 and m % 53 == 17:
            return 500
        return 200

    def child_pages(self, h: int, p: int) -> List[int]:
        limit = self.pages_of_host[h]
        base = p * self.fanout
        return [base + i for i in range(1, self.fanout + 1) if base + i < limit]

    def cross_link(self, h: int, p: int) -> str:
        m = _mix(h * 1_000_003 + p, self.seed + 11)
        if m % 5 == 0 and self.num_hosts > 1:
            target = m % min(8, self.num_hosts)
            if target != h:
                return self.page_url(target, 0)
        return ""

    # -- redirects ----------------------------------------------------------
    def alias_kind(self, h: int, p: int) -> int:
        """0 = page linked directly; 1 = linked as /old/{p} (one 301
        hop); 2 = linked as /old2/{p} (302 -> /old/{p} -> 301 ->
        /page/{p}, a two-hop chain).  Pure function of the target."""
        if self.redirect_rate <= 0 or p == 0:
            return 0
        m = _mix(h * 1_000_003 + p, self.seed + 29)
        if m % 1000 >= self.redirect_rate * 1000:
            return 0
        return 2 if m % 5 == 0 else 1

    def link_url(self, h: int, p: int) -> str:
        """The URL the rest of the web uses to link to page (h, p) —
        the legacy form when the page is 'moved'."""
        kind = self.alias_kind(h, p)
        if kind == 1:
            return f"http://{self.host_name(h)}/old/{p}"
        if kind == 2:
            return f"http://{self.host_name(h)}/old2/{p}"
        return self.page_url(h, p)

    def has_redirect_loop(self, h: int) -> bool:
        return self.redirect_rate > 0 and h % 7 == 1

    # -- freshness ----------------------------------------------------------
    def page_rev(self, h: int, p: int) -> int:
        """Revision count of page (h, p) at this web's epoch: +1 for
        every epoch 1..self.epoch in which the page changed.  Pure
        function of (h, p, epoch) — any worker and the oracle agree."""
        rev = 0
        for e in range(1, self.epoch + 1):
            if _mix(h * 1_000_003 + p, self.seed + 37 * e) % 1000 \
                    < self.change_rate * 1000:
                rev += 1
        return rev

    def page_etag(self, h: int, p: int) -> str:
        return f'W/"{h}-{p}-{self.page_rev(h, p)}"'

    def num_images(self, h: int, p: int) -> int:
        m = _mix(h * 1_000_003 + p, self.seed + 13)
        if self.image_rate < 1.0 and (m >> 8) % 1000 >= self.image_rate * 1000:
            return 0
        return m % 4

    def image_fmt(self, idx: int) -> str:
        """Served format for image index idx: the lossless spec format,
        or 'qpx' for the deterministic lossy slice."""
        if self.lossy_rate > 0 and \
                _mix(idx, self.seed + 31) % 1000 < self.lossy_rate * 1000:
            return "qpx"
        return image_spec(idx)[2]

    def render_page(self, h: int, p: int) -> str:
        parts = [f"<html><head><title>Host {h} Page {p}</title></head><body>",
                 f'<h1 class="page-title">Page {p} of host-{h:04d}</h1>']
        for k in range(self.num_images(h, p)):
            idx = self.image_index(h, p, k)
            fmt = self.image_fmt(idx)
            parts.append(
                f'<img class="photo" src="/img/{idx}.{fmt}" alt="{caption_for(idx)}"/>')
        for child in self.child_pages(h, p):
            href = self.link_url(h, child).split(".test", 1)[1] \
                if self.redirect_rate > 0 else f"/page/{child}"
            parts.append(f'<a class="nav" href="{href}">child {child}</a>')
        if p == 0 and self.has_redirect_loop(h):
            parts.append('<a class="nav" href="/loopx">legacy index</a>')
        if p == 0 and self.trap_links:
            parts.append('<a class="nav" href="/trap/x">calendar</a>')
        # duplicate link (dedup work for the seen filter)
        parts.append(f'<a class="nav" href="{self.page_url(h, p)}">self</a>')
        cross = self.cross_link(h, p)
        if cross:
            parts.append(f'<a class="nav" href="{cross}">cross</a>')
        rev = self.page_rev(h, p)
        if rev:   # epoch 0 stays byte-identical to the historic web
            parts.append(f'<p class="rev">revision {rev}</p>')
        words = ("lorem ipsum dolor sit amet consectetur adipiscing elit "
                 "sed do eiusmod tempor incididunt ut labore").split()
        for i in range(self.page_weight):
            m = _mix(h * 1_000_003 + p, self.seed + 17 + i)
            text = " ".join(words[(m + j) % len(words)] for j in range(14))
            parts.append(f'<p class="filler" data-i="{i}">{text}</p>')
        parts.append("</body></html>")
        return "\n".join(parts)

    def robots_txt(self, h: int) -> str:
        if self.robots_wildcards:
            # RFC-9309 exercise set (deterministic per host): wildcard
            # + $ anchor + Allow override; specific-UA group selection
            # with a disallow-everything decoy group; longest-match
            # precedence between an Allow and a shorter Disallow
            v = h % 4
            if v == 0:
                base = ("User-agent: *\n"
                        "Disallow: /page/*3$\n"   # every page ending in 3
                        "Allow: /page/13$\n"      # ...except exactly 13
                        "Disallow: /page/2*\n")   # 2, 20-29, 2xx
            elif v == 1:
                base = ("User-agent: otherbot\nDisallow: /\n"
                        "User-agent: uniparser-ray\n"
                        "Disallow: /page/*7$\n"
                        "User-agent: *\nDisallow: /page/\n")
            elif v == 2:
                # the "uniparser" group is another crawler's: its token
                # is only a prefix of ours, so * applies to us
                base = ("User-agent: uniparser\nDisallow: /\n"
                        "User-agent: *\n"
                        "Disallow: /page/1\n"     # 1, 10-19, 1xx
                        "Allow: /page/1*0$\n")    # ...except 10, 100...
            else:
                # group-specific Crawl-delay: the engine's own group
                # asks 40s while the catch-all asks 5 — a matcher
                # honoring only * under-throttles by 8x, so the
                # delay-budget differential catches group selection
                base = ("User-agent: uniparser-ray\n"
                        "Crawl-delay: 40\nDisallow:\n"
                        "User-agent: *\n"
                        "Crawl-delay: 5\nDisallow:\n")
        elif h % 5 == 0:
            base = "User-agent: *\nDisallow: /page/13\nDisallow: /private/\n"
        elif h % 5 == 3:
            # polite host: Crawl-delay throttles the per-round budget
            # when CrawlConfig.robots_delay_budget is on
            base = "User-agent: *\nCrawl-delay: 20\nDisallow:\n"
        else:
            base = "User-agent: *\nDisallow:\n"
        # standard sitemap discovery: advertising hosts carry a
        # ``Sitemap:`` line (outside any user-agent group, per spec)
        if self.has_sitemap(h):
            base += f"Sitemap: http://{self.host_name(h)}/sitemap.xml\n"
        return base

    # -- sitemaps ----------------------------------------------------------
    # chunk size for big hosts: a real sitemap caps at 50k URLs and hot
    # hosts serve a <sitemapindex> of chunk files — modeled here with a
    # small cap so the index path is exercised at test scale
    SITEMAP_CHUNK = 32

    def has_sitemap(self, h: int) -> bool:
        # ~2/3 of hosts advertise a sitemap; the rest 404 on it (the
        # discovery path must tolerate absence)
        return h % 3 != 2

    def sitemap_entries(self, h: int) -> List[Tuple[str, str, int]]:
        """(url, lastmod, priority_bp) rows host ``h`` advertises —
        a deterministic ~75% subset of its real pages.  lastmod may be
        "" and priority_bp may be the spec default 5000 (the rendered
        XML omits those tags), so parser defaults are value-checked.
        Pure function of (h, seed): any worker and the oracle agree."""
        if not self.has_sitemap(h):
            return []
        out = []
        for p in range(self.pages_of_host[h]):
            m = _mix(h * 1_000_003 + p, self.seed + 23)
            if m % 4 == 0:
                continue   # pages the host does not advertise
            prio_bp = 5000 if m % 5 == 0 else 1000 + (m >> 8) % 9000
            lastmod = "" if m % 7 == 0 else \
                f"2026-{1 + (m >> 16) % 12:02d}-{1 + (m >> 20) % 28:02d}"
            # freshness coupling (epoch model): a page whose revision
            # bumped since epoch 0 advertises a POST-CRAWL lastmod
            # (2027-*) — the signal a lastmod-driven recrawl scheduler
            # keys on.  At epoch 0 rev is always 0, so historic webs
            # serve byte-identical sitemaps.
            rev = self.page_rev(h, p)
            if rev:
                lastmod = f"2027-01-{min(28, rev):02d}"
            out.append((self.page_url(h, p), lastmod, prio_bp))
        return out

    def _sitemap_urlset_xml(self, entries) -> str:
        parts = ['<?xml version="1.0" encoding="UTF-8"?>',
                 '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
        for url, lastmod, prio_bp in entries:
            row = [f"<url><loc>{url}</loc>"]
            if lastmod:
                row.append(f"<lastmod>{lastmod}</lastmod>")
            if prio_bp != 5000:   # 0.5 is the spec default — omit it
                row.append(f"<priority>{prio_bp / 10000:.4f}</priority>")
            row.append("</url>")
            parts.append("".join(row))
        parts.append("</urlset>")
        return "\n".join(parts)

    def sitemap_xml(self, h: int, chunk: int = -1) -> str:
        """``/sitemap.xml`` (chunk=-1) or ``/sitemap-{k}.xml``.  Hosts
        whose entry count exceeds SITEMAP_CHUNK serve a <sitemapindex>
        of chunk files at the root slot — the standard layout for big
        hosts — and the chunks hold the entries."""
        entries = self.sitemap_entries(h)
        host = self.host_name(h)
        if chunk < 0 and len(entries) > self.SITEMAP_CHUNK:
            n_chunks = -(-len(entries) // self.SITEMAP_CHUNK)
            parts = ['<?xml version="1.0" encoding="UTF-8"?>',
                     '<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
            for k in range(n_chunks):
                parts.append(f"<sitemap><loc>http://{host}/sitemap-{k}.xml"
                             f"</loc></sitemap>")
            parts.append("</sitemapindex>")
            return "\n".join(parts)
        if chunk >= 0:
            entries = entries[chunk * self.SITEMAP_CHUNK:
                              (chunk + 1) * self.SITEMAP_CHUNK]
        return self._sitemap_urlset_xml(entries)

    # -- the server --------------------------------------------------------
    def get(self, url: str, attempt: int = 0,
            headers: dict = None) -> Tuple[int, dict, bytes]:
        m = _URL_RE.match(url)
        if not m:
            raise ValueError(f"DNS error: unknown host for {url}")
        h = int(m.group(1))
        if h >= self.num_hosts:
            raise ValueError(f"DNS error: unknown host for {url}")
        path = m.group(2) or "/"
        if path == "/robots.txt":
            return 200, {"Content-Type": "text/plain"}, self.robots_txt(h).encode()
        sm = re.fullmatch(r"/sitemap(?:-(\d+))?\.xml", path)
        if sm:
            if not self.has_sitemap(h):
                return 404, {"Content-Type": "text/html"}, b"<h1>404</h1>"
            chunk = -1 if sm.group(1) is None else int(sm.group(1))
            return 200, {"Content-Type": "application/xml"}, \
                self.sitemap_xml(h, chunk).encode()
        if self.redirect_rate > 0:
            # legacy paths answer redirects toward the canonical page:
            # /old2/{p} -> 302 absolute -> /old/{p} -> 301 relative ->
            # /page/{p}; /loopx <-> /loopy is a 2-cycle (never lands)
            old = re.fullmatch(r"/old(2?)/(\d+)", path)
            if old:
                p = int(old.group(2))
                if old.group(1):
                    loc = f"http://{self.host_name(h)}/old/{p}"
                    return 302, {"Content-Type": "text/html",
                                 "Location": loc}, b""
                return 301, {"Content-Type": "text/html",
                             "Location": f"/page/{p}"}, b""
            if path in ("/loopx", "/loopy"):
                loc = "/loopy" if path == "/loopx" else "/loopx"
                return 302, {"Content-Type": "text/html",
                             "Location": loc}, b""
        if self.trap_links:
            trap = re.fullmatch(r"/trap(?:/x)+", path)
            if trap:
                body = ('<html><head><title>Trap</title></head><body>'
                        '<h1 class="page-title">Trap</h1>'
                        f'<a class="nav" href="{path}/x">next day</a>'
                        "</body></html>")
                return 200, {"Content-Type": "text/html"}, body.encode()
        img = re.fullmatch(r"/img/(\d+)\.(ppm|bmp|png|qpx)", path)
        if img:
            idx = int(img.group(1))
            if img.group(2) == "qpx":
                from .codecs import encode_qpx
                from .images import render_pixels
                return 200, {"Content-Type": "application/octet-stream"}, \
                    encode_qpx(render_pixels(idx))
            return 200, {"Content-Type": "application/octet-stream"}, \
                render_encoded(idx)
        page = re.fullmatch(r"/(?:page/(\d+))?", path)
        if not page:
            return 404, {"Content-Type": "text/html"}, b"<h1>404</h1>"
        p = int(page.group(1) or 0)
        if p >= self.pages_of_host[h]:
            return 404, {"Content-Type": "text/html"}, b"<h1>404</h1>"
        if (self.flaky_mod and attempt < self.flaky_attempts
                and _mix(h * 1_000_003 + p, 77) % self.flaky_mod == 0):
            # Retry-After rides every 503 (deterministic 60 or 120 s);
            # crawlers honoring it (CrawlConfig.honor_retry_after)
            # defer the requeue by ceil(sec / round_seconds) rounds
            ra = 60 * (1 + _mix(h * 1_000_003 + p, 99) % 2)
            return 503, {"Content-Type": "text/html",
                         "Retry-After": str(ra)}, b"<h1>503</h1>"
        status = self.page_status(h, p)
        if status != 200:
            return status, {"Content-Type": "text/html"}, \
                f"<h1>{status}</h1>".encode()
        etag = self.page_etag(h, p)
        if headers and headers.get("If-None-Match") == etag:
            return 304, {"Content-Type": "text/html", "ETag": etag}, b""
        return 200, {"Content-Type": "text/html", "ETag": etag}, \
            self.render_page(h, p).encode()

    # -- crawl inputs ------------------------------------------------------
    def seed_urls(self) -> List[str]:
        return [self.page_url(h, 0) for h in range(self.num_hosts)]

    def all_page_urls(self) -> List[str]:
        """Every page URL in the universe — pre-seeding the frontier
        with these reproduces the sustained-throughput regime (at
        10^10 scale the frontier is never ramp-up-small)."""
        return [self.page_url(h, p) for h in range(self.num_hosts)
                for p in range(self.pages_of_host[h])]

    def rule_pack(self) -> dict:
        """{host: HostRule-dict} for the image+caption crawl: every page
        yields title, per-image (src, caption) pairs, and child links as
        ``__request__`` (absolute-ized against the page URL)."""
        pack = {}
        for h in range(self.num_hosts):
            host = self.host_name(h)
            pack[host] = {
                "host": host,
                "crawler_rules": {
                    "page": {
                        "name": "page",
                        "request_args": {"method": "get", "url": f"http://{host}/"},
                        "parse_rules": [
                            {"name": "title",
                             "chain_rules": [["css", "h1.page-title", "$text"],
                                             ["py", "getitem", "[0]"]],
                             "child_rules": []},
                            {"name": "images",
                             "chain_rules": [["css", "img.photo", "$self"]],
                             "iter_parse_child": True,
                             "child_rules": [
                                 {"name": "src",
                                  "chain_rules": [["udf", "obj.get('src')", ""]],
                                  "child_rules": []},
                                 {"name": "caption",
                                  "chain_rules": [["udf", "obj.get('alt')", ""]],
                                  "child_rules": []}]},
                            {"name": "__request__",
                             "chain_rules": [
                                 ["css", "a.nav", "@href"],
                                 ["udf",
                                  "[i if i.startswith('http') else "
                                  "context['req']['url'].split('/', 3)[0] + '//' + "
                                  "context['req']['url'].split('/', 3)[2] + i "
                                  "for i in obj]", ""]],
                             "child_rules": []}],
                        # legacy /old*//loop* paths match too so the
                        # fetch-time rule lookup resolves for redirect
                        # entry URLs (no-op when redirect_rate == 0:
                        # such URLs never occur)
                        "regex": (f"^http://{re.escape(host)}"
                                  "(/|/page/\\d+|/old2?/\\d+|/loop[xy]"
                                  "|/trap(?:/x)+)?$"),
                    }
                },
            }
        return pack
