"""Sitemap discovery/parse units + the sitemap-seeded crawl vs the
conformance oracle (crawl/sitemap.py is new capability on the crawl
axis — the reference engine has no crawler, so these are golden
assertions against the sitemaps.org protocol semantics)."""

import pyarrow.parquet as pq

from uniparser_ray.crawl.loop import CrawlConfig, run_crawl
from uniparser_ray.crawl.oracle import BFSOracle
from uniparser_ray.crawl.sitemap import (DEFAULT_PRIORITY_BP,
                                         discover_sitemaps, ingest_host,
                                         parse_sitemap, seed_priority)
from uniparser_ray.sources.synthweb import SynthWeb


def test_discover_sitemaps_lines():
    txt = ("User-agent: *\nDisallow: /x\n"
           "Sitemap: http://a.test/sitemap.xml\n"
           "sitemap:http://a.test/other.xml   \n"
           "SiteMap: http://a.test/third.xml # trailing comment\n"
           "Sitemap:\n"                      # empty value ignored
           "NotSitemap: http://a.test/no.xml\n")
    assert discover_sitemaps(txt) == [
        "http://a.test/sitemap.xml", "http://a.test/other.xml",
        "http://a.test/third.xml"]


def test_parse_sitemap_urlset_defaults_and_whitespace():
    xml = """<?xml version="1.0"?>
    <urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
      <url><loc>  http://a.test/1  </loc>
           <lastmod>2026-01-02</lastmod>
           <priority>0.8000</priority></url>
      <url><loc>http://a.test/2</loc></url>
      <URL><LOC>http://a.test/3</LOC><PRIORITY>bogus</PRIORITY></URL>
      <url><lastmod>2026-01-01</lastmod></url>
    </urlset>"""
    entries, children = parse_sitemap(xml)
    assert children == []
    assert entries == [
        ("http://a.test/1", "2026-01-02", 8000),
        ("http://a.test/2", "", DEFAULT_PRIORITY_BP),
        # unparseable priority falls back to the spec default; the
        # loc-less block contributes nothing
        ("http://a.test/3", "", DEFAULT_PRIORITY_BP)]


def test_parse_sitemap_index_and_priority_clamp():
    xml = """<sitemapindex>
      <sitemap><loc>http://a.test/sitemap-0.xml</loc></sitemap>
      <sitemap><loc>http://a.test/sitemap-1.xml</loc></sitemap>
    </sitemapindex>"""
    entries, children = parse_sitemap(xml)
    assert entries == []
    assert children == ["http://a.test/sitemap-0.xml",
                        "http://a.test/sitemap-1.xml"]
    # priority is clamped to [0, 10000] basis points
    e, _ = parse_sitemap("<url><loc>u</loc><priority>7.5</priority></url>"
                         "<url><loc>v</loc><priority>-1</priority></url>")
    assert [bp for _u, _l, bp in e] == [10000, 0]


def test_ingest_host_follows_chunked_index_and_handles_absence():
    # enough base pages that the rank-0 host's entry count exceeds
    # SITEMAP_CHUNK -> /sitemap.xml is a <sitemapindex> of chunk files
    web = SynthWeb(num_hosts=4, base_pages=20, fanout=2, hot_factor=4.0)
    entries0 = web.sitemap_entries(0)
    assert len(entries0) > web.SITEMAP_CHUNK
    rows = ingest_host(web, web.host_name(0))
    assert [(r["url"], r["lastmod"], r["priority_bp"]) for r in rows] == \
        entries0
    assert {r["sitemap_url"] for r in rows} == {
        f"http://{web.host_name(0)}/sitemap-{k}.xml"
        for k in range(-(-len(entries0) // web.SITEMAP_CHUNK))}
    # h=2 (h%3==2) advertises nothing and 404s on /sitemap.xml
    assert not web.has_sitemap(2)
    assert ingest_host(web, web.host_name(2)) == []
    status, _h, _b = web.get(f"http://{web.host_name(2)}/sitemap.xml")
    assert status == 404
    # unknown host: absence, not an error
    assert ingest_host(web, "nosuch.test") == []


def test_ingest_host_bounds_index_recursion():
    class LoopyWeb:
        """Hostile: the sitemap index points at itself forever."""
        def get(self, url):
            if url.endswith("/robots.txt"):
                return 200, {}, b"Sitemap: http://x.test/sitemap.xml\n"
            return 200, {}, (b"<sitemapindex><sitemap>"
                             b"<loc>http://x.test/sitemap.xml</loc>"
                             b"</sitemap></sitemapindex>")

    assert ingest_host(LoopyWeb(), "x.test") == []


def test_seed_priority_ordering():
    # higher advertised priority -> smaller frontier key; always
    # strictly between the explicit seeds (0.0) and depth-1 links (1.0)
    lo, hi = seed_priority(1000), seed_priority(9999)
    assert 0.0 < hi < lo < 1.0
    assert seed_priority(10000) > 0.0


def test_crawl_sitemap_seeded_matches_oracle(ray_session, tmp_path):
    """sitemap_seeds=True: the distributed crawl (round-0 frontier
    augmented by the task-parallel sitemap ingest) reproduces the
    conformance oracle's per-round fetch sets and lineage — and the
    seeding demonstrably engaged (round 0 fetches more than the seed
    list; sitemap-sourced pages carry their sitemap chunk as parent)."""
    web_cfg = dict(num_hosts=4, base_pages=10, fanout=2, hot_factor=4.0)
    web = SynthWeb(**web_cfg)
    out = tmp_path / "crawl_sm"
    cfg = CrawlConfig(web_config=web_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=30,
                      per_host_budget=3,
                      seen_shard_bits=2, sitemap_seeds=True)
    run_crawl(cfg, web.rule_pack())

    oracle = BFSOracle(web, web.rule_pack(), per_host_budget=3)
    want = oracle.run(web.seed_urls(), max_rounds=30, sitemap_seeds=True)

    rounds, parents = [], {}
    r = 0
    while (out / "pages" / f"round={r}").exists():
        urls = []
        for f in sorted((out / "pages" / f"round={r}").glob("*.parquet")):
            t = pq.read_table(f, columns=["url", "parent"])
            urls.extend(t["url"].to_pylist())
            parents.update(zip(t["url"].to_pylist(),
                               t["parent"].to_pylist()))
        rounds.append(sorted(urls))
        r += 1
    assert rounds == [r["fetched"] for r in want["rounds"]]
    assert parents == want["parents"]

    # seeding engaged: round 0 fetched beyond the seed roots, and at
    # least one fetched page's parent is a sitemap URL
    assert len(rounds[0]) > len(web.seed_urls())
    assert any("/sitemap" in p for p in parents.values())


def test_crawl_sitemap_seeded_disjoint_from_plain(ray_session, tmp_path):
    """Control: with sitemap_seeds=False nothing changes — round-0 is
    exactly the seed roots (guards against the ingest leaking into the
    default path)."""
    web_cfg = dict(num_hosts=4, base_pages=10, fanout=2, hot_factor=4.0)
    web = SynthWeb(**web_cfg)
    out = tmp_path / "crawl_plain"
    cfg = CrawlConfig(web_config=web_cfg, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=2,
                      per_host_budget=3,
                      seen_shard_bits=2)
    run_crawl(cfg, web.rule_pack())
    d = out / "pages" / "round=0"
    urls = sorted(u for f in d.glob("*.parquet")
                  for u in pq.read_table(f, columns=["url"])["url"]
                  .to_pylist())
    assert urls == sorted(web.seed_urls())


def test_sitemap_lastmod_couples_to_revision_model():
    """Round-5 freshness coupling: at epoch 0 sitemaps are
    byte-identical to the historic web; at epoch 1 exactly the
    revision-bumped pages advertise a post-horizon (2027-*) lastmod
    while every other field is untouched — the invariant the
    crawl_sitemap_recrawl oracle keys on."""
    cfg = dict(num_hosts=6, base_pages=20, fanout=2, hot_factor=4.0)
    w0 = SynthWeb(**cfg)
    w1 = SynthWeb(**dict(cfg, epoch=1))
    saw_changed = 0
    for h in range(w0.num_hosts):
        e0, e1 = w0.sitemap_entries(h), w1.sitemap_entries(h)
        assert [u for u, _l, _p in e0] == [u for u, _l, _p in e1]
        assert [p for _u, _l, p in e0] == [p for _u, _l, p in e1]
        for (u, l0, _), (_, l1, _) in zip(e0, e1):
            p = int(u.rsplit("/", 1)[1]) if "/page/" in u else 0
            if w1.page_rev(h, p) > 0:
                assert l1.startswith("2027-"), (u, l1)
                saw_changed += 1
            else:
                assert l1 == l0, (u, l0, l1)
            assert not l0.startswith("2027-")   # epoch 0 never flags
    assert saw_changed > 0


def test_crawl_sitemap_recrawl_fetches_only_flagged(ray_session):
    """The delta-recrawl query's efficiency claim as data: result rows
    == (crawled-200 INTERSECT advertised-with-bumped-lastmod), every
    one 200/changed with the bumped validator — no 304 header
    exchanges for the unchanged corpus at all."""
    from uniparser_ray.pipelines.crawl_q import (crawl_sitemap_recrawl,
                                                 expected_sitemap_recrawl)

    got = crawl_sitemap_recrawl("/root/testdata/sf0.001").to_pandas() \
        .sort_values("url").reset_index(drop=True)
    want = expected_sitemap_recrawl("sf0.001").to_pandas() \
        .sort_values("url").reset_index(drop=True)
    assert len(got) == len(want) > 0
    assert (got["recrawl_status"] == 200).all()
    assert (got["changed"] == 1).all()
    import pandas.testing as pdt
    pdt.assert_frame_equal(got, want)
