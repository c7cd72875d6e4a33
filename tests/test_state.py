"""State-layer units: seen-shard modes, politeness, state-host routing."""

import numpy as np
import pyarrow as pa
import pytest

from uniparser_ray.state.politeness import PolitenessShard
from uniparser_ray.state.seen import SeenShard


def _hashes(n, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 1 << 63, size=n, dtype=np.uint64)


def test_seen_shard_cuckoo_modes_agree():
    hs = [int(h) for h in _hashes(5000, seed=5)]
    dup = hs[:100]
    for mode in ("exact", "bloom", "tandem"):
        shard = SeenShard(mode=mode, capacity=20000)
        first = shard.add_batch(hs)
        assert sum(first) >= len(hs) - 5  # approx modes may FP a few
        again = shard.add_batch(dup)
        assert not any(again)
        if mode == "tandem":
            assert shard.stats()["divergences"] == 0


def test_seen_shard_within_batch_duplicates():
    # Repeats INSIDE one batch: only the first occurrence may be new.
    h, g = [int(x) for x in _hashes(2, seed=11)]
    for mode in ("exact", "bloom", "tandem"):
        shard = SeenShard(mode=mode, capacity=1000)
        out = list(shard.add_batch([h, h, g, h]))
        assert out == [True, False, True, False], (mode, out)


def test_politeness_wall_clock_delays():
    shard = PolitenessShard()
    shard.set_rule("a.test", 1, 2.0)  # 1 request / 2 s (the reference's
    # Frequency(1, 2) timing pin: 3 downloads must span >= 4 s of
    # scheduled time; reference test_parsers.py:1326-1383)
    delays = shard.acquire_batch("a.test", 3, now=100.0)
    assert delays == [0.0, 2.0, 4.0]
    # next batch continues from the reserved schedule
    delays2 = shard.acquire_batch("a.test", 1, now=100.0)
    assert delays2 == [6.0]
    # unlimited host never waits
    assert shard.acquire_batch("b.test", 3, now=0.0) == [0.0, 0.0, 0.0]


def test_fetch_stage_wall_clock_politeness(ray_session):
    """FetchParseStage + politeness shards on a state host in
    wall-clock mode: the stage acquires per-host schedules and sleeps
    the batch delay (sleep injected, so the test is instant and
    deterministic)."""
    import pyarrow as pa
    import ray

    from uniparser_ray.sources.synthweb import SynthWeb
    from uniparser_ray.stages.crawl_stages import FetchParseStage
    from uniparser_ray.state.host import PolitenessClient, start_state_hosts

    web_cfg = dict(num_hosts=2, base_pages=4, fanout=2, hot_factor=2.0)
    web = SynthWeb(**web_cfg)
    hosts = start_state_hosts(seen={}, politeness_shards=1)
    politeness = PolitenessClient(hosts, 1)
    politeness.set_rule("host-0000.test", 1, 2.0)  # 1 req / 2 s

    slept = []
    stage = FetchParseStage(rule_pack=web.rule_pack(), web_config=web_cfg,
                            politeness=politeness, sleep_fn=slept.append)
    urls = [web.page_url(0, p) for p in range(3)]
    batch = pa.Table.from_pylist([
        {"url": u, "url_hash": 0, "host": "host-0000.test", "depth": 0,
         "priority": 0.0, "parent": ""} for u in urls])
    out = stage(batch)
    assert out.num_rows == 3
    # PER-REQUEST pacing: request 1 fires immediately, requests 2 and 3
    # each wait for their scheduled slot (2s apart) — NOT one bulk
    # sleep followed by back-to-back requests.  The injected sleep_fn
    # doesn't advance the clock, so the observed waits are the absolute
    # schedule offsets 2s and 4s.
    assert len(slept) == 2
    assert abs(slept[0] - 2.0) < 0.25 and abs(slept[1] - 4.0) < 0.25
    # a second batch continues the host's reserved schedule (slots at
    # 6/8/10s on the shard's clock)
    stage(batch)
    assert len(slept) == 5 and slept[2] > 5.0 and slept[4] > slept[3]
    for h in hosts:
        ray.kill(h)


def test_fetch_stage_paces_hosts_in_slot_order(ray_session):
    """A batch holding two hosts' rows one host after the other still
    paces each host: requests go out in slot order, so the second
    host's requests do not fire back to back once the first host's
    schedule has run (clock and sleep injected)."""
    import pyarrow as pa
    import ray

    from uniparser_ray.sources.synthweb import SynthWeb
    from uniparser_ray.stages.crawl_stages import FetchParseStage
    from uniparser_ray.state.host import PolitenessClient, start_state_hosts

    web_cfg = dict(num_hosts=2, base_pages=4, fanout=2, hot_factor=2.0)
    web = SynthWeb(**web_cfg)
    hosts = start_state_hosts(seen={}, politeness_shards=1)
    politeness = PolitenessClient(hosts, 1)
    for h in range(2):
        politeness.set_rule(web.host_name(h), 1, 2.0)  # 1 req / 2 s
    clock = [0.0]
    stage = FetchParseStage(
        rule_pack=web.rule_pack(), web_config=web_cfg,
        politeness=politeness,
        sleep_fn=lambda d: clock.__setitem__(0, clock[0] + d))
    stage._now = lambda: clock[0]
    fetch, sent = stage._follow_fetch, []

    def stamped(rule, url, attempt):
        sent.append((url.split("/")[2], clock[0]))
        return fetch(rule, url, attempt)

    stage._follow_fetch = stamped
    batch = pa.Table.from_pylist([
        {"url": web.page_url(h, p), "url_hash": 0,
         "host": web.host_name(h), "depth": 0, "priority": 0.0,
         "parent": ""} for h in range(2) for p in range(3)])
    try:
        assert stage(batch).num_rows == 6
    finally:
        for h in hosts:
            ray.kill(h)
    for h in range(2):
        ts = [t for host, t in sent if host == web.host_name(h)]
        assert len(ts) == 3
        assert all(b - a > 1.75 for a, b in zip(ts, ts[1:])), (h, ts)


@pytest.mark.parametrize("n_hosts", [1, 3])
def test_state_host_routing_matches_in_process_shards(ray_session, n_hosts):
    """Logical shards on 1 or 3 state hosts answer exactly as
    in-process shards routed by hand: the seen masks and every logical
    shard's ``added`` over 100k hashes (~40 % duplicates, several
    batches) equal 8 ``SeenShard``s picked by the top 3 bits, and
    robots (allow, Crawl-delay) per (host, path) equals one in-process
    ``RobotsShard`` on the plain and the wildcard-robots web."""
    import ray

    from uniparser_ray.sources.synthweb import SynthWeb
    from uniparser_ray.state.host import (RobotsClient, SeenFilter,
                                          start_state_hosts)
    from uniparser_ray.state.robots import RobotsShard

    rng = np.random.default_rng(7)
    fresh = rng.integers(0, np.iinfo(np.uint64).max, size=60_000,
                         dtype=np.uint64, endpoint=True)
    hashes = np.concatenate([fresh, rng.choice(fresh, size=40_000)])
    rng.shuffle(hashes)
    ref = [SeenShard("tandem", 50_000) for _ in range(8)]
    want = np.zeros(hashes.size, dtype=bool)
    batches = np.array_split(np.arange(hashes.size), 7)
    for pos in batches:
        sids = (hashes[pos] >> np.uint64(61)).astype(int)
        for sid in range(8):
            sel = pos[sids == sid]
            want[sel] = ref[sid].add_batch(hashes[sel])

    pairs = [(f"host-{h:04d}.test", p) for h in range(20)
             for p in ["/", "/private/a"] + [f"/page/{i}"
                                              for i in range(31)]]
    for wildcards in (False, True):
        web_cfg = dict(num_hosts=20, base_pages=30, fanout=2,
                       hot_factor=4.0, robots_wildcards=wildcards)
        hosts = start_state_hosts(
            n_hosts=n_hosts, seen={"seen": 3}, seen_capacity=50_000,
            robots_shards=4, web_config=web_cfg)
        try:
            assert len(hosts) == n_hosts
            seen = SeenFilter(hosts, "seen", 3)
            got = np.concatenate([seen.add_batch(hashes[pos])
                                  for pos in batches])
            assert np.array_equal(got, want)
            assert [s["added"] for s in ray.get(
                [ref_.stats.remote() for ref_ in seen.shards])] \
                == [s.added for s in ref]
            assert seen.stats()["added"] == sum(s.added for s in ref)

            web = SynthWeb(**web_cfg)
            local = RobotsShard(web_factory=lambda: web)
            exp_mask, exp_delay = local.allowed_delays_many(pairs)
            robots = RobotsClient(hosts, 4)
            mask = np.zeros(len(pairs), dtype=bool)
            delay = np.zeros(len(pairs), dtype=np.float32)
            slices, futs = robots.futures([h for h, _ in pairs],
                                          [p for _, p in pairs])
            for idx, (m, d) in zip(slices, ray.get(futs)):
                mask[idx], delay[idx] = m, d
            assert mask.tolist() == exp_mask
            assert delay.tolist() == exp_delay
            assert not all(exp_mask) and any(exp_delay)
        finally:
            for h in hosts:
                ray.kill(h)


def test_canonicalize_url_rules():
    """The seen-set key contract, rule by rule: case folding, default
    ports (http AND https), fragment drop, query-key sort with blank
    values kept, empty path, and invalid-URL passthrough."""
    from uniparser_ray.rulevm.urlutil import canonicalize_url as c

    assert c("HTTP://Host.TEST:80/A/b") == "http://host.test/A/b"  # path case kept
    assert c("https://h.test:443/x") == "https://h.test/x"
    assert c("https://h.test:8443/x") == "https://h.test:8443/x"  # non-default kept
    assert c("http://h.test/x#frag") == "http://h.test/x"
    # duplicate keys sort by (key, value) — fully deterministic
    assert c("http://h.test/x?z=1&a=2&a=1") == "http://h.test/x?a=1&a=2&z=1"
    assert c("http://h.test/x?b=&a=1") == "http://h.test/x?a=1&b="
    assert c("http://h.test") == "http://h.test/"
    assert c("http://h.test/x?") == "http://h.test/x"
    bad = "http://[broken"
    assert c(bad) == bad  # unparseable: returned untouched, never raises


def test_url_hash64_cross_process_stable():
    """url_hash64 must be identical across workers/processes (builtin
    hash() is salted) — pin an absolute value so any algorithm change
    that would silently split the distributed seen set fails here."""
    from uniparser_ray.rulevm.urlutil import url_hash64

    assert url_hash64("http://host-0000.test/") == 0xB51C66ED035DDE4C


def test_crawl_url_canon_variants_match_bruteforce():
    """The vectorized variant builder equals a per-row reference
    construction, and the production canonicalizer maps every messy
    variant back to its source URL's predicted canonical form."""
    import pandas as pd

    from uniparser_ray.pipelines.crawl_q import _variants
    from uniparser_ray.rulevm.urlutil import canonicalize_url

    urls = ["http://host-0000.test/", "http://host-0012.test/page/7",
            "http://a.test/page/1"]
    got = _variants(pd.DataFrame({"url": urls}))

    expect = []
    for u in urls:
        host, _, path = u[7:].partition("/")
        path = "/" + path
        expect += [(u, 0, u),
                   (u, 1, f"HTTP://{host.upper()}:80{path}"),
                   (u, 2, u + "?b=2&a=1&c=#frag"),
                   (u, 3, f"hTtP://{host}{path}#sec")]
        if path == "/":
            expect.append((u, 4, f"http://{host}"))
    assert sorted(map(tuple, got.itertuples(index=False))) == sorted(expect)

    for u, vid, messy in expect:
        want = u + "?a=1&b=2&c=" if vid == 2 else u
        assert canonicalize_url(messy) == want, (vid, messy)


def test_canonicalize_url_idempotent_fuzz():
    """Idempotence is a seen-set CONTRACT: a URL discovered as a link
    (canonicalized at frontier insert) and the same URL re-canonicalized
    at fetch time must produce one key, or the dedup silently splits.
    The risky part is the parse_qsl->urlencode query round-trip
    ('+'/space/%XX re-coding), so fuzz structured URLs with hostile
    query values as well as raw garbage."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from uniparser_ray.rulevm.urlutil import canonicalize_url as c

    qchars = st.text(
        alphabet="ab +%2B&=;/?#:@éİ", min_size=0, max_size=8)
    structured = st.builds(
        lambda scheme, host, port, path, q1, q2, frag:
            f"{scheme}://{host}{port}/{path}?x={q1}&y={q2}#{frag}",
        st.sampled_from(["http", "HTTP", "https", "hTtPs"]),
        st.sampled_from(["h.test", "H.TEST", "xn--caf-dma.test"]),
        st.sampled_from(["", ":80", ":443", ":8080"]),
        st.text(alphabet="Ab/%20.", max_size=6),
        qchars, qchars, st.text(max_size=4))
    anything = st.text(max_size=40)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(structured, anything))
    def prop(u):
        once = c(u)
        assert c(once) == once

    prop()


def test_canonicalize_batch_fastpath_fuzz():
    """The Arrow-regex fast path in canonicalize_batch is an
    OPTIMIZATION, never a semantic change: for any URL mix the batch
    output (canonical url, url_hash, host) must equal the pure per-row
    slow path.  Drive it with (a) URLs synthesized FROM the fast-path
    regex language itself — including \\t-free weirdness like unicode
    paths and '.' hosts — and (b) hostile non-matching URLs (uppercase
    hosts, ports, queries, fragments, \\t\\r\\n smuggling, garbage), so
    both the fixed-point claim and the routing are pinned."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from uniparser_ray.rulevm.request import get_host
    from uniparser_ray.rulevm.urlutil import canonicalize_url, url_hash64
    from uniparser_ray.stages.crawl_stages import (_CANON_FAST_RE,
                                                   canonicalize_batch)

    fast_lang = st.from_regex(_CANON_FAST_RE)
    hostile = st.one_of(
        st.builds(lambda h, p, q, f: f"http://{h}:{p}/x?{q}#{f}",
                  st.sampled_from(["H.TEST", "h.test", "h_t.test"]),
                  st.sampled_from(["80", "8080"]),
                  st.text(alphabet="a=&+%", max_size=6),
                  st.text(max_size=3)),
        st.sampled_from(["http://h.test", "HTTP://h.test/", "https://h/",
                         "http://h.test/a\tb", "http://h.test/a\nb",
                         "http://h.test/a\rb", "ftp://h/x", "", "::::"]),
        st.text(max_size=30))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(fast_lang, hostile), min_size=1,
                    max_size=8))
    def prop(urls):
        batch = pa.table({
            "url": pa.array(urls, pa.large_string()),
            "depth": pa.array([0] * len(urls), pa.int32())})
        got = canonicalize_batch(batch)
        canon = [canonicalize_url(u) for u in urls]
        assert got["url"].to_pylist() == canon
        assert got["host"].to_pylist() == [get_host(c, "") for c in canon]
        assert [int(h) for h in got["url_hash"].to_pylist()] \
            == [url_hash64(c) for c in canon]

    prop()
