"""RFC 9309 robots-matcher conformance (round 5).

Spec semantics pinned: wildcard `*`, end-anchor `$`, longest-match
precedence with Allow winning ties, user-agent group selection by
case-insensitive equality of the UA line's product token with ours
and `*` fallback, adjacent user-agent lines sharing one group,
same-token groups merging, first-wins Crawl-delay, and rules before
any user-agent line belonging to no group.  The BFS oracle's own naive
reading (a group state machine and a character-walk backtracking
matcher, crawl/oracle.py) fuzzes the engine's parser and compiled
regex form, and a differential crawl pins engine == oracle schedules
over a wildcard-robots web.
"""
import ast
import inspect

import pytest

from uniparser_ray.crawl import oracle
from uniparser_ray.crawl.oracle import naive_robots_group, naive_rule_match
from uniparser_ray.state.robots import (RobotsMatcher, parse_crawl_delay,
                                        parse_robots_rfc9309)


def test_rfc_examples():
    t = ("User-agent: *\n"
         "Disallow: /private/\n"
         "Allow: /private/public*\n"
         "Disallow: /*.gif$\n")
    m = RobotsMatcher(parse_robots_rfc9309(t))
    assert m.allowed("/ok.html")
    assert not m.allowed("/private/x")
    assert m.allowed("/private/public-page")
    assert not m.allowed("/img/cat.gif")
    assert m.allowed("/img/cat.gifx")       # $ anchors


def test_group_selection_longest_token():
    t = ("User-agent: googlebot-news\nDisallow: /news-off/\n"
         "User-agent: *\nDisallow: /all-off/\n"
         "User-agent: googlebot\nDisallow: /gb-off/\n")
    assert parse_robots_rfc9309(t, "googlebot-news/1.0") \
        == [("/news-off/", False)]
    assert parse_robots_rfc9309(t, "googlebot/2.1") == [("/gb-off/", False)]
    assert parse_robots_rfc9309(t, "otherbot") == [("/all-off/", False)]


def test_adjacent_and_merged_groups():
    t = ("User-agent: a\nUser-agent: b\nDisallow: /x/\n"
         "User-agent: a\nDisallow: /y/\n")
    assert sorted(parse_robots_rfc9309(t, "a")) == [("/x/", False),
                                                    ("/y/", False)]
    assert parse_robots_rfc9309(t, "b") == [("/x/", False)]


def test_precedence_longest_match_and_allow_tie():
    m = RobotsMatcher(parse_robots_rfc9309(
        "User-agent: *\nAllow: /p\nDisallow: /p/q\n"))
    assert m.allowed("/p/z") and not m.allowed("/p/q/r")
    # exact tie -> Allow wins, in either rule order
    for text in ("User-agent: *\nAllow: /dir\nDisallow: /dir\n",
                 "User-agent: *\nDisallow: /dir\nAllow: /dir\n"):
        m2 = RobotsMatcher(parse_robots_rfc9309(text))
        assert m2.allowed("/dir/x"), text


def test_hostile_inputs():
    # rules before any UA line: no group; empty Disallow: allow all
    assert parse_robots_rfc9309("Disallow: /early/\nUser-agent: *\n"
                                "Disallow:\n") == []
    m = RobotsMatcher([])
    assert m.allowed("/anything")
    # regex metacharacters in rule paths must be literal
    m3 = RobotsMatcher(parse_robots_rfc9309(
        "User-agent: *\nDisallow: /a+b(c)./\n"))
    assert not m3.allowed("/a+b(c)./x")
    assert m3.allowed("/aab(c)./x")


def test_fuzz_vs_naive():
    import itertools
    import random
    rnd = random.Random(9309)
    alphabet = "ab/*."
    for _ in range(400):
        pat = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, 8)))
        if rnd.random() < 0.3:
            pat += "$"
        path = "".join(rnd.choice("ab/.") for _ in range(rnd.randint(0, 10)))
        m = RobotsMatcher([(pat, False)])
        # matcher DISALLOWS path iff the pattern matches it
        assert (not m.allowed(path)) == naive_rule_match(pat, path), \
            (pat, path)


def test_crawl_rfc9309_differential(ray_session, tmp_path):
    """Engine crawl over the wildcard-robots web == the sequential
    oracle with its own robots reader, round for round — and the
    wildcard semantics demonstrably bite (a page ending in 3 is
    blocked, the Allow-tied /page/13 is not)."""
    import pyarrow.parquet as pq

    from uniparser_ray.crawl.loop import CrawlConfig, run_crawl
    from uniparser_ray.crawl.oracle import BFSOracle
    from uniparser_ray.sources.synthweb import SynthWeb

    cfgw = dict(num_hosts=4, base_pages=30, fanout=3, hot_factor=4.0,
                robots_wildcards=True)
    web = SynthWeb(**cfgw)
    out = tmp_path / "rfc_crawl"
    cfg = CrawlConfig(web_config=cfgw, out_dir=str(out),
                      seeds=web.seed_urls(), max_rounds=20,
                      per_host_budget=4,
                      seen_shard_bits=2)
    totals = run_crawl(cfg, web.rule_pack())
    assert totals["pages_ok"] > 0

    rounds = []
    for r in range(20):
        d = out / "pages" / f"round={r}"
        if not d.exists():
            continue
        urls = []
        for f in sorted(d.glob("*.parquet")):
            urls += pq.read_table(f, columns=["url"])["url"].to_pylist()
        rounds.append(sorted(urls))

    oracle = BFSOracle(SynthWeb(**cfgw), web.rule_pack(),
                       per_host_budget=4)
    want = oracle.run(web.seed_urls(), max_rounds=20)
    assert rounds == [r["fetched"] for r in want["rounds"]]

    # the wildcard rules bite: host 0 (v=0 group) blocks /page/3 and
    # /page/23 but allows /page/13; none of the blocked ones fetched
    fetched = {u for rs in rounds for u in rs}
    h0 = web.host_name(0)
    assert f"http://{h0}/page/3" not in fetched
    assert f"http://{h0}/page/23" not in fetched
    if web.pages_of_host[0] > 13:
        assert f"http://{h0}/page/13" in fetched


def test_fuzz_group_selection_vs_naive():
    """Group selection fuzz: random robots files with random UA tokens
    vs the oracle's independent naive reading of RFC 9309 s2.2.1
    (parse groups by state machine, product token = the leading
    letters, '_' and '-' of a UA value, pick the group whose token
    EQUALS ours ignoring case, else *, merge same-token groups)."""
    import random

    rnd = random.Random(2209)
    toks = ["bot", "b", "botx", "my-bot", "My-Bot/2.0", "other", "*"]

    for _ in range(300):
        lines = []
        for _ in range(rnd.randint(1, 12)):
            r = rnd.random()
            if r < 0.4:
                lines.append(f"User-agent: {rnd.choice(toks)}")
            elif r < 0.7:
                lines.append(f"Disallow: /{rnd.choice('abc')}/")
            elif r < 0.9:
                lines.append(f"Allow: /{rnd.choice('abc')}")
            else:
                lines.append("Crawl-delay: 5")
        text = "\n".join(lines)
        ua = rnd.choice(["my-bot/1.0", "botx", "zzz", "b", "BOT"])
        rules, delay = naive_robots_group(text, ua)
        assert parse_robots_rfc9309(text, ua) == rules, (text, ua)
        assert parse_crawl_delay(text, ua) == delay, (text, ua)


def test_crawl_delay_group_selection():
    """Group-aware Crawl-delay: the crawler's OWN group's delay wins
    over the catch-all's."""
    t = ("User-agent: uniparser-ray\nCrawl-delay: 40\nDisallow:\n"
         "User-agent: *\nCrawl-delay: 5\nDisallow:\n")
    assert parse_crawl_delay(t, "uniparser-ray") == 40.0
    assert parse_crawl_delay(t, "otherbot") == 5.0       # * fallback
    # adjacent UA lines share the delay; bogus values read 0
    t2 = "User-agent: a\nUser-agent: b\nCrawl-delay: nope\n"
    assert parse_crawl_delay(t2, "a") == 0.0
    t3 = "User-agent: a\nCrawl-delay: 7\n"
    assert parse_crawl_delay(t3, "a") == 7.0
    assert parse_crawl_delay(t3, "A/1.0") == 7.0         # case-insensitive
    assert parse_crawl_delay(t3, "a-bot") == 0.0         # not our token
    assert parse_crawl_delay(t3) == 0.0                  # no * group


@pytest.mark.parametrize("decoy", ["a", "uni", "uniparser", "ray"])
def test_decoy_user_agent_does_not_capture_product_token(decoy):
    """A UA line whose token is only a substring of ours is another
    crawler's group: the * catch-all applies to uniparser-ray."""
    t = (f"User-agent: {decoy}\nDisallow:\nCrawl-delay: 1\n"
         "User-agent: *\nDisallow: /\nCrawl-delay: 9\n")
    m = RobotsMatcher(parse_robots_rfc9309(t, "uniparser-ray"))
    assert not m.allowed("/page/1")
    assert parse_crawl_delay(t, "uniparser-ray") == 9.0
    # our own token (with a version suffix) still selects its group
    t2 = t + "User-agent: Uniparser-Ray/1.0\nAllow: /\n"
    assert RobotsMatcher(parse_robots_rfc9309(
        t2, "uniparser-ray")).allowed("/page/1")


def test_crawl_delay_first_line_wins_even_if_zero():
    """An explicit Crawl-delay: 0 (or an invalid value) is the group's
    delay; a later line in the same (merged) group does not replace it."""
    t = ("User-agent: uniparser-ray\nCrawl-delay: 0\n"
         "User-agent: uniparser-ray\nCrawl-delay: 30\n")
    assert parse_crawl_delay(t, "uniparser-ray") == 0.0
    t2 = "User-agent: uniparser-ray\nCrawl-delay: x\nCrawl-delay: 30\n"
    assert parse_crawl_delay(t2, "uniparser-ray") == 0.0


def test_end_anchor_rejects_trailing_newline():
    """'$' anchors the end of the path: a path with a trailing
    (decoded %0A) newline does not match an anchored rule."""
    m = RobotsMatcher(parse_robots_rfc9309("User-agent: *\nDisallow: /a$\n"))
    assert not m.allowed("/a")
    assert m.allowed("/a\n")


def test_oracle_imports_nothing_from_engine_robots():
    """The BFS oracle reads robots.txt with its own code: no import in
    crawl/oracle.py (module level or inside a function) reaches
    uniparser_ray.state.robots, so a crawl differential can see a
    fault in the engine's matcher."""
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert imported, "no imports parsed"
    assert not [n for n in imported if "state.robots" in n]
