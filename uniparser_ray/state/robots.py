"""Robots.txt cache shards.

Per-host robots.txt is fetched once per crawl (through the same
transport as pages), parsed and cached in logical ``RobotsShard``s
keyed by ``url_hash64(host) % n`` — the distributed analog of the
reference's process-local per-host dict (parsers.py:1262).  The
shards live on the state-host actors (state/host.py), which answer a
whole batch's (host, path) rows in one RPC per host.

Two matchers (CrawlConfig.robots_matcher):

* ``"prefix"`` (default, the oracle-checked config of rounds 1-4):
  ``User-agent: *`` group only, Disallow values matched as plain path
  prefixes — the de-facto behavior of simple crawlers.
* ``"rfc9309"`` (round 5): full REP semantics — ``*`` wildcards, ``$``
  end anchor, Allow lines, LONGEST-match precedence with Allow winning
  exact ties, user-agent group selection by case-insensitive equality
  with our product token and ``*`` fallback, adjacent ``User-agent``
  lines sharing a group and same-token groups merging (RFC 9309 s2.2).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple


def _lines(text: str):
    """(field, value) per robots.txt line: comments stripped, field
    lower-cased, lines without a ``:`` skipped."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if ":" in line:
            name, value = line.split(":", 1)
            yield name.strip().lower(), value.strip()


def _delay(value: str) -> float:
    try:
        return max(0.0, float(value))
    except ValueError:
        return 0.0


def parse_robots(text: str) -> List[str]:
    """Disallow prefixes for User-agent: * (simple, standard parsing)."""
    disallows: List[str] = []
    applies = False
    for name, value in _lines(text):
        if name == "user-agent":
            applies = value == "*"
        elif name == "disallow" and applies and value:
            disallows.append(value)
    return disallows


_TOKEN_RE = re.compile(r"[A-Za-z_-]+")


def _product_token(value: str) -> str:
    """The leading ``[A-Za-z_-]+`` run of a user-agent value,
    lower-cased (RFC 9309 s2.2.1); ``*`` stays ``*``."""
    if value == "*":
        return "*"
    m = _TOKEN_RE.match(value)
    return m.group(0).lower() if m else ""


def robots_group(text: str, user_agent: str = "*") \
        -> Tuple[List[Tuple[str, bool]], float]:
    """RFC 9309 group selection in one pass -> the chosen group's
    ([(path_pattern, is_allow)], Crawl-delay).

    Groups are runs of ``User-agent`` lines followed by rules.  The
    chosen group is the one whose UA token equals our product token
    (case-insensitive, s2.2.1), falling back to ``*``.  Same-token
    groups merge; adjacent UA lines share one group; lines before any
    UA line belong to no group; an empty Disallow value allows
    everything (records no rule).  A group's first Crawl-delay line
    wins, even when it is 0 or not a number."""
    rules: Dict[str, List[Tuple[str, bool]]] = {}
    delays: Dict[str, float] = {}
    cur: List[str] = []
    last_was_ua = False
    for name, value in _lines(text):
        if name == "user-agent":
            if not last_was_ua:
                cur = []
            tok = _product_token(value)
            cur.append(tok)
            rules.setdefault(tok, [])
            last_was_ua = True
            continue
        last_was_ua = False
        if name in ("allow", "disallow") and value:
            for tok in cur:
                rules[tok].append((value, name == "allow"))
        elif name == "crawl-delay":
            for tok in cur:
                delays.setdefault(tok, _delay(value))
    ours = _product_token(user_agent)
    key = ours if ours and ours in rules else "*"
    return rules.get(key, []), delays.get(key, 0.0)


def parse_robots_rfc9309(text: str, user_agent: str = "*") \
        -> List[Tuple[str, bool]]:
    """The rules of the group :func:`robots_group` selects."""
    return robots_group(text, user_agent)[0]


def _rule_regex(pattern: str) -> re.Pattern:
    """One robots rule -> anchored-at-start regex: ``*`` matches any
    run of characters, a trailing ``$`` anchors the end of the path
    (``\\Z``: Python's ``$`` would also match before a trailing
    newline), everything else is literal (regex metacharacters
    escaped)."""
    anchored = pattern.endswith("$")
    body = pattern[:-1] if anchored else pattern
    rx = ".*".join(re.escape(p) for p in body.split("*"))
    return re.compile(rx + (r"\Z" if anchored else ""), re.DOTALL)


class RobotsMatcher:
    """Compiled RFC 9309 matcher: the most specific (longest-pattern)
    matching rule decides; an Allow beats a Disallow of equal length
    (s2.2.2).  No matching rule -> allowed."""

    __slots__ = ("rules",)

    def __init__(self, rules: List[Tuple[str, bool]]):
        self.rules = [(_rule_regex(p), len(p), allow)
                      for p, allow in rules]

    def allowed(self, path: str) -> bool:
        best_len, best_allow = -1, True
        for rx, plen, allow in self.rules:
            if rx.match(path) and (plen > best_len
                                   or (plen == best_len and allow)):
                best_len, best_allow = plen, allow
        return best_allow


def parse_crawl_delay(text: str, user_agent: str = "*") -> float:
    """``Crawl-delay`` (seconds); 0.0 if absent.

    ``user_agent="*"`` (default — the prefix-matcher configuration of
    rounds 1-4) honors only ``User-agent: *`` groups, byte-identical
    to the historic behavior (the first such line wins).  A concrete
    product token applies the rule matcher's group selection
    (:func:`robots_group`): the delay a spec-following crawler must
    obey is its own group's, not the catch-all's."""
    if user_agent != "*":
        return robots_group(text, user_agent)[1]
    applies = False
    for name, value in _lines(text):
        if name == "user-agent":
            applies = value == "*"
        elif name == "crawl-delay" and applies:
            return _delay(value)
    return 0.0


class RobotsShard:
    def __init__(self, web_factory=None, matcher: str = "prefix",
                 user_agent: str = "uniparser-ray"):
        # web_factory() -> object with get(url) -> (status, headers, bytes)
        self.web = web_factory() if web_factory else None
        if matcher not in ("prefix", "rfc9309"):
            raise ValueError(f"unknown robots matcher: {matcher!r}")
        self.matcher_mode = matcher
        self.user_agent = user_agent
        # cache value: (allow_fn(path) -> bool, crawl_delay)
        self.cache: Dict[str, Tuple[object, float]] = {}
        self.fetches = 0

    def _compile(self, text: str) -> Tuple[object, float]:
        """(allow_fn or None, Crawl-delay) of one robots.txt."""
        if self.matcher_mode == "rfc9309":
            rules, delay = robots_group(text, self.user_agent)
            return RobotsMatcher(rules).allowed, delay
        rules = parse_robots(text)
        allow_fn = ((lambda p: not any(p.startswith(r) for r in rules))
                    if rules else None)
        return allow_fn, parse_crawl_delay(text)

    def _entry_for(self, host: str) -> Tuple[object, float]:
        entry = self.cache.get(host)
        if entry is None:
            allow_fn = None
            delay = 0.0
            if self.web is not None:
                try:
                    status, _h, body = self.web.get(f"http://{host}/robots.txt")
                    if status == 200:
                        allow_fn, delay = self._compile(
                            body.decode("utf-8", "replace"))
                except Exception:
                    allow_fn, delay = None, 0.0
            self.fetches += 1
            entry = (allow_fn, delay)
            self.cache[host] = entry
        return entry

    def allowed_batch(self, host: str, paths: List[str]) -> List[bool]:
        allow_fn = self._entry_for(host)[0]
        if allow_fn is None:
            return [True] * len(paths)
        return [allow_fn(p) for p in paths]

    def allowed_many(self, host_paths: List[Tuple[str, str]]) -> List[bool]:
        """[(host, path)] -> allow mask; one RPC covers many hosts (the
        per-batch client groups by shard, not by host)."""
        out = []
        for host, path in host_paths:
            allow_fn = self._entry_for(host)[0]
            out.append(True if allow_fn is None else allow_fn(path))
        return out

    def allowed_delays_many(self, host_paths: List[Tuple[str, str]]) \
            -> Tuple[List[bool], List[float]]:
        """allowed_many + the host's robots Crawl-delay per row (one
        RPC serves both the allow filter and the politeness budget)."""
        mask, delays = [], []
        for host, path in host_paths:
            allow_fn, delay = self._entry_for(host)
            mask.append(True if allow_fn is None else allow_fn(path))
            delays.append(delay)
        return mask, delays

    def stats(self) -> dict:
        return {"hosts_cached": len(self.cache), "fetches": self.fetches}

