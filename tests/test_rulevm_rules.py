"""Conformance layer 2: rule objects, nested parsing, crawl semantics.

Ported from the reference suite (reference: test_parsers.py:808-1455)
with the live-network endpoints replaced by an in-process synthetic web
(same offline hook the reference suite itself uses for non-http URLs,
reference: parsers.py:1509-1516).
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fixtures import HTML  # noqa: E402

from uniparser_ray import CrawlerRule, HostRule, ParseRule, Uniparser  # noqa: E402
from uniparser_ray.config import EngineConfig  # noqa: E402
from uniparser_ray.crawl.oracle import OracleCrawler  # noqa: E402
from uniparser_ray.crawl.storage import JSONRuleStorage  # noqa: E402
from uniparser_ray.exceptions import InvalidSchemaError, RuleNotFoundError  # noqa: E402
from uniparser_ray.rulevm.transport import SyntheticWebAdapter  # noqa: E402
from uniparser_ray.rulevm.urlutil import fix_relative_path  # noqa: E402


class DictWeb:
    """Tiny deterministic web: {url: (status, html)}."""

    def __init__(self, pages):
        self.pages = pages

    def get(self, url):
        status, body = self.pages.get(url, (404, "<h1>404</h1>"))
        return status, {"Content-Type": "text/html"}, body.encode("utf-8")


def test_parse_rule_roundtrip():
    uni = Uniparser()
    rule1 = ParseRule(
        "rule1",
        [["python", "getitem", "[:7]"],
         ["udf", 'str(input_object)+" "+context["key"]', ""]],
        [],
    )
    result = uni.parse(HTML, rule1, {"key": "hello world"})
    assert result == {"rule1": "\n<html> hello world"}
    json_string = (
        r'{"name": "rule1", "chain_rules": [["python", "getitem", "[:7]"], '
        r'["udf", "str(input_object)+\" \"+context[\"key\"]", ""]], "child_rules": []}')
    assert rule1.dumps() == rule1.to_json() == json_string
    loaded = ParseRule.from_json(json_string)
    assert isinstance(loaded, ParseRule)
    assert loaded == ParseRule.loads(json_string)


def test_nested_parse_rules():
    uni = Uniparser()
    rule1 = ParseRule(
        "rule1",
        [["python", "getitem", "[:7]"],
         ["udf", 'str(input_object)+" "+context["key"]', ""]],
        [],
    )
    rule2 = ParseRule("rule2", [["udf", "input_object[::-1]", ""]], [])
    rule1["child_rules"].append(rule2)
    rule3 = ParseRule(
        "rule3", [["udf", "input_object[::-1]", ""]],
        [ParseRule("rule4", [["udf", "input_object[::-1]", ""]], [])])
    rule1["child_rules"].append(rule3)
    parse_rule = ParseRule(
        "parse_rule",
        [["css", "p", "$outerHTML"],
         ["css", "b", "$text"],
         ["python", "getitem", "[0]"],
         ["python", "getitem", "[0]"]],
        child_rules=[rule1],
    )
    result = uni.parse(HTML, parse_rule, {"key": "hello world"})
    assert result == {"parse_rule": {"rule1": {
        "rule2": "dlrow olleh si sihT", "rule3": {"rule4": "This is hello world"}}}}

    crawler_rule = CrawlerRule("crawler_rule", "http://example.com",
                               [parse_rule], "")
    result = uni.parse(HTML, crawler_rule, {"key": "hello world"})
    assert result == {"crawler_rule": {"parse_rule": {"rule1": {
        "rule2": "dlrow olleh si sihT", "rule3": {"rule4": "This is hello world"}}}}}
    json_string = r'{"name": "crawler_rule", "parse_rules": [{"name": "parse_rule", "chain_rules": [["css", "p", "$outerHTML"], ["css", "b", "$text"], ["python", "getitem", "[0]"], ["python", "getitem", "[0]"]], "child_rules": [{"name": "rule1", "chain_rules": [["python", "getitem", "[:7]"], ["udf", "str(input_object)+\" \"+context[\"key\"]", ""]], "child_rules": [{"name": "rule2", "chain_rules": [["udf", "input_object[::-1]", ""]], "child_rules": []}, {"name": "rule3", "chain_rules": [["udf", "input_object[::-1]", ""]], "child_rules": [{"name": "rule4", "chain_rules": [["udf", "input_object[::-1]", ""]], "child_rules": []}]}]}]}], "request_args": {"method": "get", "url": "http://example.com"}, "regex": ""}'
    assert crawler_rule.dumps() == crawler_rule.to_json() == json_string
    loaded = CrawlerRule.from_json(json_string)
    assert CrawlerRule.loads(json_string) == loaded == crawler_rule
    assert isinstance(loaded["parse_rules"][0], ParseRule)


def test_iter_parse_child():
    uni = Uniparser()
    parse_rule = ParseRule(
        "test_iter_parse", [["python", "const", ""]], iter_parse_child=True,
        child_rules=[ParseRule("child", [["udf", "input_object * 2", ""]])])
    assert uni.parse([1, 2, 3], parse_rule) == {
        "test_iter_parse": [{"child": 2}, {"child": 4}, {"child": 6}]}
    parse_rule = ParseRule(
        "test_iter_parse", [["python", "const", ""]],
        child_rules=[ParseRule("child", [["udf", "input_object * 2", ""]])])
    assert uni.parse([1, 2, 3], parse_rule) == {
        "test_iter_parse": {"child": [1, 2, 3, 1, 2, 3]}}


def test_host_rule_validation():
    host_rule = HostRule("importpython.com")
    crawler_rule_json = (
        '{"name":"C-1583501370","request_args":{"method":"get",'
        '"url":"https://importpython.com/blog/feed/"},"parse_rules":'
        '[{"name":"text","chain_rules":[["xml","channel>item>title","$text"],'
        '["python","getitem","[0]"]],"childs":""}],'
        '"regex":"https://bad_url_host.com/blog/feed/$"}')
    with pytest.raises(AssertionError):
        host_rule.add_crawler_rule(crawler_rule_json)
    assert host_rule["crawler_rules"] == {}
    crawler_rule = CrawlerRule.loads(crawler_rule_json)
    crawler_rule["regex"] = r"https?://importpython\.com/.*"
    host_rule.add_crawler_rule(crawler_rule)
    assert host_rule["crawler_rules"]
    assert not host_rule.findall("https://bad_url_host.com/")
    assert host_rule.findall("https://importpython.com/")


def test_async_twins_equal_sync():
    """aparse / acrawl are real awaitables with results identical to
    the sync engine (reference async API surface, parsers.py:1395-1482
    / crawler.py:191-224)."""
    import asyncio

    from uniparser_ray.crawl.oracle import Crawler
    from uniparser_ray.crawl.storage import JSONRuleStorage
    from uniparser_ray.rulevm.transport import SyntheticWebAdapter
    from uniparser_ray.rulevm.vm import Uniparser

    class Web:
        def get(self, url):
            if url.endswith("/a"):
                return 200, {}, (b"<html><title>A</title>"
                                 b"<a href='/b'>x</a></html>")
            return 200, {}, b"<html><title>B</title></html>"

    rule = CrawlerRule(
        name="page",
        request_args={"url": "http://t.local/a", "method": "get"},
        parse_rules=[
            {"name": "title",
             "chain_rules": [["css", "title", "$text"],
                             ["python", "getitem", "[0]"]],
             "child_rules": []},
            {"name": "__request__",
             "chain_rules": [["css", "a", "@href"],
                             ["udf", "['http://t.local' + u for u in obj]",
                              ""]],
             "child_rules": []}],
        regex="^http://t.local/")
    html = "<html><title>A</title><a href='/b'>x</a></html>"

    vm = Uniparser()
    vm.request_adapter = SyntheticWebAdapter(Web())
    sync_parse = vm.parse(html, rule)
    assert asyncio.run(vm.aparse(html, rule)) == sync_parse

    pack = {"t.local": {"host": "t.local",
                        "crawler_rules": {"page": dict(rule)}}}
    crawler = Crawler(vm, JSONRuleStorage(**pack))
    sync_tree = crawler.crawl("http://t.local/a")
    async_tree = asyncio.run(crawler.acrawl("http://t.local/a"))
    assert async_tree == sync_tree
    assert async_tree["page"]["__result__"][0]["page"]["title"] == "B"


def test_host_rule_find_raises_on_multiple_matches():
    """HostRule.find raises when >1 rule matches a url (reference:
    parsers.py:1211-1212) — ambiguity is an error, not a pick."""
    rules = {name: {"name": name,
                    "request_args": {"method": "get",
                                     "url": "http://h.test/x"},
                    "parse_rules": [], "regex": r"^http://h\.test/.*"}
             for name in ("r1", "r2")}
    host_rule = HostRule("h.test", crawler_rules=rules)
    with pytest.raises(ValueError):
        host_rule.find("http://h.test/x")
    # and adding an overlapping rule via the validated path raises too
    with pytest.raises(ValueError):
        host_rule.add_crawler_rule(CrawlerRule(
            name="r3", request_args={"method": "get",
                                     "url": "http://h.test/x"},
            parse_rules=[], regex=r"^http://h\.test/.*"))
    # single match resolves
    assert host_rule.findall("http://h.test/x")
    host_rule["crawler_rules"].pop("r2")
    assert host_rule.find("http://h.test/x")["name"] == "r1"


def test_host_rule_json_roundtrip():
    crawler_rule = CrawlerRule(
        "test_crawler_rule",
        {"url": "http://httpbin.org/get", "method": "get"},
        [{"name": "rule1",
          "chain_rules": [["objectpath", "JSON.url", ""],
                          ["python", "getitem", "[:4]"],
                          ["udf", '(context["resp"].url, input_object)', ""]],
          "child_rules": []}],
        "https?://httpbin.org/get",
    )
    host_rule = HostRule(host="httpbin.org")
    host_rule.add_crawler_rule(crawler_rule)
    json_string = host_rule.dumps()
    assert json_string == r'{"host": "httpbin.org", "crawler_rules": {"test_crawler_rule": {"name": "test_crawler_rule", "parse_rules": [{"name": "rule1", "chain_rules": [["objectpath", "JSON.url", ""], ["python", "getitem", "[:4]"], ["udf", "(context[\"resp\"].url, input_object)", ""]], "child_rules": []}], "request_args": {"url": "http://httpbin.org/get", "method": "get"}, "regex": "https?://httpbin.org/get"}}}'
    host_rule = HostRule.loads(json_string)
    found = host_rule.search("http://httpbin.org/get")
    assert found == host_rule.match("http://httpbin.org/get")
    assert isinstance(found, CrawlerRule)
    assert host_rule.search("http://notmatch.com") is None


def test_shared_context_mutation():
    uni = Uniparser()
    crawler_rule = CrawlerRule(
        "test_crawler_rule", {"url": "http://httpbin.org/get", "method": "get"},
        [], "https?://httpbin.org/get")
    new_parse = ("\ndef parse(input_object):\n"
                 "    context['new_key'] = 'cleared'\n    return 'ok'\n    ")
    crawler_rule.context.update({"new_key": "new_value"})
    crawler_rule.clear_parse_rules()
    crawler_rule.add_parse_rule({
        "name": "rule1",
        "chain_rules": [["udf", new_parse, ""]],
        "child_rules": []})
    result = uni.parse('{"url": "http://httpbin.org/get"}', crawler_rule)
    assert result == {"test_crawler_rule": {"rule1": "ok"}}
    assert crawler_rule.context["new_key"] == "cleared"


def test_parse_result_context():
    """context['parse_result'] cross-field reference
    (reference: test_parsers.py:1135-1141), offline via non-http URL."""
    uni = Uniparser()
    crawler_rule = CrawlerRule.loads(
        '{"name":"HelloWorld","request_args":{"method":"get",'
        '"url":"ftp://x/get"},"parse_rules":['
        '{"name":"rule1","chain_rules":[["objectpath","$.url",""]],'
        '"child_rules":[],"iter_parse_child":false},'
        '{"name":"rule2","chain_rules":[["udf","context[\'parse_result\'][\'rule1\']",""]],'
        '"child_rules":[],"iter_parse_child":false}],"regex":".*://x/get$"}')
    result = uni.crawl(crawler_rule, url="ftp://x/get")
    assert result == {"HelloWorld": {"rule1": "ftp://x/get", "rule2": "ftp://x/get"}}


def test_non_http_passthrough():
    uni = Uniparser()
    crawler_rule = CrawlerRule.loads(
        '{"name":"HelloWorld","request_args":{"method":"get",'
        '"url":"http://httpbin.org/get"},"parse_rules":['
        '{"name":"only_req","chain_rules":[["udf","obj[\'url\'].startswith(\'ftp://\')",""]],'
        '"child_rules":[],"iter_parse_child":false}],"regex":".*://httpbin.org/get$"}')
    result = uni.crawl(crawler_rule, url="ftp://httpbin.org/get")
    assert result == {"HelloWorld": {"only_req": True}}


def test_parse_callback_and_schema():
    def parse_callback(rule, result, context) -> bool:
        return rule["name"] == "A" and result == {"A": "a"}

    uni = Uniparser(parse_callback=parse_callback)
    assert uni.parse("A", ParseRule("A", [["udf", "obj.lower()", ""]])) is True
    assert uni.parse("A", ParseRule("a", [["udf", "obj.lower()", ""]])) is False

    uni = Uniparser()
    with pytest.raises(InvalidSchemaError):
        uni.parse("A", ParseRule("__schema__", [["udf", "obj == 'X'", ""]]))
    assert uni.parse("A", ParseRule("__schema__", [["udf", "obj == 'A'", ""]])) == {
        "__schema__": True}


def test_context_parser_rules():
    uni = Uniparser()
    parse_rule = ParseRule("parse_rule", [["context", "key", "not found"]])
    assert uni.parse(HTML, parse_rule, {"key": "hello world"}) == {
        "parse_rule": "hello world"}
    parse_rule = ParseRule("parse_rule", [["context", "key_not_exist", "not found"]])
    assert uni.parse(HTML, parse_rule, {"key": "hello world"}) == {
        "parse_rule": "not found"}


def test_input_callback():
    uni = Uniparser()
    web = DictWeb({"http://synth.test/get": (200, '{"url": "http://synth.test/get"}')})
    crawler_rule = CrawlerRule(
        "test_input_callback", {"url": "http://synth.test/get", "method": "get"},
        [{"name": "rule1",
          "chain_rules": [["objectpath", "JSON.url", ""],
                          ["python", "getitem", "[:4]"]],
          "child_rules": []}],
        "https?://synth.test/get", input_callback="json")
    result = uni.crawl(crawler_rule, SyntheticWebAdapter(web))
    assert result == {"test_input_callback": {"rule1": "http"}}


def test_input_callback_content_switch():
    """use_content_for_default_callbacks: bytes bodies whose transport-
    guessed encoding is wrong but whose bytes declare the real charset
    decode correctly (reference: utils.py:757-773)."""
    from uniparser_ray.rulevm.vm import InputCallbacks

    class BytesWeb:
        def get(self, url):
            body = ('<html><head><meta charset="gbk"></head>'
                    '<body><p id="t">你好</p></body></html>'
                    ).encode("gbk")
            return 200, {"Content-Type": "text/html"}, body

    uni = Uniparser()
    crawler_rule = CrawlerRule(
        "gbk_page", {"url": "http://synth.test/gbk", "method": "get"},
        [{"name": "rule1", "chain_rules": [["css", "#t", "$text"],
                                           ["python", "getitem", "[0]"]],
          "child_rules": []}],
        "https?://synth.test/gbk", input_callback="css")
    # text mode: the response's (wrong) utf-8 guess mangles the body
    bad = uni.crawl(crawler_rule, SyntheticWebAdapter(BytesWeb()))
    assert bad["gbk_page"]["rule1"] != "你好"
    # content mode: bytes re-decoded per the in-document charset
    InputCallbacks.use_content_for_default_callbacks()
    try:
        good = uni.crawl(crawler_rule, SyntheticWebAdapter(BytesWeb()))
        assert good["gbk_page"]["rule1"] == "你好"
    finally:
        InputCallbacks.use_text_for_default_callbacks()
    # kwargs extension installs alongside, and restore really restores
    InputCallbacks.use_content_for_default_callbacks(
        upper=lambda text, context: text.upper())
    try:
        assert InputCallbacks.callback("abc", {}, "upper") == "ABC"
    finally:
        InputCallbacks.use_text_for_default_callbacks()
        InputCallbacks._CALLBACKS.pop("upper", None)


def test_object_rebinding():
    uni = Uniparser()
    crawler_rule = CrawlerRule(
        "crawler_rule", "http://example.com",
        [ParseRule("old", [["py", "", ""]]),
         ParseRule("__object__", [["py", "", "new"]]),
         ParseRule("new", [["py", "", ""]])],
        "")
    result = uni.parse(HTML, crawler_rule)["crawler_rule"]
    assert "<html>" in result["old"]
    assert result["new"] == "new"


def test_fix_relative_path():
    html = ('<a href="/b">test</a><a href="./b">test</a><a href="../b">test</a>'
            '<a href="../../b">test</a><img src="/b"><img src="./b">'
            '<img src="../b"><img src="../../b">')
    base_url = "http://www.abc.com/a/b/c/d/e?query=a#b"
    assert fix_relative_path(base_url, html) == (
        '<a href="http://www.abc.com/b">test</a>'
        '<a href="http://www.abc.com/a/b/c/d/b">test</a>'
        '<a href="http://www.abc.com/a/b/c/b">test</a>'
        '<a href="http://www.abc.com/a/b/b">test</a>'
        '<img src="http://www.abc.com/b"><img src="http://www.abc.com/a/b/c/d/b">'
        '<img src="http://www.abc.com/a/b/c/b"><img src="http://www.abc.com/a/b/b">')


def test_frequency_gate():
    """Per-host politeness: n per interval (reference behavior pinned by
    test_parsers.py:1326-1383, shrunk intervals for test speed)."""
    web = DictWeb({"http://freq.test/robots.txt": (200, "ok")})
    adapter = SyntheticWebAdapter(web)
    uni = Uniparser()
    rule = CrawlerRule("f", "http://freq.test/robots.txt", [], "")
    start = time.time()
    for _ in range(3):
        uni.download(rule, adapter)
    assert time.time() - start < 0.3
    uni.set_frequency("http://freq.test/robots.txt", 1, 0.25)
    start = time.time()
    for _ in range(3):
        uni.download(rule, adapter)
    assert time.time() - start >= 0.5
    assert uni.pop_frequency("http://freq.test/robots.txt") is not None


def test_json_rule_storage(tmp_path):
    storage = JSONRuleStorage(file_path=tmp_path / "rules.json")
    crawler_rule = CrawlerRule(
        "r1", {"url": "http://synth.test/get", "method": "get"},
        [{"name": "rule1", "chain_rules": [["py", "const", "x"]],
          "child_rules": []}],
        "https?://synth.test/.*")
    storage.add_crawler_rule(crawler_rule, commit=True)
    reloaded = JSONRuleStorage(file_path=tmp_path / "rules.json")
    assert "synth.test" in reloaded
    found = reloaded.find_crawler_rule("http://synth.test/get")
    assert found["name"] == "r1"
    assert reloaded.find_crawler_rule("http://other.test/") is None


def test_rule_pack_compiles_each_source_once():
    """A rule pack repeats a few udf sources on every host: each
    distinct source compiles once per process, and building the pack
    leaves the caller's dict holding its plain strings."""
    import copy
    import uuid
    from unittest import mock

    from uniparser_ray.rulevm import rules as rules_mod

    # a source no other test compiled yet in this process
    src = f"obj.upper()  # {uuid.uuid4().hex}"
    pack = {f"h{i}.test": {"host": f"h{i}.test", "crawler_rules": {"r": {
        "name": "r", "regex": "",
        "request_args": {"method": "get", "url": f"http://h{i}.test/"},
        "parse_rules": [
            {"name": "up", "chain_rules": [["udf", src, ""]]},
            {"name": "ab", "chain_rules": [["jmespath", "a.b", ""]]}]}}}
        for i in range(8)}
    before = copy.deepcopy(pack)
    with mock.patch.object(rules_mod, "compile", create=True,
                           wraps=compile) as compiled:
        storage = JSONRuleStorage(**pack)
    assert [c.args[0] for c in compiled.call_args_list].count(src) == 1
    codes = {id(storage.find_crawler_rule(f"http://h{i}.test/")
                ["parse_rules"][0]["chain_rules"][0][1].code)
             for i in range(8)}
    assert len(codes) == 1
    assert pack == before
    assert all(type(c[1]) is str
               for host in pack.values()
               for pr in host["crawler_rules"]["r"]["parse_rules"]
               for c in pr["chain_rules"])
    page = '{"a": {"b": "x"}}'
    result = Uniparser().parse(page, storage.find_crawler_rule(
        "http://h3.test/"), {})["r"]
    assert result == {"up": page.upper(), "ab": "x"}


def test_oracle_crawler_recursive():
    """Recursive __request__/__result__ crawl over an in-process web —
    structure mirrors the reference's PEP test
    (reference: test_parsers.py:1266-1323)."""
    list_html = """<table>
    <tr><td>x</td><td>y</td><td><a class="pep" href="/pep-0001/">1</a></td></tr>
    <tr><td>x</td><td>y</td><td><a class="pep" href="/pep-0002/">2</a></td></tr>
    <tr><td>x</td><td>y</td><td><a class="pep" href="/pep-0004/">4</a></td></tr>
    <tr><td>x</td><td>y</td><td><a class="pep" href="/pep-0005/">5</a></td></tr>
    </table>"""
    pages = {"http://peps.test/": (200, list_html)}
    for n, title in [(1, "PEP 1 – Purpose"), (2, "PEP 2 – Procedure"),
                     (4, "PEP 4 – Deprecation"), (5, "PEP 5 – Unused")]:
        pages[f"http://peps.test/pep-{n:04d}/"] = (
            200, f'<h1 class="page-title">{title}</h1>')
    web = DictWeb(pages)
    storage = JSONRuleStorage(**{
        "peps.test": {"host": "peps.test", "crawler_rules": {
            "list": {
                "name": "list",
                "request_args": {"method": "get", "url": "http://peps.test/"},
                "parse_rules": [{
                    "name": "__request__",
                    "chain_rules": [
                        ["css", "td:nth-of-type(3) > a.pep", "@href"],
                        ["re", "^/?", "@http://peps.test/"],
                        ["python", "getitem", "[:3]"]],
                    "child_rules": []}],
                "regex": "^http://peps.test/$"},
            "detail": {
                "name": "detail",
                "request_args": {"method": "get",
                                 "url": "http://peps.test/pep-0001/"},
                "parse_rules": [{
                    "name": "title",
                    "chain_rules": [["css", "h1.page-title", "$text"],
                                    ["python", "getitem", "[0]"]],
                    "childs": ""}],
                "regex": "^http://peps.test/pep-\\d+/$"}}}})
    vm = Uniparser()
    vm.request_adapter = SyntheticWebAdapter(web)
    crawler = OracleCrawler(vm, storage)
    result = crawler.crawl("http://peps.test/")
    assert result == {"list": {
        "__request__": ["http://peps.test/pep-0001/", "http://peps.test/pep-0002/",
                        "http://peps.test/pep-0004/"],
        "__result__": [
            {"detail": {"title": "PEP 1 – Purpose"}},
            {"detail": {"title": "PEP 2 – Procedure"}},
            {"detail": {"title": "PEP 4 – Deprecation"}},
        ]}}
    # no rule matched
    result = crawler.crawl("http://nowhere.test/")
    assert isinstance(result, RuleNotFoundError)


def test_read_seed_list(tmp_path):
    from uniparser_ray.crawl.storage import read_seed_list
    import pyarrow as pa
    import pyarrow.parquet as pq

    txt = tmp_path / "seeds.txt"
    txt.write_text("# comment\nhttp://a.test/\n\nhttp://b.test/x\n")
    assert read_seed_list(str(txt)) == ["http://a.test/", "http://b.test/x"]

    pqf = tmp_path / "seeds.parquet"
    pq.write_table(pa.table({"url": ["http://c.test/", "http://d.test/"]}),
                   pqf)
    assert read_seed_list(str(pqf)) == ["http://c.test/", "http://d.test/"]


def test_native_async_adapter():
    """AsyncTransportAdapter path: adownload/acrawl run NATIVELY async
    (awaitable fetch, no thread fallback), results identical to the
    sync adapter; AsyncFrequency paces without blocking the loop
    (reference: utils.py:258-316 AsyncRequestAdapter)."""
    import asyncio
    import time as _time

    from uniparser_ray.rulevm.transport import (AsyncFrequency,
                                                SyntheticAsyncWebAdapter,
                                                SyntheticWebAdapter)

    class Web:
        def get(self, url):
            return 200, {}, b"<html><title>N</title><p>v=7</p></html>"

    rule = CrawlerRule(
        "page", {"url": "http://n.local/a", "method": "get"},
        [{"name": "title", "chain_rules": [["css", "title", "$text"],
                                           ["python", "getitem", "[0]"]],
          "child_rules": []}],
        "^http://n.local/")

    sync_vm = Uniparser()
    sync_got = sync_vm.crawl(rule, SyntheticWebAdapter(Web()))

    vm = Uniparser()
    vm.request_adapter = SyntheticAsyncWebAdapter(Web())

    async def drive():
        # native path really is taken (adapter.request awaited directly)
        text, resp = await vm.adownload(url="http://n.local/a",
                                        method="get")
        assert "v=7" in text and resp.status_code == 200
        got = await vm.acrawl(rule)
        assert got == sync_got
        # non-http passthrough: request_args IS the input_object
        args, resp2 = await vm.adownload(url="data:junk", method="get")
        assert resp2 is None and args["url"] == "data:junk"
        # error-as-value: adapter exception comes back as (str, err)
        class Boom:
            def get(self, url):
                raise ValueError("boom")
        text3, resp3 = await vm.adownload(
            request_adapter=SyntheticAsyncWebAdapter(Boom()),
            url="http://n.local/x", method="get")
        assert isinstance(resp3, ValueError) and "boom" in text3
        return got

    asyncio.run(drive())

    # AsyncFrequency: 2 tokens per 0.3 s -> 4 acquisitions need >= 0.3 s,
    # and pacing happens via asyncio.sleep (loop stays responsive)
    async def paced():
        vm.set_frequency("http://n.local/x", 2, 0.3)
        t0 = _time.monotonic()
        for _ in range(4):
            await vm.adownload(url="http://n.local/x", method="get")
        return _time.monotonic() - t0

    assert asyncio.run(paced()) >= 0.28
    afreq = vm._HOST_ASYNC_FREQUENCIES["n.local"]
    assert isinstance(afreq, AsyncFrequency)
    vm.pop_frequency("http://n.local/x")
    assert "n.local" not in vm._HOST_ASYNC_FREQUENCIES


def test_aiohttp_arg_fixups_and_gating():
    """The requests->aiohttp arg mapping (reference utils.py:266-290)
    without aiohttp installed: constructors are injected."""
    import pytest as _pytest

    from uniparser_ray.rulevm.transport import (AiohttpAdapter, HttpxAdapter,
                                                fix_aiohttp_request_args)

    class CT:
        def __init__(self, sock_connect=None, sock_read=None):
            self.sock_connect, self.sock_read = sock_connect, sock_read

    class BA:
        def __init__(self, user, pwd):
            self.user, self.pwd = user, pwd

    out = fix_aiohttp_request_args(
        {"timeout": 5, "verify": False,
         "proxies": {"http": "1.2.3.4:8080"}, "auth": ("u", "p")}, CT, BA)
    assert out["timeout"].sock_connect == 5 and out["timeout"].sock_read == 5
    assert out["ssl"] is False and "verify" not in out
    assert out["proxy"] == "http://1.2.3.4:8080"
    assert out["auth"].user == "u"
    out2 = fix_aiohttp_request_args({"timeout": (1, 2)}, CT, BA)
    assert (out2["timeout"].sock_connect, out2["timeout"].sock_read) == (1, 2)
    with _pytest.raises(ValueError):
        fix_aiohttp_request_args({"timeout": "bad"}, CT, BA)

    # sandbox has neither lib: construction raises a clear gate error
    try:
        import aiohttp  # noqa: F401
    except ImportError:
        with _pytest.raises(RuntimeError, match="aiohttp is not installed"):
            AiohttpAdapter()
    try:
        import httpx  # noqa: F401
    except ImportError:
        with _pytest.raises(RuntimeError, match="httpx is not installed"):
            HttpxAdapter()
