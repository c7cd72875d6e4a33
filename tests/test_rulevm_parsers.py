"""Conformance layer 1: per-parser golden assertions.

Ported from the reference suite (reference: test_parsers.py:159-805) —
same inputs, same expected outputs, run against the from-scratch VM.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from fixtures import HTML, JSON, TOML, XML, YAML  # noqa: E402

from uniparser_ray import Uniparser  # noqa: E402
from uniparser_ray.rulevm.dom import Node  # noqa: E402


def test_context_parser():
    uni = Uniparser()
    assert uni.context.parse({"a": 1}, "a", 2) == 1
    assert uni.context.parse({"a": 1}, "b", 2) == 2


def test_css_parser():
    uni = Uniparser()
    assert uni.css.parse(HTML, "a", "@href") == [
        None, "http://example.com/2", "http://example.com/3"]
    assert uni.css.parse(HTML, "a.a", "$text") == ["", "a2", "a3"]
    assert uni.css.parse(HTML, "a", "$innerHTML") == [
        "<!--invisible comment-->", "a2", "a3"]
    assert uni.css.parse(HTML, "a", "$html") == [
        "<!--invisible comment-->", "a2", "a3"]
    outer = [
        '<a class="a" id="link1"><!--invisible comment--></a>',
        '<a class="a" href="http://example.com/2" id="link2">a2</a>',
        '<a class="a" href="http://example.com/3" id="link3">a3</a>',
    ]
    assert uni.css.parse(HTML, "a", "$outerHTML") == outer
    assert uni.css.parse(HTML, "a", "$string") == outer
    result = uni.css.parse(HTML, "a", "$self")
    assert all(isinstance(i, Node) for i in result)
    tag = uni.css.parse(HTML, "p.body", "$self")[0]
    assert uni.css.parse(tag, "a", "$text") == ["", "a2", "a3"]
    tags = uni.css.parse(HTML, "div", "$self")
    assert uni.css.parse(tags, "span", "$text") == [["d1"], ["d2"]]

    one = '<a class="url" href="/">title</a>'
    assert uni.css1.parse(one, "a.url1", "@href") is None
    assert uni.css1.parse(one, "a.url", "@href") == "/"
    assert uni.css1.parse(one, "a.url", "$text") == "title"
    assert uni.css1.parse(one, "a.url", "$innerHTML") == "title"
    assert uni.css1.parse(one, "a.url", "$html") == "title"
    assert uni.css1.parse(one, "a.url", "$outerHTML") == one
    assert uni.css1.parse(one, "a.url", "$string") == one
    assert isinstance(uni.css1.parse(one, "a.url", "$self"), Node)


def test_selectolax_parser():
    uni = Uniparser()
    assert uni.se.parse(HTML, "a", "@href") == [
        None, "http://example.com/2", "http://example.com/3"]
    assert uni.se.parse(HTML, "a.a", "$text") == ["", "a2", "a3"]
    outer = [
        '<a class="a" id="link1"><!--invisible comment--></a>',
        '<a class="a" href="http://example.com/2" id="link2">a2</a>',
        '<a class="a" href="http://example.com/3" id="link3">a3</a>',
    ]
    assert uni.se.parse(HTML, "a", "$outerHTML") == outer
    assert uni.se.parse(HTML, "a", "$string") == outer
    result = uni.se.parse(HTML, "a", "$self")
    assert all(isinstance(i, Node) for i in result)
    tag = uni.se.parse(HTML, "p.body", "$self")[0]
    assert uni.se.parse(tag, "a", "$text") == ["", "a2", "a3"]
    tags = uni.se.parse(HTML, "div", "$self")
    assert uni.se.parse(tags, "span", "$text") == [["d1"], ["d2"]]

    one = '<a class="url" href="/">title</a>'
    assert uni.se1.parse(one, "a.url1", "@href") == ""
    assert uni.se1.parse(one, "a.url", "@href") == "/"
    assert uni.se1.parse(one, "a.url", "$text") == "title"
    assert uni.se1.parse(one, "a.url", "$string") == one
    assert uni.se1.parse(one, "a.url", "$outerHTML") == one
    assert isinstance(uni.se1.parse(one, "a.url", "$self"), Node)
    assert uni.se1.parse(one, "a.url", "$html") == "title"
    assert uni.se1.parse(one, "a.url", "$innerHTML") == "title"
    # selectolax div $html golden (reference: parsers.py:256-257)
    assert uni.se.parse("<div>a <b>b</b> c</div>", "div", "$html") == ["a <b>b</b> c"]


def test_xml_parser():
    uni = Uniparser()
    assert uni.xml.parse(XML, "link", "@href") == [
        "https://www.example.com/feed/", None, None, None]
    assert uni.xml.parse(XML, "creator", "$text") == [
        "\n                creator\n            ",
        "\n                creator\n            ",
    ]
    assert uni.xml.parse(XML, "description", "$innerXML") == [
        "XML example",
        "\n                 description \n            ",
        "\n                 description \n            ",
    ]
    encoded = (
        '<encoded>\n                 &lt;p&gt;&lt;a href="https://example.com" '
        'class="home"&gt;homepage&lt;/a&gt; some words &lt;/p&gt;\n            </encoded>')
    assert uni.xml.parse(XML, "encoded", "$outerXML") == [encoded, encoded]
    result = uni.xml.parse(XML, "link", "$self")
    assert all(isinstance(i, Node) for i in result)
    tag = uni.xml.parse(XML, "item", "$self")[0]
    assert uni.xml.parse(tag, "title", "$text") == ["This is a title"]
    tags = uni.xml.parse(XML, "item", "$self")
    assert uni.xml.parse(tags, "title", "$text") == [
        ["This is a title"], ["This is a title2"]]


def test_parse_xml_nameless_tag_is_text():
    """'< >' opens no element: parse_xml keeps it as text instead of
    failing on the missing tag name (a css-select fuzz input)."""
    from uniparser_ray.rulevm.dom import parse_xml

    root = parse_xml("a< >b<x>< /></x>")
    assert [c.data for c in root.children[:3]] == ["a", "< >", "b"]
    assert [c.tag for c in root.iter_elements()] == ["x"]


def test_re_parser():
    uni = Uniparser()
    assert uni.re.parse(HTML, 'class="a"', "") == ['class="a"'] * 3
    assert uni.re.parse(HTML, 'class="(.*?)"', "") == [
        "title", "body", "a", "a", "a", "body"]
    assert uni.re.parse(HTML, 'class="(a)"', "$0") == ['class="a"'] * 3
    assert uni.re.parse(HTML, 'class="(a)"', "$1") == ["a", "a", "a"]
    result = uni.re.parse(HTML, "<a.*</a>", "")
    result = uni.re.parse(result, 'class="(a)"', r'@class="\1 b"')
    assert result == [
        '<a class="a b" id="link1"><!--invisible comment--></a>',
        '<a class="a b" href="http://example.com/2" id="link2">a2</a>',
        '<a class="a b" href="http://example.com/3" id="link3">a3</a>',
    ]
    assert uni.re.parse("a\t \nb  c", r"\s+", "-") == ["a", "b", "c"]
    assert uni.re.parse("a\t \nb  c", r"(\s+)", "#1") == "\t \n"
    assert uni.re.parse("a\t \nb  c", r"b(\s+)", "#0") == "b  "
    # value-pattern assertion errors become values
    assert isinstance(uni.re.parse("abc", "a", "!bad"), ValueError)
    assert isinstance(uni.re.parse(123, "a", ""), ValueError)


def test_jsonpath_parser():
    uni = Uniparser()
    assert uni.jsonpath.parse(JSON, "firstName", "") == ["John"]
    assert uni.jsonpath.parse(JSON, "firstName", "$value") == ["John"]
    assert uni.jsonpath.parse(JSON, "$.address.city", "") == ["Nara"]
    assert uni.jsonpath.parse(JSON, "$.phoneNums[1:]", "") == [
        {"type": "home", "number": "0123-4567-8910"}]
    assert uni.jsonpath.parse(JSON, "$.prices[?(@.price > 1)]", "") == [
        {"price": 2}, {"price": 3}]
    assert uni.jsonpath.parse(JSON, '$.phoneNums[?(@.type = "iPhone")]', "") == [
        {"type": "iPhone", "number": "0123-4567-8888"}]
    assert str(uni.jsonpath.parse(JSON, "firstName", "$full_path")) == \
        "[Fields('firstName')]"


def test_objectpath_parser():
    uni = Uniparser()
    assert uni.objectpath.parse(JSON, "$.firstName", "") == "John"
    assert uni.objectpath.parse(JSON, "$.address.city", "") == "Nara"
    assert uni.objectpath.parse(JSON, "$.prices[@.price > 1]", "") == [
        {"price": 2}, {"price": 3}]
    assert uni.objectpath.parse(JSON, '$.phoneNums[@.type is "iPhone"]', "") == [
        {"type": "iPhone", "number": "0123-4567-8888"}]
    assert uni.objectpath.parse({"a": {"b": {"c": 1}}}, "$..c", "") == [1]


def test_jmespath_parser():
    uni = Uniparser()
    assert uni.json.parse(JSON, "firstName", "") == "John"
    assert uni.jmespath.parse(JSON, "firstName", "") == "John"
    assert uni.jmespath.parse(JSON, "address.city", "") == "Nara"
    assert uni.jmespath.parse(JSON, "prices[1].price", "") == 2
    assert uni.jmespath.parse(JSON, "prices[1:3].price", "") == [2, 3]
    assert uni.jmespath.parse(JSON, "phoneNums[?type == 'iPhone'].number", "") == [
        "0123-4567-8888"]
    assert uni.jmespath.parse(JSON, "prices[?price > `1`].price", "") == [2, 3]


def test_python_parser():
    uni = Uniparser()
    assert uni.python.parse([1, 2, 3], "getitem", "[-1]") == 3
    assert uni.python.parse([1, 2, 3], "get", "[-1]") == 3
    assert uni.python.parse([1, 2, 3], "getitem", "[:2]") == [1, 2]
    assert uni.python.parse([1, 2, 3, 4, 5], "getitem", "[1::2]") == [2, 4]
    assert uni.python.parse({"a": "1"}, "getitem", "a") == "1"
    result = uni.python.parse({"a": "1"}, "getitem", "b")
    assert str(result) == "'b'" and isinstance(result, KeyError)
    assert uni.python.parse("a b\tc \n \td", "split", "") == ["a", "b", "c", "d"]
    assert uni.python.parse("asbscsd", "split", "s") == ["a", "b", "c", "d"]
    assert uni.python.parse(["a", "b", "c", "d"], "join", "") == "abcd"
    assert uni.python.parse(["a", "b", "c", "d"], "const", "") == ["a", "b", "c", "d"]
    assert uni.python.parse(["a", "b", "c", "d"], "const", "abcd") == "abcd"
    assert uni.python.parse(["a", "b", "c", "d"], "template",
                            "1 $input_object 2") == "1 ['a', 'b', 'c', 'd'] 2"
    assert uni.python.parse({"a": "aaaa", "b": "bbbb"}, "template",
                            "$a + $b = ?") == "aaaa + bbbb = ?"
    assert uni.python.parse(["a", "b", "c", "d"], "index", "-1") == "d"
    assert uni.python.parse({"a": 1}, "index", "a") == 1
    assert uni.python.parse(["a", "b", ["c", "d"]], "chain", "") == ["a", "b", "c", "d"]
    assert uni.python.parse(["aaa", ["b"], ["c", "d"]], "chain", "") == [
        "a", "a", "a", "b", "c", "d"]
    assert uni.python.parse("adcb", "sort", "") == ["a", "b", "c", "d"]
    assert uni.python.parse([1, 3, 2, 4], "sort", "desc") == [4, 3, 2, 1]
    assert uni.python.parse("aabbcc", "strip", "ac") == "bb"
    assert uni.python.parse("  bb\t\n", "strip", "") == "bb"
    assert uni.python.parse("  \t\n", "default", "default") == "default"
    assert uni.python.parse("", "default", "default") == "default"
    assert uni.python.parse("a", "default", "default") == "a"
    assert uni.python.parse("abc", "base64_encode", "") == "YWJj"
    assert uni.python.parse("YWJj", "base64_decode", "") == "abc"
    assert uni.python("abc", "base64_encode", "") == "YWJj"
    assert uni.python("YWJj", "base64_decode", "") == "abc"
    assert uni.python(*["a", "0", "b"]) == "a"
    assert uni.python(*["", "0", "b"]) == "b"
    assert uni.python(*[None, "0", "b"]) == "b"
    assert uni.python(*[{0: "a"}, "0", "a"]) == "a"
    assert uni.python(*[["a"], "0", "b"]) == "a"
    assert uni.python(*["a", "", "abc"]) == "abc"


def test_udf_parser():
    uni = Uniparser()
    context = {"a": 1}
    assert uni.udf.parse("abcd", "open", context) is NotImplemented
    assert uni.udf.parse("abcd", "input", context) is NotImplemented
    assert uni.udf.parse("abcd", "input_object", context) is not NotImplemented
    assert uni.udf.parse("abcd", "exec", context) is NotImplemented
    assert uni.udf.parse("abcd", "eval", context) is NotImplemented
    assert uni.udf.parse("abcd", "context", context) == context
    assert uni.udf.parse("abcd", 'context["a"]', '{"a": 1}') == 1
    assert uni.udf.parse(
        "abcd", "parse = lambda input_object: (input_object, context)",
        context) == ("abcd", context)
    scode = "\ndef parse(item):\n    return (item, context)\n"
    assert uni.udf.parse("abcd", scode, context) == ("abcd", context)
    assert uni.udf.parse(JSON, "parse = lambda item: item.strip()[5:5+9]",
                         "") == "firstName"
    assert uni.udf.parse(JSON, "def parse(item): return item.strip()[5:5+9]",
                         "") == "firstName"
    scode = ("\ndef parse(item):\n    import json\n"
             "    return json.loads(item)['firstName']\n")
    assert uni.udf.parse(JSON, scode, "") == "John"
    assert uni.udf.parse("hello", 'input_object + " world."', "") == "hello world."
    assert uni.udf.parse("hello", 'obj + " world."', "") == "hello world."
    assert uni.udf.parse("", "abc", {"locals": {"abc": True}}) is True


def test_udf_async_parse_awaited():
    """An ``async def parse`` UDF yields its awaited VALUE (reference
    awaits awaitable UDF results, parsers.py:1424-1429) — never a bare
    coroutine object flowing through as the parse result."""
    uni = Uniparser()
    scode = ("\nasync def parse(item):\n"
             "    return item.upper()\n")
    assert uni.udf.parse("abcd", scode, "") == "ABCD"
    # async lambda-equivalent through the eval path
    scode2 = ("parse = lambda item: _coro(item)\n"
              "async def _coro(item):\n    return item[::-1]\n")
    assert uni.udf.parse("abcd", scode2, "") == "dcba"


def test_loader_parser():
    uni = Uniparser()
    assert uni.loader.parse(YAML, "yaml", "") == {
        "user1": {"name": "a", "pwd": 123},
        "user2": {"name": "b", "pwd": 456},
    }
    assert uni.loader.parse(TOML, "toml", '{"decoder": null}') == {
        "title": "TOML Example",
        "owner": {"name": "ClericPy"},
        "example": {"ports": [8001, 8001, 8002], "connection_max": 5000,
                    "enabled": True},
    }
    assert uni.loader.parse(JSON, "json", '{"parse_int": null}')["age"] == 26
    assert uni.loader.parse("a", "b64encode", "") == "YQ=="
    assert uni.loader.parse("YQ==", "b64decode", "") == "a"
    assert uni.loader.parse(uni.loader.parse("a", "b16encode", ""),
                            "b16decode", "") == "a"
    assert uni.loader.parse(uni.loader.parse("a", "b32encode", ""),
                            "b32decode", "") == "a"
    assert uni.loader.parse(uni.loader.parse("a", "b85encode", ""),
                            "b85decode", "") == "a"


def test_time_parser():
    timestamp = "1580732985.1873155"
    time_string = "2020-02-03 20:29:45"
    time_string_timezone = "2020-02-03T20:29:45 +0000"
    uni = Uniparser()
    uni.time.LOCAL_TIME_ZONE = +8
    result = uni.time.parse(time_string, "encode", "")
    assert int(result) == int(float(timestamp))
    result = uni.time.parse(timestamp, "decode", "")
    assert result == time_string
    result = uni.time.parse(result, "encode", "")
    assert int(result) == int(float(timestamp))
    result = uni.time.parse(time_string_timezone, "encode", "%Y-%m-%dT%H:%M:%S %z")
    assert int(result) == int(float(timestamp))
    uni.time.LOCAL_TIME_ZONE += 1
    assert uni.time.parse(timestamp, "decode", "") > time_string
    new_result = uni.time.parse(time_string, "encode", "")
    assert new_result - int(float(timestamp)) == -1 * 3600
    # restore class-level state for other tests
    type(uni.time).LOCAL_TIME_ZONE = type(uni.time)._OS_LOCAL_TIME_ZONE


def test_md5():
    from uniparser_ray.rulevm.parsers import md5
    assert md5(1, 10) == "923820dcc5"
    assert md5("test") == "098f6bcd4621d373cade4e832627b4f6"


def _markup():
    """Hypothesis strategy: markup mixing the one-pass builder's grammar
    (nested tags, bare/valued attrs, self-close, voids, implied closes,
    character references and apostrophes in text and attr values)
    with hostile cases it must hand to html.parser (comments, doctype,
    script-with-'<', unquoted or single-quoted attrs, spaces around
    '=', '>' in text and attr values, uppercase, garbage)."""
    from hypothesis import strategies as st

    tags = st.sampled_from(["a", "p", "li", "DIV", "br", "td", "tr",
                            "span", "img", "script", "style", "SCRIPT"])
    attr = st.sampled_from(['', ' class="x y"', ' href="/a?b=c"',
                            ' data-i="3"', ' checked', ' SRC="u" alt=""',
                            ' title="a>b"', " style='q'", ' a = "b"',
                            ' id="i" class="x"', ' title="a&amp;b&#39;"',
                            ' alt="it\'s &eacute"'])
    text = st.sampled_from(["", "hi", "a > b", "x & y", "5 < 6", "  ",
                            "café", "&amp;", "&#39;", "&#x41;", "&eacute",
                            "it's", "&eacute;t&eacute &lt;"])

    def elem(children):
        return st.builds(
            lambda t, a, c, sc: (f"<{t}{a}/>" if sc
                                 else f"<{t}{a}>" + "".join(c) + f"</{t}>"),
            tags, attr, children, st.booleans())

    frag = st.recursive(text, lambda ch:
                        st.one_of(elem(st.lists(ch, max_size=3)), ch),
                        max_leaves=12)
    hostile = st.sampled_from([
        "<!DOCTYPE html><p>x</p>", "<!-- c --><b>y</b>",
        "<script>if (a<b) f()</script>", "<p>unclosed",
        "<script><b>x</b></script>", "<style><i>.c{}</i></style>",
        '<script>document.write("<a href=\\"u\\">t</a>")</script>',
        "<SCRIPT src=\"j\"><td>q</td></SCRIPT>", "<script/>after<b>z</b>",
        "</p>stray", "<p a=b>unquoted</p>", "<p><![CDATA[z]]></p>",
        "<?pi ?><i>j</i>", "<a href=\"x\" <b>>nest</b>",
        "<td>c1<td>c2<tr><td>r2</tr>", "<li>i1<li>i2",
    ])
    anything = st.text(alphabet="<>ab/\"'=& \n", max_size=30)
    return st.lists(st.one_of(frag, hostile, anything),
                    min_size=1, max_size=4).map("".join)


def _std_tree(markup):
    from uniparser_ray.rulevm.dom import _HtmlTreeBuilder

    b = _HtmlTreeBuilder()
    b.feed(markup)
    b.close()
    return b.root


def _path(node):
    """Child indexes from the root down to ``node``."""
    out = []
    while node.parent is not None:
        out.append(node.parent.children.index(node))
        node = node.parent
    return tuple(reversed(out))


def test_fast_html_scanner_equals_stdlib_fuzz():
    """parse_html's one-pass builder is an optimization, never a
    semantic change: for ANY markup the produced tree must equal the
    stdlib html.parser build, parent links included (the descendant
    and sibling combinators walk them), and combinator selectors must
    pick the same nodes on both trees.  Hostile markup must bail to
    stdlib and so agree trivially."""
    from hypothesis import given, settings

    from uniparser_ray.rulevm.dom import css_select, parse_html

    def eq(a, b):
        assert all(x.parent is a for x in a.children)
        assert all(y.parent is b for y in b.children)
        return (a.kind == b.kind and a.tag == b.tag
                and getattr(a, "attrs", None) == getattr(b, "attrs", None)
                and getattr(a, "data", None) == getattr(b, "data", None)
                and len(a.children) == len(b.children)
                and all(eq(x, y) for x, y in zip(a.children, b.children)))

    @settings(max_examples=250, deadline=None)
    @given(_markup())
    def prop(markup):
        fast, std = parse_html(markup), _std_tree(markup)
        assert fast.parent is None and eq(fast, std), repr(markup)
        for sel in ("p a", "p > a", "li + li", "td ~ td", ":nth-child(2)"):
            assert ([_path(n) for n in css_select(fast, sel)]
                    == [_path(n) for n in css_select(std, sel)]), (sel, markup)

    prop()


def test_css_select_tag_index_equals_walk_fuzz():
    """css_select on a document root answers single-tag groups from a
    per-document tag index; every answer must equal the plain walk
    (same nodes, document order), for trees of both HTML builders and
    of parse_xml, with first=True, and from an element scope, which
    never builds an index."""
    from hypothesis import given, settings

    from uniparser_ray.rulevm.dom import (_fast_build, _match_complex,
                                          _parse_group, css_select,
                                          parse_xml)

    groups = ["a", "p", "li", "td", "DIV", "div", "*", ".x", "#i",
              "[href^=/a]", "[data-i]", "p a", "p > a", "li + li",
              "td ~ td", "a.x, a[href]", "a, p", "li, td", "span, *",
              "li:nth-child(2)", "td:first-child", "a:nth-of-type(1)",
              "tr > td:last-child", "p:empty", ".x, #i"]

    def walk(scope, sel):
        group = _parse_group(sel)
        return [el for el in scope.iter_elements()
                if any(_match_complex(el, ps, scope) for ps in group)]

    def same(got, want):
        return len(got) == len(want) and all(
            g is w for g, w in zip(got, want))

    @settings(max_examples=150, deadline=None)
    @given(_markup())
    def prop(markup):
        trees = [_std_tree(markup), parse_xml(markup)]
        fast = _fast_build(markup)
        if fast is not None:
            trees.append(fast)
        for root in trees:
            for sel in groups:
                want = walk(root, sel)
                assert same(css_select(root, sel), want), (sel, markup)
                assert same(css_select(root, sel, first=True),
                            want[:1]), (sel, markup)
            assert root._tag_index is not None
            for el in list(root.iter_elements())[:4]:
                for sel in groups:
                    assert same(css_select(el, sel), walk(el, sel)), \
                        (sel, markup)
                assert el._tag_index is None

    prop()


def test_fast_build_covers_benchmark_webs():
    """Every 200 page of both benchmark web shapes takes the one-pass
    builder, and the pruned one: a template change that sends pages to
    html.parser (a comment, a <script>), or a rule-pack change the
    projection cannot prove, would silently give the speed back."""
    import importlib.util

    from uniparser_ray.crawl.storage import JSONRuleStorage
    from uniparser_ray.rulevm.dom import _fast_build
    from uniparser_ray.rulevm.projection import rule_projection
    from uniparser_ray.sources.synthweb import SynthWeb

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS.values():
        web = SynthWeb(**dict(w.web, num_hosts=6))
        storage = JSONRuleStorage(**web.rule_pack())
        pages = 0
        for url in web.all_page_urls():
            status, _, body = web.get(url)
            if status == 200:
                pages += 1
                markup = body.decode()
                full = _fast_build(markup)
                assert full is not None, (w.name, url)
                projection = rule_projection(storage.find_crawler_rule(url))
                assert projection is not None, (w.name, url)
                pruned = _fast_build(markup, projection)
                assert pruned is not None, (w.name, url)
                assert (len(list(pruned.iter_elements()))
                        < len(list(full.iter_elements()))), (w.name, url)
        assert pages > 0


class _OnePageAdapter:
    """Transport stand-in that answers every request with one str
    object, so a test can parse that very object after the stage."""

    def __init__(self, page: str):
        from uniparser_ray.rulevm.transport import SyntheticResponse
        self.page = page
        self.resp = SyntheticResponse("http://host-0000.test/", 200,
                                      page.encode(), {})

    def request(self, **request_args):
        return self.page, self.resp


def _page_batch(urls):
    import pyarrow as pa

    return pa.table({
        "url": urls, "url_hash": pa.array(range(len(urls)), pa.uint64()),
        "host": ["host-0000.test"] * len(urls),
        "depth": pa.array([0] * len(urls), pa.int32()),
        "priority": pa.array([0.0] * len(urls), pa.float32()),
        "parent": [""] * len(urls)})


def test_pruned_tree_stays_inside_its_page_parse():
    """FetchParseStage parses a page on the tree its projection keeps,
    and only there: afterwards a css parse of the SAME string object,
    with a selector the projection dropped, gets the full answer, and
    so does another thread meanwhile."""
    import threading

    from uniparser_ray.rulevm import parsers
    from uniparser_ray.sources.synthweb import SynthWeb
    from uniparser_ray.stages.crawl_stages import FetchParseStage

    web_config = dict(num_hosts=1, base_pages=4, page_weight=3)
    web = SynthWeb(**web_config)
    url = web.page_url(0, 0)
    page = web.get(url)[2].decode()
    stage = FetchParseStage(rule_pack=web.rule_pack(), web_config=web_config)
    stage.adapter = _OnePageAdapter(page)
    memo = parsers._dom_memo
    row = stage(_page_batch([url])).to_pylist()[0]
    assert row["status"] == 200 and row["error"] is None
    projection = stage._projections[id(stage._find_rule(url))]
    assert projection is not None
    assert parsers._dom_memo is memo
    uni = Uniparser()
    copy = "".join(list(page))
    assert copy is not page
    for sel in ("p.filler", "title", "body"):
        want = uni.css.parse(copy, sel, "$text")
        assert want and uni.css.parse(page, sel, "$text") == want, sel
    want = uni.css.parse(copy, "p.filler", "$text")
    with parsers.projected_dom(page, projection):
        assert uni.css.parse(page, "p.filler", "$text") == []
        other = []
        t = threading.Thread(target=lambda: other.append(
            uni.css.parse(page, "p.filler", "$text")))
        t.start()
        t.join(30)
        assert not t.is_alive() and other == [want]


def test_independent_checks_build_full_trees():
    """BFSOracle and RuleEngine are checks on the pruned engine, so
    they parse every page on the full tree."""
    from unittest import mock

    import pyarrow as pa

    from uniparser_ray.crawl.oracle import BFSOracle
    from uniparser_ray.rulevm import dom
    from uniparser_ray.sources.synthweb import SynthWeb
    from uniparser_ray.stages.rule_engine import RuleEngine

    web = SynthWeb(num_hosts=2, base_pages=4)
    builds = []
    real = dom._fast_build

    def spy(markup, projection=None):
        builds.append(projection)
        return real(markup, projection)

    with mock.patch.object(dom, "_fast_build", spy):
        BFSOracle(web, web.rule_pack(), per_host_budget=3).run(
            web.seed_urls(), max_rounds=3)
        oracle_builds = len(builds)
        rule = next(iter(web.rule_pack().values()))["crawler_rules"]["page"]
        pages = [web.get(u)[2].decode() for u in web.seed_urls()]
        RuleEngine(rule)(pa.table({"text": pages}))
    assert oracle_builds > 0 and len(builds) > oracle_builds
    assert all(p is None for p in builds)
