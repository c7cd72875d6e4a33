"""From-scratch HTML/XML DOM with a CSS-selector engine.

The sandbox has no bs4 / lxml / selectolax, and the engine must parse
millions of pages per worker, so this module implements:

* a tiny tree (``Node``) shared by the HTML and XML front-ends,
* an HTML builder (void elements, implied ``</p>``-style closes,
  comments kept as nodes): one regex pass builds plain markup
  directly, anything else goes through stdlib ``html.parser``,
* projection pushdown into that one pass: given the element compounds
  a rule pack's selectors can match (``Projection``, derived by
  rulevm/projection.py), it makes nodes only for matching elements
  and everything under them, and keeps a bare tag stack for the rest
  — the document projection of "Projecting XML Documents" (Marian &
  Siméon, VLDB 2003) applied to HTML,
* a lenient XML builder (regex tokenizer; CDATA merged into text,
  namespace prefixes stripped from tag names — behavior matching what
  the reference observed through BeautifulSoup(features='lxml-xml'),
  e.g. selecting ``creator`` matches ``<dc:creator>``),
* a CSS selector subset: tag, ``*``, ``.cls``, ``#id``, ``[attr]``,
  ``[attr=v]`` (+ ``~= ^= $= *=``), compound selectors, descendant,
  ``>``, ``+``, ``~`` combinators, selector groups (``,``) and
  ``:nth-of-type(n)`` / ``:nth-child(n)`` — covering every selector in
  the reference's test-suite and demo rules (reference:
  test_parsers.py:173-238,1269; config.py:33-53).

Serialization matches the reference's observable golden outputs: text
escapes ``& < >``, attribute values escape ``& "``, attribute order is
preserved, comments round-trip.
"""

from __future__ import annotations

import re
from html import unescape as _html_unescape
from html.parser import HTMLParser as _StdHTMLParser
from typing import Iterator, List, Optional, Tuple

ELEMENT = 0
TEXT = 1
COMMENT = 2
DOCUMENT = 3

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
# Opening one of these closes an open <p> (subset of the HTML5 rules —
# enough for real-world article markup and the synthetic web).
_P_CLOSERS = frozenset(
    "address article aside blockquote div dl fieldset figure footer form "
    "h1 h2 h3 h4 h5 h6 header hr main nav ol p pre section table ul".split()
)
_CELL_TAGS = frozenset({"td", "th"})


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(s: str) -> str:
    return s.replace("&", "&amp;").replace('"', "&quot;")


_ENTITY_RE = re.compile(r"&(#x?[0-9a-fA-F]+|\w+);")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'", "nbsp": "\xa0"}


def _unescape(s: str) -> str:
    if "&" not in s:
        return s

    def sub(m):
        body = m.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            try:
                return chr(int(body[2:], 16))
            except ValueError:
                return m.group(0)
        if body.startswith("#"):
            try:
                return chr(int(body[1:]))
            except ValueError:
                return m.group(0)
        return _NAMED_ENTITIES.get(body, m.group(0))

    return _ENTITY_RE.sub(sub, s)


class Node:
    """One tree node: document root, element, text, or comment."""

    __slots__ = ("kind", "tag", "attrs", "children", "parent", "data", "_xml",
                 "_tag_index")

    def __init__(self, kind: int, tag: str = "", attrs: Optional[dict] = None,
                 data: str = "", xml: bool = False):
        self.kind = kind
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}
        self.children: List[Node] = []
        self.parent: Optional[Node] = None
        self.data = data
        self._xml = xml
        # document roots only: tag -> elements in document order, built
        # by the first css_select that can use it (see _elements_by_tag)
        self._tag_index: Optional[dict] = None

    # -- tree ops ---------------------------------------------------------
    def append(self, node: "Node") -> None:
        node.parent = self
        self.children.append(node)

    def iter_elements(self) -> Iterator["Node"]:
        """All descendant elements in document order (self excluded)."""
        stack = list(reversed(self.children))
        while stack:
            n = stack.pop()
            if n.kind == ELEMENT:
                yield n
                stack.extend(reversed(n.children))

    # -- accessors --------------------------------------------------------
    def get(self, name: str, default=None):
        return self.attrs.get(name, default)

    @property
    def text(self) -> str:
        """Concatenated text of all descendant text nodes (comments excluded)."""
        out: List[str] = []
        stack = list(reversed(self.children)) if self.kind in (ELEMENT, DOCUMENT) else []
        if self.kind == TEXT:
            return self.data
        while stack:
            n = stack.pop()
            if n.kind == TEXT:
                out.append(n.data)
            elif n.kind == ELEMENT:
                stack.extend(reversed(n.children))
        return "".join(out)

    # -- serialization ----------------------------------------------------
    def _serialize_into(self, out: List[str]) -> None:
        if self.kind == TEXT:
            out.append(_escape_text(self.data))
        elif self.kind == COMMENT:
            out.append(f"<!--{self.data}-->")
        elif self.kind == DOCUMENT:
            for c in self.children:
                c._serialize_into(out)
        else:
            out.append("<")
            out.append(self.tag)
            for k, v in self.attrs.items():
                out.append(f' {k}="{_escape_attr(v if v is not None else "")}"')
            if self._xml:
                if self.children:
                    out.append(">")
                    for c in self.children:
                        c._serialize_into(out)
                    out.append(f"</{self.tag}>")
                else:
                    out.append("/>")
            else:
                if self.tag in _VOID_TAGS:
                    out.append("/>")
                else:
                    out.append(">")
                    for c in self.children:
                        c._serialize_into(out)
                    out.append(f"</{self.tag}>")

    def outer_html(self) -> str:
        out: List[str] = []
        self._serialize_into(out)
        return "".join(out)

    def inner_html(self) -> str:
        out: List[str] = []
        for c in self.children:
            c._serialize_into(out)
        return "".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind == ELEMENT:
            return f"<Node {self.tag} {self.attrs}>"
        return f"<Node kind={self.kind} {self.data[:30]!r}>"

    # -- selection --------------------------------------------------------
    def select(self, selector: str) -> List["Node"]:
        return css_select(self, selector)

    def select_one(self, selector: str) -> Optional["Node"]:
        found = css_select(self, selector, first=True)
        return found[0] if found else None


# ---------------------------------------------------------------------------
# HTML building (stdlib html.parser tokenizer; our own tree construction)
# ---------------------------------------------------------------------------


# the open tags _implied_close can pop: under any other, opening a tag
# closes nothing
_IMPLIED_CLOSE_TOPS = frozenset(("p", "li", "tr")) | _CELL_TAGS


def _implied_close(tags: List[str], tag: str) -> None:
    """Pop the open elements that opening ``tag`` closes implicitly.
    ``tags`` is a builder's stack of open tags, the document's "" first;
    the builder cuts its node stack to the same depth."""
    cur = tags[-1]
    if tag in _P_CLOSERS and cur == "p":
        tags.pop()
    elif tag == "li" and cur == "li":
        tags.pop()
    elif tag in _CELL_TAGS and cur in _CELL_TAGS:
        tags.pop()
    elif tag == "tr" and (cur in _CELL_TAGS or cur == "tr"):
        while tags[-1] in _CELL_TAGS:
            tags.pop()
        if tags[-1] == "tr":
            tags.pop()


def _close_tag(tags: List[str], tag: str) -> None:
    """Pop through the innermost open ``tag``; an unmatched end tag is
    ignored."""
    for i in range(len(tags) - 1, 0, -1):
        if tags[i] == tag:
            del tags[i:]
            return


class _HtmlTreeBuilder(_StdHTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node(DOCUMENT)
        self.tags: List[str] = [""]
        self.stack: List[Node] = [self.root]

    def handle_starttag(self, tag, attrs):
        _implied_close(self.tags, tag)
        del self.stack[len(self.tags):]
        node = Node(ELEMENT, tag, {k: (v if v is not None else "") for k, v in attrs})
        self.stack[-1].append(node)
        if tag not in _VOID_TAGS:
            self.tags.append(tag)
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        node = Node(ELEMENT, tag, {k: (v if v is not None else "") for k, v in attrs})
        self.stack[-1].append(node)

    def handle_endtag(self, tag):
        _close_tag(self.tags, tag)
        del self.stack[len(self.tags):]

    def handle_data(self, data):
        if data:
            self.stack[-1].append(Node(TEXT, data=data))

    def handle_comment(self, data):
        self.stack[-1].append(Node(COMMENT, data=data))


class Projection:
    """The element compounds a rule pack's selectors can match, by tag:
    what the one-pass builder keeps of a page (see _fast_build).
    ``by_tag[t]`` holds the compounds an element ``t`` can match;
    ``loose`` those that name no tag, which every tag can match."""

    __slots__ = ("by_tag", "loose")

    def __init__(self, compounds: List[_Compound]):
        self.loose = tuple(c for c in compounds if c.tag in (None, "*"))
        by_tag: dict = {}
        for c in compounds:
            if c.tag not in (None, "*"):
                by_tag.setdefault(c.tag, []).append(c)
        self.by_tag = {t: tuple(cs) + self.loose for t, cs in by_tag.items()}

    @classmethod
    def of_selectors(cls, selectors: List[str]) -> Optional["Projection"]:
        """The projection of selector groups, or None where a selector
        could look at what the pruned tree drops: a ``>``, ``+`` or
        ``~`` combinator (the pruned tree keeps no unmatched parent or
        sibling), a pseudo-class (all of them count siblings or
        children), a bare ``*`` (it keeps everything anyway) or
        syntax css_select rejects.  A descendant combinator is safe:
        every compound of the selector joins the projection, so every
        ancestor that could match one is kept."""
        compounds: List[_Compound] = []
        for selector in selectors:
            try:
                group = _parse_group(selector)
            except ValueError:
                return None
            for ps in group:
                for comb, c in ps.parts:
                    if comb not in ("", " ") or c.pseudos or (
                            c.tag in (None, "*") and c.id is None
                            and not c.classes and not c.attrs):
                        return None
                    compounds.append(c)
        return cls(compounds)


# One-pass builder for PLAIN html.  The stdlib tokenizer's
# goahead/parse_starttag machinery costs about twice this builder per
# ~8 KB page, so markup the builder can read with EXACTLY html.parser's
# semantics skips it: tags of the strict form <name attr="v" bare>,
# </name>, <name/>; no comments/doctype/PI (any '<'/'>' left in a text
# gap means the tag regex failed to consume something), and no CDATA
# mode (an opened <script>/<style> — stdlib reads their content as raw
# text).  Character references in text gaps and attribute values are
# resolved with html.unescape, as html.parser(convert_charrefs=True)
# does.  Rawtext elements, single-quoted or unquoted values, spaces
# around '=', '>' inside attr values etc. make it return None, and
# parse_html throws the partial tree away and runs the stdlib builder,
# which always builds the full tree.  Tag/attr names are lowercased
# exactly like html.parser, duplicate attrs keep the last occurrence,
# <x/> is a startendtag (no implied close, never pushed), and both
# builders run _implied_close and _close_tag on one stack of open tags.
# Differential fuzz (tests/test_rulevm_parsers.py) pins the fast tree,
# parent links included, to the stdlib tree.
#
# With a Projection the same pass prunes.  Outside every kept element
# it keeps only the tag stack (implied closes need every open tag) and
# drops text; an element becomes a node only where a projected
# compound matches it, and then everything under it does too, with
# its real parent links, so $text/$html/$self and scoped selects see
# whole subtrees.  A kept element outside every other kept element
# hangs off the document root, its nearest kept ancestor.  Selections
# that the projection's selectors make come out the same nodes, in
# document order, as on the full tree (tests/test_fuzz_parity.py).
_FAST_TAG = re.compile(
    r'<(/?)([a-zA-Z][a-zA-Z0-9-]*)'
    r'((?:\s+[a-zA-Z_:][-a-zA-Z0-9_:.]*(?:="[^"<>]*")?)*)\s*(/?)>')
_FAST_ATTR = re.compile(
    r'([a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:="([^"<>]*)")?')
# html.parser.HTMLParser.CDATA_CONTENT_ELEMENTS
_CDATA_CONTENT = frozenset(("script", "style"))


def _fast_build(markup: str,
                projection: Optional[Projection] = None) -> Optional[Node]:
    """The tree of plain ``markup`` — with a ``projection``, only the
    elements it matches and everything under them — or None where
    only html.parser can read it."""
    root = Node(DOCUMENT)
    tags = [""]
    # nodes[i]: the node of open element tags[i], None where pruned;
    # content lands in nodes[-1] and is dropped when that is None
    nodes: List[Optional[Node]] = [root if projection is None else None]
    if projection is not None:
        by_tag, loose = projection.by_tag, projection.loose
    pos = 0
    for m in _FAST_TAG.finditer(markup):
        start = m.start()
        if start > pos:
            gap = markup[pos:start]
            if "<" in gap or ">" in gap:
                return None
            if nodes[-1] is not None:
                if "&" in gap:
                    gap = _html_unescape(gap)
                nodes[-1].append(Node(TEXT, "", None, gap))
        pos = m.end()
        closing, tag, rawattrs, selfclose = m.groups()
        tag = tag.lower()
        if closing:
            if rawattrs or selfclose:   # </a b> / </a/> — let stdlib rule
                return None
            if tags[-1] == tag:       # the innermost open element
                tags.pop()
                nodes.pop()
            else:
                _close_tag(tags, tag)
                del nodes[len(tags):]
            continue
        if not selfclose:
            if tag in _CDATA_CONTENT:
                return None
            if tags[-1] in _IMPLIED_CLOSE_TOPS:
                _implied_close(tags, tag)
                del nodes[len(tags):]
        parent = nodes[-1]
        if parent is None:
            # outside every kept element: only an element the
            # projection matches becomes a node, a child of the root
            compounds = by_tag.get(tag, loose)
            if not compounds:
                if not selfclose and tag not in _VOID_TAGS:
                    tags.append(tag)
                    nodes.append(None)
                continue
        if rawattrs:
            attrs = {a.lower(): v for a, v in _FAST_ATTR.findall(rawattrs)}
            if "&" in rawattrs:
                attrs = {a: _html_unescape(v) for a, v in attrs.items()}
        else:
            attrs = {}
        node = Node(ELEMENT, tag, attrs)
        if parent is None:
            parent = root
            if not any(_match_compound(node, c) for c in compounds):
                node = None
        if node is not None:
            parent.append(node)
        if not selfclose and tag not in _VOID_TAGS:
            tags.append(tag)
            nodes.append(node)
    tail = markup[pos:]
    if "<" in tail or ">" in tail:
        return None
    if tail and nodes[-1] is not None:
        nodes[-1].append(Node(TEXT, "", None, _html_unescape(tail)))
    return root


def parse_html(markup: str) -> Node:
    root = _fast_build(markup)
    if root is None:
        builder = _HtmlTreeBuilder()
        builder.feed(markup)
        builder.close()
        root = builder.root
    return root


# ---------------------------------------------------------------------------
# XML building (lenient regex tokenizer; namespace prefixes stripped)
# ---------------------------------------------------------------------------

_XML_TOKEN = re.compile(
    r"<!--(?P<comment>.*?)-->"
    r"|<!\[CDATA\[(?P<cdata>.*?)\]\]>"
    r"|<\?(?P<pi>.*?)\?>"
    r"|<!(?P<decl>[^>]*)>"
    r"|</(?P<end>[^>\s]+)\s*>"
    r"|<(?P<start>[^>!?/][^>]*?)(?P<selfclose>/)?>",
    re.S,
)
_XML_ATTR = re.compile(r'([^\s=/>]+)\s*(?:=\s*("([^"]*)"|\'([^\']*)\'|[^\s>]+))?')


def _strip_prefix(name: str) -> str:
    return name.rsplit(":", 1)[-1] if ":" in name else name


def parse_xml(markup: str) -> Node:
    root = Node(DOCUMENT, xml=True)
    stack: List[Node] = [root]
    pos = 0
    n = len(markup)
    while pos < n:
        m = _XML_TOKEN.search(markup, pos)
        if not m:
            rest = markup[pos:]
            if rest:
                stack[-1].append(Node(TEXT, data=_unescape(rest), xml=True))
            break
        if m.start() > pos:
            stack[-1].append(Node(TEXT, data=_unescape(markup[pos:m.start()]), xml=True))
        pos = m.end()
        if m.group("comment") is not None:
            stack[-1].append(Node(COMMENT, data=m.group("comment"), xml=True))
        elif m.group("cdata") is not None:
            stack[-1].append(Node(TEXT, data=m.group("cdata"), xml=True))
        elif m.group("pi") is not None or m.group("decl") is not None:
            continue
        elif m.group("end") is not None:
            tag = _strip_prefix(m.group("end").strip())
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].kind == ELEMENT and stack[i].tag == tag:
                    del stack[i:]
                    break
        else:
            raw = m.group("start")
            selfclose = m.group("selfclose") is not None or raw.rstrip().endswith("/")
            raw = raw.rstrip().rstrip("/")
            parts = raw.split(None, 1)
            if not parts:   # "< >" names no element: it is text
                stack[-1].append(Node(TEXT, data=_unescape(m.group(0)),
                                      xml=True))
                continue
            tag = _strip_prefix(parts[0])
            attrs = {}
            if len(parts) > 1:
                for am in _XML_ATTR.finditer(parts[1]):
                    name = am.group(1)
                    if name.startswith("xmlns"):
                        continue
                    name = _strip_prefix(name)
                    if am.group(3) is not None:
                        val = am.group(3)
                    elif am.group(4) is not None:
                        val = am.group(4)
                    elif am.group(2) is not None:
                        val = am.group(2)
                    else:
                        val = ""
                    attrs[name] = _unescape(val)
            node = Node(ELEMENT, tag, attrs, xml=True)
            stack[-1].append(node)
            if not selfclose:
                stack.append(node)
    return root


# ---------------------------------------------------------------------------
# CSS selector engine
# ---------------------------------------------------------------------------


class _Compound:
    __slots__ = ("tag", "id", "classes", "attrs", "pseudos")

    def __init__(self):
        self.tag: Optional[str] = None
        self.id: Optional[str] = None
        self.classes: List[str] = []
        self.attrs: List[Tuple[str, Optional[str], str]] = []  # (name, op, value)
        self.pseudos: List[Tuple[str, str]] = []


_SEL_TOKEN = re.compile(
    r"(?P<tag>\*|[A-Za-z_][\w-]*)"
    r"|\.(?P<cls>[\w-]+)"
    r"|\#(?P<id>[\w-]+)"
    r"|\[(?P<aname>[\w:-]+)\s*(?:(?P<aop>[~^$*|]?=)\s*(?P<aval>\"[^\"]*\"|'[^']*'|[^\]]*))?\]"
    r"|:(?P<pname>[\w-]+)(?:\((?P<parg>[^)]*)\))?"
)


class _ParsedSelector:
    """One complex selector: compounds right-to-left with combinators."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[Tuple[str, _Compound]]):
        # parts in right-to-left order: [(combinator_to_its_left, compound), ...]
        self.parts = parts


_selector_cache: dict = {}


def _parse_complex(sel: str) -> _ParsedSelector:
    # split into compounds + combinators
    tokens: List[Tuple[str, _Compound]] = []  # left-to-right (combinator_before, compound)
    i, n = 0, len(sel)
    comb = ""
    while i < n:
        ch = sel[i]
        if ch.isspace():
            j = i
            while j < n and sel[j].isspace():
                j += 1
            if j < n and sel[j] in ">+~":
                comb = sel[j]
                j += 1
                while j < n and sel[j].isspace():
                    j += 1
            elif tokens:
                comb = " "
            i = j
            continue
        if ch in ">+~":
            comb = ch
            i += 1
            while i < n and sel[i].isspace():
                i += 1
            continue
        compound = _Compound()
        while i < n and not sel[i].isspace() and sel[i] not in ">+~":
            m = _SEL_TOKEN.match(sel, i)
            if not m:
                raise ValueError(f"unsupported CSS selector syntax at {sel[i:]!r}")
            i = m.end()
            if m.group("tag"):
                compound.tag = m.group("tag")
            elif m.group("cls"):
                compound.classes.append(m.group("cls"))
            elif m.group("id"):
                compound.id = m.group("id")
            elif m.group("aname"):
                val = m.group("aval") or ""
                if len(val) >= 2 and val[0] in "\"'" and val[-1] == val[0]:
                    val = val[1:-1]
                compound.attrs.append(
                    (m.group("aname"), m.group("aop"), val))
            elif m.group("pname"):
                compound.pseudos.append((m.group("pname"), m.group("parg") or ""))
        tokens.append((comb, compound))
        comb = ""
    if not tokens:
        raise ValueError(f"empty CSS selector: {sel!r}")
    # reverse to right-to-left: rightmost compound first
    rtl = []
    for idx in range(len(tokens) - 1, -1, -1):
        comb_before, compound = tokens[idx]
        rtl.append((comb_before, compound))
    return _ParsedSelector(rtl)


def _parse_group(selector: str) -> List[_ParsedSelector]:
    cached = _selector_cache.get(selector)
    if cached is None:
        cached = [_parse_complex(part) for part in selector.split(",") if part.strip()]
        if len(_selector_cache) > 4096:
            _selector_cache.clear()
        _selector_cache[selector] = cached
    return cached


def _element_siblings(el: Node) -> List[Node]:
    if el.parent is None:
        return [el]
    return [c for c in el.parent.children if c.kind == ELEMENT]


def _match_compound(el: Node, c: _Compound) -> bool:
    if el.kind != ELEMENT:
        return False
    if c.tag and c.tag != "*" and el.tag != c.tag:
        return False
    if c.id is not None and el.attrs.get("id") != c.id:
        return False
    if c.classes:
        cls = el.attrs.get("class")
        cls_set = cls.split() if cls else []
        for want in c.classes:
            if want not in cls_set:
                return False
    for name, op, val in c.attrs:
        have = el.attrs.get(name)
        if have is None:
            return False
        if op is None:
            continue
        if op == "=":
            if have != val:
                return False
        elif op == "~=":
            if val not in have.split():
                return False
        elif op == "^=":
            if not have.startswith(val):
                return False
        elif op == "$=":
            if not have.endswith(val):
                return False
        elif op == "*=":
            if val not in have:
                return False
        elif op == "|=":
            if not (have == val or have.startswith(val + "-")):
                return False
    for pname, parg in c.pseudos:
        if pname == "nth-of-type":
            sibs = [s for s in _element_siblings(el) if s.tag == el.tag]
            try:
                idx = sibs.index(el) + 1
            except ValueError:
                return False
            if not _match_nth(idx, parg):
                return False
        elif pname == "nth-child":
            sibs = _element_siblings(el)
            try:
                idx = sibs.index(el) + 1
            except ValueError:
                return False
            if not _match_nth(idx, parg):
                return False
        elif pname == "first-child":
            sibs = _element_siblings(el)
            if not sibs or sibs[0] is not el:
                return False
        elif pname == "last-child":
            sibs = _element_siblings(el)
            if not sibs or sibs[-1] is not el:
                return False
        elif pname == "empty":
            if el.children:
                return False
        else:
            raise ValueError(f"unsupported pseudo-class :{pname}")
    return True


def _match_nth(idx: int, arg: str) -> bool:
    arg = arg.strip()
    if arg == "odd":
        return idx % 2 == 1
    if arg == "even":
        return idx % 2 == 0
    m = re.fullmatch(r"(?:(-?\d*)n)?\s*([+-]?\s*\d+)?", arg)
    if not m or (not m.group(1) and m.group(1) != "0" and m.group(2) is None and "n" not in arg):
        try:
            return idx == int(arg)
        except ValueError:
            return False
    if "n" in arg:
        a_txt = m.group(1)
        a = int(a_txt) if a_txt not in (None, "", "-") else (-1 if a_txt == "-" else 1)
        b = int(m.group(2).replace(" ", "")) if m.group(2) else 0
        if a == 0:
            return idx == b
        k = (idx - b) / a
        return k >= 0 and k == int(k)
    try:
        return idx == int(arg)
    except ValueError:
        return False


def _match_complex(el: Node, ps: _ParsedSelector, scope: Node) -> bool:
    parts = ps.parts
    if not _match_compound(el, parts[0][1]):
        return False

    def backtrack(node: Node, idx: int) -> bool:
        # parts[idx-1][0] is the combinator between parts[idx-1] and parts[idx]
        if idx >= len(parts):
            return True
        comb = parts[idx - 1][0]
        compound = parts[idx][1]
        if comb == " " or comb == "":
            anc = node.parent
            while anc is not None and anc is not scope.parent:
                if _match_compound(anc, compound) and backtrack(anc, idx + 1):
                    return True
                anc = anc.parent
            return False
        if comb == ">":
            p = node.parent
            if p is None:
                return False
            return _match_compound(p, compound) and backtrack(p, idx + 1)
        if comb == "+":
            sibs = _element_siblings(node)
            i = sibs.index(node)
            if i == 0:
                return False
            prev = sibs[i - 1]
            return _match_compound(prev, compound) and backtrack(prev, idx + 1)
        if comb == "~":
            sibs = _element_siblings(node)
            i = sibs.index(node)
            for prev in sibs[:i]:
                if _match_compound(prev, compound) and backtrack(prev, idx + 1):
                    return True
            return False
        return False

    return backtrack(el, 1)


def _elements_by_tag(doc: Node) -> dict:
    """tag -> the document's elements with that tag, in document order.
    Built once per document and cached on its root: trees are not
    mutated after parsing, and the parsers' DOM memo hands one tree to
    every rule of a page."""
    index = doc._tag_index
    if index is None:
        index = {}
        for el in doc.iter_elements():
            index.setdefault(el.tag, []).append(el)
        doc._tag_index = index
    return index


def css_select(scope: Node, selector: str, first: bool = False) -> List[Node]:
    """All descendant elements of ``scope`` matching the selector group,
    in document order."""
    group = _parse_group(selector)
    candidates = None
    if scope.kind == DOCUMENT:
        # an element can only match if its tag is the rightmost
        # compound's, so when the whole group names one concrete tag
        # the document's elements with that tag are the whole walk
        tags = {ps.parts[0][1].tag for ps in group}
        if len(tags) == 1:
            tag = tags.pop()
            if tag and tag != "*":
                candidates = _elements_by_tag(scope).get(tag, ())
    if candidates is None:
        candidates = scope.iter_elements()
    out: List[Node] = []
    for el in candidates:
        for ps in group:
            if _match_complex(el, ps, scope):
                out.append(el)
                break
        if first and out:
            return out
    return out
