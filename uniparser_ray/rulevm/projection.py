"""Projection pushdown: the part of a page's DOM a crawler rule can read.

A crawler rule reads the page tree only through its css-family
selectors (``css``, ``css1``, ``se``, ``se1``) and through the nodes
they hand on.  ``rule_projection`` collects those selectors from the
whole rule tree into a ``dom.Projection``; the one-pass HTML builder
then makes nodes only for the elements they can match, and for
everything under such an element (dom._fast_build).  This is the
document projection of "Projecting XML Documents" (Marian & Siméon,
VLDB 2003), applied to HTML.

The proof of safety comes from the rule alone.  Anything it cannot
prove gives None, and the page gets the full tree:

* a selector with ``>``, ``+`` or ``~``, a pseudo-class, or a bare
  ``*`` (``dom.Projection.of_selectors``);
* an ``input_callback`` (it builds its own input) or a parser this
  module does not know;
* a node that can reach code the rule does not pin down: a ``python``
  op other than indexing, a json/loader/time/xml parser, or a ``udf``
  whose source reads a node other than through the subtree-local
  accessors in ``_SUBTREE_READS`` — never ``.parent``, never as a
  bare name.  A scoped ``select`` in a udf must name its selector as a
  string literal, which joins the projection like any other: a ``>``
  chain could climb out of the scope's subtree;
* a ``udf`` that imports or introspects, or reaches a module through
  a helper global's attributes (``re.enum``), even one no node
  reaches: it could load this engine and css-parse the page string
  itself, which inside the page's parse reads the pruned tree.

Nodes reach user code two ways: as the chain value, and through
``context['parse_result']``, which holds every earlier top-level
rule's value.  The walk tracks both.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from types import ModuleType
from typing import List, Optional, Tuple

from ..config import EngineConfig
from .dom import Projection
from .parsers import (PARSER_REGISTRY, ContextParser, CSSParser,
                      CSSSingleParser, JMESPathParser, JSONPathParser,
                      LoaderParser, ObjectPathParser, PythonParser,
                      RegexParser, SelectolaxParser, SelectolaxSingleParser,
                      TimeParser, UDFParser, XMLParser)
from .rules import CrawlerRule

_CSS_FAMILY = (CSSParser, CSSSingleParser, SelectolaxParser,
               SelectolaxSingleParser)
# value parsers proved safe on strings and data only: a node input
# falls back to the full tree
_DATA_PARSERS = (JMESPathParser, JSONPathParser, LoaderParser,
                 ObjectPathParser, TimeParser, XMLParser)
# css value ops that turn a node into a string
_STRING_OPS = frozenset(("$text", "$html", "$innerHTML", "$outerHTML",
                         "$string"))
_INDEX_OPS = frozenset(("getitem", "get", "index"))
# what a udf may do with a node: read it, never walk out of its subtree
_SUBTREE_READS = frozenset(("get", "attrs", "tag", "text", "inner_html",
                            "outer_html", "select", "select_one"))
_NODE_RESULTS = frozenset(("select", "select_one"))
# names and attributes that reach a value without naming it: the
# frame and namespace introspection a udf could walk to ``obj``, or
# to this engine's modules, with
_INTROSPECTION = frozenset(("locals", "vars", "globals", "getattr",
                            "__import__", "eval", "exec", "compile"))
_UNSAFE_ATTR_PREFIXES = ("_", "f_", "gi_", "cr_", "ag_", "tb_")


class _Unprovable(Exception):
    """The rule may read a part of the tree a projection drops."""


def rule_projection(rule) -> Optional[Projection]:
    """The projection of a compiled ``CrawlerRule``: the compounds its
    css-family selectors can match, at any depth of its rule tree.
    None where pruning is not provably invisible to the rule, or
    where the rule selects nothing (there is no tree to build)."""
    if not isinstance(rule, CrawlerRule) or rule.get("input_callback"):
        return None
    selectors: List[str] = []
    stored = False   # parse_result may hold nodes
    nodes = False    # the top-level rules' input may hold nodes
    try:
        for pr in rule["parse_rules"]:
            out = _value_nodes(pr, nodes, stored, selectors)
            stored = stored or out
            if pr["name"] == EngineConfig.__object__:
                nodes = out
    except (_Unprovable, TypeError, ValueError):
        return None
    return Projection.of_selectors(selectors) if selectors else None


def _value_nodes(pr, nodes: bool, stored: bool, selectors: list) -> bool:
    """Whether parse rule ``pr``'s value may hold nodes, given whether
    its input may; collects its selectors and its children's."""
    for name, param, value in pr["chain_rules"]:
        nodes = _step_nodes(PARSER_REGISTRY.get(name), param, value,
                            nodes, stored, selectors)
    if not pr["child_rules"]:
        return nodes
    # the children read the chain's value (each item of it, under
    # iter_parse_child); their values make up this rule's
    return any([_value_nodes(sub, nodes, stored, selectors)
                for sub in pr["child_rules"]])


def _step_nodes(cls, param, value, nodes: bool, stored: bool,
                selectors: list) -> bool:
    """Whether one chain step's output may hold nodes."""
    if cls in _CSS_FAMILY:
        if not isinstance(param, str) or not isinstance(value, str):
            raise _Unprovable(param)
        selectors.append(param)
        return not (value.startswith("@") or value in _STRING_OPS)
    if cls is RegexParser:
        return False     # a node input is a returned ValueError
    if cls is ContextParser:
        return stored    # the chain value becomes the context dict
    if cls is UDFParser:
        return _udf_nodes(param, nodes, stored, selectors)
    if cls is PythonParser:
        if isinstance(param, str) and (param in _INDEX_OPS
                                       or param.isdigit()):
            return nodes
    elif cls not in _DATA_PARSERS:
        raise _Unprovable(cls)
    if nodes:
        raise _Unprovable(cls)
    return False


def _udf_nodes(param, nodes: bool, stored: bool, selectors: list) -> bool:
    """Whether a udf's result may hold nodes; raises _Unprovable when
    its source may read a node other than through _SUBTREE_READS, or
    imports or introspects."""
    names = set()
    if nodes:
        names |= {"obj", "input_object"}
    if stored:
        names.add("context")
    reads = _udf_selects(str(param), UDFParser.get_code_mode(param) is exec,
                         frozenset(names))
    if reads is None:
        raise _Unprovable(param)
    selectors.extend(reads)
    return bool(reads)


@lru_cache(maxsize=1024)
def _udf_selects(src: str, exec_mode: bool,
                 names: frozenset) -> Optional[Tuple[str, ...]]:
    """The selectors of the scoped selects in a udf's source, or None
    where it may read a value bound to ``names`` other than through
    _SUBTREE_READS, or imports, introspects or reaches a module.
    Cached: a rule pack repeats its udfs on every host, and each fetch
    task derives the projection per host."""
    try:
        tree = ast.parse(src, mode="exec" if exec_mode else "eval")
    except (SyntaxError, ValueError):
        return None
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
        if exec_mode and "obj" in names and isinstance(node,
                                                        ast.arguments):
            # parse(input_object) may name the node anything
            names |= {a.arg for a in (node.posonlyargs + node.args
                                      + node.kwonlyargs)}
            names |= {a.arg for a in (node.vararg, node.kwarg) if a}
    selects = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return None
        if isinstance(node, ast.Attribute):
            if (node.attr == "parent"
                    or node.attr.startswith(_UNSAFE_ATTR_PREFIXES)
                    or isinstance(_helper_value(node), ModuleType)):
                return None
            if node.attr in _NODE_RESULTS:
                call = parents.get(node)
                if not (isinstance(call, ast.Call) and call.func is node
                        and call.args
                        and isinstance(call.args[0], ast.Constant)
                        and isinstance(call.args[0].value, str)):
                    return None
                selects.append(call.args[0].value)
        elif isinstance(node, ast.Name):
            if node.id in _INTROSPECTION or node.id.startswith("_"):
                return None
            if isinstance(UDFParser._GLOBALS_ARGS.get(node.id), ModuleType):
                # a helper module is read only through attribute
                # chains, which the Attribute branch resolves
                up = parents.get(node)
                if not (isinstance(up, ast.Attribute) and up.value is node):
                    return None
            if node.id in names and isinstance(node.ctx, ast.Load):
                up = parents.get(node)
                if not (isinstance(up, ast.Attribute)
                        and up.attr in _SUBTREE_READS):
                    return None
    return tuple(selects)


def _helper_value(node: ast.Attribute):
    """What an attribute chain rooted at one of UDFParser's helper
    globals resolves to, or None: ``re.findall`` is a function, but
    ``re.enum`` is a module, and ``re.enum.sys.modules`` holds every
    loaded one, this engine's too."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    helpers = UDFParser._GLOBALS_ARGS
    if not isinstance(node, ast.Name) or node.id not in helpers:
        return None
    value = helpers[node.id]
    for attr in reversed(attrs):
        value = getattr(value, attr, None)
    return value
