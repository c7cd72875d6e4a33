"""Rule containers: ParseRule / CrawlerRule / HostRule.

JSON-round-trippable dict subclasses with the exact key ordering and
compile-on-construction behavior of the reference
(reference: uniparser/parsers.py:1006-1237).  Rule packs built from
these are broadcast read-only to Ray workers; ``CompiledString``
carries the compiled jmespath/jsonpath/udf program, compiled once per
distinct source in a process, not once per rule or row.
"""

from __future__ import annotations

import re
from copy import deepcopy
from functools import lru_cache
from typing import Dict, List, Union

from ..config import EngineConfig
from .jsonquery import jmes_compile
from .parsers import UDFParser
from .request import ensure_request, get_host

try:
    from jsonpath_ng.ext import parse as _jsonpath_parse
except ImportError:  # pragma: no cover
    _jsonpath_parse = None


@lru_cache(maxsize=4096)
def _program(mode: str, string: str):
    """(operator, code) of a param: compiled once per distinct source
    in a process.  Every fetch worker compiles its run's whole rule
    pack, whose hosts repeat a few sources; the programs are never
    mutated, so the rules share them."""
    if mode in ("jmespath", "json"):
        return None, jmes_compile(
            string[5:] if string.startswith("JSON.") else string)
    if mode == "jsonpath":
        return None, _jsonpath_parse(
            "$%s" % string[4:] if string.startswith("JSON.") else string)
    operator = UDFParser.get_code_mode(string)
    return operator, compile(string, "<udf>", operator.__name__)


class CompiledString(str):
    """str subclass carrying a precompiled program for jmespath /
    jsonpath / udf params (reference: parsers.py:980-1003)."""

    __slots__ = ("operator", "code")
    __support__ = ("jmespath", "json", "jsonpath", "udf")

    def __new__(cls, string, mode=None):
        if isinstance(string, cls):
            return string
        obj = str.__new__(cls, string)
        if mode in cls.__support__:
            obj.operator, obj.code = _program(mode, str(string))
        return obj


class JsonSerializable(dict):
    """dict subclass with dumps/loads/to_json/from_json
    (reference: parsers.py:1006-1035)."""

    __slots__ = ()

    def __init__(self, **kwargs):
        super().__init__()
        self.update(kwargs)

    def to_dict(self):
        return dict(self)

    def dumps(self, *args, **kwargs):
        return EngineConfig.json_dumps(self.to_dict(), *args, **kwargs)

    to_json = dumps

    @classmethod
    def loads(cls, json_string):
        if isinstance(json_string, cls):
            return json_string
        if isinstance(json_string, str):
            return cls(**EngineConfig.json_loads(json_string))
        if isinstance(json_string, dict):
            return cls(**json_string)
        raise TypeError("Only can be loaded from JSON / cls / dict.")

    @classmethod
    def from_json(cls, json_string):
        return cls.loads(json_string)


class ParseRule(JsonSerializable):
    """Named chain of [parser, param, value] triples + recursive
    child_rules (+ iter_parse_child) (reference: parsers.py:1038-1081)."""

    __slots__ = ("context",)

    def __init__(self, name: str, chain_rules: List[List] = None,
                 child_rules: List["ParseRule"] = None, context: dict = None,
                 iter_parse_child: bool = False, **kwargs):
        chain_rules = [self.compile_rule(c) for c in (chain_rules or [])]
        child_rules = [ParseRule(**pr) for pr in (child_rules or [])]
        self.context = EngineConfig.init_context() if context is None else context
        super().__init__(name=name, chain_rules=chain_rules,
                         child_rules=child_rules, **kwargs)
        if iter_parse_child:
            self["iter_parse_child"] = iter_parse_child

    @staticmethod
    def compile_rule(chain_rule):
        """The chain rule with its param compiled, as a new list: the
        caller's rule pack keeps its plain strings."""
        chain_rule = list(chain_rule)
        if chain_rule[0] in CompiledString.__support__:
            chain_rule[1] = CompiledString(chain_rule[1], mode=chain_rule[0])
        return chain_rule


class CrawlerRule(JsonSerializable):
    """Named bundle: request_args + parse_rules + regex + context
    (+ input_callback / encoding kwargs)
    (reference: parsers.py:1084-1186)."""

    __slots__ = ("context",)
    CHECK_STRATEGY = "match"

    def __init__(self, name: str, request_args: Union[dict, str],
                 parse_rules: List[dict] = None, regex: str = None,
                 context: dict = None, **kwargs):
        _request_args = ensure_request(request_args)
        self.context = EngineConfig.init_context() if context is None else context
        parse_rules = [ParseRule(context=self.context, **pr)
                       for pr in (parse_rules or [])]
        super().__init__(name=name, parse_rules=parse_rules,
                         request_args=_request_args, regex=regex or "", **kwargs)

    def get_request(self, **request):
        if not request:
            return self["request_args"]
        for k, v in deepcopy(self["request_args"]).items():
            if k not in request:
                request[k] = v
        return request

    def add_parse_rule(self, rule: dict, context: dict = None):
        self["parse_rules"].append(
            ParseRule(context=context or self.context, **rule))

    def pop_parse_rule(self, index, default=None):
        try:
            return self["parse_rules"].pop(index)
        except IndexError:
            return default

    def clear_parse_rules(self):
        self["parse_rules"].clear()

    def search(self, url):
        return not self["regex"] or re.compile(self["regex"]).search(url)

    def match(self, url):
        return not self["regex"] or re.compile(self["regex"]).match(url)

    def check_regex(self, url, strategy=""):
        return getattr(self, strategy or self.CHECK_STRATEGY)(url)


class HostRule(JsonSerializable):
    """{host: {rule_name: CrawlerRule}} registry
    (reference: parsers.py:1188-1237)."""

    __slots__ = ()

    def __init__(self, host: str, crawler_rules: Dict[str, dict] = None, **kwargs):
        crawler_rules = {
            cr["name"]: CrawlerRule(**cr)
            for cr in (crawler_rules or {}).values()
        }
        super().__init__(host=host, crawler_rules=crawler_rules, **kwargs)

    def findall(self, url, strategy=""):
        return [rule for rule in self["crawler_rules"].values()
                if rule.check_regex(url, strategy)]

    def find(self, url, strategy=""):
        rules = self.findall(url=url, strategy=strategy)
        if len(rules) > 1:
            raise ValueError(f"{url} matched more than 1 rule. {rules}")
        if rules:
            return rules[0]

    def search(self, url):
        return self.find(url, "search")

    def match(self, url):
        return self.find(url, "match")

    def add_crawler_rule(self, rule):
        if not isinstance(rule, CrawlerRule) and isinstance(rule, str):
            rule = CrawlerRule.loads(rule)
        self["crawler_rules"][rule["name"]] = rule
        try:
            rule_url = rule["request_args"]["url"]
            assert get_host(rule_url) == self["host"], (
                f'different host: {self["host"]} not match {rule_url}')
            assert self.match(rule_url) or self.search(rule_url), (
                f'regex {rule["regex"]} not match the given url: {rule_url}')
        except (ValueError, KeyError, AssertionError) as e:
            self["crawler_rules"].pop(rule["name"], None)
            raise e

    def pop_crawler_rule(self, rule_name: str):
        return self["crawler_rules"].pop(rule_name, None)
