"""The per-record scalar parsers — the extraction operators.

From-scratch implementations of every parser in the reference engine
(reference: uniparser/parsers.py §2.1 of SURVEY.md), over stdlib +
jsonpath_ng + yaml + tomllib.  Behavioral contract (shared by all):

* list recursion: string-oriented parsers map themselves element-wise
  over list inputs (reference: parsers.py:95-98);
* error-as-value: any exception except SYSTEM_ERRORS is *returned*
  (reference: parsers.py:101-105);
* dispatch by ``name`` via the registry; user parsers subclass
  :class:`BaseParser` (or use :func:`register_parser`) and are picked
  up automatically (reference: parsers.py:1280-1284).

In the Ray engine these run inside ``map_batches`` stages — one
compiled rule pack per actor, applied row-wise over Arrow batches.
"""

from __future__ import annotations

import re as _re
import threading
from base64 import (b16decode, b16encode, b32decode, b32encode, b64decode,
                    b64encode, b85decode, b85encode)
from contextlib import contextmanager
from hashlib import md5 as _hashlib_md5
from itertools import chain as _chain
from string import Template
from time import localtime, mktime, strftime, strptime, timezone

from ..config import EngineConfig
from . import dom
from .jsonquery import jmes_compile, objectpath_compile

try:
    from jsonpath_ng.ext import parse as _jsonpath_parse
except ImportError:  # pragma: no cover - jsonpath_ng is in the image
    _jsonpath_parse = None

try:
    import yaml as _yaml
except ImportError:  # pragma: no cover
    _yaml = None

try:
    import tomllib as _tomllib
except ImportError:  # pragma: no cover
    _tomllib = None


def md5(obj, n=32, encoding="utf-8", skip_encode=False):
    """str(obj) -> md5 hex digest, optionally center-sliced to n chars
    (reference: parsers.py:39-56).

    >>> md5(1, 10)
    '923820dcc5'
    >>> md5('test')
    '098f6bcd4621d373cade4e832627b4f6'
    """
    todo = obj if skip_encode else str(obj).encode(encoding)
    digest = _hashlib_md5(todo).hexdigest()
    if n == 32:
        return digest
    if isinstance(n, (int, float)):
        return digest[(32 - n) // 2:(n - 32) // 2]
    if isinstance(n, (tuple, list)):
        return digest[n[0]:n[1]]


def encode_as_base64(string: str, encoding="utf-8") -> str:
    return b64encode(string.encode(encoding)).decode(encoding)


def decode_as_base64(string: str, encoding="utf-8") -> str:
    return b64decode(string.encode(encoding)).decode(encoding)


def _return_self(obj):
    return obj


PARSER_REGISTRY: dict = {}


def register_parser(cls):
    """Class decorator: register a parser under ``cls.name`` (and aliases)."""
    PARSER_REGISTRY[cls.name] = cls
    for alias in getattr(cls, "aliases", ()):
        PARSER_REGISTRY[alias] = cls
    return cls


class BaseParser:
    """Contract identical to the reference BaseParser
    (reference: parsers.py:59-113): ``parse`` wraps ``_parse`` with
    list recursion + error-as-value; subclasses define ``name``."""

    name = "base"
    aliases: tuple = ()
    _RECURSION_LIST = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.name != "base":
            register_parser(cls)

    def _parse(self, input_object, param, value):
        raise NotImplementedError

    def parse(self, input_object, param, value):
        try:
            if isinstance(input_object, list) and self._RECURSION_LIST:
                return [self._parse(item, param, value) for item in input_object]
            return self._parse(input_object, param, value)
        except EngineConfig.SYSTEM_ERRORS:
            raise
        except Exception as err:
            return err

    __call__ = parse


# ---------------------------------------------------------------------------
# CSS-family parsers over the from-scratch DOM
# ---------------------------------------------------------------------------


# One (markup, tree) slot per thread: a crawler rule runs SEVERAL
# parse rules over the SAME page HTML back to back (3 css rules per
# page in the synthetic web's rule pack), and building the DOM is the
# largest share of RuleVM.parse (about three quarters of it on ~8 KB
# pages with the one-pass builder and a full tree).  The slot keeps
# that to one build per page, which also lets css_select reuse the
# tree's tag index across the rules.  Keyed by string IDENTITY, and
# it holds the key, so a recycled id() can never alias and an
# equal-but-distinct string just misses — a miss is only the old
# cost.  projected_dom puts a pruned tree in the slot for the length
# of its page's parse; no other thread can read the slot.
class _Slot(threading.local):
    pair = (None, None)


_slot = _Slot()


def _ensure_html_node(input_object):
    if isinstance(input_object, dom.Node):
        return input_object
    markup, node = _slot.pair
    if input_object is not markup:
        node = dom.parse_html(input_object)
        if isinstance(input_object, str):
            _slot.pair = (input_object, node)
    return node


@contextmanager
def projected_dom(markup, projection):
    """Within the block, css-family parses of ``markup`` (this string
    object, not an equal one) read only the tree ``projection`` keeps
    of it (rulevm/projection.py).  Only this thread sees that tree,
    and only until the block exits.  A None projection, or markup the
    one-pass builder cannot read, changes nothing: the parsers build
    the full tree as always, and an html.parser failure stays their
    error value."""
    root = (dom._fast_build(markup, projection)
            if projection is not None and isinstance(markup, str) else None)
    if root is None:
        yield
        return
    saved = _slot.pair
    _slot.pair = (markup, root)
    try:
        yield
    finally:
        _slot.pair = saved


class CSSParser(BaseParser):
    """``css``: CSS select over HTML; value ops ``@attr`` / ``$text`` /
    ``$innerHTML`` / ``$html`` / ``$outerHTML`` / ``$string`` / ``$self``
    (reference: parsers.py:116-188).  The other css-family parsers
    share this body and differ only in ``split_class`` and, for the
    first-match names, ``miss``."""

    name = "css"
    # bs4 reads ``class`` as a list of names, selectolax as one string
    split_class = True

    operations = {
        "$text": lambda el: el.text,
        "$innerHTML": lambda el: el.inner_html(),
        "$html": lambda el: el.inner_html(),
        "$outerHTML": lambda el: el.outer_html(),
        "$string": lambda el: el.outer_html(),
        "$self": _return_self,
    }

    def _read(self, item: dom.Node, value):
        if not value.startswith("@"):
            return self.operations.get(value, _return_self)(item)
        val = item.get(value[1:])
        if value == "@class" and self.split_class and val is not None:
            return val.split()
        return val

    def _parse(self, input_object, param, value):
        if not input_object:
            return []
        return [self._read(item, value)
                for item in _ensure_html_node(input_object).select(param)]


class CSSSingleParser(CSSParser):
    """``css1``: first match only; miss -> None (reference: parsers.py:191-222)."""

    name = "css1"
    miss = None

    def _parse(self, input_object, param, value):
        if not input_object:
            return []
        item = _ensure_html_node(input_object).select_one(param)
        return self.miss if item is None else self._read(item, value)


class SelectolaxParser(CSSParser):
    """``se`` / ``selectolax``: same CSS engine, selectolax-flavored ops —
    attributes are plain strings, ``$html``/``$innerHTML`` concatenate
    child markup (reference: parsers.py:225-301)."""

    name = "selectolax"
    aliases = ("se",)
    split_class = False


class SelectolaxSingleParser(CSSSingleParser):
    """``se1``: first match; miss -> '' (reference: parsers.py:304-332)."""

    name = "selectolax1"
    aliases = ("se1",)
    split_class = False
    miss = ""


class XMLParser(BaseParser):
    """``xml``: CSS-ish select over lenient XML (namespace prefixes
    stripped); ops ``@attr`` / ``$text`` / ``$innerXML`` / ``$outerXML``
    / ``$self`` (reference: parsers.py:335-395)."""

    name = "xml"

    operations = {
        "$text": lambda el: el.text,
        "$innerXML": lambda el: el.inner_html(),
        "$outerXML": lambda el: el.outer_html(),
        "$self": _return_self,
    }

    def _parse(self, input_object, param, value):
        if not input_object:
            return []
        if isinstance(input_object, dom.Node):
            node = input_object
        else:
            node = dom.parse_xml(input_object)
        if value.startswith("@"):
            return [item.get(value[1:]) for item in node.select(param)]
        operate = self.operations.get(value, _return_self)
        return [operate(item) for item in node.select(param)]


# ---------------------------------------------------------------------------
# Regex
# ---------------------------------------------------------------------------


class RegexParser(BaseParser):
    """``re``: value prefix dispatch — '' findall, '@repl' sub, '$N'
    finditer group N, '-' split, '#N' search().group(N) or ''
    (reference: parsers.py:398-471)."""

    name = "re"
    VALID_VALUE_PATTERN = _re.compile(r"^@|^\$\d+|^-$|^#\d+")

    def _parse(self, input_object, param, value):
        if not isinstance(input_object, str):
            raise ValueError(
                f"input_object type should be str, but given {repr(input_object)[:30]}")
        if value and not self.VALID_VALUE_PATTERN.match(value):
            raise ValueError(r"args1 should match ^@|^\$\d+|^-$|^#\d+")
        com = _re.compile(param)
        if not value:
            return com.findall(input_object)
        prefix, arg = value[0], value[1:]
        if prefix == "@":
            return com.sub(arg, input_object)
        if prefix == "$":
            return [m.group(int(arg)) for m in com.finditer(input_object)]
        if prefix == "-":
            return com.split(input_object)
        if prefix == "#":
            matched = com.search(input_object)
            if not matched:
                return ""
            try:
                return matched.group(int(arg) if arg.isdigit() else 1)
            except IndexError:
                return ""


# ---------------------------------------------------------------------------
# JSON-query parsers
# ---------------------------------------------------------------------------


class JSONPathParser(BaseParser):
    """``jsonpath`` via jsonpath_ng.ext; value '$attr' selects a match
    attribute, default '$value'; 'JSON.' prefix -> '$.'
    (reference: parsers.py:474-510)."""

    name = "jsonpath"
    _RECURSION_LIST = False

    def _parse(self, input_object, param, value=""):
        if isinstance(input_object, str):
            input_object = EngineConfig.json_loads(input_object)
        value = value or "$value"
        attr_name = value[1:]
        if param.startswith("JSON."):
            param = "$%s" % param[4:]
        expr = getattr(param, "code", None) or _jsonpath_parse(param)
        return [getattr(m, attr_name, m.value) for m in expr.find(input_object)]


class ObjectPathParser(BaseParser):
    """``objectpath`` via the from-scratch mini evaluator
    (reference: parsers.py:513-545)."""

    name = "objectpath"
    _RECURSION_LIST = False

    def _parse(self, input_object, param, value=""):
        if isinstance(input_object, str):
            input_object = EngineConfig.json_loads(input_object)
        if param.startswith("JSON."):
            param = "$%s" % param[4:]
        return objectpath_compile(param).execute(input_object)


class JMESPathParser(BaseParser):
    """``jmespath`` / ``json`` via the from-scratch mini evaluator
    (reference: parsers.py:548-573)."""

    name = "jmespath"
    aliases = ("json",)
    _RECURSION_LIST = False

    def _parse(self, input_object, param, value=""):
        if isinstance(input_object, str):
            input_object = EngineConfig.json_loads(input_object)
        code = getattr(param, "code", None) or jmes_compile(
            param[5:] if param.startswith("JSON.") else param)
        return code.search(input_object)


# ---------------------------------------------------------------------------
# UDF / python / loader / time / context
# ---------------------------------------------------------------------------


class UDFParser(BaseParser):
    """``udf``: exec/eval Python source with ``input_object``/``obj``,
    ``context`` and helper globals; forbidden builtins return
    NotImplemented; ``context['locals']`` merged
    (reference: parsers.py:576-665)."""

    name = "udf"
    _ALLOW_IMPORT = True
    _RECURSION_LIST = False
    _FORBIDDEN_FUNCS = {
        "input": NotImplemented,
        "open": NotImplemented,
        "eval": NotImplemented,
        "exec": NotImplemented,
    }
    _GLOBALS_ARGS = {
        "md5": md5,
        "json_loads": EngineConfig.json_loads,
        "json_dumps": EngineConfig.json_dumps,
        "re": _re,
        "encode_as_base64": encode_as_base64,
        "decode_as_base64": decode_as_base64,
    }

    @staticmethod
    def get_code_mode(code):
        operator = getattr(code, "operator", None)
        if operator is not None:
            return operator
        if "parse" in code and ("lambda" in code or "def " in code):
            return exec
        return eval

    def _parse(self, input_object, param, value=""):
        if value and isinstance(value, str):
            try:
                context = EngineConfig.json_loads(value)
            except EngineConfig.JSONDecodeError:
                context = {}
        else:
            context = value or {}
        if not self._ALLOW_IMPORT and "import" in param:
            raise RuntimeError(
                "UDFParser._ALLOW_IMPORT is False, so source code should not "
                "have `import` strictly.")
        local_vars = {
            "input_object": input_object,
            "context": context,
            "obj": input_object,
        }
        local_vars.update(self._FORBIDDEN_FUNCS)
        local_vars.update(self._GLOBALS_ARGS)
        if isinstance(context, dict):
            context_locals = context.get("locals")
            if context_locals:
                local_vars.update(context_locals)
        code = getattr(param, "code", param)
        if self.get_code_mode(param) is exec:
            exec(code, local_vars, local_vars)
            parse_function = local_vars.get("parse")
            if not parse_function:
                raise ValueError("UDF snippet should have a function named `parse`")
            return self._maybe_await(parse_function(input_object))
        return self._maybe_await(eval(code, local_vars, local_vars))

    @staticmethod
    def _maybe_await(result):
        """The reference awaits awaitable UDF results in its async
        chain (reference: parsers.py:1424-1429); this sync engine runs
        them to completion so an ``async def parse`` rule yields its
        VALUE — never a bare coroutine object flowing through as a
        parse result.  When the caller's thread already has a RUNNING
        event loop (sync parse invoked from inside a coroutine),
        asyncio.run would raise — the coroutine is driven on a
        short-lived helper thread instead."""
        import inspect
        if not inspect.isawaitable(result):
            return result
        import asyncio
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(result)
        box = {}

        def _drive():
            try:
                box["value"] = asyncio.run(result)
            except BaseException as e:  # re-raised on the caller
                box["error"] = e

        t = threading.Thread(target=_drive, daemon=True)
        t.start()
        t.join()
        if "error" in box:
            raise box["error"]
        return box["value"]


class PythonParser(BaseParser):
    """``python`` / ``py``: getitem/get, split, join, chain, const,
    template, index, sort, strip, default, base64_encode/decode,
    numeric-string index-with-default (reference: parsers.py:668-829)."""

    name = "python"
    aliases = ("py",)
    _RECURSION_LIST = False

    def _parse(self, input_object, param, value):
        handler = getattr(self, "_op_" + param, None) if param.isidentifier() else None
        if handler is not None:
            return handler(input_object, value)
        if param.isdigit():
            try:
                return input_object[int(param)]
            except (IndexError, ValueError, KeyError, TypeError):
                return value
        return value or input_object

    def _op_getitem(self, input_object, value):
        if value and value[0] == "[" and value[-1] == "]":
            inner = value[1:-1]
            if ":" in inner:
                bits = inner.split(":")
                parts = [int(b) if b else None for b in bits[:3]]
                parts += [None] * (3 - len(parts))
                return input_object[slice(*parts)]
            return input_object[int(inner)]
        return input_object[value]

    _op_get = _op_getitem

    def _op_split(self, input_object, value):
        return input_object.split(value or None)

    def _op_join(self, input_object, value):
        return value.join(input_object)

    def _op_chain(self, input_object, value):
        return list(_chain(*input_object))

    def _op_const(self, input_object, value):
        return value or input_object

    def _op_template(self, input_object, value):
        if isinstance(input_object, dict):
            return Template(value).safe_substitute(
                input_object=input_object, obj=input_object, **input_object)
        return Template(value).safe_substitute(
            input_object=input_object, obj=input_object)

    def _op_index(self, input_object, value):
        digitish = value.isdigit() or (value.startswith("-") and value[1:].isdigit())
        return input_object[int(value) if digitish else value]

    def _op_sort(self, input_object, value):
        return sorted(input_object, reverse=value.lower() == "desc")

    def _op_strip(self, input_object, value):
        return str(input_object).strip(value or None)

    def _op_default(self, input_object, value):
        if isinstance(input_object, str):
            return input_object if input_object.strip() else value
        return input_object if input_object else value

    def _op_base64_encode(self, input_object, value):
        return encode_as_base64(str(input_object))

    def _op_base64_decode(self, input_object, value):
        return decode_as_base64(str(input_object))


def _b_codec(func):
    enc = EngineConfig.__encoding__
    return lambda s: func(s.encode(enc)).decode(enc)


class LoaderParser(BaseParser):
    """``loader``: json / yaml / toml / base16-85 codecs; ``value`` may
    carry kwargs as a JSON string (reference: parsers.py:832-903)."""

    name = "loader"
    _RECURSION_LIST = True

    def __init__(self):
        self.loaders = {
            "json": EngineConfig.json_loads,
            "toml": (lambda s, **kw: _tomllib.loads(s)) if _tomllib else None,
            "yaml": _yaml.full_load if _yaml else None,
            "yaml_safe_load": _yaml.safe_load if _yaml else None,
            "yaml_full_load": _yaml.full_load if _yaml else None,
            "b16decode": _b_codec(b16decode),
            "b16encode": _b_codec(b16encode),
            "b32decode": _b_codec(b32decode),
            "b32encode": _b_codec(b32encode),
            "b64decode": _b_codec(b64decode),
            "b64encode": _b_codec(b64encode),
            "b85decode": _b_codec(b85decode),
            "b85encode": _b_codec(b85encode),
        }

    def _parse(self, input_object, param, value=""):
        loader = self.loaders.get(param) or _return_self
        if value:
            try:
                kwargs = EngineConfig.json_loads(value)
            except EngineConfig.JSONDecodeError as err:
                return err
            try:
                return loader(input_object, **kwargs)
            except TypeError:
                # loader takes no kwargs (e.g. tomllib drops 'decoder')
                return loader(input_object)
        return loader(input_object)


class TimeParser(BaseParser):
    """``time``: encode (string -> timestamp) / decode (timestamp ->
    string) with a pinned LOCAL_TIME_ZONE offset
    (reference: parsers.py:906-955).  Engine jobs pin LOCAL_TIME_ZONE in
    config for determinism across workers."""

    name = "time"
    match_int_float = _re.compile(r"^-?\d+(\.\d+)?$")
    _OS_LOCAL_TIME_ZONE: int = -int(timezone / 3600)
    LOCAL_TIME_ZONE: int = _OS_LOCAL_TIME_ZONE

    def _parse(self, input_object, param, value):
        value = value or "%Y-%m-%d %H:%M:%S"
        tz_fix_seconds = (self.LOCAL_TIME_ZONE - self._OS_LOCAL_TIME_ZONE) * 3600
        if param == "encode":
            return mktime(strptime(input_object, value)) - tz_fix_seconds
        if param == "decode":
            if isinstance(input_object, str) and self.match_int_float.match(input_object):
                input_object = float(input_object)
            return strftime(value, localtime(input_object + tz_fix_seconds))
        return input_object


class ContextParser(BaseParser):
    """``context``: fetch ``context[param]`` with default ``value``
    (reference: parsers.py:958-977).  parse_chain swaps the running
    input_object for the context dict before this parser runs."""

    name = "context"

    def _parse(self, input_object, param, value):
        if not input_object or param not in input_object:
            return value
        return input_object[param]


# force registration of the built-ins defined above
for _cls in (CSSParser, CSSSingleParser, SelectolaxParser, SelectolaxSingleParser,
             XMLParser, RegexParser, JSONPathParser, ObjectPathParser,
             JMESPathParser, UDFParser, PythonParser, LoaderParser, TimeParser,
             ContextParser):
    register_parser(_cls)
