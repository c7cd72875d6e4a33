"""Minimal JMESPath- and ObjectPath-style evaluators (from scratch).

The sandbox has neither ``jmespath`` nor ``objectpath``; these cover the
expression forms exercised by the reference's tests and demo rules
(reference: test_parsers.py:445-507, config.py:45-53):

JMESPath subset: dotted paths (``a.b.c``), index (``[1]``), slice
(``[1:3]``) with projection, filter projections
(``[?field == 'x']``, ``[?field > `1`]``), trailing field over a
projection, backtick literals, single-quoted raw strings.

ObjectPath subset: ``$.a.b``, ``$..key`` recursive descent,
``[@.field > n]`` / ``[@.field is "x"]`` array filters, ``[n]`` index.
"""

from __future__ import annotations

import json
import re
from typing import Any, List


# ---------------------------------------------------------------------------
# JMESPath subset
# ---------------------------------------------------------------------------

_JMES_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<field>[A-Za-z_][\w-]*)"
    r"|(?P<dot>\.)"
    r"|\[(?P<filter>\?[^\]]+)\]"
    r"|\[(?P<slice>-?\d*:-?\d*(?::-?\d*)?)\]"
    r"|\[(?P<index>-?\d+)\]"
    r"|\[(?P<star>\*)\]"
    r")"
)

_CMP = re.compile(
    r"\s*(?P<lhs>[A-Za-z_][\w-]*)\s*(?P<op>==|!=|>=|<=|>|<)\s*"
    r"(?P<rhs>`[^`]*`|'[^']*'|\"[^\"]*\"|-?\d+(?:\.\d+)?)\s*"
)


class _Projection(list):
    """Marker: a projected list — later fields map over elements."""


def _jmes_literal(tok: str) -> Any:
    if tok.startswith("`"):
        return json.loads(tok[1:-1])
    if tok.startswith("'") or tok.startswith('"'):
        return tok[1:-1]
    return json.loads(tok)


def _compare(a: Any, op: str, b: Any) -> bool:
    try:
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if a is None or b is None:
            return False
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
    except TypeError:
        return False
    return False


class JmesProgram:
    """Compiled JMESPath-subset expression."""

    def __init__(self, expression: str):
        self.expression = expression
        self.steps: List[tuple] = []
        pos = 0
        n = len(expression)
        while pos < n:
            m = _JMES_TOKEN.match(expression, pos)
            if not m or m.end() == pos:
                raise ValueError(f"unsupported JMESPath syntax at {expression[pos:]!r}")
            pos = m.end()
            if m.group("field"):
                self.steps.append(("field", m.group("field")))
            elif m.group("dot"):
                continue
            elif m.group("filter") is not None:
                cm = _CMP.fullmatch(m.group("filter")[1:])
                if not cm:
                    raise ValueError(f"unsupported JMESPath filter {m.group('filter')!r}")
                self.steps.append(
                    ("filter", cm.group("lhs"), cm.group("op"), _jmes_literal(cm.group("rhs"))))
            elif m.group("slice") is not None:
                bits = m.group("slice").split(":")
                start = int(bits[0]) if bits[0] else None
                stop = int(bits[1]) if len(bits) > 1 and bits[1] else None
                step = int(bits[2]) if len(bits) > 2 and bits[2] else None
                self.steps.append(("slice", slice(start, stop, step)))
            elif m.group("index") is not None:
                self.steps.append(("index", int(m.group("index"))))
            elif m.group("star") is not None:
                self.steps.append(("star",))

    def search(self, data: Any) -> Any:
        cur = data
        for step in self.steps:
            kind = step[0]
            if cur is None:
                return None
            if kind == "field":
                if isinstance(cur, _Projection):
                    nxt = _Projection()
                    for item in cur:
                        if isinstance(item, dict) and step[1] in item:
                            nxt.append(item[step[1]])
                    cur = nxt
                elif isinstance(cur, dict):
                    cur = cur.get(step[1])
                else:
                    return None
            elif kind == "index":
                if not isinstance(cur, list):
                    return None
                try:
                    cur = cur[step[1]]
                except IndexError:
                    return None
            elif kind == "slice":
                if not isinstance(cur, list):
                    return None
                cur = _Projection(cur[step[1]])
            elif kind == "star":
                if not isinstance(cur, list):
                    return None
                cur = _Projection(cur)
            elif kind == "filter":
                if not isinstance(cur, list):
                    return None
                _, lhs, op, rhs = step
                cur = _Projection(
                    item for item in cur
                    if isinstance(item, dict) and _compare(item.get(lhs), op, rhs))
        if isinstance(cur, _Projection):
            return list(cur)
        return cur


def jmes_compile(expression: str) -> JmesProgram:
    return JmesProgram(expression)


# ---------------------------------------------------------------------------
# ObjectPath subset
# ---------------------------------------------------------------------------

_OP_STEP = re.compile(
    r"\.\.(?P<rec>[A-Za-z_][\w]*)"
    r"|\.(?P<field>[A-Za-z_][\w]*)"
    r"|\[(?P<pred>@\.[^\]]+)\]"
    r"|\[(?P<index>-?\d+)\]"
)

_OP_PRED = re.compile(
    r"@\.(?P<lhs>[A-Za-z_][\w]*)\s*(?P<op>is not|is|==|!=|>=|<=|>|<)\s*"
    r"(?P<rhs>\"[^\"]*\"|'[^']*'|-?\d+(?:\.\d+)?|true|false|null)\s*"
)


def _op_literal(tok: str) -> Any:
    if tok.startswith('"') or tok.startswith("'"):
        return tok[1:-1]
    if tok in ("true", "false", "null"):
        return {"true": True, "false": False, "null": None}[tok]
    return json.loads(tok)


def _recursive_find(data: Any, key: str, out: List[Any]) -> None:
    if isinstance(data, dict):
        for k, v in data.items():
            if k == key:
                out.append(v)
            _recursive_find(v, key, out)
    elif isinstance(data, list):
        for item in data:
            _recursive_find(item, key, out)


class ObjectPathProgram:
    """Compiled ObjectPath-subset expression (``$``-rooted)."""

    def __init__(self, expression: str):
        expr = expression.strip()
        if expr.startswith("$"):
            expr = expr[1:]
        self.steps: List[tuple] = []
        pos = 0
        while pos < len(expr):
            m = _OP_STEP.match(expr, pos)
            if not m:
                raise ValueError(f"unsupported ObjectPath syntax at {expr[pos:]!r}")
            pos = m.end()
            if m.group("rec"):
                self.steps.append(("rec", m.group("rec")))
            elif m.group("field"):
                self.steps.append(("field", m.group("field")))
            elif m.group("index") is not None:
                self.steps.append(("index", int(m.group("index"))))
            else:
                pm = _OP_PRED.fullmatch(m.group("pred"))
                if not pm:
                    raise ValueError(f"unsupported ObjectPath predicate {m.group('pred')!r}")
                op = pm.group("op")
                op = {"is": "==", "is not": "!="}.get(op, op)
                self.steps.append(
                    ("filter", pm.group("lhs"), op, _op_literal(pm.group("rhs"))))

    def execute(self, data: Any) -> Any:
        cur = data
        for step in self.steps:
            kind = step[0]
            if kind == "field":
                if isinstance(cur, dict):
                    cur = cur.get(step[1])
                else:
                    return None
            elif kind == "rec":
                # objectpath's ``$..key`` yields a generator; the
                # reference materializes it to a list (parsers.py:543-544)
                found: List[Any] = []
                _recursive_find(cur, step[1], found)
                cur = found
            elif kind == "index":
                if not isinstance(cur, list):
                    return None
                try:
                    cur = cur[step[1]]
                except IndexError:
                    return None
            elif kind == "filter":
                if not isinstance(cur, list):
                    return None
                _, lhs, op, rhs = step
                cur = [item for item in cur
                       if isinstance(item, dict) and _compare(item.get(lhs), op, rhs)]
        return cur


def objectpath_compile(expression: str) -> ObjectPathProgram:
    return ObjectPathProgram(expression)
