"""RuleEngine — run reference-style rule packs over any Dataset column.

The distributed form of ``Uniparser.parse`` (reference:
parsers.py:1374-1393): a callable class for ``map_batches`` that
compiles a CrawlerRule/ParseRule pack once per worker process (the
reference's ``CompiledString`` cache, parsers.py:980-1003) and applies
the chain per row of a text column, emitting one output column per
parse rule.

Scalar results land in native Arrow columns; nested/dynamic results in
a canonical-JSON ``large_string`` column; exceptions in ``error`` /
``error_type`` sidecars (error-as-value, parsers.py:101-105).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import pyarrow as pa

from ..rulevm.rules import CrawlerRule, ParseRule
from ..rulevm.vm import RuleVM


def _encode_value(v: Any):
    """chain-final value -> (arrow-encodable scalar/json, is_json)."""
    if v is None or isinstance(v, (str, int, float, bool)):
        return v, False
    if isinstance(v, BaseException):
        return None, False
    return json.dumps(v, default=repr, sort_keys=False), True


class RuleEngine:
    """map_batches stage: one output column per top-level parse rule.

    Parameters
    ----------
    rule_pack : dict (a CrawlerRule-shaped dict) or list of ParseRule
        dicts; strings are JSON-loaded.
    input_column : the text column fed to the rule chains.
    keep_columns : input columns to carry through (default: all).
    json_results : force all outputs into JSON strings (dynamic trees).
    """

    def __init__(self, rule_pack, input_column: str = "text",
                 keep_columns: Optional[List[str]] = None,
                 json_results: bool = False):
        import ray
        if isinstance(rule_pack, ray.ObjectRef):
            rule_pack = ray.get(rule_pack)
        if isinstance(rule_pack, str):
            rule_pack = json.loads(rule_pack)
        if isinstance(rule_pack, dict):
            self.rule = CrawlerRule(**rule_pack)
            self.rule_names = [pr["name"] for pr in self.rule["parse_rules"]]
        else:
            self.rule = [ParseRule(**pr) for pr in rule_pack]
            self.rule_names = [pr["name"] for pr in self.rule]
        self.input_column = input_column
        self.keep_columns = keep_columns
        self.json_results = json_results
        self.vm = RuleVM()

    def _parse_row(self, text: str) -> Dict[str, Any]:
        if isinstance(self.rule, CrawlerRule):
            out = self.vm.parse(text, self.rule, context={})
            return out[self.rule["name"]]
        result = {}
        for pr in self.rule:
            result[pr["name"]] = self.vm.parse(text, pr, context={})[pr["name"]]
        return result

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.input_column].to_pylist()
        keep = (self.keep_columns if self.keep_columns is not None
                else [c for c in batch.column_names])
        columns: Dict[str, list] = {name: [] for name in self.rule_names}
        errors: List[Optional[str]] = []
        error_types: List[Optional[str]] = []
        json_flags = {name: self.json_results for name in self.rule_names}
        for text in texts:
            row_err = None
            row_err_type = None
            try:
                result = self._parse_row(text)
            except Exception as e:
                result = {}
                row_err = str(e)
                row_err_type = type(e).__name__
            for name in self.rule_names:
                v = result.get(name)
                if isinstance(v, BaseException):
                    row_err = row_err or str(v)
                    row_err_type = row_err_type or type(v).__name__
                    columns[name].append(None)
                    continue
                if self.json_results:
                    columns[name].append(
                        json.dumps(v, default=repr, sort_keys=False))
                else:
                    enc, is_json = _encode_value(v)
                    if is_json:
                        json_flags[name] = True
                    columns[name].append(enc)
            errors.append(row_err)
            error_types.append(row_err_type)
        out = batch.select(keep) if keep else pa.table({})
        for name in self.rule_names:
            vals = columns[name]
            if json_flags[name]:
                vals = [v if (v is None or isinstance(v, str))
                        else json.dumps(v, default=repr) for v in vals]
                arr = pa.array(vals, pa.large_string())
            else:
                arr = pa.array(vals)
            out = out.append_column(name, arr)
        out = out.append_column("error", pa.array(errors, pa.string()))
        out = out.append_column("error_type", pa.array(error_types, pa.string()))
        # metadata-carrying schemas (pandas blob from parquet) are
        # unhashable -> Ray can't dedup block schemas; strip it
        return out.replace_schema_metadata(None)


def parse_dataset(ds, rule_pack, input_column: str = "text",
                  batch_size: int = 1024, **kwargs):
    """``parse_pages(ds, rulepack)`` — the public Dataset-level API: a
    task pool over warm workers, each building its ``RuleEngine`` once
    per pack on the per-worker stage cache (``stages.taskcache``) —
    no actor startup cost, scales with the cluster."""
    from .taskcache import cached_stage
    return ds.map_batches(
        cached_stage(RuleEngine, rule_pack=rule_pack,
                     input_column=input_column, **kwargs),
        batch_format="pyarrow", batch_size=batch_size)
