"""Distributed ``__result__`` tree assembly over flat crawl pages.

The reference's recursive crawler nests every child crawl's result
under its parent's ``__result__`` key (reference: crawler.py:174-189).
The distributed engine instead emits FLAT page rows with ``parent``
lineage (one row per fetched URL); this stage reassembles the nested
trees bottom-up, one depth at a time, on the engine's hash exchange
(``stages.combine``):

    for depth d = max .. 0:
        children(d+1) --grouped_map(parent)--> per-parent child maps
        pages(d)  --hash_bucket_join (left)--> attach, build tree json

Partitioning assumption: one level is processed at a time (the tree
is as deep as the crawl ran rounds), and each level's rows group by
``parent`` — so the shuffle key is the parent URL and a hot parent
with millions of children lands in one group (cap fan-out upstream
via ``max_pending_per_host`` if that matters).  Per-node output
matches ``crawl.oracle.assemble_oracle_trees`` exactly, with the one
documented deviation from the reference shared by both assemblers: a
link whose page was first fetched under a DIFFERENT parent (BFS URL
dedup) contributes ``None`` instead of a re-fetched subtree.
"""

from __future__ import annotations

import json
from typing import Union

import pandas as pd
import pyarrow as pa

from ..config import EngineConfig
from ..rulevm.urlutil import canonicalize_url

_COLS = ["url", "parent", "depth", "status", "rule_name", "result_json"]


def _tree_builder(with_children: bool):
    def build(df: pd.DataFrame) -> pd.DataFrame:
        out_urls, out_parents, out_trees = [], [], []
        for row in df.itertuples(index=False):
            if row.status != 200 or not row.result_json:
                tree = None
            else:
                body = json.loads(row.result_json)
                links = body.get(EngineConfig.__request__) or []
                if links:
                    kids = {}
                    if with_children and isinstance(
                            getattr(row, "children_json", None), str) \
                            and row.children_json:
                        kids = json.loads(row.children_json)
                    body[EngineConfig.__result__] = [
                        kids.get(canonicalize_url(l)) for l in links]
                tree = {row.rule_name: body}
            out_urls.append(row.url)
            out_parents.append(row.parent)
            out_trees.append(json.dumps(tree))
        return pd.DataFrame({"url": out_urls, "parent": out_parents,
                             "tree_json": out_trees})

    return build


def _child_map(g: pd.DataFrame) -> pd.DataFrame:
    parent = g["parent"].iloc[0]
    kids = {u: json.loads(t) for u, t in zip(g["url"], g["tree_json"])}
    return pd.DataFrame({"_purl": [parent],
                         "children_json": [json.dumps(kids)]})


def assemble_results(pages: Union[str, "object"], num_buckets: int = 16):
    """pages (a Dataset of flat page rows, or the crawl's ``pages``
    checkpoint directory) -> Dataset of (url, tree_json) for the
    DEPTH-0 roots, each tree the reference-shaped nested dict."""
    import ray.data as rd
    from ..stages.combine import grouped_map, hash_bucket_join

    if isinstance(pages, str):
        from ..stages.crawl_stages import PAGE_SCHEMA
        from .loop import read_rounds
        pages = read_rounds(pages, _COLS, PAGE_SCHEMA)

    def prep(t: pa.Table) -> pa.Table:
        return t.select(_COLS)

    rows = pages.map_batches(prep, batch_format="pyarrow").materialize()
    if rows.count() == 0:
        return rd.from_arrow(pa.table(
            {"url": pa.array([], pa.string()),
             "tree_json": pa.array([], pa.string())}))
    max_depth = int(rows.max("depth"))

    assembled = None
    for d in range(max_depth, -1, -1):
        level = rows.filter(expr=f"depth == {d}")
        if assembled is None:
            out = level.map_batches(_tree_builder(False),
                                    batch_format="pandas")
        else:
            cmap = grouped_map(assembled, ["parent"], _child_map)
            joined = hash_bucket_join(level, cmap, "url", "_purl",
                                      how="left", num_buckets=num_buckets,
                                      left_cols=_COLS,
                                      right_cols=["_purl", "children_json"])
            out = joined.map_batches(_tree_builder(True),
                                     batch_format="pandas")
        assembled = out.materialize()
    return assembled.select_columns(["url", "tree_json"])


def assemble_results_dict(pages) -> dict:
    """Driver-side convenience: {root_url: nested tree} (small roots
    only — the per-level assembly above is the distributed part)."""
    out = assemble_results(pages).to_pandas()
    if "url" not in out.columns:  # ray to_pandas drops schema at 0 rows
        return {}
    return {u: json.loads(t) for u, t in zip(out["url"], out["tree_json"])}
