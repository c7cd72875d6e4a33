"""Process-level memo for expensive, reusable pipeline artifacts.

At production scale, artifacts like MinHash near-dup pair lists and
dedup cluster assignments are PERSISTED: written once as partitioned
Parquet/Lance next to the corpus and read by every downstream consumer
(curation gates, incremental ingest, audits) instead of being
recomputed per query.  In this repo the synthetic inputs are rebuilt
per test run, so the equivalent is a process-level memo keyed by the
input files' identity (realpath, mtime_ns, size): the first consumer
in a process computes and "persists", later consumers (e.g.
``doc_curation`` after ``doc_dedup_clusters``) reuse; any rewrite of
the input invalidates the key.

The harness's crawls and their oracle runs (``crawl_q.harness_crawl``
/ ``harness_oracle``) are memoized here too, keyed by variant and sf
tag alone: their synthetic web is a pure function of its config.

Only bounded, driver-resident artifacts belong here (cluster
assignment tables are one small row per doc/image — the same bound
their direct callers already accept).  Unbounded artifacts should be
``Dataset.materialize()``-pinned or written to disk instead.
"""
from __future__ import annotations

import os
from typing import Any, Callable

_CACHE: dict = {}


def input_sig(*paths: str) -> tuple:
    """Identity of a set of input files: (realpath, mtime_ns, size)
    per file — cheap (stat only), invalidated by any rewrite."""
    sig = []
    for p in paths:
        rp = os.path.realpath(p)
        st = os.stat(rp)
        sig.append((rp, st.st_mtime_ns, st.st_size))
    return tuple(sig)


def memo(key: tuple, compute: Callable[[], Any]) -> Any:
    hit = _CACHE.get(key)
    if hit is None:
        hit = compute()
        _CACHE[key] = hit
    return hit


def clear() -> None:
    _CACHE.clear()
