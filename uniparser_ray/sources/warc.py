"""WET-style WARC export/ingest for crawl results.

Common Crawl publishes extracted text as WET files: WARC/1.0
``conversion`` records whose payload is the extracted content of one
page (the public WARC 1.0 spec + the WET convention).  This module
gives the crawl that interchange surface:

* ``write_wet_fragment`` — one WET file written atomically (tmp +
  rename), one record per page row; idempotent like the Lance
  fragment writer so a resumed export skips finished files.
* ``export_wet`` — the crawl's round-partitioned pages checkpoints →
  one WET file PER ROUND FILE, task-parallel (``map_batches`` over
  the file list; each task reads one parquet and writes one WET), so
  the export scales with the checkpoint partitioning and a failed
  run resumes by skipping existing fragments.
* ``read_wet`` — distributed parse back to (url, status, content)
  rows: ``map_batches`` over the file list, records framed by
  Content-Length per the spec (CRLF header block, payload, blank
  line).

The fetch status rides a private ``X-Crawl-Status`` header (WET has
no status; documented non-standard extension).
"""
from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import List

import pyarrow as pa

_CRLF = b"\r\n"


def _record(url: str, status: int, content: bytes) -> bytes:
    head = (
        b"WARC/1.0" + _CRLF
        + b"WARC-Type: conversion" + _CRLF
        + b"WARC-Target-URI: " + url.encode() + _CRLF
        + b"X-Crawl-Status: " + str(int(status)).encode() + _CRLF
        + b"WARC-Block-Digest: md5:"
        + hashlib.md5(content).hexdigest().encode() + _CRLF
        + b"Content-Length: " + str(len(content)).encode() + _CRLF
        + _CRLF)
    return head + content + _CRLF + _CRLF


def write_wet_fragment(rows, path: str, overwrite: bool = False) -> str:
    """rows: iterable of (url, status, content_str).  Atomic +
    idempotent (existing file kept unless overwrite)."""
    p = Path(path)
    if p.exists() and not overwrite:
        return str(p)
    p.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=p.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for url, status, content in rows:
                f.write(_record(url, status,
                                (content or "").encode()))
        os.replace(tmp, p)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return str(p)


def parse_wet(blob: bytes):
    """Yield (url, status, content_str) per record; Content-Length
    framing, tolerant of trailing padding."""
    i, n = 0, len(blob)
    while i < n:
        end = blob.find(_CRLF + _CRLF, i)
        if end < 0:
            break
        head = blob[i:end].decode()
        if not head.strip():
            i = end + 4
            continue
        hdrs = {}
        for line in head.split("\r\n")[1:]:
            k, _, v = line.partition(":")
            hdrs[k.strip().lower()] = v.strip()
        clen = int(hdrs["content-length"])
        body = blob[end + 4:end + 4 + clen]
        yield (hdrs["warc-target-uri"],
               int(hdrs.get("x-crawl-status", "0")),
               body.decode())
        i = end + 4 + clen + 4


def export_wet(pages_dir: str, out_dir: str) -> List[str]:
    """Round-partitioned pages checkpoints → one WET per round file,
    task-parallel.  Returns the WET paths (sorted)."""
    import ray.data as rd

    from ..crawl.loop import round_files

    rows = [{"src": f,
             "dst": str(Path(out_dir)
                        / (Path(f).parent.name + "-"
                           + Path(f).stem + ".warc"))}
            for f in round_files(pages_dir)]

    def export_one(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq
        done = []
        for r in batch.to_pylist():
            t = pq.read_table(r["src"],
                              columns=["url", "status", "result_json"])
            write_wet_fragment(
                zip(t["url"].to_pylist(), t["status"].to_pylist(),
                    t["result_json"].to_pylist()), r["dst"])
            done.append(r["dst"])
        return pa.table({"path": pa.array(done, pa.string())})

    out = rd.from_items(rows).map_batches(
        export_one, batch_format="pyarrow", batch_size=1).to_pandas()
    return sorted(out["path"])


def read_wet(paths: List[str]):
    """Distributed WET ingest → Dataset of (url, status, content)."""
    import ray.data as rd

    def parse_one(batch: pa.Table) -> pa.Table:
        urls, stats, bodies = [], [], []
        for p in batch.to_pylist():
            with open(p["path"], "rb") as f:
                for url, status, content in parse_wet(f.read()):
                    urls.append(url)
                    stats.append(status)
                    bodies.append(content)
        return pa.table({"url": pa.array(urls, pa.string()),
                         "status": pa.array(stats, pa.int64()),
                         "content": pa.array(bodies, pa.string())})

    return rd.from_items([{"path": p} for p in paths]).map_batches(
        parse_one, batch_format="pyarrow", batch_size=1)
