"""Correctness gate: each crawl job against the single-process BFSOracle.

``reference`` runs the oracle once per (workload, seed) and keeps only
what the gate compares; ``check`` reads a finished job's checkpoints
and returns the list of mismatches (empty = the job is correct).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import pyarrow.parquet as pq

from workloads import Workload


def reference(w: Workload, seed: int) -> dict:
    web = w.make_web(seed)
    seeds = w.seeds(web)
    oracle = w.oracle(web)
    t0 = time.perf_counter()
    res = oracle.run(seeds, max_rounds=w.max_rounds)
    bfs_s = time.perf_counter() - t0
    pages = {}
    for url, (status, body) in res["pages"].items():
        title = body.get("title") if status == 200 and isinstance(body, dict) \
            else None
        pages[url] = (status, title)
    return {
        "rounds": [sorted(r["fetched"]) for r in res["rounds"]],
        "pages": pages,
        "images": sorted(res["images"]),
        "universe": sorted(seeds),
        "bfs_s": bfs_s,
    }


def read_pages(out_dir: Path) -> List[List[dict]]:
    """Per round, the page checkpoint rows (url, status, result_json)."""
    rounds = []
    r = 0
    while (out_dir / "pages" / f"round={r}").exists():
        rows = []
        for f in sorted((out_dir / "pages" / f"round={r}").glob("*.parquet")):
            rows.extend(pq.read_table(
                f, columns=["url", "status", "result_json"]).to_pylist())
        rounds.append(rows)
        r += 1
    return rounds


def status_mix(rounds: List[List[dict]]) -> Dict[str, int]:
    mix = {"status_200": 0, "status_4xx": 0, "status_5xx": 0,
           "status_other": 0}
    for rows in rounds:
        for row in rows:
            s = row["status"]
            key = ("status_200" if s == 200 else
                   "status_4xx" if 400 <= s < 500 else
                   "status_5xx" if 500 <= s < 600 else "status_other")
            mix[key] += 1
    return mix


def check(w: Workload, out_dir: Path, ref: dict,
          rounds: List[List[dict]] = None) -> List[str]:
    if rounds is None:
        rounds = read_pages(out_dir)
    fetched = [sorted(row["url"] for row in rows) for rows in rounds]
    bad: List[str] = []
    for c in w.checks:
        if c == "rounds" and fetched != ref["rounds"]:
            bad.append(f"per-round fetched sets differ "
                       f"({[len(x) for x in fetched]} vs "
                       f"{[len(x) for x in ref['rounds']]})")
        elif c == "universe" and sorted(
                u for x in fetched for u in x) != ref["universe"]:
            bad.append("granted set is not the seeded universe")
        elif c == "status_title":
            n_bad = 0
            for rows in rounds:
                for row in rows:
                    want = ref["pages"].get(row["url"])
                    got_title = (json.loads(row["result_json"]).get("title")
                                 if row["status"] == 200 else None)
                    if want is None or (row["status"], got_title) != \
                            tuple(want):
                        n_bad += 1
            if n_bad:
                bad.append(f"{n_bad} pages differ in status or title")
        elif c == "images":
            from uniparser_ray.storage.lance_layout import LanceLayoutTable
            table = LanceLayoutTable(str(out_dir / "images_lance"))
            got = (sorted(table.to_table(columns=["image_id"])["image_id"]
                          .to_pylist()) if table.count_rows() else [])
            if got != ref["images"]:
                bad.append(f"image ids differ ({len(got)} vs "
                           f"{len(ref['images'])})")
    return bad
