"""Driver-style correctness check: run each queries() entry and its
oracle_sql() twin on the same sf dir; compare row count, column names,
and order-insensitive values.

Usage: python tools/check_queries.py [sf_dir] [query ...]

Each query argument is a name or an fnmatch pattern ('crawl_*').
"""

from __future__ import annotations

import fnmatch
import sys
import time
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).parent.parent))

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def main():
    import os
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = sys.argv[2:]
    # VALUES-embedded oracles (multimodal/crawl) are sf-scaled; tell
    # oracle_sql() which sf this check runs at (driver default sf0.01)
    os.environ["UNIPARSER_ORACLE_SF"] = Path(sf_dir).name or "sf0.01"

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and not any(fnmatch.fnmatchcase(name, pat) for pat in only):
            continue
        t0 = time.perf_counter()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        el = time.perf_counter() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"ok   {name}: rows={len(got)} (rows-only) [{el:.1f}s]")
            continue
        try:
            want = con.execute(sql).fetchdf()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {e}")
            failures.append(name)
            continue
        g, w = canon(got), canon(want)
        if list(g.columns) != list(w.columns):
            print(f"FAIL {name}: columns {list(g.columns)} vs {list(w.columns)}")
            failures.append(name)
            continue
        if len(g) != len(w):
            print(f"FAIL {name}: rows {len(g)} vs {len(w)}")
            failures.append(name)
            continue
        if not g.equals(w):
            neq = (g != w) & ~(g.isna() & w.isna())
            bad_cols = [c for c in g.columns if neq[c].any()]
            print(f"FAIL {name}: value mismatch in {bad_cols}")
            for c in bad_cols[:2]:
                idx = neq[c].idxmax()
                print(f"     {c}[{idx}]: got {g[c][idx]!r} want {w[c][idx]!r}")
            failures.append(name)
            continue
        print(f"PASS {name}: rows={len(g)} [{el:.1f}s]")

    print(f"\n{len(failures)} failures: {failures}" if failures
          else "\nALL PASS")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
