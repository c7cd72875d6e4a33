"""Statistics pipelines: distinct counts (exact + HyperLogLog) and
exact distributed quantiles over the TPC-H-ish tables.

Scale shapes:

* ``events_distinct_users`` — one shuffle of per-batch-unique
  (event_type, user_id) pairs bucketed by user_id; each bucket dedups
  vectorized and emits per-type partial counts; the global combine is
  O(buckets x types) rows.
* ``events_hll_users`` — no pair shuffle at all: per-batch HLL
  register partials (O(types x 64) rows per batch) merge by MAX.  The
  md5-derived hash (stages/sketches.hash31) makes the registers
  bit-identical in DuckDB, so even the sketch is value-checked.
* ``order_price_quantiles`` — iterative histogram refinement
  (stages/sketches.exact_quantiles): O(log(n)) streaming passes,
  driver state O(histogram buckets), no global sort.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _read(sf_dir: str, table: str, columns=None):
    from ..sources.parquet import read_parquet_clean
    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def events_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def batch_unique(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    pairs = ds.map_batches(batch_unique, batch_format="pandas")

    def bucket_count(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates().groupby("event_type", sort=False) \
            .size().rename("n_users").reset_index()

    partials = hash_bucket_combine(pairs, ["user_id"], bucket_count,
                                   num_buckets=64).to_pandas()
    out = partials.groupby("event_type", sort=True)["n_users"].sum() \
        .reset_index()
    out["n_users"] = out["n_users"].astype("int64")
    return out


def events_hll_users(sf_dir: str):
    """HyperLogLog registers per event_type (m=64, md5-31bit hash).

    Returns (event_type, bucket, register) rows — the registers ARE the
    sketch state (mergeable by MAX across any partitioning) and are
    reproduced exactly by the DuckDB oracle; the cardinality estimate
    is ``stages.sketches.hll_estimate`` over a type's registers
    (pinned by pytest against the exact twin)."""
    from ..stages.combine import grouped_aggregate
    from ..stages.sketches import hash31, hll_partial

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        h = hash31(d["user_id"].to_numpy())
        bucket, rho = hll_partial(h)
        return pd.DataFrame({"event_type": d["event_type"].to_numpy(),
                             "bucket": bucket, "register": rho}) \
            .groupby(["event_type", "bucket"], sort=False)["register"] \
            .max().reset_index()

    out = grouped_aggregate(ds.map_batches(partial, batch_format="pandas"),
                            ["event_type", "bucket"],
                            {"register": ("register", "max")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["bucket"] = df["bucket"].astype("int64")
        df["register"] = df["register"].astype("int64")
        return df[["event_type", "bucket", "register"]]

    return out.map_batches(finish, batch_format="pandas")


def order_price_quantiles(sf_dir: str, qs=(0.5, 0.9, 0.99)):
    """Exact p50/p90/p99 of o_totalprice (quantile_disc semantics)."""
    from ..stages.sketches import exact_quantiles

    ds = _read(sf_dir, "orders", ["o_totalprice"])
    return exact_quantiles(ds, "o_totalprice", qs)


def events_value_quantiles(sf_dir: str, qs=(0.5, 0.9)):
    """Exact per-event-type value quantiles — the GROUPED form of the
    histogram refinement: all (type, q) ranges share the same streaming
    passes, so per-group medians cost the same number of scans as one
    global median (group key assumed low-cardinality)."""
    from ..stages.sketches import exact_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return exact_quantiles(ds, "value", qs, by="event_type")


def events_stratified_sample(sf_dir: str, target: int = 500):
    """Class-balancing stratified sampler: each ``event_type`` stratum
    is downsampled toward ``target`` rows with a per-stratum keep rate
    ``min(1, target/count)`` in integer basis points, applied as a
    DETERMINISTIC hash-residue test on event_id — the stratified
    variant of ``doc_sample_hash``.

    Two stages: a tiny grouped count (rows = #strata) folds to a
    basis-point rate map broadcast via ``ray.put``; the sample itself
    is one coordination-free vectorized pass — every worker makes the
    identical keep/drop decision from the row alone, so the sample
    reproduces across cluster sizes, retries, resumes and
    re-partitioning (seeded ``Dataset.random_sample`` can't).  Integer
    arithmetic end-to-end; the oracle computes the same rates in SQL."""
    import ray

    from ..stages.combine import grouped_aggregate
    from ..stages.sketches import hash31

    ds = _read(sf_dir, "events", ["event_id", "event_type"])
    counts = grouped_aggregate(ds, ["event_type"],
                               {"cnt": ("event_id", "count")}).to_pandas()
    rates = {k: min(10_000, (target * 10_000) // int(c))
             for k, c in zip(counts["event_type"], counts["cnt"])}
    rates_ref = ray.put(rates)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rates_ref)
        h = hash31(df["event_id"].to_numpy()) % 10_000
        lim = df["event_type"].map(r).to_numpy()
        return df[h < lim]

    return ds.map_batches(keep, batch_format="pandas")


_HH_SENTINEL = -1   # error-bound row key (real keys must be >= 0)


def _topk_counts(ds, key: str, cnt: str, k: int) -> pd.DataFrame:
    """Distributed top-k by (count desc, key asc): per-block local
    top-k, then a driver merge of the bounded k x blocks partials."""
    def local(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values([cnt, key], ascending=[False, True],
                              kind="mergesort").head(k)

    pdf = ds.map_batches(local, batch_format="pandas").to_pandas()
    return pdf.sort_values([cnt, key], ascending=[False, True],
                           kind="mergesort").head(k).reset_index(drop=True)


def heavy_hitters_topk(ds, key: str, k: int = 10, capacity: int = 64,
                       max_candidates: int = 1_000_000):
    """EXACT top-k heavy hitters with bounded-memory partials: a
    Misra-Gries summary per batch (``capacity`` integer pairs — the
    only thing the wide combine moves), then an exact recount of just
    the surviving candidates.

    Guarantee logic: summed kept counts are per-key LOWER bounds;
    E = sum of per-batch drop thresholds bounds every key's undercount
    (``stages.sketches.mg_compress``).  With tau = the k-th largest
    lower bound, any key whose lower + E < tau — including keys the
    sketch never kept (true <= E) — provably cannot reach the top k,
    so recounting the candidate set exactly yields the EXACT top-k.
    When the data is too flat for the sketch to prune (E >= tau, or
    more than ``max_candidates`` survive) it falls back to the plain
    exact aggregate — adaptively paying the full shuffle only when no
    sketch could have avoided it.  Both paths return identical,
    SQL-checkable results.

    Returns (DataFrame[rank, key, n_events], info dict with method /
    E / tau / n_candidates for tests and bench)."""
    import pyarrow as pa
    import ray

    from ..stages.combine import grouped_aggregate
    from ..stages.sketches import mg_compress

    def partial(t: pa.Table) -> pa.Table:
        v = t[key].to_numpy()
        if len(v) and v.min() < 0:
            raise ValueError("heavy_hitters_topk requires keys >= 0")
        u, c = np.unique(v, return_counts=True)
        u, c, err = mg_compress(u, c, capacity)
        ks = np.concatenate([u.astype(np.int64), [_HH_SENTINEL]])
        cs = np.concatenate([c.astype(np.int64), [err]])
        return pa.table({key: pa.array(ks), "cnt": pa.array(cs)})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    lowers = grouped_aggregate(partials, [key],
                               {"cnt": ("cnt", "sum")}).materialize()

    sent = lowers.map_batches(
        lambda df: df[df[key] == _HH_SENTINEL], batch_format="pandas") \
        .to_pandas()
    E = int(sent["cnt"].iloc[0]) if len(sent) else 0

    real = lowers.map_batches(
        lambda df: df[df[key] != _HH_SENTINEL], batch_format="pandas")
    top_lower = _topk_counts(real, key, "cnt", k)
    tau = int(top_lower["cnt"].iloc[-1]) if len(top_lower) >= k else 0

    def exact_all():
        def cnts(t: pa.Table) -> pa.Table:
            u, c = np.unique(t[key].to_numpy(), return_counts=True)
            return pa.table({key: pa.array(u.astype(np.int64)),
                             "cnt": pa.array(c.astype(np.int64))})

        agg = grouped_aggregate(ds.map_batches(cnts,
                                               batch_format="pyarrow"),
                                [key], {"cnt": ("cnt", "sum")})
        return _topk_counts(agg, key, "cnt", k)

    if E >= tau or tau == 0:
        out, method, n_cand = exact_all(), "exact_fallback", -1
    else:
        cand = real.map_batches(
            lambda df, _t=tau, _e=E: df[df["cnt"] + _e >= _t],
            batch_format="pandas").materialize()
        n_cand = cand.count()
        if n_cand > max_candidates:
            out, method = exact_all(), "exact_fallback"
        else:
            keys_arr = np.sort(cand.to_pandas()[key]
                               .to_numpy(np.int64))
            keys_ref = ray.put(keys_arr)

            def recount(t: pa.Table) -> pa.Table:
                ks = ray.get(keys_ref)
                v = t[key].to_numpy()
                v = v[np.isin(v, ks)]
                u, c = np.unique(v, return_counts=True)
                return pa.table({key: pa.array(u.astype(np.int64)),
                                 "cnt": pa.array(c.astype(np.int64))})

            agg = grouped_aggregate(
                ds.map_batches(recount, batch_format="pyarrow"),
                [key], {"cnt": ("cnt", "sum")})
            out = _topk_counts(agg, key, "cnt", k)
            method = "sketch"

    out = out.rename(columns={"cnt": "n_events"})
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    out["n_events"] = out["n_events"].astype("int64")
    info = {"method": method, "E": E, "tau": tau,
            "n_candidates": n_cand}
    return out, info


CMS_DEPTH = 4      # independent hash rows
CMS_WIDTH = 32     # counters per row (narrow ON PURPOSE: collisions,
#                    and thus real CMS overestimates, occur at test scale)
CMS_SEED = 20260818


def events_countmin(sf_dir: str):
    """Count-Min sketch per-user event counts — THE mergeable
    streaming-count summary (Cormode & Muthukrishnan, public
    algorithm): every block folds its keys into a d×w integer counter
    grid, grids sum cell-wise (mergeable partials — the same property
    that lets 256 nodes sketch 100 TB and ship d·w ints each), and a
    point query reads min over the d hashed cells, guaranteed
    >= the true count.  Output per probed user: true count (exact
    aggregate, the audit side), the CMS estimate, and the
    overestimate — all integers, so the DuckDB twin (the same affine
    hash params as VALUES literals) is bit-exact.

    Scale shape: the sketch pass ships ONE d×w grid per block (the
    partials fold in one exchange bucket — 128 ints here);
    the exact side is the ordinary partial-agg groupby.  Keys reduce
    mod P31 BEFORE the affine hash so products stay in int64 range on
    both engines."""
    import pyarrow as pa

    from ..stages.combine import grouped_aggregate
    from ..stages.tokenhash import P31, affine_params

    a, b = affine_params(CMS_DEPTH, CMS_SEED)
    P = np.uint64(P31)

    ds = _read(sf_dir, "events", ["user_id"])

    def grid_rows(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy().astype(np.int64).view(np.uint64) % P
        cols = (a[:, None] * uid[None, :] + b[:, None]) % P \
            % np.uint64(CMS_WIDTH)
        cell = (np.arange(CMS_DEPTH, dtype=np.uint64)[:, None]
                * np.uint64(CMS_WIDTH) + cols).ravel()
        counts = np.bincount(cell.astype(np.int64),
                             minlength=CMS_DEPTH * CMS_WIDTH)
        nz = np.flatnonzero(counts)
        return pa.table({"cell": pa.array(nz, pa.int64()),
                         "c": pa.array(counts[nz], pa.int64())})

    grid = grouped_aggregate(ds.map_batches(grid_rows,
                                            batch_format="pyarrow"),
                             ["cell"], {"c": ("c", "sum")}).to_pandas()
    cms = np.zeros(CMS_DEPTH * CMS_WIDTH, np.int64)
    cms[grid["cell"].to_numpy()] = grid["c"].to_numpy()
    cms = cms.reshape(CMS_DEPTH, CMS_WIDTH)

    tru = grouped_aggregate(ds, ["user_id"],
                            {"true_count": ("user_id", "count")}).to_pandas()
    uid = tru["user_id"].to_numpy().astype(np.int64).view(np.uint64) % P
    cols = (a[:, None] * uid[None, :] + b[:, None]) % P \
        % np.uint64(CMS_WIDTH)
    est = cms[np.arange(CMS_DEPTH)[:, None],
              cols.astype(np.int64)].min(axis=0)
    out = pd.DataFrame({
        "user_id": tru["user_id"].astype("int64"),
        "true_count": tru["true_count"].astype("int64"),
        "cms_estimate": est.astype("int64")})
    out["overestimate"] = (out["cms_estimate"]
                           - out["true_count"]).astype("int64")
    from ..blocks import table_from_pandas
    return table_from_pandas(
        out.sort_values("user_id").reset_index(drop=True),
        preserve_index=False)


def events_heavy_hitters(sf_dir: str, k: int = 10, capacity: int = 64):
    """Top-k users by event count via the Misra-Gries candidates +
    exact-recount plan (exact by construction on every path)."""
    from ..blocks import table_from_pandas

    ds = _read(sf_dir, "events", ["user_id"])
    out, _info = heavy_hitters_topk(ds, "user_id", k=k, capacity=capacity)
    return table_from_pandas(out, preserve_index=False)


WATERMARK_LATENESS_US = 14 * 86_400 * 10**6   # 14 days (~half the span)
_P31 = 2147483647


def events_watermark_late(sf_dir: str, lateness_us: int = None,
                          num_ranges: int = 32):
    """Streaming watermark / late-data detection (the Dataflow-model
    semantics, public): an event is LATE iff its timestamp trails the
    watermark — the running max event-time seen so far minus the
    allowed lateness — at its arrival position.

    The shipped events table is time-ordered, so ARRIVAL order is
    modeled by the deterministic md5-residue permutation of event_id
    (the same device the hash sampler uses — reproducible across
    cluster sizes, retries, and in SQL).  The running max over that
    order is ``stages.combine.prefix_scan`` with max instead of sum;
    arrival hashes are uniform on [0, 2^31), so the range cut needs
    no min/max pass.  No global sort; integer microseconds
    end-to-end."""
    import pyarrow as pa

    from ..stages.combine import prefix_scan
    from ..stages.sketches import hash31

    L = WATERMARK_LATENESS_US if lateness_us is None else lateness_us

    def arrival(t: pa.Table) -> pa.Table:
        arr = hash31(t["event_id"].to_numpy()).astype(np.int64)
        return pa.Table.from_arrays(
            [t["event_id"], t["ts"].cast(pa.int64()),
             pa.array(arr, pa.int64())],
            names=["event_id", "ts_us", "arr"])

    def flag(g: pd.DataFrame, before: np.ndarray) -> pd.DataFrame:
        ts = g["ts_us"].to_numpy()
        return pd.DataFrame({"event_id": g["event_id"], "ts_us": ts,
                             "max_before": before,
                             "late": (ts + L < before).astype("int64")})

    ds = _read(sf_dir, "events", ["event_id", "ts"]) \
        .map_batches(arrival, batch_format="pyarrow")
    return prefix_scan(ds, ["arr", "event_id"], "ts_us", "max", flag,
                       num_ranges=num_ranges, key_range=(0, _P31))
