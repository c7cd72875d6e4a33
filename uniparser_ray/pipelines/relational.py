"""Relational pipelines over the TPC-H-ish parquet tables.

Ray-Data-first shapes:

* column-pruned ``read_parquet`` (only referenced columns leave disk),
* vectorized pyarrow.compute kernels inside ``map_batches``,
* **partial aggregation**: per-batch pandas groupby emits one row per
  key per batch, then the global ``groupby().aggregate(Sum(...))``
  shuffles only partials (for low-cardinality keys the exchange is
  ~batch_count x keys rows, not row_count),
* **broadcast joins**: the small side is collected once, ``ray.put``,
  and probed inside ``map_batches`` — no shuffle join for
  dimension-table lookups.

Every function takes ``sf_dir`` and returns a Dataset / pyarrow Table
whose column names match its oracle SQL in __ray_entry__.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..blocks import table_from_pandas
from ..stages.combine import grouped_aggregate


def _read(sf_dir: str, table: str, columns=None, **kwargs):
    from ..sources.parquet import read_parquet_clean
    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns,
                              **kwargs)


INCR_CUTOFF = "1997-01-01"   # base = orders strictly before; delta = rest


def orders_incremental_agg(sf_dir: str):
    """Materialized-view MAINTENANCE: per-customer (n_orders, spend)
    state built from the BASE date range, then the DELTA range folded
    in WITHOUT re-touching base rows — the incremental-ingest property
    a daily pipeline relies on (state is mergeable partial sums, so
    merging yesterday's persisted state with today's partials equals a
    full recompute — which is exactly what the DuckDB twin runs).

    Scale shape: two date-pruned reads (the predicate pushes into the
    parquet scan — base rows are read once EVER in production, here
    once per run), each folded to per-customer partials; the merge
    exchange handles only partial rows (customers × 2), never raw
    orders.  Spend in exact integer cents via the floor(x·100 + 0.5)
    double quantization both engines evaluate identically."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    cutoff = pd.Timestamp(INCR_CUTOFF)

    def part(ds):
        def rows(t: pa.Table) -> pa.Table:
            cents = pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(t["o_totalprice"], pa.float64()), 100.0), 0.5)),
                pa.int64())
            return pa.table({"o_custkey": t["o_custkey"],
                             "n_orders": pa.array(
                                 np.ones(t.num_rows, np.int64)),
                             "sum_cents": cents})
        return grouped_aggregate(
            ds.map_batches(rows, batch_format="pyarrow"),
            ["o_custkey"],
            {"n_orders": ("n_orders", "sum"),
             "sum_cents": ("sum_cents", "sum")})

    # o_orderdate must be in the projection for the filter to bind;
    # the per-batch fold drops it immediately
    cols = ["o_custkey", "o_totalprice", "o_orderdate"]
    base = part(_read(sf_dir, "orders", cols,
                      filter=pads.field("o_orderdate") < cutoff))
    delta = part(_read(sf_dir, "orders", cols,
                       filter=pads.field("o_orderdate") >= cutoff))

    # the maintenance step: merge = sum of mergeable partials only
    merged = grouped_aggregate(
        base.union(delta), ["o_custkey"],
        {"n_orders": ("n_orders", "sum"),
         "sum_cents": ("sum_cents", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("o_custkey", "n_orders", "sum_cents"):
            df[c] = df[c].astype("int64")
        return df[["o_custkey", "n_orders", "sum_cents"]]

    return merged.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: global pricing summary by returnflag/linestatus."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax"])

    def derive(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(t["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), t["l_discount"]))
        charge = pc.multiply(disc_price,
                             pc.add(pa.scalar(1.0), t["l_tax"]))
        return t.append_column("disc_price", disc_price) \
                .append_column("charge", charge)

    out = grouped_aggregate(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("l_quantity", "sum"),
         "sum_base_price": ("l_extendedprice", "sum"),
         "sum_disc_price": ("disc_price", "sum"),
         "sum_charge": ("charge", "sum"),
         "count_order": ("l_quantity", "count")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"):
            df[c] = df[c].round(2)
        df["count_order"] = df["count_order"].astype("int64")
        return df

    return out.map_batches(finish, batch_format="pandas")


def top_customers(sf_dir: str, k: int = 10):
    """Total spend per customer, top-k; names resolved by streaming
    the customer table against the k winning keys (broadcast of k ids
    — the big table never lands on the driver)."""
    import ray

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    agg = grouped_aggregate(orders, ["o_custkey"],
                            {"total_spent": ("o_totalprice", "sum"),
                             "order_count": ("o_totalprice", "count")})
    df = agg.sort(["total_spent", "o_custkey"],
                  descending=[True, False]).limit(k).to_pandas()
    keys_ref = ray.put(pa.array(df["o_custkey"].tolist(), pa.int64()))

    def pick(t: pa.Table) -> pa.Table:
        # pyarrow filter: empty outputs stay typed, so Ray's block size
        # estimator never sees a 0-row object column
        return t.filter(pc.is_in(t["c_custkey"],
                                 value_set=ray.get(keys_ref)))

    names = _read(sf_dir, "customer", ["c_custkey", "c_name"]) \
        .map_batches(pick, batch_format="pyarrow").to_pandas()
    df["c_name"] = df["o_custkey"].map(
        dict(zip(names["c_custkey"], names["c_name"])))
    df = df.rename(columns={"o_custkey": "c_custkey"})
    df["total_spent"] = df["total_spent"].round(2)
    df["order_count"] = df["order_count"].astype("int64")
    return table_from_pandas(
        df[["c_custkey", "c_name", "total_spent", "order_count"]],
        preserve_index=False)


def q3_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                         cutoff: str = "1998-01-01", k: int = 10):
    """TPC-H Q3 shape: push filters to the reads, two distributed
    hash-bucket joins (customer⋈orders, then ⋈lineitem), grouped
    revenue, top-k — no table ever lands on the driver."""
    from ..stages.combine import hash_bucket_join

    cutoff_ts = pd.Timestamp(cutoff)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda df: df.loc[df["c_mktsegment"] == segment,
                                       ["c_custkey"]],
                     batch_format="pandas")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda df: df[df["o_orderdate"] < cutoff_ts],
                     batch_format="pandas")
    oc = hash_bucket_join(orders, cust, "o_custkey", "c_custkey",
                          left_cols=["o_orderkey", "o_custkey",
                                     "o_orderdate"],
                          right_cols=["c_custkey"]) \
        .map_batches(lambda df: df[["o_orderkey", "o_orderdate"]],
                     batch_format="pandas")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def li_filter(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] > cutoff_ts]
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"],
            "revenue": df["l_extendedprice"] * (1.0 - df["l_discount"])})

    joined = hash_bucket_join(li.map_batches(li_filter,
                                             batch_format="pandas"),
                              oc, "l_orderkey", "o_orderkey",
                              left_cols=["l_orderkey", "revenue"],
                              right_cols=["o_orderkey", "o_orderdate"])
    agg = grouped_aggregate(joined, ["l_orderkey", "o_orderdate"],
                            {"revenue": ("revenue", "sum")})
    top = agg.sort(["revenue", "l_orderkey"],
                   descending=[True, False]).limit(k).to_pandas()
    top["revenue"] = top["revenue"].round(2)
    return table_from_pandas(top[["l_orderkey", "revenue", "o_orderdate"]],
                                preserve_index=False)


def nation_revenue(sf_dir: str):
    """Revenue by supplier nation: two broadcast dimension joins
    (supplier -> nation) + one grouped aggregate."""
    import ray

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nation_of_supp = dict(zip(
        sup["s_suppkey"],
        sup["s_nationkey"].map(dict(zip(nat["n_nationkey"], nat["n_name"])))))
    ref = ray.put(nation_of_supp)

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(ref)
        return pd.DataFrame({
            "n_name": df["l_suppkey"].map(m),
            "revenue": df["l_extendedprice"] * (1.0 - df["l_discount"]),
        })

    out = grouped_aggregate(li.map_batches(probe, batch_format="pandas"),
                            ["n_name"], {"revenue": ("revenue", "sum"),
                                         "n_items": ("revenue", "count")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = df["revenue"].round(2)
        df["n_items"] = df["n_items"].astype("int64")
        return df

    return out.map_batches(finish, batch_format="pandas")


def distinct_segments(sf_dir: str):
    """DISTINCT via Dataset.unique (shuffle over one small column)."""
    ds = _read(sf_dir, "customer", ["c_mktsegment"])
    vals = sorted(ds.unique("c_mktsegment"))
    return pa.table({"c_mktsegment": pa.array(vals, pa.string())})


def part_topk_price(sf_dir: str, k: int = 20):
    """Global sort + limit with deterministic tiebreak."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
    return ds.sort(["p_retailprice", "p_partkey"],
                   descending=[True, False]).limit(k)


def events_tumbling(sf_dir: str):
    """Tumbling 1-hour windows per user: count + sum(value).

    Ray Data has no event-time windows; the window key is computed in a
    vectorized map and the aggregate is a plain grouped sum — the
    documented streaming-as-batch mapping."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def window(df: pd.DataFrame) -> pd.DataFrame:
        # int64 epoch-us window key: Ray's sort-based aggregate is ~3
        # orders of magnitude slower on timestamp keys than on ints
        return pd.DataFrame({
            "user_id": df["user_id"],
            "window_us": df["ts"].dt.floor("h").astype("datetime64[us]")
                .astype("int64"),
            "value": df["value"],
        })

    out = grouped_aggregate(ds.map_batches(window, batch_format="pandas"),
                            ["user_id", "window_us"],
                            {"n_events": ("value", "count"),
                             "sum_value": ("value", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["window_start"] = pd.to_datetime(df.pop("window_us"), unit="us")
        df["sum_value"] = df["sum_value"].round(2)
        df["n_events"] = df["n_events"].astype("int64")
        return df[["user_id", "window_start", "n_events", "sum_value"]]

    return out.map_batches(finish, batch_format="pandas")


def events_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user (gap-based), the ordered-log pattern
    for stream-shaped work: hash-bucket users, one VECTORIZED pass per
    bucket (sort by (user, ts) -> gap diff -> cumsum session ids ->
    grouped min/max/count) — no per-group Python calls, so millions of
    users cost one pandas pass per bucket.  Emits one row per
    session."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(["user_id", "ts", "event_id"],
                               kind="mergesort")
        new_user = b["user_id"].ne(b["user_id"].shift())
        new_sess = new_user | (b["ts"].diff() > gap)
        b = b.assign(_sess=new_sess.cumsum())
        out = b.groupby("_sess", sort=False).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "first"),
            session_end=("ts", "last"),
            n_events=("event_id", "count"))
        out["n_events"] = out["n_events"].astype("int64")
        return out.reset_index(drop=True)

    return hash_bucket_combine(ds, ["user_id"], sessions, num_buckets=64)


def events_asof(sf_dir: str, left_type: str = "purchase",
                right_type: str = "view"):
    """As-of join inside the events stream: each ``left_type`` event
    joins the same user's most recent ``right_type`` event at-or-before
    its timestamp (NULL if none) — the classic enrich-stream-with-
    latest-state operator Ray Data has no primitive for.

    Composition (the documented custom-operator recipe): filter both
    sides at the read -> ONE hash shuffle on user_id -> per bucket a
    single vectorized pass (sort by (user, ts, side), forward-fill the
    last-seen right event within user, keep left rows).  Partitioning
    assumption: one user's (filtered) history fits a bucket; at 100 TB
    scale the same pass runs per (user, time-range) partition with one
    carried boundary row per user.  Right-side ties on (user, ts)
    dedupe to max(event_id) so the result is deterministic (DuckDB's
    ASOF JOIN leaves equal-key ties unspecified)."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.is_in(
            t["event_type"],
            value_set=pa.array([left_type, right_type])))

    ds = ds.map_batches(keep, batch_format="pyarrow")

    def asof(bucket: pd.DataFrame) -> pd.DataFrame:
        is_left = bucket["event_type"].eq(left_type)
        b = bucket.assign(_side=is_left.astype("int8"))
        # dedupe right ties on (user, ts): keep max event_id
        right = b[b["_side"].eq(0)]
        if len(right):
            keep_idx = right.groupby(["user_id", "ts"], sort=False)[
                "event_id"].idxmax()
            b = pd.concat([b.loc[keep_idx], b[b["_side"].eq(1)]])
        # right before left at equal ts -> at-or-before semantics
        b = b.sort_values(["user_id", "ts", "_side", "event_id"],
                          kind="mergesort")
        right_id = b["event_id"].where(b["_side"].eq(0))
        right_ts = b["ts"].where(b["_side"].eq(0))
        uid = b["user_id"]
        b = b.assign(matched_event_id=right_id.groupby(uid).ffill(),
                     matched_ts=right_ts.groupby(uid).ffill())
        out = b[b["_side"].eq(1)]
        matched = out["matched_event_id"].notna().to_numpy()
        # unit-explicit epoch µs (NaT -> iNaT garbage, masked below)
        ts_us = out["ts"].astype("datetime64[us]").to_numpy().view("i8")
        mts_us = out["matched_ts"].astype("datetime64[us]") \
            .to_numpy().view("i8")
        gap_us = pd.array(np.where(matched, ts_us - mts_us, 0),
                          dtype="Int64")
        gap_us[~matched] = pd.NA
        return pd.DataFrame({
            "event_id": out["event_id"].astype("int64").to_numpy(),
            "user_id": out["user_id"].astype("int64").to_numpy(),
            "ts": out["ts"].to_numpy(),
            "matched_event_id": pd.array(
                out["matched_event_id"].to_numpy(), dtype="Int64"),
            "gap_us": gap_us,
        })

    return hash_bucket_combine(ds, ["user_id"], asof, num_buckets=64)


def events_window_join(sf_dir: str, left_type: str = "purchase",
                       right_type: str = "view",
                       window_us: int = 24 * 3600 * 1_000_000):
    """Stream-stream interval join, aggregated form: each ``left_type``
    event counts the same user's ``right_type`` events in the
    half-open window ``(ts - W, ts]`` — the Flink-style windowed join
    Ray Data has no primitive for (reference has no streaming ops;
    this extends the events family like events_asof does).

    Composition: filter both sides at the read -> ONE hash shuffle on
    user_id -> per bucket a single vectorized pass.  The lower bound
    never pays a second search: each left event contributes a PROBE
    row at ``ts - W``, the union of (rights, probes, lefts) sorts once
    by (user, ts, kind) with rights first at equal ts, and the running
    count of rights read at the probe vs. the left position gives the
    in-window count as a difference.  Partitioning assumption: one
    user's filtered history fits a bucket (same as events_asof); at
    100 TB the identical pass runs per (user, time-range) partition
    with one carried running count per user."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.is_in(
            t["event_type"],
            value_set=pa.array([left_type, right_type])))

    ds = ds.map_batches(keep, batch_format="pyarrow")

    def window_count(bucket: pd.DataFrame) -> pd.DataFrame:
        is_l = bucket["event_type"].eq(left_type).to_numpy()
        ts_us = bucket["ts"].astype("datetime64[us]").to_numpy().view("i8")
        uid = bucket["user_id"].astype("int64").to_numpy()
        eid = bucket["event_id"].astype("int64").to_numpy()
        r_u, r_t = uid[~is_l], ts_us[~is_l]
        l_u, l_t, l_id = uid[is_l], ts_us[is_l], eid[is_l]
        nl = len(l_u)
        # kind 0 = right, 1 = probe(ts-W), 2 = left; rights sort FIRST
        # at equal ts so both bounds are inclusive-of-rights-at-ts,
        # making the difference count the half-open (ts-W, ts]
        u = np.concatenate([r_u, l_u, l_u])
        t = np.concatenate([r_t, l_t - np.int64(window_us), l_t])
        kind = np.concatenate([np.zeros(len(r_u), np.int8),
                               np.ones(nl, np.int8),
                               np.full(nl, 2, np.int8)])
        order = np.lexsort((kind, t, u))
        cum = np.cumsum(kind[order] == 0)
        # no per-user reset needed: a left event's probe and left rows
        # sit inside the SAME user's sorted run, so rights of earlier
        # users contribute equally to both bounds and cancel in the
        # difference
        pos = np.empty(len(order), np.int64)
        pos[order] = np.arange(len(order))
        c_lo = cum[pos[len(r_u):len(r_u) + nl]]
        c_hi = cum[pos[len(r_u) + nl:]]
        return pd.DataFrame({
            "event_id": l_id,
            "user_id": l_u,
            "ts": l_t.view("datetime64[us]"),
            "n_in_window": (c_hi - c_lo).astype("int64"),
        })

    return hash_bucket_combine(ds, ["user_id"], window_count,
                               num_buckets=64)


def q5_local_supplier_volume(sf_dir: str, region: str = "ASIA",
                             date_lo: str = "1996-01-01",
                             date_hi: str = "1998-01-01"):
    """TPC-H Q5 shape: revenue per nation where customer and supplier
    share the nation, suppliers in one region, orders in a date range
    — the six-table join plan.

    Plan (two shuffle joins, everything else broadcast):
      region ⋈ nation           -> driver dict (tiny), broadcast
      supplier ⋈ nation         -> driver dict suppkey->nationkey
                                   (dimension-sized), broadcast
      orders (date-filtered at the read) ⋈ customer  [shuffle join #1]
      lineitem ⋈ that           [shuffle join #2 on orderkey]
      probe broadcast supplier map + c_nationkey == s_nationkey filter
      grouped partial sum by n_name.
    """
    import ray

    from ..stages.combine import hash_bucket_join

    # broadcast sides (read once on the driver: dimension tables)
    nr = _read(sf_dir, "nation",
               ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    rg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    keep_regions = set(rg.loc[rg["r_name"] == region, "r_regionkey"])
    nr = nr[nr["n_regionkey"].isin(keep_regions)]
    nation_name = dict(zip(nr["n_nationkey"].astype("int64"),
                           nr["n_name"]))
    sup = _read(sf_dir, "supplier",
                ["s_suppkey", "s_nationkey"]).to_pandas()
    sup = sup[sup["s_nationkey"].astype("int64").isin(nation_name)]
    supp_nation = dict(zip(sup["s_suppkey"].astype("int64"),
                           sup["s_nationkey"].astype("int64")))
    supp_ref = ray.put(supp_nation)
    nation_ref = ray.put(nation_name)

    lo = pd.Timestamp(date_lo)
    hi = pd.Timestamp(date_hi)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def date_filter(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi)
        return df.loc[m, ["o_orderkey", "o_custkey"]]

    orders = orders.map_batches(date_filter, batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_filter(df: pd.DataFrame) -> pd.DataFrame:
        names = ray.get(nation_ref)
        return df[df["c_nationkey"].astype("int64").isin(names)]

    cust = cust.map_batches(cust_filter, batch_format="pandas")

    oc = hash_bucket_join(orders, cust, "o_custkey", "c_custkey",
                          left_cols=["o_orderkey", "o_custkey"],
                          right_cols=["c_custkey", "c_nationkey"])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])

    def li_rev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"],
            "l_suppkey": df["l_suppkey"],
            "rev": df["l_extendedprice"] * (1.0 - df["l_discount"]),
        })

    li = li.map_batches(li_rev, batch_format="pandas")
    joined = hash_bucket_join(li, oc, "l_orderkey", "o_orderkey",
                              left_cols=["l_orderkey", "l_suppkey",
                                         "rev"],
                              right_cols=["o_orderkey", "c_nationkey"])

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        sn = ray.get(supp_ref)
        names = ray.get(nation_ref)
        s_nat = df["l_suppkey"].astype("int64").map(sn)
        m = s_nat.notna() & (s_nat == df["c_nationkey"].astype("int64"))
        out = df.loc[m]
        return pd.DataFrame({
            "n_name": out["c_nationkey"].astype("int64").map(names),
            "rev": out["rev"],
        })

    agg = grouped_aggregate(joined.map_batches(probe, batch_format="pandas"),
                            ["n_name"], {"revenue": ("rev", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = df["revenue"].round(2)
        return df[["n_name", "revenue"]]

    return agg.map_batches(finish, batch_format="pandas")


def orders_topk_per_customer(sf_dir: str, k: int = 3):
    """Grouped top-k (ROW_NUMBER <= k per partition): each customer's
    k most expensive orders with their rank.

    Scale shape: the per-batch PARTIAL top-k prunes before the
    shuffle — at most k rows per customer per batch move (for
    customers spread thin across blocks this is the combiner that
    keeps the exchange O(keys x k x batches), never O(rows)); the
    bucketed combine re-ranks exactly.  Ties break on o_orderkey asc
    so the result is deterministic."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_totalprice"])

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort") \
            .groupby("o_custkey", sort=False).head(k)

    pruned = ds.map_batches(partial_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort") \
            .groupby("o_custkey", sort=False).head(k)
        df["rk"] = df.groupby("o_custkey", sort=False).cumcount() + 1
        return df[["o_custkey", "o_orderkey", "o_totalprice", "rk"]] \
            .astype({"rk": "int64"})

    return hash_bucket_combine(pruned, ["o_custkey"], final_topk,
                               num_buckets=64)


PRICE_BAND_EDGES = [0.0, 905.0, 912.0, 950.0, 975.0]
PRICE_BAND_TOP = 1.0e18   # finite upper edge for the open last band


def part_price_bands(sf_dir: str):
    """Non-equi (range) join of part prices against a band table,
    then a per-band aggregate — the broadcast form of a range join:
    the band table is tiny and constant, so instead of any shuffle
    each batch binary-searches the sorted edges (np.searchsorted) and
    the bands ride along as a closure constant.  (The shuffle form of
    a non-equi join is ``events_asof``; a big-big interval join would
    bucket both sides by coarse range then searchsorted per bucket.)"""
    edges = np.array(PRICE_BAND_EDGES)

    ds = _read(sf_dir, "part", ["p_retailprice"])

    def band(df: pd.DataFrame) -> pd.DataFrame:
        x = df["p_retailprice"].to_numpy(np.float64)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1,
                      0, len(edges) - 1)
        return pd.DataFrame({"band_lo": edges[idx],
                             "p_retailprice": x})

    out = grouped_aggregate(ds.map_batches(band, batch_format="pandas"),
                            ["band_lo"],
                            {"n_parts": ("p_retailprice", "count"),
                             "sum_price": ("p_retailprice", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["n_parts"] = df["n_parts"].astype("int64")
        df["avg_price"] = (df["sum_price"] / df["n_parts"]).round(2)
        df["sum_price"] = df["sum_price"].round(2)
        return df[["band_lo", "n_parts", "sum_price", "avg_price"]]

    return out.map_batches(finish, batch_format="pandas")


def events_hopping(sf_dir: str, size_minutes: int = 60,
                   hop_minutes: int = 30):
    """Hopping (overlapping) windows: size 1 h, hop 30 min — every
    event lands in size/hop windows.  The fan-out is a vectorized
    repeat-and-shift inside ``map_batches`` (no flat_map row calls),
    then the same partial-aggregate shuffle as tumbling windows."""
    assert size_minutes % hop_minutes == 0
    fan = size_minutes // hop_minutes
    hop_us = hop_minutes * 60_000_000

    ds = _read(sf_dir, "events", ["ts", "value"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ts_us = df["ts"].astype("datetime64[us]").to_numpy().view("i8")
        base = (ts_us // hop_us) * hop_us
        keys = np.concatenate([base - i * hop_us for i in range(fan)])
        vals = np.tile(df["value"].to_numpy(np.float64), fan)
        return pd.DataFrame({"window_us": keys, "value": vals})

    out = grouped_aggregate(ds.map_batches(explode, batch_format="pandas"),
                            ["window_us"],
                            {"n_events": ("value", "count"),
                             "sum_value": ("value", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["window_start"] = pd.to_datetime(df.pop("window_us"),
                                            unit="us")
        df["n_events"] = df["n_events"].astype("int64")
        df["sum_value"] = df["sum_value"].round(2)
        return df[["window_start", "n_events", "sum_value"]]

    return out.map_batches(finish, batch_format="pandas")


def events_cumulative(sf_dir: str):
    """Window function: per-user running sum of value ordered by
    (ts, event_id) — one hash shuffle on user_id, vectorized
    sort + groupby().cumsum() per bucket.  Floating-point accumulation
    order matches the SQL window (both add sequentially in the same
    order), so the oracle compares exactly after rounding."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def running(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(["user_id", "ts", "event_id"],
                               kind="mergesort")
        rs = b.groupby("user_id", sort=False)["value"].cumsum()
        return pd.DataFrame({
            "event_id": b["event_id"].astype("int64").to_numpy(),
            "running_sum": rs.round(2).to_numpy(),
        })

    return hash_bucket_combine(ds, ["user_id"], running, num_buckets=64)


def orders_rollup(sf_dir: str):
    """Grouping sets (ROLLUP): order counts + revenue at
    (status, priority), (status), and grand-total levels.  One pass
    computes the finest level; the coarser levels re-aggregate its
    (tiny) output — the standard distributed rollup plan: raw rows
    shuffle once, subtotals derive from subtotals."""
    fine = grouped_aggregate(
        _read(sf_dir, "orders",
              ["o_orderstatus", "o_orderpriority", "o_totalprice"]),
        ["o_orderstatus", "o_orderpriority"],
        {"n_orders": ("o_totalprice", "count"),
         "revenue": ("o_totalprice", "sum")}).to_pandas()

    mid = fine.groupby("o_orderstatus", as_index=False) \
        .agg(n_orders=("n_orders", "sum"), revenue=("revenue", "sum"))
    mid["o_orderpriority"] = "ALL"
    top = pd.DataFrame({
        "o_orderstatus": ["ALL"], "o_orderpriority": ["ALL"],
        "n_orders": [fine["n_orders"].sum()],
        "revenue": [fine["revenue"].sum()]})
    out = pd.concat([fine, mid, top], ignore_index=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["revenue"] = out["revenue"].round(2)
    return out[["o_orderstatus", "o_orderpriority", "n_orders",
                "revenue"]]


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_pivot(sf_dir: str):
    """Pivot (conditional aggregation): one row per user, one count
    column per event type.  Per-batch crosstab partials shuffle keyed
    on user_id only (a user's types stay together), each bucket
    unstacks vectorized to the fixed column set."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["user_id", "event_type"], sort=False) \
            .size().rename("n").reset_index()

    def pivot(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["user_id", "event_type"], sort=False)["n"] \
            .sum().unstack(fill_value=0)
        for t in EVENT_TYPES:
            if t not in g.columns:
                g[t] = 0
        g = g[EVENT_TYPES].astype("int64")
        g.columns = [f"n_{t}" for t in EVENT_TYPES]
        return g.reset_index().astype({"user_id": "int64"})

    return hash_bucket_combine(ds.map_batches(partial,
                                              batch_format="pandas"),
                               ["user_id"], pivot, num_buckets=64)


def events_json_k(sf_dir: str):
    """JSON extraction through the rule VM: a jmespath chain rule over
    the ``props`` column — the reference's JSON parser as a Dataset
    stage (reference: parsers.py:548-573)."""
    from ..stages.rule_engine import parse_dataset

    ds = _read(sf_dir, "events", ["event_id", "props"])
    parsed = parse_dataset(
        ds, [{"name": "k", "chain_rules": [["jmespath", "k", ""]],
              "child_rules": []}],
        input_column="props", batch_size=4096,
        keep_columns=["event_id"])
    return parsed.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["event_id"], t["k"].cast(pa.int64())],
            names=["event_id", "k"]),
        batch_format="pyarrow")


def segment_order_stats(sf_dir: str):
    """Orders JOIN customer as a distributed hash-bucket (shuffle)
    join — both sides large, no broadcast — then a grouped aggregate
    per market segment."""
    from ..stages.combine import hash_bucket_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = hash_bucket_join(orders, cust, "o_custkey", "c_custkey",
                              left_cols=["o_custkey", "o_totalprice"],
                              right_cols=["c_custkey", "c_mktsegment"])
    out = grouped_aggregate(joined, ["c_mktsegment"],
                            {"total_price": ("o_totalprice", "sum"),
                             "n_orders": ("o_totalprice", "count")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["total_price"] = df["total_price"].round(2)
        df["n_orders"] = df["n_orders"].astype("int64")
        return df

    return out.map_batches(finish, batch_format="pandas")


def customers_without_orders(sf_dir: str, min_price: float = 400_000.0):
    """Distributed ANTI-join (the relational twin of the crawl's
    seen-filter): customers with no order above ``min_price``.  Both
    sides bucket by the key hash; the probe side is pre-shrunk by the
    pushed-down price filter plus a per-batch distinct combiner (only
    unique qualifying custkeys move), and each bucket filters with one
    vectorized ``isin`` — no pandas merge, no driver set."""
    from ..stages.combine import hash_bucket_combine

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(lambda df: df.loc[df["o_totalprice"] > min_price,
                                       ["o_custkey"]],
                     batch_format="pandas")

    def tag_cust(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_probe"] = np.int8(0)
        return df

    def tag_orders(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"c_custkey": df["o_custkey"].unique()})
        out["c_name"] = pd.Series([None] * len(out), dtype=object)
        out["c_mktsegment"] = pd.Series([None] * len(out), dtype=object)
        out["_probe"] = np.int8(1)
        return out[["c_custkey", "c_name", "c_mktsegment", "_probe"]]

    u = cust.map_batches(tag_cust, batch_format="pandas").union(
        orders.map_batches(tag_orders, batch_format="pandas"))

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        seen = g.loc[g["_probe"] == 1, "c_custkey"]
        keep = g[(g["_probe"] == 0) & ~g["c_custkey"].isin(seen)]
        return keep[["c_custkey", "c_name", "c_mktsegment"]] \
            .astype({"c_custkey": "int64"})

    return hash_bucket_combine(u, ["c_custkey"], anti)


def events_funnel(sf_dir: str,
                  stages=("signup", "view", "purchase")):
    """Ordered funnel analysis: per user, how deep the
    signup -> view -> purchase sequence progresses, where each stage
    counts only at-or-after the previous stage's first completion
    (t1 = first signup; t2 = first view with ts >= t1; t3 = first
    purchase with ts >= t2) — the product-analytics operator whose
    ORDER constraint plain grouped aggregation can't express.

    One hash shuffle on user_id; per bucket each stage is a vectorized
    filter + groupby-min + merge against the previous stage's time (no
    per-user Python).  Users who never reach stage 1 still emit a row
    (stage 0).  Missing times encode as -1 so the output is all-int64
    and the DuckDB twin compares exactly."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def funnel(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.assign(
            ts_us=bucket["ts"].astype("datetime64[us]")
            .to_numpy().view("i8"))
        users = pd.DataFrame(
            {"user_id": np.unique(b["user_id"].to_numpy())})
        prev = None  # DataFrame (user_id, t_prev)
        times = []
        for i, st in enumerate(stages):
            rows = b[b["event_type"].eq(st)][["user_id", "ts_us"]]
            if prev is not None:
                rows = rows.merge(prev, on="user_id", how="inner")
                rows = rows[rows["ts_us"] >= rows["t_prev"]]
            t = rows.groupby("user_id", as_index=False)["ts_us"].min() \
                .rename(columns={"ts_us": f"t{i}"})
            times.append(t)
            prev = t.rename(columns={f"t{i}": "t_prev"})
        out = users
        for t in times:
            out = out.merge(t, on="user_id", how="left")
        tcols = [f"t{i}" for i in range(len(stages))]
        stage = np.zeros(len(out), np.int64)
        for i, c in enumerate(tcols):
            stage = np.where(out[c].notna(), i + 1, stage)
        res = {"user_id": out["user_id"].astype("int64").to_numpy(),
               "stage": stage}
        for name, c in zip(("t_signup_us", "t_view_us",
                            "t_purchase_us"), tcols):
            res[name] = out[c].fillna(-1).astype("int64").to_numpy()
        return pd.DataFrame(res)

    return hash_bucket_combine(ds, ["user_id"], funnel, num_buckets=64)


_WEEK_US = 7 * 86400 * 1_000_000


def events_retention(sf_dir: str):
    """Cohort retention matrix: users cohorted by the 7-day window of
    their first signup; each (cohort, week-offset) cell counts the
    distinct users active (any event) that many windows later — the
    growth-analytics operator behind every retention curve.  Windows
    are fixed 7-day buckets of epoch microseconds (no calendar
    semantics), so both sides compute bit-identical integers.

    One hash shuffle on user_id: per bucket the cohort is a
    groupby-min, activity weeks dedupe per user vectorized, and each
    user contributes one row per distinct offset; a grouped partial
    sum then folds user rows into cells (cells are tiny —
    O(weeks²) — so the combine runs in one exchange bucket)."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def per_user(bucket: pd.DataFrame) -> pd.DataFrame:
        wk = (bucket["ts"].astype("datetime64[us]").to_numpy()
              .view("i8") // _WEEK_US)
        b = bucket.assign(wk=wk)
        coh = b[b["event_type"].eq("signup")] \
            .groupby("user_id")["wk"].min()
        b = b.assign(cw=b["user_id"].map(coh))
        b = b[b["cw"].notna() & (b["wk"] >= b["cw"])]
        cells = b.assign(off=(b["wk"] - b["cw"]).astype("int64"),
                         cw=b["cw"].astype("int64")) \
            .drop_duplicates(["user_id", "cw", "off"])
        return pd.DataFrame({
            "cohort_week": cells["cw"].to_numpy(),
            "week_offset": cells["off"].to_numpy(),
            "one": np.ones(len(cells), np.int64)})

    rows = hash_bucket_combine(ds, ["user_id"], per_user, num_buckets=64)
    out = grouped_aggregate(rows, ["cohort_week", "week_offset"],
                            {"n_users": ("one", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("cohort_week", "week_offset", "n_users"):
            df[c] = df[c].astype("int64")
        return df[["cohort_week", "week_offset", "n_users"]]

    return out.map_batches(finish, batch_format="pandas")


def events_markov(sf_dir: str):
    """Per-user event-type transition (bigram) counts — the Markov
    transition matrix behind session behavior models.  Each user's
    stream is ordered by (ts, event_id); every consecutive pair
    contributes one (from_type, to_type) transition.

    One hash shuffle on user_id; per bucket one lexsort orders every
    user's stream at once, a shifted equality marks within-user
    adjacency (no per-user Python), and the tiny types x types matrix
    folds through a one-bucket partial-sum combine."""
    from ..stages.combine import hash_bucket_combine

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def per_user(bucket: pd.DataFrame) -> pd.DataFrame:
        ts = bucket["ts"].astype("datetime64[us]").to_numpy().view("i8")
        u = bucket["user_id"].to_numpy()
        eid = bucket["event_id"].to_numpy()
        et = bucket["event_type"].to_numpy()
        order = np.lexsort((eid, ts, u))
        u, et = u[order], et[order]
        same = u[1:] == u[:-1]
        df = pd.DataFrame({"from_type": et[:-1][same],
                           "to_type": et[1:][same]})
        g = df.groupby(["from_type", "to_type"], sort=False) \
            .size().reset_index(name="n")
        g["n"] = g["n"].astype("int64")
        return g

    rows = hash_bucket_combine(ds, ["user_id"], per_user, num_buckets=64)
    out = grouped_aggregate(rows, ["from_type", "to_type"],
                            {"n_transitions": ("n", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["n_transitions"] = df["n_transitions"].astype("int64")
        return df[["from_type", "to_type", "n_transitions"]]

    return out.map_batches(finish, batch_format="pandas")


def events_window_anomaly(sf_dir: str, sigmas: int = 2):
    """Exact z-score anomaly detection on tumbling-window event
    volumes: a (type, hour) window is anomalous when its count exceeds
    that type's mean by more than ``sigmas`` standard deviations over
    the type's OBSERVED windows — the ops-monitoring burst detector,
    kept bit-exact by cross-multiplication instead of any float sqrt:
    with per-type moments W (windows), S (Σn), SS (Σn²),

        n > S/W + k·σ  ⟺  d := W·n − S > 0  and  d² > k²·(W·SS − S²)

    (σ² = (W·SS − S²)/W²; both sides scaled by W²).  All integers, so
    the DuckDB twin matches exactly.  Magnitudes: d is W·(n − mean) —
    at 10^10 events with 10^5 windows the squares need 128-bit
    headroom (DuckDB HUGEINT; here the per-type driver moments are
    Python ints and d fits int64 at any tested scale).

    Scale shape: one partial-sum shuffle builds the (type, window)
    counts; per-type moments fold from those cells in one exchange
    bucket (types are few) and broadcast as a tiny
    dict; the flag pass is vectorized over the cells — no second
    shuffle of raw events."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def window(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "window_us": df["ts"].dt.floor("h").astype("datetime64[us]")
                .astype("int64")})

    cells = grouped_aggregate(
        ds.map_batches(window, batch_format="pandas"),
        ["event_type", "window_us"],
        {"n_events": ("window_us", "count")}).materialize()

    moments_rows = grouped_aggregate(
        cells.map_batches(
            lambda df: pd.DataFrame({
                "event_type": df["event_type"],
                "one": np.ones(len(df), np.int64),
                "n": df["n_events"].astype("int64"),
                "nn": (df["n_events"].astype("int64") ** 2)}),
            batch_format="pandas"),
        ["event_type"], {"W": ("one", "sum"), "S": ("n", "sum"),
                         "SS": ("nn", "sum")}).to_pandas()
    moments = {r.event_type: (int(r.W), int(r.S), int(r.SS))
               for r in moments_rows.itertuples()}

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        W = df["event_type"].map({k: v[0] for k, v in moments.items()}) \
            .to_numpy(dtype=np.int64)
        S = df["event_type"].map({k: v[1] for k, v in moments.items()}) \
            .to_numpy(dtype=np.int64)
        SS = df["event_type"].map({k: v[2] for k, v in moments.items()}) \
            .to_numpy(dtype=np.int64)
        n = df["n_events"].astype("int64").to_numpy()
        d = W * n - S
        var_term = W * SS - S * S
        anom = (d > 0) & (d * d > sigmas * sigmas * var_term)
        return pd.DataFrame({
            "event_type": df["event_type"],
            "window_us": df["window_us"].astype("int64"),
            "n_events": n,
            "dev": d,
            "is_anomaly": anom.astype("int64")})

    return cells.map_batches(flag, batch_format="pandas")


def q13_customer_distribution(sf_dir: str):
    """Orders-per-customer distribution INCLUDING zero-order customers
    (TPC-H Q13 shape) — the distributed LEFT OUTER join.

    Scale shape: orders fold to one (custkey, n_orders) row per
    ordering customer BEFORE any join (the exchange is bounded by
    customer count, never order count); the customer side reads ONE
    column (the key).  The outer join is the bucketed shuffle join with
    ``how='left'`` — never-ordered customers survive with a null count
    that becomes c_count=0 — and the final histogram is a tiny
    low-cardinality fold (keys = max orders per customer)."""
    from ..stages.combine import hash_bucket_join

    counts = grouped_aggregate(_read(sf_dir, "orders", ["o_custkey"]),
                               ["o_custkey"],
                               {"n_orders": ("o_custkey", "count")})
    cust = _read(sf_dir, "customer", ["c_custkey"])
    # both sides are bounded by CUSTOMER count (orders pre-folded)
    joined = hash_bucket_join(cust, counts, "c_custkey", "o_custkey",
                              how="left",
                              left_cols=["c_custkey"],
                              right_cols=["o_custkey", "n_orders"])

    def c_count(df: pd.DataFrame) -> pd.DataFrame:
        # unmatched left rows carry a null n_orders (int64-with-nulls
        # block -> pandas float64/NaN): that null IS the zero-order case
        return pd.DataFrame(
            {"c_count": df["n_orders"].fillna(0).astype("int64")})

    hist = grouped_aggregate(joined.map_batches(c_count,
                                                batch_format="pandas"),
                             ["c_count"], {"custdist": ("c_count", "count")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return df[["c_count", "custdist"]].astype("int64")

    return hist.map_batches(finish, batch_format="pandas")


def q4_returned_order_priority(sf_dir: str):
    """Order-priority census of orders with >=1 RETURNED line item
    (TPC-H Q4 shape: EXISTS as a distributed SEMI-join).

    Scale shape: the probe side prunes at the scan (returnflag filter
    pushes into the parquet read; only the key column survives the
    batch) and pre-shrinks to per-batch distinct orderkeys, so the
    exchange moves qualifying keys once, never lineitem rows.  Both
    sides co-locate by key hash; each bucket keeps order rows with one
    vectorized ``isin`` (semi = at-least-one, so probe duplicates
    across batches are harmless) and folds its per-priority counts
    in-bucket — only (priority, partial_count) rows leave the
    exchange before the final low-cardinality sum."""
    import pyarrow.dataset as pads

    from ..stages.combine import hash_bucket_combine

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    probe = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"],
                  filter=pads.field("l_returnflag") == "R") \
        .map_batches(lambda df: pd.DataFrame(
            {"o_orderkey": df["l_orderkey"].unique()}),
            batch_format="pandas")

    def tag_orders(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_probe"] = np.int8(0)
        return df

    def tag_probe(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"o_orderkey": df["o_orderkey"]})
        out["o_orderpriority"] = pd.Series([None] * len(out), dtype=object)
        out["_probe"] = np.int8(1)
        return out[["o_orderkey", "o_orderpriority", "_probe"]]

    u = orders.map_batches(tag_orders, batch_format="pandas").union(
        probe.map_batches(tag_probe, batch_format="pandas"))

    def semi_count(g: pd.DataFrame) -> pd.DataFrame:
        keys = g.loc[g["_probe"] == 1, "o_orderkey"]
        keep = g[(g["_probe"] == 0) & g["o_orderkey"].isin(keys)]
        out = keep.groupby("o_orderpriority").size() \
            .reset_index(name="n_orders")
        out["n_orders"] = out["n_orders"].astype("int64")
        return out

    partials = hash_bucket_combine(u, ["o_orderkey"], semi_count)
    out = grouped_aggregate(partials, ["o_orderpriority"],
                            {"n_orders": ("n_orders", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["n_orders"] = df["n_orders"].astype("int64")
        return df[["o_orderpriority", "n_orders"]]

    return out.map_batches(finish, batch_format="pandas")


Q6_SHIP_LO, Q6_SHIP_HI = "1996-01-01", "1997-01-01"
Q6_DISC_LO, Q6_DISC_HI = 0.05, 0.07
Q6_QTY_MAX = 24


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape: forecast-revenue-change — a pure scan-filter-
    aggregate with NO join and NO groupby key.  The scale shape is the
    point: predicates and the 4-column projection push into the
    parquet read, each batch folds to ONE partial-sum row, and the
    driver adds a handful of partials — zero shuffle, zero
    materialization of anything row-shaped."""
    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity",
                "l_extendedprice"])

    lo, hi = pd.Timestamp(Q6_SHIP_LO), pd.Timestamp(Q6_SHIP_HI)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        m = ((df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)
             & (df["l_discount"] >= Q6_DISC_LO)
             & (df["l_discount"] <= Q6_DISC_HI)
             & (df["l_quantity"] < Q6_QTY_MAX))
        sub = df[m]
        return pd.DataFrame({
            "one": [1],
            "rev": [(sub["l_extendedprice"] * sub["l_discount"]).sum()],
            "n": [int(m.sum())]})

    out = grouped_aggregate(ds.map_batches(fold, batch_format="pandas"),
                            ["one"],
                            {"revenue": ("rev", "sum"),
                             "n_items": ("n", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = df["revenue"].round(2)
        df["n_items"] = df["n_items"].astype("int64")
        return df[["revenue", "n_items"]]

    return out.map_batches(finish, batch_format="pandas")


Q14_MONTH_LO, Q14_MONTH_HI = "1996-04-01", "1996-05-01"


# broadcast-vs-shuffle pivot for the q14 dimension side: a sorted
# int64 key array + bool array cost 9 bytes/part, so 4M parts ~ 36 MB
# of object store — beyond that the assumption "part is small" has
# failed and the plan falls back to a bucketed shuffle join
_Q14_BROADCAST_LIMIT = 4_000_000


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: promo revenue share — a broadcast dimension
    join.  ``part`` is the small side (one bool per partkey), shipped
    ONCE via ray.put as a SORTED key array + bool array (no per-row
    python dict) and probed with a vectorized ``searchsorted`` inside
    every task; lineitem streams with month + projection pushdown and
    folds to per-batch partial sums (promo, total) — the classic
    pattern where a shuffle join would be pure waste.  The broadcast
    is GUARDED: above ``_Q14_BROADCAST_LIMIT`` rows the dimension is
    no longer "small" and the same fold runs after a bucketed shuffle
    join instead (adaptivity mirroring the dedup verify path)."""
    import ray

    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).materialize()
    ds = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice",
                "l_discount"])
    lo, hi = pd.Timestamp(Q14_MONTH_LO), pd.Timestamp(Q14_MONTH_HI)

    n_part = part.count()
    if n_part <= _Q14_BROADCAST_LIMIT:
        keys_parts, promo_parts = [], []
        for b in part.iter_batches(batch_size=65536,
                                   batch_format="pyarrow"):
            keys_parts.append(b["p_partkey"].to_numpy())
            promo_parts.append(
                pc.equal(b["p_type"], "PROMO").to_numpy(
                    zero_copy_only=False))
        keys = np.concatenate(keys_parts).astype(np.int64)
        is_promo = np.concatenate(promo_parts).astype(bool)
        order = np.argsort(keys, kind="stable")
        promo_ref = ray.put((keys[order], is_promo[order]))

        def fold(df: pd.DataFrame) -> pd.DataFrame:
            import ray as _ray
            pkeys, pflag = _ray.get(promo_ref)
            sub = df[(df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)]
            disc = sub["l_extendedprice"] * (1.0 - sub["l_discount"])
            lk = sub["l_partkey"].to_numpy(np.int64)
            if len(pkeys):
                pos_c = np.minimum(np.searchsorted(pkeys, lk),
                                   len(pkeys) - 1)
                is_p = np.where(pkeys[pos_c] == lk, pflag[pos_c], False)
            else:
                is_p = np.zeros(len(lk), dtype=bool)
            return pd.DataFrame({"one": [1],
                                 "promo": [disc[is_p].sum()],
                                 "total": [disc.sum()]})

        folded = ds.map_batches(fold, batch_format="pandas")
    else:  # dimension too big to broadcast: bucketed shuffle join
        from ..stages.combine import hash_bucket_join

        def month_slice(df: pd.DataFrame) -> pd.DataFrame:
            sub = df[(df["l_shipdate"] >= lo) & (df["l_shipdate"] < hi)]
            return pd.DataFrame({
                "l_partkey": sub["l_partkey"],
                "disc": sub["l_extendedprice"] * (1.0 - sub["l_discount"])})

        # LEFT join: a month lineitem whose part row is missing still
        # counts in 'total' (as non-promo), like the broadcast probe
        joined = hash_bucket_join(
            ds.map_batches(month_slice, batch_format="pandas"), part,
            "l_partkey", "p_partkey", how="left",
            left_cols=["l_partkey", "disc"],
            right_cols=["p_partkey", "p_type"])

        def fold_joined(df: pd.DataFrame) -> pd.DataFrame:
            disc = df["disc"]
            return pd.DataFrame({
                "one": [1],
                "promo": [disc[(df["p_type"] == "PROMO").to_numpy(bool)]
                          .sum()],
                "total": [disc.sum()]})

        folded = joined.map_batches(fold_joined, batch_format="pandas")

    out = grouped_aggregate(folded, ["one"],
                            {"promo": ("promo", "sum"),
                             "total": ("total", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "promo_share": (100.0 * df["promo"] / df["total"]).round(4)})

    return out.map_batches(finish, batch_format="pandas")


Q18_QTY_THRESHOLD = 150
Q18_TOPN = 100


def q18_large_orders(sf_dir: str):
    """TPC-H Q18 shape: large-volume orders (HAVING SUM(qty) > T) with
    customer names, top-N by (o_totalprice desc, o_orderkey).  Scale
    shape: the lineitem pre-aggregate runs FIRST (per-batch fold, then
    a bucketed combine keyed by orderkey) so the HAVING filter shrinks
    the join input to the survivor set before anything wide happens;
    survivors then shuffle-join orders and the per-batch partial top-N
    prunes before the final single-bucket rank."""
    from ..stages.combine import hash_bucket_combine, hash_bucket_join

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    per_order = grouped_aggregate(line, ["l_orderkey"],
                                  {"sum_qty": ("l_quantity", "sum")})
    big = per_order.filter(expr=f"sum_qty > {Q18_QTY_THRESHOLD}")

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice",
                    "o_orderdate"])
    joined = hash_bucket_join(
        big, orders, "l_orderkey", "o_orderkey",
        left_cols=["l_orderkey", "sum_qty"],
        right_cols=["o_orderkey", "o_custkey", "o_totalprice",
                    "o_orderdate"])

    def partial_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True],
                              kind="mergesort").head(Q18_TOPN)

    pruned = joined.map_batches(partial_top, batch_format="pandas") \
        .map_batches(lambda df: df.assign(one=1), batch_format="pandas")
    top = hash_bucket_combine(pruned, ["one"], partial_top,
                              num_buckets=1)

    # resolve customer names for the N winners only: broadcast the
    # winning custkeys, stream the customer table against them
    import ray
    top_tbl = pa.concat_tables(ray.get(top.to_arrow_refs()),
                               promote_options="default")
    keys = set(top_tbl["o_custkey"].to_pylist())
    keys_ref = ray.put(keys)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray
        want = _ray.get(keys_ref)
        return df[df["c_custkey"].isin(want)][["c_custkey", "c_name"]]

    names = _read(sf_dir, "customer", ["c_custkey", "c_name"]) \
        .map_batches(pick, batch_format="pandas").to_pandas()
    df = top_tbl.to_pandas().merge(names, left_on="o_custkey",
                                   right_on="c_custkey", how="left")
    df = df.sort_values(["o_totalprice", "o_orderkey"],
                        ascending=[False, True],
                        kind="mergesort").head(Q18_TOPN)
    df["sum_qty"] = df["sum_qty"].round(2)
    df["o_totalprice"] = df["o_totalprice"].round(2)
    return df[["c_name", "o_custkey", "o_orderkey", "o_orderdate",
               "o_totalprice", "sum_qty"]].reset_index(drop=True)


Q10_DATE_LO, Q10_DATE_HI = "1996-10-01", "1997-01-01"
Q10_TOPN = 20


def q10_returned_item_revenue(sf_dir: str):
    """TPC-H Q10 shape: revenue lost to returned items per customer in
    a quarter, top-20, with name/nation resolved.  Scale shape: both
    fact reads push predicates + projections; the orderkey shuffle
    join runs on PRE-FILTERED rows; revenue folds per customer BEFORE
    any dimension touch; the 20 winners resolve customer + nation by
    broadcast (nation is 25 rows; the winner set is K rows)."""
    from ..stages.combine import hash_bucket_combine, hash_bucket_join

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_extendedprice", "l_discount",
                  "l_returnflag"],
                 filter=(pc.field("l_returnflag") == "R"))

    def rev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"],
            "rev": df["l_extendedprice"] * (1.0 - df["l_discount"])})

    lo, hi = pd.Timestamp(Q10_DATE_LO), pd.Timestamp(Q10_DATE_HI)
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"],
                   filter=((pc.field("o_orderdate")
                            >= pc.scalar(pd.Timestamp(Q10_DATE_LO)))
                           & (pc.field("o_orderdate")
                              < pc.scalar(pd.Timestamp(Q10_DATE_HI)))))

    joined = hash_bucket_join(
        line.map_batches(rev, batch_format="pandas"), orders,
        "l_orderkey", "o_orderkey",
        left_cols=["l_orderkey", "rev"],
        right_cols=["o_orderkey", "o_custkey", "o_orderdate"])

    per_cust = grouped_aggregate(joined, ["o_custkey"],
                                 {"revenue": ("rev", "sum")})

    # partials prune on the SAME key the final rank uses — 2-dp
    # ROUNDED revenue with custkey tie-break — so the per-part top-4N
    # is provably a superset of the global top-N (a prune on the
    # unrounded value could drop a low-custkey member of a rounded-tie
    # class bigger than the margin); the 4x margin additionally
    # absorbs any last-ulp partial-sum-order divergence vs the SQL
    # twin AT the rounding boundary itself
    def partial_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_r=df["revenue"].round(2)) \
            .sort_values(["_r", "o_custkey"], ascending=[False, True],
                         kind="mergesort").head(Q10_TOPN * 4) \
            .drop(columns=["_r"])

    pruned = per_cust.map_batches(partial_top, batch_format="pandas") \
        .map_batches(lambda df: df.assign(one=1), batch_format="pandas")
    top = hash_bucket_combine(pruned, ["one"], partial_top,
                              num_buckets=1)

    import ray
    top_tbl = pa.concat_tables(ray.get(top.to_arrow_refs()),
                               promote_options="default")
    keys_ref = ray.put(set(top_tbl["o_custkey"].to_pylist()))

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray
        want = _ray.get(keys_ref)
        return df[df["c_custkey"].isin(want)][
            ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]]

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]) \
        .map_batches(pick, batch_format="pandas").to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]) \
        .to_pandas()
    df = top_tbl.to_pandas() \
        .merge(cust, left_on="o_custkey", right_on="c_custkey") \
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    df["revenue"] = df["revenue"].round(2)
    df = df.sort_values(["revenue", "o_custkey"],
                        ascending=[False, True],
                        kind="mergesort").head(Q10_TOPN)
    df["c_acctbal"] = df["c_acctbal"].round(2)
    return df[["o_custkey", "c_name", "revenue", "c_acctbal",
               "n_name"]].reset_index(drop=True)
