"""One hash exchange on plain Ray tasks, and the grouped primitives
built on it.

``exchange(inputs, keys, fn)`` is the engine's shuffle.  Each input is
a list of block refs (a Dataset is materialized once and its blocks
taken as refs); the total row count (block metadata, no extra pass)
picks the bucket count
``B = min(num_buckets, ceil(rows / _ROWS_PER_BUCKET))``:

* ``B == 1``: one reduce task receives every block of every input and
  calls ``fn`` once.  No split task runs, so a small input pays one
  task, not an all-to-all;
* ``B > 1``: one split task per block hashes the key columns with
  ``_bucket_of`` (``pandas.util.hash_pandas_object``, an unseeded
  stable hash, so bucket assignment is reproducible across workers
  and runs) and returns its B slices as B objects; reduce task b
  concatenates slice b of every block and calls ``fn`` — once per
  input, so a join's reduce gets its left and right bucket apart.

The core, ``exchange_refs``, works on block refs and returns the
reduce outputs as refs with a per-output count, so a caller that runs
on plain tasks (the crawl round's grant) never builds a Dataset.
``exchange`` wraps it for Datasets: its result is
``ray.data.from_arrow_refs`` over the reduce outputs.  An empty bucket
runs no ``fn`` and leaves no block, so a consumer never sees a
schema-less empty block.  The exchange is a barrier: it materializes
its inputs before the split and returns materialized blocks (there is
no streaming backpressure across it).

On top of it:

* ``hash_bucket_combine`` — a per-bucket combine, pandas (df -> df) or
  Arrow; combine functions may only assume "all rows of a key are in
  one call";
* ``grouped_map`` — ``fn(group_df) -> df`` once per key, each bucket
  split by key (the engine has no other group-wise map);
* ``prefix_scan`` — a global ordered exclusive prefix sum or max
  without a global sort: a range cut on the order key, one
  ``grouped_aggregate`` of per-range partials folded into offsets on
  the driver, then one ``grouped_map`` that scans each range in order;
* ``grouped_aggregate`` — a per-batch Arrow partial aggregate, then the
  combine, so the heavy data never moves, only partials
  (``Dataset.groupby().aggregate()`` pays ms of Python per group);
* ``hash_bucket_join`` — both sides keyed by one canonical tagged
  string, each bucket merged in Arrow by an index join.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

# rows per reduce bucket: the input's row count over this picks B
# (capped by the caller's num_buckets); see CHANGES.md for the sweep
_ROWS_PER_BUCKET = 200_000


def _canon_elem(x) -> str:
    """Per-element canonical join key for object-dtype columns — the
    tag + repr scheme of ``_canonical_key`` applied value by value, so
    heterogeneous batches canonicalize each value the same way an
    all-one-kind batch would.  bool is checked before int (bool is an
    int subclass)."""
    if x is None or x is pd.NA:
        return "n:"
    if isinstance(x, (bool, np.bool_)):
        return "b:" + str(bool(x))
    if isinstance(x, (int, np.integer)):
        return "i:" + str(int(x))
    if isinstance(x, (float, np.floating)):
        return "n:" if np.isnan(x) else "f:" + str(float(x))
    return "s:" + str(x)


def _bucket_of(df: pd.DataFrame, keys: Sequence[str],
               num_buckets: int) -> np.ndarray:
    h = pd.util.hash_pandas_object(
        df[list(keys)].astype(str) if any(df[k].dtype == object for k in keys)
        else df[list(keys)], index=False).to_numpy()
    return (h % np.uint64(num_buckets)).astype(np.int64)


def _bucket_of_table(t: pa.Table, keys: Sequence[str],
                     num_buckets: int) -> np.ndarray:
    """Bucket assignment for an Arrow batch: only the KEY columns hop
    to pandas for the stable vectorized hash — the payload columns
    stay zero-copy Arrow."""
    return _bucket_of(t.select(list(keys)).to_pandas(), keys, num_buckets)


def _arrow_block(block) -> pa.Table:
    """A Ray block (Arrow or pandas) as a metadata-free Arrow table."""
    if not isinstance(block, pa.Table):
        from ray.data.block import BlockAccessor
        block = BlockAccessor.for_block(block).to_arrow()
    return block.replace_schema_metadata(None)


def _concat(blocks) -> pa.Table:
    tables = [_arrow_block(b) for b in blocks]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")


@ray.remote
def _split(block, keys: Sequence[str], num_buckets: int):
    t = _arrow_block(block)
    b = _bucket_of_table(t, keys, num_buckets)
    order = np.argsort(b, kind="stable")
    cuts = np.searchsorted(b[order], np.arange(num_buckets + 1))
    t = t.take(order)
    return tuple(t.slice(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:]))


@ray.remote(num_returns=2)
def _reduce(fn, count, counts: Sequence[int], skip_empty: bool, *blocks):
    tables, i = [], 0
    for n in counts:
        tables.append(_concat(blocks[i:i + n]))
        i += n
    if skip_empty and not any(t.num_rows for t in tables):
        return None, None
    out = fn(*tables)
    return out, count(out)


def exchange_refs(sides: Sequence[Sequence[tuple]], keys: Sequence[str],
                  fn: Callable, num_buckets: int = 64,
                  count: Callable = len) -> List[tuple]:
    """The exchange over block refs: ``sides`` holds each input's
    non-empty blocks as ``(ref, rows)`` pairs.  Returns ``(ref,
    count(out))`` for every bucket that ran ``fn``, in bucket order."""
    keys = list(keys)
    rows = sum(n for side in sides for _, n in side)
    refs = [[r for r, _ in side] for side in sides]
    nb = max(1, min(num_buckets, -(-rows // _ROWS_PER_BUCKET)))
    if nb == 1:
        buckets = [refs]
    else:
        parts = [[_split.options(num_returns=nb).remote(r, keys, nb)
                  for r in side] for side in refs]
        buckets = [[[p[b] for p in side] for side in parts]
                   for b in range(nb)]
    outs, counts = zip(*(
        _reduce.remote(fn, count, [len(s) for s in bucket], nb > 1,
                       *[r for s in bucket for r in s])
        for bucket in buckets))
    return [(o, c) for o, c in zip(outs, ray.get(list(counts)))
            if c is not None]


def exchange(inputs: Sequence, keys: Sequence[str], fn: Callable,
             num_buckets: int = 64):
    """Hash-exchange ``inputs`` (Datasets) on ``keys`` (columns present
    in every input) and call ``fn(t_0, ..., t_k)`` once per bucket with
    that bucket's rows of each input as one ``pa.Table``.  ``fn``
    returns a ``pa.Table`` (or, for cells Arrow cannot type, a pandas
    DataFrame); the outputs come back as one materialized Dataset."""
    import ray.data
    # empty blocks carry nothing, and their schema can be stale:
    # map_batches passes an empty input block through unmapped
    sides = [[(r, m.num_rows) for b in ds.materialize()
              .iter_internal_ref_bundles()
              for r, m in zip(b.block_refs, b.metadata) if m.num_rows]
             for ds in inputs]
    outs = exchange_refs(sides, keys, fn, num_buckets)
    # keep the non-empty outputs; if every bucket came out empty, one
    # typed empty output
    kept = [o for o, n in outs if n > 0] or [o for o, _ in outs][:1]
    return ray.data.from_arrow_refs(kept)


def hash_bucket_combine(ds, keys: Sequence[str],
                        combine_fn: Callable[[pd.DataFrame], pd.DataFrame],
                        num_buckets: int = 64):
    """Exchange rows by hash(keys) and run the pandas combine once per
    bucket (all rows of a key land in one bucket): df -> df, with the
    hop once per bucket, not per key.  An Arrow combine calls
    ``exchange`` directly."""
    def per_bucket(t: pa.Table):
        if not t.num_columns:
            return t
        out = combine_fn(t.to_pandas())
        try:
            from ..blocks import table_from_pandas
            return table_from_pandas(out, preserve_index=False)
        except (pa.ArrowInvalid, pa.ArrowTypeError,
                pa.ArrowNotImplementedError):
            # combine output holds cells Arrow can't type (rare:
            # ragged ndarrays etc.) — Ray keeps a pandas block
            return out

    return exchange([ds], keys, per_bucket, num_buckets)


def grouped_map(ds, keys: Sequence[str],
                fn: Callable[[pd.DataFrame], pd.DataFrame]):
    """``fn(group_df) -> df`` once per distinct ``keys`` value, with all
    of that key's rows and nothing else (Ray Data's pandas group map,
    without its sort shuffle): each bucket of ``hash_bucket_combine``
    is split by ``keys`` in pandas.  A null key is a group of its
    own."""
    keys = list(keys)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([fn(g) for _, g in df.groupby(keys, dropna=False)],
                         ignore_index=True)

    return hash_bucket_combine(ds, keys, per_bucket)


def prefix_scan(ds, order: Sequence[str], value: str, how: str,
                fn: Callable[[pd.DataFrame, np.ndarray], pd.DataFrame],
                partition: Sequence[str] = (), num_ranges: int = 32,
                key_range: tuple = None):
    """Global ordered exclusive prefix scan (``how`` in sum|max) of the
    integer column ``value`` over rows sorted by ``order``, restarting
    at 0 for every ``partition`` value, without a global sort.

    ``order[0]`` (an integer column) is cut into ``num_ranges`` equal
    ranges over ``key_range = (lo, hi)``, hi exclusive (from a min/max
    pass when not given).  Pass 1 aggregates ``value`` per
    ``(partition..., range)``; the driver folds those partials into
    each range's exclusive offset (#partitions x num_ranges values,
    not rows).  Pass 2 sorts each range by ``order`` and calls
    ``fn(group_df, before)`` once per range, where ``before[i]`` is the
    scan of every row ahead of row i: the range's offset folded with
    the exclusive in-range scan.  Integer arithmetic end to end, so
    the result is bit-exact against a SQL window and independent of
    ``num_ranges``.  ``ds`` runs once per pass: materialize it first
    if its upstream is costly."""
    order, partition = list(order), list(partition)
    keys = partition + ["_range"]
    k = order[0]
    if key_range is None:
        def min_max(t: pa.Table) -> pa.Table:
            mm = pc.min_max(t[k])
            return pa.table({"lo": [mm["min"].as_py()],
                             "hi": [mm["max"].as_py()]})

        mm = ds.map_batches(min_max, batch_format="pyarrow",
                            batch_size=None).take_all()
        key_range = (min(r["lo"] for r in mm), max(r["hi"] for r in mm) + 1)
    bounds = np.linspace(*key_range, num_ranges + 1)[1:-1]

    def with_range(t: pa.Table) -> pa.Table:
        r = np.searchsorted(bounds, t[k].to_numpy(), side="right")
        return t.append_column("_range", pa.array(r, pa.int64()))

    ranged = ds.map_batches(with_range, batch_format="pyarrow")

    # pass 1: one partial per (partition..., range), folded on the driver
    parts = grouped_aggregate(ranged, keys, {"_v": (value, how)}) \
        .to_pandas().sort_values(keys)
    offsets, run, prev = {}, 0, None
    for *key, v in parts[keys + ["_v"]].itertuples(index=False, name=None):
        if key[:-1] != prev:
            run, prev = 0, key[:-1]
        offsets[tuple(key)] = run
        run = run + v if how == "sum" else max(run, v)

    # pass 2: the in-range scan after the range's offset
    def per_range(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        start = offsets[tuple(g[c].iloc[0] for c in keys)]
        v = g[value].to_numpy(np.int64)
        if how == "sum":
            before = start + np.concatenate([[0], np.cumsum(v)[:-1]])
        else:
            before = np.maximum(
                start, np.concatenate([[0], np.maximum.accumulate(v)[:-1]]))
        return fn(g, before)

    return grouped_map(ranged, keys, per_range)


def _arrow_group_agg(t: pa.Table, keys: Sequence[str], items) -> pa.Table:
    """One vectorized Arrow hash-aggregation: ``items`` is a list of
    (out_col, in_col, how) with how in sum|count|min|max.  Matches the
    pandas-groupby semantics this replaced: null-valued KEYS drop
    (pandas ``groupby`` default), all-null sums are 0 (min_count=0),
    count counts rows.  ``use_threads=False``: each Ray task owns one
    CPU — threading inside the kernel would oversubscribe."""
    keys = list(keys)
    mask = None
    for k in keys:
        v = pc.is_valid(t[k])
        mask = v if mask is None else pc.and_(mask, v)
    if mask is not None and not pc.all(mask).as_py() \
            and t.num_rows:
        t = t.filter(mask)

    data: dict = {k: t[k] for k in keys}
    aggs = []
    sum0 = pc.ScalarAggregateOptions(min_count=0)
    for i, (out, col, how) in enumerate(items):
        name = f"_a{i}"
        if how == "count":
            data[name] = pa.array(np.ones(t.num_rows, dtype=np.int64))
            aggs.append((name, "sum", sum0))
        elif how == "sum":
            data[name] = t[col]
            aggs.append((name, "sum", sum0))
        elif how in ("min", "max"):
            data[name] = t[col]
            aggs.append((name, how))
        else:
            raise ValueError(how)
    g = pa.table(data).group_by(keys, use_threads=False).aggregate(aggs)
    cols = {k: g[k] for k in keys}
    for i, (out, _col, how) in enumerate(items):
        how2 = "sum" if how == "count" else how
        cols[out] = g[f"_a{i}_{how2}"]
    return pa.table(cols)


def grouped_aggregate(ds, keys: Sequence[str], agg_spec: Dict[str, tuple],
                      batch_size: int = 65536, num_buckets: int = 64):
    """Two-phase grouped aggregate, Arrow end to end.

    agg_spec: {out_col: (in_col, 'sum'|'count'|'min'|'max')}.
    count combines as sum-of-partial-counts.  Both phases are single
    Arrow hash-aggregation kernel calls (``Table.group_by``) — no
    pandas hop anywhere on the path.  Partials are bounded by
    blocks x keys, so a low-cardinality aggregate combines in one
    bucket.
    """
    keys = list(keys)
    items = [(out, col, how) for out, (col, how) in agg_spec.items()]
    combine_items = [(out, out, "sum" if how in ("sum", "count") else how)
                     for out, _col, how in items]

    def partial(t: pa.Table) -> pa.Table:
        return _arrow_group_agg(t, keys, items)

    def combine(t: pa.Table) -> pa.Table:
        if not t.num_columns:
            return t
        return _arrow_group_agg(t.combine_chunks(), keys, combine_items)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=batch_size)
    return exchange([partials], keys, combine, num_buckets)


_JOIN_TYPES = {"inner": "inner", "left": "left outer",
               "right": "right outer", "outer": "full outer"}


def _canonical_key(k: pd.Series) -> pd.Series:
    """Canonical join key: one stable physical type (string) with a
    per-ELEMENT kind tag — ``i:<int>`` / ``f:<float>`` / ``b:<bool>``
    / ``s:<str>`` / ``n:`` (null).  A value's canonical form never
    depends on its batch neighbors (an all-numeric object batch and
    a mixed one tag '101' identically), python ints >= 2**63 never
    overflow (no int64 cast), floats keep their repr (no 1.5 -> 1
    truncation), and ``_jkey`` is always string whatever the two
    sides' key dtypes.  Keys of different kinds get different tags and
    never match — the no-cross-type-equijoin semantics of a typed
    engine; null matches null (``n:``), as in a pandas merge."""
    kind = getattr(k.dtype, "kind", "O")
    if kind == "i":
        return "i:" + k.astype("int64").astype(str)
    if kind == "u":
        return "i:" + k.astype("uint64").astype(str)
    if kind == "b":
        return "b:" + k.astype(str)
    if kind == "f":
        return ("f:" + k.astype(str)).where(~k.isna(), "n:")
    if kind == "O":
        return k.map(_canon_elem)
    return "s:" + k.astype(str)


def _keyed(key: str, cols: Sequence[str]):
    """pandas in (an object-dtype key batch keeps per-element python
    kinds for ``_canonical_key`` — Arrow would coerce a mixed [1.5, 1]
    object column to double before it could be tagged), Arrow out:
    the side's columns plus its ``_jkey``."""
    def fn(df: pd.DataFrame) -> pa.Table:
        out = {c: pa.Array.from_pandas(df[c]) for c in cols}
        out["_jkey"] = pa.array(_canonical_key(df[key]), type=pa.string())
        return pa.table(out)
    return fn


def _coalesce(a, b):
    if pa.types.is_null(a.type):
        return b
    return pc.coalesce(a, b if b.type == a.type else b.cast(a.type))


def hash_bucket_join(left, right, left_on: str, right_on: str,
                     how: str = "inner", num_buckets: int = 64,
                     left_cols: Sequence[str] = None,
                     right_cols: Sequence[str] = None):
    """Distributed equi-join: each side is exchanged on its canonical
    key, and each bucket merges in Arrow.

    The broadcast join (ray.put the small side) is right for dimension
    lookups; this is the shuffle join for two large sides — each side
    moves once.  Column sets of the two sides must be disjoint apart
    from the join keys (standard star-schema shape).  Output columns
    are the left columns, then the right ones; when the key names are
    equal the key appears once and, on right and outer joins, is
    filled from the right side where the left has no row.

    The merge is an index join: ``(_jkey, row index)`` tables joined by
    ``pa.Table.join``, then each side's payload gathered with ``take``
    (Acero's join rejects list-typed non-key fields; ``take`` carries
    any type, and a null index gives a null of the column's own type,
    so 64-bit payloads on the null side stay exact).

    Pass ``left_cols``/``right_cols`` when known: ``Dataset.schema()``
    on an unexecuted pipeline EXECUTES it, so sniffing names at plan
    time would run each input twice.
    """
    lcols = list(left_cols) if left_cols is not None \
        else list(left.schema().names)
    rcols = list(right_cols) if right_cols is not None \
        else list(right.schema().names)
    overlap = (set(lcols) & set(rcols)) - {left_on, right_on}
    if overlap:
        raise ValueError(f"overlapping non-key columns: {sorted(overlap)}")
    allcols = lcols + [c for c in rcols if c not in lcols]
    join_type = _JOIN_TYPES[how]

    def side(t: pa.Table, cols) -> pa.Table:
        # a side with no blocks at all reaches the merge as a
        # column-less table
        if t.num_columns:
            return t
        return pa.table({**{c: pa.nulls(0) for c in cols},
                         "_jkey": pa.array([], pa.string())})

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt, rt = side(lt, lcols), side(rt, rcols)
        # Acero's output order is unspecified: sort the index pairs so
        # rows come in left order, as a pandas merge gives them
        idx = pa.table({"_jkey": lt["_jkey"],
                        "_li": np.arange(lt.num_rows)}).join(
            pa.table({"_jkey": rt["_jkey"], "_ri": np.arange(rt.num_rows)}),
            "_jkey", join_type=join_type, use_threads=False) \
            .sort_by([("_li", "ascending"), ("_ri", "ascending")])
        lt, rt = lt.take(idx["_li"]), rt.take(idx["_ri"])
        out = {c: lt[c] if c in lcols else rt[c] for c in allcols}
        if left_on == right_on and how in ("right", "outer"):
            out[left_on] = _coalesce(lt[left_on], rt[right_on])
        return pa.table(out)

    return exchange(
        [left.map_batches(_keyed(left_on, lcols), batch_format="pandas"),
         right.map_batches(_keyed(right_on, rcols), batch_format="pandas")],
        ["_jkey"], merge, num_buckets)
