"""Image/multimodal pipelines over the input_hint image+caption table.

The testdata directories carry no image table, so each sf gets a
deterministic synthetic one (sources.images — same generator the
synthetic web serves bytes from) materialized once under /tmp as a
Lance-layout table.

Oracle strategy for the binary-payload pipelines (value-checked, not
rows-only): each pipeline has an ``expected_*`` builder computed by an
INDEPENDENT path — the generator's source pixel/sample arrays (before
any encode) or, for the crawl, the single-process conformance oracle
(crawl/oracle.py).  ``__ray_entry__.oracle_sql()`` embeds those rows
as VALUES literals in the DuckDB oracle (keeping the oracle contract
to plain SQL — no side files), while the Ray pipeline computes from
the *encoded bytes*: the compare verifies the decode path + pipeline
plumbing end-to-end.  Binary payloads are compared as md5 hex columns
(DuckDB v1.0 has no md5(BLOB)); pixel-level equality is additionally
pinned by pytest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..blocks import table_from_pandas

from ..sources.codecs import average_hash64, decode_image, encode_ppm
from ..sources.images import (caption_for, generate_images_lance, image_spec,
                              render_pixels)
from ..stages.crawl_stages import IMAGE_ROW_SCHEMA
from ..storage.lance_layout import LanceLayoutTable
from .crawl_q import (_CRAWL_BUDGET, _read_pages, _sf_tag, harness_crawl,
                      harness_oracle)

_ROWS_BY_SF = {"sf0.001": 300, "sf0.01": 1000, "sf0.1": 4000}

def _n_images(tag: str) -> int:
    return _ROWS_BY_SF.get(tag, 1000)


def images_lance_for(sf_dir: str) -> LanceLayoutTable:
    tag = _sf_tag(sf_dir)
    n = _n_images(tag)
    root = f"/tmp/uniparser_ray_cache/images_{tag}"
    table = LanceLayoutTable(root)
    if table.count_rows() < n:
        generate_images_lance(root, n, rows_per_fragment=2000)
    return table


def thumbnail8(px: np.ndarray) -> np.ndarray:
    """8x8 block-mean thumbnail of an (h, w, 3) uint8 array."""
    h, w, _ = px.shape
    ys = np.linspace(0, h, 9, dtype=int)
    xs = np.linspace(0, w, 9, dtype=int)
    thumb = np.zeros((8, 8, 3), np.uint8)
    for i in range(8):
        for j in range(8):
            thumb[i, j] = px[ys[i]:max(ys[i + 1], ys[i] + 1),
                             xs[j]:max(xs[j + 1], xs[j] + 1)].mean(axis=(0, 1))
    return thumb


class DecodeStatsStage:
    """Actor-pool decode stage: pure-stdlib codecs in __init__-free
    form (the decode table itself is the per-actor state when real
    codec libs are swapped in)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, means, phash_ok, wh_ok = [], [], [], []
        for row in batch.to_pylist():
            px = decode_image(row["bytes"], row["fmt"])
            ids.append(row["image_id"])
            means.append(round(float(px.mean()), 4))
            phash_ok.append(average_hash64(px) == row["phash"])
            wh_ok.append(px.shape[0] == row["h"] and px.shape[1] == row["w"])
        return pa.Table.from_arrays([
            pa.array(ids, pa.string()), pa.array(means, pa.float64()),
            pa.array(phash_ok, pa.bool_()), pa.array(wh_ok, pa.bool_())],
            names=["image_id", "mean_pixel", "phash_ok", "wh_ok"])


def images_decode_stats(sf_dir: str):
    """Decode every image, check pixel stats against the table's
    metadata.  Oracle: expected stats computed from the generator's
    SOURCE pixel arrays (never encoded), so the compare proves the
    encode->decode round trip for every row."""
    table = images_lance_for(sf_dir)
    from ..stages.taskcache import cached_stage
    ds = table.read_dataset()
    return ds.map_batches(cached_stage(DecodeStatsStage),
                          batch_format="pyarrow", batch_size=256)


def images_neardup_phash(sf_dir: str, max_hamming: int = 8):
    """Near-dup images by phash Hamming distance: bucket by 16-bit
    phash blocks (pigeonhole over 4 blocks), verify inside buckets —
    the image twin of simhash dedup.  Oracle: DuckDB recomputes the
    block-sharing candidate rule + Hamming verify from the stored
    phash column directly (no expected file needed)."""
    from ..stages.dedup import hamming_block_pairs

    table = images_lance_for(sf_dir)
    ds = table.read_dataset(columns=["image_id", "phash"])
    out = hamming_block_pairs(ds, "image_id", "phash", max_hamming,
                              out_prefix="image")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["hamming"] = df["hamming"].astype("int64")
        return df

    return out.map_batches(finish, batch_format="pandas")


def _images_meta_table(tag: str) -> pa.Table:
    """Generator-side metadata (no bytes): image_id, w, h, fmt,
    caption, phash — the independent source for caption/phash SQL
    oracles."""
    n = _n_images(tag)
    ids, ws, hs, fmts, caps, phs = [], [], [], [], [], []
    for i in range(n):
        w, h, fmt = image_spec(i)
        ids.append(f"img-{i:010d}")
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        caps.append(caption_for(i))
        phs.append(average_hash64(render_pixels(i)))
    return pa.table({"image_id": pa.array(ids, pa.string()),
                     "w": pa.array(ws, pa.int32()),
                     "h": pa.array(hs, pa.int32()),
                     "fmt": pa.array(fmts, pa.string()),
                     "caption": pa.array(caps, pa.string()),
                     "phash": pa.array(phs, pa.int64())})


class ThumbnailStage:
    """Multimodal transform: decode -> 8x8 block-mean thumbnail ->
    re-encode (PPM) -> md5 fingerprint.  The decode/encode here is the
    stdlib codec; a real deployment swaps the codec table in __init__
    for PIL/ffmpeg — the Ray-side plumbing (actor pool, small batches,
    binary columns) is identical.  The emitted md5 is of the full PPM
    blob, so the oracle compare is pixel-exact."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, md5s = [], []
        for row in batch.to_pylist():
            px = decode_image(row["bytes"], row["fmt"])
            blob = encode_ppm(thumbnail8(px))
            ids.append(row["image_id"])
            md5s.append(hashlib.md5(blob).hexdigest())
        return pa.Table.from_arrays(
            [pa.array(ids, pa.string()), pa.array(md5s, pa.string())],
            names=["image_id", "thumb_md5"])


def images_thumbnails(sf_dir: str):
    """Thumbnail pipeline; oracle expected thumbnails come from the
    generator's source pixels (pre-encode), proving decode fidelity."""
    table = images_lance_for(sf_dir)
    from ..stages.taskcache import cached_stage
    return table.read_dataset().map_batches(
        cached_stage(ThumbnailStage), batch_format="pyarrow",
        batch_size=256)


def caption_token_stats(sf_dir: str):
    """Text ops over the multimodal table's caption column.  Oracle:
    DuckDB computes the same stats in SQL from the generator-side
    caption table (images_meta expected file)."""
    table = images_lance_for(sf_dir)
    ds = table.read_dataset(columns=["image_id", "caption"])

    def stats(t: pa.Table) -> pa.Table:
        caps = t["caption"].to_pylist()
        return pa.Table.from_arrays([
            t["image_id"],
            pa.array([len(c.split()) for c in caps], pa.int64()),
            pa.array([len(c) for c in caps], pa.int64())],
            names=["image_id", "n_tokens", "n_chars"])

    return ds.map_batches(stats, batch_format="pyarrow")


def _image_row_from_blob(image_id: str, blob: bytes, caption: str) -> dict:
    """Shared row derivation (dims/fmt/phash from the bytes) used for
    the oracle's expected rows; fmt is sniffed from the magic."""
    px = decode_image(blob)
    fmt = ("png" if blob.startswith(b"\x89PNG") else
           "bmp" if blob.startswith(b"BM") else
           "qpx" if blob.startswith(b"QPX1") else "ppm")
    return {"image_id": image_id, "w": px.shape[1], "h": px.shape[0],
            "fmt": fmt, "caption": caption,
            "phash": average_hash64(px),
            "bytes_md5": hashlib.md5(blob).hexdigest()}


def crawl_images(sf_dir: str):
    """The flagship: full distributed crawl over the sf-scaled
    synthetic web; returns the input_hint-shaped image+caption table
    (bytes as md5 hex — pixel equality is pytest-pinned).  Oracle:
    the single-process conformance crawler (crawl/oracle.BFSOracle, an
    independent implementation of the same crawl semantics) produces
    the expected rows."""
    tag = _sf_tag(sf_dir)
    out, _totals = harness_crawl("base", tag)
    table = LanceLayoutTable(f"{out}/images_lance")
    # md5 the payloads WHERE THEY LIVE: a map_batches over the Lance
    # fragments hashes each block's bytes in parallel; the driver only
    # ever materializes (image_id, meta, bytes_md5) — never the bytes
    ds = table.read_dataset(columns=["image_id", "bytes", "w", "h", "fmt",
                                     "caption", "phash"])

    def md5_batch(t: pa.Table) -> pa.Table:
        md5s = pa.array([hashlib.md5(b).hexdigest()
                         for b in t["bytes"].to_pylist()], pa.string())
        return t.drop_columns(["bytes"]).append_column("bytes_md5", md5s)

    hashed = ds.map_batches(md5_batch, batch_format="pyarrow",
                            batch_size=256).to_pandas()
    return table_from_pandas(hashed.sort_values("image_id"),
                                preserve_index=False)


_AUDIO_BY_SF = {"sf0.001": 60, "sf0.01": 200, "sf0.1": 600}
_VIDEO_BY_SF = {"sf0.001": 20, "sf0.01": 60, "sf0.1": 150}


def audio_features_q(sf_dir: str):
    """Audio multimodal path: deterministic pcm16 clips -> actor-pool
    decode -> per-clip features (duration/rms/zcr/peak).  Oracle:
    expected features computed from the generator's quantized sample
    arrays BEFORE byte-encoding (proves the pcm16 round trip)."""
    import ray.data as rd
    from ..stages.multimodal import audio_features, synth_audio_table

    tag = _sf_tag(sf_dir)
    n = _AUDIO_BY_SF.get(tag, 200)
    t = synth_audio_table(n)
    return audio_features(rd.from_arrow(t))


def video_frames_q(sf_dir: str):
    """Video multimodal path: rawrgb clips -> frame sampling (k=3) ->
    one row per sampled frame (frame bytes as md5 of the PPM).  The
    result streams — no driver-side sort/materialize.  Oracle:
    expected frames computed from the generator's source frame arrays."""
    import ray.data as rd
    from ..stages.multimodal import synth_video_table, video_frame_samples

    tag = _sf_tag(sf_dir)
    n = _VIDEO_BY_SF.get(tag, 60)
    t = synth_video_table(n)
    out = video_frame_samples(rd.from_arrow(t), k=3)

    def finger(batch: pa.Table) -> pa.Table:
        md5s = [hashlib.md5(b).hexdigest()
                for b in batch["frame_ppm"].to_pylist()]
        return pa.Table.from_arrays([
            batch["video_id"], batch["frame_index"].cast(pa.int64()),
            pa.array(md5s, pa.string()), batch["t_seconds"]],
            names=["video_id", "frame_index", "frame_md5", "t_seconds"])

    return out.map_batches(finger, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# expected-row builders for the DuckDB oracles (independent paths: the
# generator's source arrays / the single-process conformance crawler)
# ---------------------------------------------------------------------------


def expected_decode_stats(tag: str) -> pa.Table:
    n = _n_images(tag)
    ids = [f"img-{i:010d}" for i in range(n)]
    means = [round(float(render_pixels(i).mean()), 4) for i in range(n)]
    return pa.table({"image_id": pa.array(ids, pa.string()),
                     "mean_pixel": pa.array(means, pa.float64()),
                     "phash_ok": pa.array([True] * n),
                     "wh_ok": pa.array([True] * n)})


def expected_thumbnails(tag: str) -> pa.Table:
    n = _n_images(tag)
    ids, md5s = [], []
    for i in range(n):
        blob = encode_ppm(thumbnail8(render_pixels(i)))
        ids.append(f"img-{i:010d}")
        md5s.append(hashlib.md5(blob).hexdigest())
    return pa.table({"image_id": pa.array(ids, pa.string()),
                     "thumb_md5": pa.array(md5s, pa.string())})


def expected_images_meta(tag: str) -> pa.Table:
    return _images_meta_table(tag)


def expected_crawl_images(tag: str) -> pa.Table:
    result = harness_oracle("base", tag)
    rows = [_image_row_from_blob(iid, blob, cap)
            for iid, (blob, cap) in sorted(result["images"].items())]
    return pa.Table.from_pylist(rows)


def expected_crawl_image_lineage(tag: str) -> pa.Table:
    """Expected (image_id, round) lineage: the conformance crawler's
    first-seen round per image — the independent path for the Lance
    manifest's round=N partition provenance."""
    result = harness_oracle("base", tag)
    items = sorted(result["image_round"].items())
    return pa.table({
        "image_id": pa.array([i for i, _ in items], pa.string()),
        "round": pa.array([r for _, r in items], pa.int64())})


def images_dedup_clusters(sf_dir: str, max_hamming: int = 8):
    """Near-dup image CLUSTERING: the phash candidate pairs (the same
    block-bucketed rule as images_neardup_phash) become edges of a
    similarity graph; BSP connected components collapse transitive
    chains (A~B, B~C => one cluster even when A!~C) and each image is
    assigned its cluster representative (lexicographic min image_id) —
    ``keep`` marks the one row per cluster a training pipeline retains.
    Oracle: DuckDB recomputes the pair rule from the stored phash
    column and closes it transitively with a RECURSIVE CTE — a fully
    computed SQL twin of the distributed label propagation.

    Like ``doc_dedup_clusters``, the assignment table is a persisted
    artifact at real scale; the process-level memo (keyed by the Lance
    ``_latest`` manifest pointer) stands in, so ``images_curation``
    reuses instead of re-running the pair machinery."""
    return images_dedup_clusters_for(images_lance_for(sf_dir),
                                     max_hamming)


def images_dedup_clusters_for(table, max_hamming: int = 8):
    """Table-keyed memo wrapper: works for BOTH the generated image
    table and a crawl's Lance output (key = the table's ``_latest``
    manifest pointer identity)."""
    from .sharedcache import input_sig, memo
    key = ("images_dedup_clusters",
           input_sig(str(table.root / "_latest")), max_hamming)
    return memo(key,
                lambda: _images_dedup_clusters(table, max_hamming))


def _images_dedup_clusters(table, max_hamming: int):
    from ..rulevm.urlutil import url_hash64
    from ..stages import graph_bsp
    from ..stages.dedup import hamming_block_pairs
    ds = table.read_dataset(columns=["image_id", "phash"])
    pairs = hamming_block_pairs(ds, "image_id", "phash", max_hamming,
                                out_prefix="image")

    def hashed(ids) -> pa.Array:
        return pa.array([url_hash64(v) for v in ids.to_pylist()],
                        pa.uint64())

    def nodes(t: pa.Table) -> pa.Table:
        return pa.table({"hash": hashed(t["image_id"]),
                         "id": t["image_id"]})

    def edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": hashed(t["image_a"]),
                         "dst": hashed(t["image_b"])})

    shards = graph_bsp.load(
        ds.select_columns(["image_id"])
        .map_batches(nodes, batch_format="pyarrow"),
        pairs.map_batches(edges, batch_format="pyarrow"),
        graph_bsp.shard_count())
    try:
        out = graph_bsp.component_assignments(shards).to_pandas()
    finally:
        graph_bsp.release(shards)
    out = out.rename(columns={"id": "image_id"})
    out["keep"] = out["image_id"] == out["cluster"]
    return table_from_pandas(
        out.sort_values("image_id").reset_index(drop=True),
        preserve_index=False)


# ---------------------------------------------------------------------------
# training-data shaping: aspect-ratio bucketing + byte-budget shard packing
# ---------------------------------------------------------------------------

# SD-style aspect buckets as (name, num, den); the comparison key is the
# INTEGER (1_000_000 * num) // den so the argmin is bit-exact in both
# numpy and the SQL oracle (no libm log/ulp tie hazards).  Ties break
# by bucket list position.
ASPECT_BUCKETS = (
    ("square_1_1", 1, 1),
    ("wide_4_3", 4, 3),
    ("tall_3_4", 3, 4),
    ("wide_16_9", 16, 9),
    ("tall_9_16", 9, 16),
    ("wide_2_1", 2, 1),
    ("tall_1_2", 1, 2),
)
_AR_SCALE = 1_000_000
# quality gate: min side + aspect-ratio sanity band (scaled keys)
_QUALITY_MIN_SIDE = 32
_AR_KEEP_LO = _AR_SCALE // 4      # 1:4
_AR_KEEP_HI = _AR_SCALE * 4      # 4:1


def images_aspect_buckets(sf_dir: str):
    """Aspect-ratio bucket assignment + quality gate over the image
    table — the shaping pass a diffusion-style training pipeline runs
    before batching (images batch by bucket so crops stay minimal).

    One column-pruned vectorized ``map_batches``: no bytes leave
    storage; ar_key = (1e6*w)//h integer arithmetic end-to-end; bucket
    = argmin |ar_key - bucket_key| with first-bucket tie-break.
    Oracle: CROSS JOIN against a VALUES bucket table + ROW_NUMBER
    argmin, bit-identical keys."""
    table = images_lance_for(sf_dir)
    ds = table.read_dataset(columns=["image_id", "w", "h"])
    bucket_keys = np.array([(_AR_SCALE * n) // d
                            for _, n, d in ASPECT_BUCKETS], np.int64)
    bucket_names = np.array([b[0] for b in ASPECT_BUCKETS], object)

    def assign(t: pa.Table) -> pa.Table:
        w = t["w"].to_numpy().astype(np.int64)
        h = t["h"].to_numpy().astype(np.int64)
        ar = (_AR_SCALE * w) // h
        diffs = np.abs(ar[:, None] - bucket_keys[None, :])
        b = np.argmin(diffs, axis=1)     # first min = list-order tie-break
        keep = ((w >= _QUALITY_MIN_SIDE) & (h >= _QUALITY_MIN_SIDE)
                & (ar >= _AR_KEEP_LO) & (ar <= _AR_KEEP_HI))
        return pa.table({
            "image_id": t["image_id"],
            "w": pa.array(w, pa.int64()),
            "h": pa.array(h, pa.int64()),
            "ar_key": pa.array(ar, pa.int64()),
            "bucket": pa.array(bucket_names[b], pa.string()),
            "keep": pa.array(keep, pa.bool_()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


CUR_CAP_MIN_TOKENS = 3
CUR_CAP_MAX_TOKENS = 32


class CurationBitsStage:
    """Row-local curation gates in one warm pass: aspect/size (bit 0),
    caption length (bit 1), caption-image alignment (bit 2).  Simhash
    affine params derive once per actor (the model-load slot), exactly
    as CaptionAlignStage."""

    def __init__(self):
        from ..stages.tokenhash import SIMHASH_SEED, affine_params
        self.params = affine_params(64, SIMHASH_SEED)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.dedup import popcount64
        from ..stages.tokenhash import shingle_hashes, simhash_values
        w = batch["w"].to_numpy().astype(np.int64)
        h = batch["h"].to_numpy().astype(np.int64)
        ar = (_AR_SCALE * w) // h
        bad_shape = ~((w >= _QUALITY_MIN_SIDE) & (h >= _QUALITY_MIN_SIDE)
                      & (ar >= _AR_KEEP_LO) & (ar <= _AR_KEEP_HI))
        caps = batch["caption"].to_pylist()
        # single-space split, matching string_split(caption, ' ') in
        # the twin ('' -> [''] -> 1 on both sides)
        ntok = np.fromiter((len(c.split(" ")) for c in caps),
                           np.int64, count=len(caps))
        bad_cap = (ntok < CUR_CAP_MIN_TOKENS) | (ntok > CUR_CAP_MAX_TOKENS)
        sh, counts = shingle_hashes(caps, k=3)
        sim = simhash_values(sh, counts)
        ph = np.asarray(batch["phash"].to_pylist(),
                        np.int64).view(np.uint64)
        bad_align = popcount64(sim ^ ph) > ALIGN_MAX_HAMMING
        viol = (bad_shape.astype(np.int64)
                + 2 * bad_cap.astype(np.int64)
                + 4 * bad_align.astype(np.int64))
        return pa.Table.from_arrays(
            [batch["image_id"], pa.array(viol, pa.int64())],
            names=["image_id", "viol"])


def images_curation(sf_dir: str):
    """The composed image-curation KEEP decision — what a LAION-style
    pipeline actually ships: per image a violation bitmask over
    bit 0 aspect/size gate, bit 1 caption length, bit 2 caption-image
    alignment (all row-local, ONE shuffle-free warm pass, bytes never
    read), bit 3 near-dup non-representative (the phash dedup-cluster
    keep from the BSP connected components), and keep = (viol == 0).

    Scale shape: the only exchanges are the dedup-cluster machinery
    (block-bucketed pair candidates + component supersteps) and one
    image-count-sized hash join of (image_id, viol) against
    (image_id, cluster-keep) — metadata rows, never payloads.  The
    DuckDB twin recomputes every bit (recursive-CTE components +
    simhash CTEs + the same integer thresholds), so the final keep
    list is value-checked end to end."""
    return _curation_gate(images_lance_for(sf_dir))


def crawl_images_curation(sf_dir: str):
    """The north-star pipeline composed END TO END: the distributed
    crawl's own Lance image+caption output runs through the SAME
    four-bit ship-it gate as ``images_curation`` — crawl → near-dup
    cluster → quality/alignment bits → keep list, all on the crawled
    table (bytes never re-read; the gate sees only the metadata
    columns the crawl wrote).  The DuckDB twin rebuilds every bit from
    the conformance crawler's expected rows, so the full
    crawl-then-curate composition value-checks."""
    tag = _sf_tag(sf_dir)
    out, _totals = harness_crawl("base", tag)
    return _curation_gate(LanceLayoutTable(f"{out}/images_lance"))


def crawl_wet_roundtrip(sf_dir: str):
    """WET archive export/ingest fidelity: the crawl's
    round-partitioned page results export to Common-Crawl-style WET
    files (one per round checkpoint, task-parallel, atomic +
    idempotent — the resumable partitioned-output rule), read BACK
    distributed, and every record's (url, status, md5(content)) must
    equal the checkpoint source row it came from.  The DuckDB twin
    reads the checkpoint parquet directly (read_parquet over the
    round=* glob), so the two serializations of the same crawl are
    compared by value — a lossless-interchange guarantee, not a
    self-compare."""
    from ..sources.warc import export_wet, read_wet

    tag = _sf_tag(sf_dir)
    out, _totals = harness_crawl("base", tag)
    paths = export_wet(f"{out}/pages", f"{out}/wet")

    def digest(t: pa.Table) -> pa.Table:
        md5s = [hashlib.md5(c.encode()).hexdigest()
                for c in t["content"].to_pylist()]
        return pa.table({"url": t["url"],
                         "status": t["status"],
                         "content_md5": pa.array(md5s, pa.string())})

    return read_wet(paths).map_batches(digest, batch_format="pyarrow")


def images_wds_roundtrip(sf_dir: str):
    """WebDataset shard export/ingest fidelity — the image-axis twin
    of ``crawl_wet_roundtrip``: the Lance image+caption table exports
    to WebDataset-style tar shards (one per Lance fragment,
    task-parallel, atomic + idempotent — the resumable
    partitioned-output rule), reads BACK distributed by tar framing,
    and every sample's (md5-of-bytes, caption, shard) must equal the
    fragment row it came from.  The DuckDB twin reads the fragment
    parquet directly (read_parquet glob with filename=true for the
    shard id), so the two serializations of the same table are
    compared by value.  Byte fidelity via md5(hex(bytes)) — hex is
    injective and DuckDB's md5 takes VARCHAR only."""
    from ..sources.wds import export_wds, read_wds

    table = images_lance_for(sf_dir)
    paths = export_wds(table, str(table.root) + "_wds")

    def digest(t: pa.Table) -> pa.Table:
        blobs = t["bytes"].to_pylist()
        md5s = [hashlib.md5(b.hex().upper().encode()).hexdigest()
                for b in blobs]
        return pa.table({
            "image_id": t["image_id"],
            "bytes_md5h": pa.array(md5s, pa.string()),
            "nbytes": pa.array([len(b) for b in blobs], pa.int64()),
            "caption": t["caption"],
            "shard": t["shard"]})

    return read_wds(paths).map_batches(digest, batch_format="pyarrow")


def crawl_images_dedup_exact(sf_dir: str):
    """EXACT byte-level dedup over the crawl's own image output — the
    md5-of-payload twin of the perceptual phash dedup (a mirror/alias
    URL serving identical bytes dedups here even when phash blocking
    would, or would not, pair it): bytes hash WHERE THEY LIVE (one
    map_batches over the Lance fragments, payloads never move), then
    only (image_id, md5) rows shuffle by md5 and each group keeps its
    min image_id.  Twin: window MIN/COUNT over the conformance
    crawler's expected bytes_md5 column."""
    from ..stages.combine import hash_bucket_combine

    tag = _sf_tag(sf_dir)
    out, _totals = harness_crawl("base", tag)
    return _bytes_dedup(LanceLayoutTable(f"{out}/images_lance"))


def _bytes_dedup(table):
    from ..stages.combine import hash_bucket_combine

    ds = table.read_dataset(columns=["image_id", "bytes"])

    def md5_rows(t: pa.Table) -> pa.Table:
        md5s = [hashlib.md5(b).hexdigest() for b in t["bytes"].to_pylist()]
        return pa.table({"image_id": t["image_id"],
                         "bytes_md5": pa.array(md5s, pa.string())})

    hashed = ds.map_batches(md5_rows, batch_format="pyarrow",
                            batch_size=256)

    def group(g: pd.DataFrame) -> pd.DataFrame:
        keeper = g.groupby("bytes_md5")["image_id"].transform("min")
        cnt = g.groupby("bytes_md5")["image_id"].transform("size")
        return pd.DataFrame({
            "image_id": g["image_id"],
            "bytes_md5": g["bytes_md5"],
            "keeper_id": keeper,
            "dup_count": cnt.astype("int64"),
            "keep": (g["image_id"] == keeper).astype("int64")})

    return hash_bucket_combine(hashed, ["bytes_md5"], group)


def _curation_gate(table):
    from ..stages.combine import hash_bucket_join
    from ..stages.taskcache import cached_stage

    ds = table.read_dataset(columns=["image_id", "w", "h",
                                     "caption", "phash"])
    bits = ds.map_batches(cached_stage(CurationBitsStage),
                          batch_format="pyarrow", batch_size=1024)

    import ray.data as rd

    cc_tbl = images_dedup_clusters_for(table)  # pa.Table (assignments)
    cc = rd.from_arrow(pa.table({
        "cc_id": cc_tbl["image_id"],
        "cck": cc_tbl["keep"].cast(pa.int64())}))

    joined = hash_bucket_join(bits, cc, "image_id", "cc_id",
                              left_cols=["image_id", "viol"],
                              right_cols=["cc_id", "cck"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        viol = (df["viol"].astype("int64")
                + 8 * (1 - df["cck"].astype("int64")))
        return pd.DataFrame({
            "image_id": df["image_id"],
            "viol": viol,
            "keep": (viol == 0).astype("int64")})

    return joined.map_batches(finish, batch_format="pandas")


def images_shard_pack(sf_dir: str, budget: int = 262_144,
                      num_ranges: int = 16):
    """Deterministic WebDataset-style shard packing: images are packed
    (in image_id order) into shards of ~``budget`` encoded bytes —
    ``shard = bytes_before_me // budget``.

    Bytes are read ONCE in a map_batches that keeps only (image_id,
    key, nbytes) metadata rows (24B/row — at 100 TB of images the meta
    is ~0.002% of the data); ``stages.combine.prefix_scan`` (the same
    scan as documents.doc_shard_assign) runs over those.  Integer
    arithmetic end-to-end — bit-exact vs the SQL window oracle."""
    import pyarrow.compute as pc

    from ..stages.combine import prefix_scan

    table = images_lance_for(sf_dir)
    ds = table.read_dataset(columns=["image_id", "bytes"])

    def to_meta(t: pa.Table) -> pa.Table:
        ids = t["image_id"]
        key = pc.cast(pc.utf8_slice_codeunits(ids, 4, 99), pa.int64())
        return pa.table({"image_id": ids, "_key": key,
                         "nbytes": pc.binary_length(t["bytes"])
                         .cast(pa.int64())})

    def pack(g: pd.DataFrame, before: np.ndarray) -> pd.DataFrame:
        return pd.DataFrame({"image_id": g["image_id"],
                             "nbytes": g["nbytes"],
                             "shard": before // budget})

    meta = ds.map_batches(to_meta, batch_format="pyarrow").materialize()
    return prefix_scan(meta, ["_key"], "nbytes", "sum", pack,
                       num_ranges=num_ranges)


def expected_images_sizes(tag: str) -> pa.Table:
    """Independent (image_id, nbytes) from the generator's pre-storage
    encode — proves the stored bytes' length, not just the pipeline."""
    from ..sources.images import render_encoded
    n = _n_images(tag)
    ids = [f"img-{i:010d}" for i in range(n)]
    sizes = [len(render_encoded(i)) for i in range(n)]
    return pa.table({"image_id": pa.array(ids, pa.string()),
                     "nbytes": pa.array(sizes, pa.int64())})


def images_bucket_shards(sf_dir: str, budget: int = 131_072,
                         num_ranges: int = 8):
    """Per-aspect-bucket shard packing — the composition a bucketed
    training loader needs: images are FIRST assigned their aspect
    bucket (integer argmin, as ``images_aspect_buckets``), then packed
    (in image_id order WITHIN the bucket) into shards of ~``budget``
    encoded bytes; shard numbering restarts per bucket, so a shard
    never mixes aspect ratios.

    ``images_shard_pack``'s scan with ``partition=["bucket"]``: the
    driver folds #buckets x num_ranges byte totals into per-bucket
    offsets.  Oracle: window SUM PARTITION BY bucket over the
    generator-side sizes joined to the bucket argmin."""
    import pyarrow.compute as pc

    from ..stages.combine import prefix_scan

    table = images_lance_for(sf_dir)
    ds = table.read_dataset(columns=["image_id", "bytes", "w", "h"])
    bucket_keys = np.array([(_AR_SCALE * n) // d
                            for _, n, d in ASPECT_BUCKETS], np.int64)
    bucket_names = np.array([b[0] for b in ASPECT_BUCKETS], object)

    def to_meta(t: pa.Table) -> pa.Table:
        w = t["w"].to_numpy().astype(np.int64)
        h = t["h"].to_numpy().astype(np.int64)
        ar = (_AR_SCALE * w) // h
        b = np.argmin(np.abs(ar[:, None] - bucket_keys[None, :]), axis=1)
        key = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 4, 99),
                      pa.int64())
        return pa.table({
            "image_id": t["image_id"],
            "_key": key,
            "bucket": pa.array(bucket_names[b], pa.string()),
            "nbytes": pc.binary_length(t["bytes"]).cast(pa.int64()),
        })

    def pack(g: pd.DataFrame, before: np.ndarray) -> pd.DataFrame:
        return pd.DataFrame({"image_id": g["image_id"],
                             "bucket": g["bucket"], "nbytes": g["nbytes"],
                             "shard": before // budget})

    meta = ds.map_batches(to_meta, batch_format="pyarrow").materialize()
    return prefix_scan(meta, ["_key"], "nbytes", "sum", pack,
                       partition=["bucket"], num_ranges=num_ranges)


ALIGN_MAX_HAMMING = 30


class CaptionAlignStage:
    """CLIP-score-SHAPED image-caption alignment scorer.

    A production run swaps the score body for batched model inference
    (weights loaded once per actor right here in ``__init__``); this
    deterministic stand-in keeps the plumbing — warm stateful stage,
    batched scoring, filter threshold — real and value-checked: the
    score is 64 - hamming(phash, caption-simhash), where the caption
    simhash is the SAME tokenhash construction the text family uses,
    so the DuckDB oracle recomputes every score exactly.
    """

    def __init__(self, max_hamming: int = ALIGN_MAX_HAMMING):
        # per-actor setup (the "model load" slot): simhash affine
        # params are derived once, not per batch
        from ..stages.tokenhash import SIMHASH_SEED, affine_params
        self.params = affine_params(64, SIMHASH_SEED)
        self.max_hamming = max_hamming

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.dedup import popcount64
        from ..stages.tokenhash import (shingle_hashes, simhash_values,
                                        to_int64)
        caps = batch["caption"].to_pylist()
        sh, counts = shingle_hashes(caps, k=3)
        sim = simhash_values(sh, counts)
        ph = np.asarray(batch["phash"].to_pylist(),
                        np.int64).view(np.uint64)
        ham = popcount64(sim ^ ph)
        return pa.Table.from_arrays([
            batch["image_id"],
            pa.array(to_int64(sim), pa.int64()),
            pa.array(ham, pa.int64()),
            pa.array((ham <= self.max_hamming).astype(np.int64),
                     pa.int64())],
            names=["image_id", "cap_simhash", "hamming", "aligned"])


def images_caption_align(sf_dir: str):
    """Image-caption alignment filtering (the LAION-style CLIP-score
    gate, with a deterministic value-checked scorer — see
    CaptionAlignStage): one shuffle-free pass over (image_id, caption,
    phash); bytes never leave storage."""
    from ..stages.taskcache import cached_stage

    table = images_lance_for(sf_dir)
    ds = table.read_dataset(columns=["image_id", "caption", "phash"])
    return ds.map_batches(cached_stage(CaptionAlignStage),
                          batch_format="pyarrow", batch_size=1024)


def video_shot_boundaries(sf_dir: str, threshold: int = 5000):
    """Shot-boundary detection + per-shot keyframe flag over
    shot-structured synthetic clips — the video-curation step that
    feeds shot keyframes to a caption/embedding stage.  Integer SAD
    per consecutive frame pair, one vectorized pass per clip; rawrgb
    decode is real, other codecs stub (stages/multimodal.py).  Oracle:
    boundary/shot columns derived STRUCTURALLY from the generator's
    shot lengths, sad from the source arrays — an independent path
    value-checking the byte decode end-to-end."""
    import ray.data as rd

    from ..stages.multimodal import VideoShotStage, synth_shot_video_table
    from ..stages.taskcache import cached_stage

    tag = _sf_tag(sf_dir)
    n = _VIDEO_BY_SF.get(tag, 60)
    t = synth_shot_video_table(n)
    return rd.from_arrow(t).map_batches(
        cached_stage(VideoShotStage, threshold=threshold),
        batch_format="pyarrow", batch_size=16)


def audio_vad_segments(sf_dir: str):
    """VAD-style audio segmentation — the audio-curation step that
    gates training clips on speech/activity content: integer window
    energies + run-length segments over VAD-structured pcm16 clips
    (stages/multimodal.AudioVadStage; real pcm16 decode, strict stubs
    otherwise).  Oracle: segment structure derived from the
    generator's plan, energies from the source arrays — the
    independent path value-checking the byte decode."""
    import ray.data as rd

    from ..stages.multimodal import AudioVadStage, synth_vad_audio_table
    from ..stages.taskcache import cached_stage

    tag = _sf_tag(sf_dir)
    n = _AUDIO_BY_SF.get(tag, 200)
    t = synth_vad_audio_table(n)
    return rd.from_arrow(t).map_batches(
        cached_stage(AudioVadStage), batch_format="pyarrow",
        batch_size=64)


def expected_crawl_round_metrics(tag: str) -> pa.Table:
    """Per-round expected metrics from the single-process conformance
    crawler — the independent path for the distributed loop's own
    per-round accounting (the north rule's frontier/fetch/parse
    metrics as a value-checked surface, not just a JSON side file)."""
    result = harness_oracle("base", tag)
    return pa.table({
        "round": pa.array([r["round"] for r in result["rounds"]],
                          pa.int64()),
        "granted": pa.array([r["granted"] for r in result["rounds"]],
                            pa.int64()),
        "pages_ok": pa.array([r["pages_ok"] for r in result["rounds"]],
                             pa.int64()),
        "images_written": pa.array([r["images"] for r in result["rounds"]],
                                   pa.int64())})


def crawl_round_metrics(sf_dir: str):
    """Run the distributed crawl and return its PER-ROUND metrics
    (granted, 200-fetches, new image rows) as a table — lineage/metrics
    as a first-class value-checked output.  The conformance oracle
    replays the same rounds, so every count is checked, pinning not
    just WHAT was crawled (crawl_images) but the round-by-round
    schedule the frontier/politeness/seen machinery produced."""
    tag = _sf_tag(sf_dir)
    _out, totals = harness_crawl("base", tag)
    rows = totals["per_round"]
    return pa.table({
        "round": pa.array([m["round"] for m in rows], pa.int64()),
        "granted": pa.array([m["granted"] for m in rows], pa.int64()),
        "pages_ok": pa.array([m["pages_ok"] for m in rows], pa.int64()),
        "images_written": pa.array([m["images_written"] for m in rows],
                                   pa.int64())})


def expected_crawl_politeness_audit(tag: str) -> pa.Table:
    """Expected per-host politeness audit from the conformance
    crawler's per-round fetched-URL lists: total fetches, rounds
    active, the max fetches any single round granted the host, and
    whether that max stayed within the per-host budget."""
    from ..rulevm.request import get_host

    result = harness_oracle("base", tag)
    per: dict = {}
    for r in result["rounds"]:
        for u in r["fetched"]:
            h = get_host(u, "")
            per.setdefault(h, {})
            per[h][r["round"]] = per[h].get(r["round"], 0) + 1
    hosts = sorted(per)
    mx = [max(per[h].values()) for h in hosts]
    return pa.table({
        "host": pa.array(hosts, pa.string()),
        "n_fetches": pa.array([sum(per[h].values()) for h in hosts],
                              pa.int64()),
        "n_rounds": pa.array([len(per[h]) for h in hosts], pa.int64()),
        "max_round_fetches": pa.array(mx, pa.int64()),
        "budget_ok": pa.array([int(m <= _CRAWL_BUDGET) for m in mx],
                              pa.int64())})


def crawl_politeness_audit(sf_dir: str):
    """Politeness as a value-checked INVARIANT over the crawl's own
    persisted output (not its in-memory counters): fetch rows read
    back from the round-partitioned pages parquet (host column only —
    pruned, one task-parallel read per round file), counted per
    (host, round) through the partial-sum combine, then folded to one
    audit row per host — total fetches, rounds active, busiest round,
    and the budget check.  The conformance replay computes the same
    audit independently, so the north rule's politeness guarantee is
    pinned by a value compare, not asserted in prose.  The final fold
    runs on the (hosts x rounds) aggregate-of-aggregates — bounded by
    budget x rounds per host, never by page count."""
    from ..stages.combine import grouped_aggregate

    out, _totals = harness_crawl("base", _sf_tag(sf_dir))
    cells = grouped_aggregate(_read_pages(out, ["host"]), ["host", "round"],
                              {"n": ("round", "count")}).to_pandas()
    g = cells.groupby("host")["n"]
    audit = pd.DataFrame({"n_fetches": g.sum(), "n_rounds": g.size(),
                          "max_round_fetches": g.max()}).reset_index()
    audit["budget_ok"] = (audit["max_round_fetches"] <= _CRAWL_BUDGET) \
        .astype("int64")
    for c in ("n_fetches", "n_rounds", "max_round_fetches"):
        audit[c] = audit[c].astype("int64")
    return table_from_pandas(
        audit.sort_values("host")[["host", "n_fetches", "n_rounds",
                                   "max_round_fetches", "budget_ok"]],
        preserve_index=False)


def expected_crawl_page_lineage(tag: str) -> pa.Table:
    """Expected per-page lineage from the conformance replay: fetch
    round (crawl ordering), fetching parent, BFS depth (parent-chain
    length), and fetch status for every URL the crawl touched."""
    result = harness_oracle("base", tag)
    rnd = {}
    for r in result["rounds"]:
        for u in r["fetched"]:
            rnd[u] = r["round"]
    parents = result["parents"]

    def depth_of(u: str) -> int:
        d = 0
        while parents.get(u, ""):
            u = parents[u]
            d += 1
        return d

    urls = sorted(result["pages"])
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "round": pa.array([rnd[u] for u in urls], pa.int64()),
        "parent": pa.array([parents.get(u, "") for u in urls],
                           pa.string()),
        "depth": pa.array([depth_of(u) for u in urls], pa.int64()),
        "status": pa.array([result["pages"][u][0] for u in urls],
                           pa.int64())})


def crawl_page_lineage(sf_dir: str):
    """Per-page LINEAGE from the round-partitioned checkpoints: every
    fetched URL with its round (the crawl ordering), fetching parent
    (frontier provenance), BFS depth, and status — the north rule's
    'resume from per-partition checkpoints with lineage' surface as a
    value-checked query.  One pruned task-parallel read per round file
    (five scalar columns, never result_json); round rides the
    partition directory, exactly how a resumed run reconstructs
    state."""
    out, _totals = harness_crawl("base", _sf_tag(sf_dir))
    return _read_pages(out, ["url", "round", "parent", "depth", "status"])


def crawl_image_lineage(sf_dir: str):
    """Per-row LINEAGE from the versioned Lance manifest: which crawl
    round produced each image row (fragments are committed under
    round=N partition dirs, so provenance is a property of the layout,
    not a side file).  The fragment list fans out as a Dataset and
    each task reads ONLY its fragment's image_id column — bytes never
    move.  Oracle: the conformance crawler's first-seen round per
    image."""
    from ..crawl.loop import read_rounds
    out, _totals = harness_crawl("base", _sf_tag(sf_dir))
    return read_rounds(LanceLayoutTable(f"{out}/images_lance")
                       .fragment_files(), ["image_id"], IMAGE_ROW_SCHEMA)


HARDNEG_ANCHOR_MOD = 8   # hash31(image_id) % 8 == 0 -> anchor sample
HARDNEG_K = 5


class HardNegStage:
    """Contrastive hard-negative scorer: hamming(anchor phash, caption
    simhash) against the broadcast anchor set, local top-k per anchor
    per batch.  A production run swaps the scorer for batched CLIP
    text/image embeddings (loaded once per actor here in __init__);
    the deterministic stand-in keeps the mining plumbing — broadcast
    anchors, streamed corpus, bounded per-anchor fan-in — real and
    value-checked."""

    def __init__(self, anchors_ref, k: int = HARDNEG_K):
        import ray
        self.anchor_ids, ph = ray.get(anchors_ref)
        self.ph = ph.view(np.uint64)
        self.anchor_arr = np.asarray(self.anchor_ids, dtype=object)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.dedup import popcount64
        from ..stages.tokenhash import shingle_hashes, simhash_values
        caps = batch["caption"].to_pylist()
        cap_ids = np.asarray(batch["image_id"].to_pylist(), dtype=object)
        sh, counts = shingle_hashes(caps, k=3)
        sim = simhash_values(sh, counts)
        x = self.ph[:, None] ^ sim[None, :]
        # popcount64 flattens to (-1, 8) bytes internally: reshape back
        ham = popcount64(x.ravel()).reshape(x.shape).astype(np.int64)
        # the anchor's own caption is not a negative
        ham[self.anchor_arr[:, None] == cap_ids[None, :]] = 65
        cap_u = cap_ids.astype(str)
        out_a, out_n, out_h = [], [], []
        k = min(self.k, ham.shape[1])
        for ai, aid in enumerate(self.anchor_ids):
            row = ham[ai]
            idx = np.lexsort((cap_u, row))[:k]
            idx = idx[row[idx] <= 64]
            out_a.extend([aid] * len(idx))
            out_n.extend(cap_ids[idx].tolist())
            out_h.extend(row[idx].tolist())
        return pa.Table.from_arrays([
            pa.array(out_a, pa.string()), pa.array(out_n, pa.string()),
            pa.array(out_h, pa.int64())],
            names=["anchor_id", "neg_image_id", "hamming"])


def caption_decontaminate(sf_dir: str):
    """CROSS-MODAL benchmark decontamination: flag images whose
    CAPTION shares any word-3-shingle with the held-out benchmark
    DOCUMENT split — the leak check a multimodal training pipeline
    runs when its eval prompts are text (captions quoting benchmark
    sentences leak the eval into image-text pretraining).

    Scale shape: the benchmark shingle block comes from the shared
    per-process collection (`documents.bench_shingle_block` — small by
    definition, broadcast once via ``ray.put``), and the caption side
    is ONE shuffle-free streamed pass over the Lance image table doing
    a vectorized searchsorted membership probe per batch; bytes never
    leave storage.  The DuckDB twin runs both tokenize/shingle stacks
    under renamed CTEs (no view shadowing), so the cross-table join is
    value-checked end to end."""
    import ray

    from ..stages.text import contamination_counts
    from .documents import bench_shingle_block

    block_ref = ray.put(bench_shingle_block(sf_dir))
    table = images_lance_for(sf_dir)

    def score(t: pa.Table) -> pa.Table:
        blk = ray.get(block_ref)
        ns, nc = contamination_counts(t["caption"].to_pylist(), blk)
        return pa.Table.from_arrays(
            [t["image_id"], pa.array(ns, pa.int64()),
             pa.array(nc, pa.int64()),
             pa.array((nc > 0).astype(np.int64), pa.int64())],
            names=["image_id", "n_shingles", "n_contaminated",
                   "contaminated"])

    return table.read_dataset(columns=["image_id", "caption"]) \
        .map_batches(score, batch_format="pyarrow")


PHASH_ANN_QUERY_MOD = 16   # hash31(image_id) % 16 == 0 -> probe sample
PHASH_ANN_K = 5


class PhashAnnStage:
    """Visual KNN scorer over binary codes: hamming(probe phash,
    corpus phash) against the broadcast probe set, local top-k per
    probe per batch — the binary-code twin of ``BruteTopKStage``
    (retrieval over 64-bit signatures instead of float embeddings; a
    production run swaps phash for a learned hash layer, the plumbing
    — probes broadcast once, streamed corpus, bounded per-probe fan-in
    — is unchanged)."""

    def __init__(self, queries_ref, k: int = PHASH_ANN_K):
        import ray
        self.query_ids, ph = ray.get(queries_ref)
        self.qph = ph.view(np.uint64)
        self.query_arr = np.asarray(self.query_ids, dtype=object)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.dedup import popcount64
        ids = np.asarray(batch["image_id"].to_pylist(), dtype=object)
        ph = batch["phash"].to_numpy().astype(np.int64).view(np.uint64)
        x = self.qph[:, None] ^ ph[None, :]
        ham = popcount64(x.ravel()).reshape(x.shape).astype(np.int64)
        # a probe is not its own neighbor
        ham[self.query_arr[:, None] == ids[None, :]] = 65
        ids_u = ids.astype(str)
        out_q, out_n, out_h = [], [], []
        k = min(self.k, ham.shape[1])
        for qi, qid in enumerate(self.query_ids):
            row = ham[qi]
            idx = np.lexsort((ids_u, row))[:k]
            idx = idx[row[idx] <= 64]
            out_q.extend([qid] * len(idx))
            out_n.extend(ids[idx].tolist())
            out_h.extend(row[idx].tolist())
        return pa.Table.from_arrays([
            pa.array(out_q, pa.string()), pa.array(out_n, pa.string()),
            pa.array(out_h, pa.int64())],
            names=["query_id", "neighbor_id", "hamming"])


def images_phash_ann(sf_dir: str, k: int = PHASH_ANN_K):
    """Top-k visual nearest neighbors in HAMMING space over the
    image+caption table's 64-bit phash column — similarity search in
    the binary-code domain (the dedup/retrieval primitive a LAION-type
    pipeline runs before clustering): a deterministic md5-residue
    probe sample broadcasts (image_id, phash) once via ``ray.put``,
    one streamed pass xor-popcounts every (probe, image) pair and
    keeps a local top-k per probe, and the global merge fans in k rows
    per probe per block through the bucketed combine.  Bytes never
    leave storage; at 10^10 images the probe mod scales the broadcast
    to probe-set size, and the scan drops into the simhash pigeonhole
    blocks when k-radius bounds are known."""
    import ray

    from ..stages.combine import hash_bucket_combine
    from ..stages.sketches import hash31
    from ..stages.taskcache import cached_stage

    table = images_lance_for(sf_dir)

    def pick(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["image_id"].to_pylist(), dtype=object)
        m = (hash31(ids) % PHASH_ANN_QUERY_MOD) == 0
        return t.filter(pa.array(m))

    probes = table.read_dataset(columns=["image_id", "phash"]) \
        .map_batches(pick, batch_format="pyarrow").to_pandas() \
        .sort_values("image_id")
    queries_ref = ray.put((probes["image_id"].tolist(),
                           probes["phash"].to_numpy(np.int64)))

    local = table.read_dataset(columns=["image_id", "phash"]) \
        .map_batches(cached_stage(PhashAnnStage, queries_ref=queries_ref,
                                  k=k),
                     batch_format="pyarrow", batch_size=1024)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "hamming", "neighbor_id"],
                            kind="mergesort")
        df = df.groupby("query_id", sort=False).head(k).copy()
        df["rank"] = (df.groupby("query_id", sort=False).cumcount()
                      + 1).astype(np.int64)
        df["hamming"] = df["hamming"].astype("int64")
        return df[["query_id", "neighbor_id", "hamming", "rank"]]

    return hash_bucket_combine(local, ["query_id"], merge)


def images_hard_negatives(sf_dir: str, k: int = HARDNEG_K):
    """Hard-negative mining for contrastive (CLIP-style) training over
    the crawl's image+caption table: a deterministic md5-residue
    sample of anchor images broadcasts (image_id, phash) once via
    ``ray.put``; ONE streamed pass over the caption side scores every
    (anchor, caption) pair and keeps a local top-k per anchor, so the
    global per-anchor merge fans in k rows per anchor per block —
    bounded like the ANN merges, co-located by anchor through the
    bucketed combine.  Bytes never leave storage; at 10^10 images the
    anchor mod scales to keep the broadcast at probe-set size."""
    import ray

    from ..stages.combine import hash_bucket_combine
    from ..stages.sketches import hash31
    from ..stages.taskcache import cached_stage

    table = images_lance_for(sf_dir)

    def pick(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["image_id"].to_pylist(), dtype=object)
        m = (hash31(ids) % HARDNEG_ANCHOR_MOD) == 0
        return t.filter(pa.array(m))

    anch = table.read_dataset(columns=["image_id", "phash"]) \
        .map_batches(pick, batch_format="pyarrow").to_pandas() \
        .sort_values("image_id")
    anchors_ref = ray.put((anch["image_id"].tolist(),
                           anch["phash"].to_numpy(np.int64)))

    local = table.read_dataset(columns=["image_id", "caption"]) \
        .map_batches(cached_stage(HardNegStage, anchors_ref=anchors_ref,
                                  k=k),
                     batch_format="pyarrow", batch_size=1024)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["anchor_id", "hamming", "neg_image_id"],
                            kind="mergesort")
        df = df.groupby("anchor_id", sort=False).head(k).copy()
        df["rank"] = (df.groupby("anchor_id", sort=False).cumcount()
                      + 1).astype(np.int64)
        df["hamming"] = df["hamming"].astype("int64")
        return df[["anchor_id", "neg_image_id", "hamming", "rank"]]

    return hash_bucket_combine(local, ["anchor_id"], merge)


def images_psnr_audit(sf_dir: str):
    """The north rule's LOSSY conformance bound ("decoded-pixel
    allclose, PSNR>=40dB for lossy formats") as a VALUE check.  Every
    image of the sf's table rides one distributed pass: each task
    renders the deterministic source pixels, QPX-encodes (the 6-bit
    lossy codec, sources/codecs.py), decodes the bytes back, and emits
    the EXACT integer sum of squared errors plus the framing size and
    the >=40dB verdict computed by integer cross-multiplication
    (PSNR >= 40  <=>  255^2 * n_samples >= 10^4 * sse — no float in
    the compare).

    Twin: quantization arithmetic applied directly to the source
    pixels — err = (v & 3) - 2 per sample, nbytes = 8 + 3*ceil(n/4) —
    embedded as VALUES.  It never touches the codec's pack/unpack or
    decode paths, so equality proves the encode->decode chain is
    EXACTLY the 6-bit quantizer (any framing/packing bug changes sse
    or nbytes).  Shuffle-free; pixels never leave the tasks."""
    import ray.data as rd

    from ..sources.codecs import decode_image, encode_qpx
    from ..sources.images import render_pixels

    tag = _sf_tag(sf_dir)
    n = _n_images(tag)

    def stage(batch: pa.Table) -> pa.Table:
        ids, ws, hs, nb, sse, ge40 = [], [], [], [], [], []
        for i in batch["id"].to_pylist():
            px = render_pixels(i)
            blob = encode_qpx(px)
            rec = decode_image(blob)
            d = px.astype(np.int64) - rec.astype(np.int64)
            s = int((d * d).sum())
            nsamp = px.size
            ids.append(f"img-{i:010d}")
            hs.append(px.shape[0])
            ws.append(px.shape[1])
            nb.append(len(blob))
            sse.append(s)
            ge40.append(1 if 65025 * nsamp >= 10000 * s else 0)
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "w": pa.array(ws, pa.int64()),
            "h": pa.array(hs, pa.int64()),
            "nbytes": pa.array(nb, pa.int64()),
            "sse": pa.array(sse, pa.int64()),
            "psnr_ge40": pa.array(ge40, pa.int64())})

    return (rd.range(n, override_num_blocks=min(16, max(1, n // 64)))
              .map_batches(stage, batch_format="pyarrow", batch_size=256))


def expected_images_psnr(tag: str) -> pa.Table:
    """Generator-side twin: per-sample quantization error computed
    straight from the source pixels (err = (v & 3) - 2) and framing
    size from arithmetic — independent of encode_qpx/decode_qpx."""
    n = _n_images(tag)
    ids, ws, hs, nb, sse = [], [], [], [], []
    from ..sources.images import render_pixels
    for i in range(n):
        px = render_pixels(i)
        err = (px.astype(np.int64) & 3) - 2
        nsamp = px.size
        ids.append(f"img-{i:010d}")
        hs.append(px.shape[0])
        ws.append(px.shape[1])
        nb.append(8 + 3 * ((nsamp + 3) // 4))
        sse.append(int((err * err).sum()))
    return pa.table({
        "image_id": pa.array(ids, pa.string()),
        "w": pa.array(ws, pa.int64()),
        "h": pa.array(hs, pa.int64()),
        "nbytes": pa.array(nb, pa.int64()),
        "sse": pa.array(sse, pa.int64())})
