"""Codecs round-trip, Lance-layout store, deterministic image table,
synthetic web."""

import numpy as np
import pyarrow as pa
import pytest

from uniparser_ray.sources import codecs
from uniparser_ray.sources.images import (IMAGES_SCHEMA, build_images_batch,
                                          caption_for, generate_images_lance,
                                          image_spec, render_pixels)
from uniparser_ray.sources.synthweb import SynthWeb
from uniparser_ray.storage.lance_layout import LanceLayoutTable


@pytest.mark.parametrize("fmt", ["ppm", "bmp", "png"])
def test_codec_roundtrip(fmt):
    rng = np.random.RandomState(7)
    for shape in [(5, 3, 3), (16, 16, 3), (31, 17, 3)]:
        px = rng.randint(0, 256, shape).astype(np.uint8)
        data = codecs.encode_image(px, fmt)
        out = codecs.decode_image(data, fmt)
        assert out.shape == px.shape
        assert np.array_equal(out, px)
        # sniffing decode
        assert np.array_equal(codecs.decode_image(data), px)


def test_average_hash_properties():
    px = render_pixels(123)
    h1 = codecs.average_hash64(px)
    h2 = codecs.average_hash64(px)
    assert h1 == h2
    assert -(1 << 63) <= h1 < (1 << 63)
    # a different image should (nearly always) hash differently
    assert codecs.average_hash64(render_pixels(124)) != h1


def _average_hash64_mean_loop(pixels):
    """average_hash64 as first written, one np.mean per block: the
    frozen reference its faster kernel must match bit for bit."""
    gray = pixels.astype(np.float32).mean(axis=2)
    h, w = gray.shape
    ys = (np.arange(9) * h // 8).clip(1, h)
    xs = (np.arange(9) * w // 8).clip(1, w)
    ys[0] = 0
    xs[0] = 0
    small = np.empty((8, 8), np.float32)
    for i in range(8):
        for j in range(8):
            small[i, j] = gray[ys[i]:max(ys[i + 1], ys[i] + 1),
                               xs[j]:max(xs[j + 1], xs[j] + 1)].mean()
    bits = (small > small.mean()).flatten()
    val = int.from_bytes(np.packbits(bits).tobytes(), "big")
    return val - (1 << 64) if val >= (1 << 63) else val


def test_average_hash_bit_identical_to_mean_loop():
    """The block means keep np.mean's summation order and rounding, so
    every hash equals the np.mean loop's: on the synthetic renders
    (smooth gradients, full of exact ties), on random images of every
    side from 1 to 140 px, and on tie-heavy quantized ones.  1-px sides
    leave empty blocks, which stay NaN but must not warn."""
    import warnings

    rng = np.random.default_rng(8)
    images = [render_pixels(i) for i in range(20000)]
    for k in range(3000):
        h, w = (int(v) for v in rng.integers(1, 141, 2))
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        images.append(px if k % 3 == 0 else
                      (px // 128) * 255 if k % 3 == 1 else px // 64 * 64)
    images += [np.full((h, w, 3), 7, np.uint8)
               for h, w in ((1, 1), (1, 9), (13, 1), (8, 8), (140, 3))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = [_average_hash64_mean_loop(px) for px in images]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [codecs.average_hash64(px) for px in images]
    bad = [i for i, (g, x) in enumerate(zip(got, want)) if g != x]
    assert not bad, (len(bad), bad[:5])


def test_gray_table_equals_channel_mean():
    """average_hash64's grayscale table equals the float32 channel mean
    for every channel sum 0..765."""
    sums = np.arange(766)
    px = np.stack([np.minimum(sums, 255), np.clip(sums - 255, 0, 255),
                   np.clip(sums - 510, 0, 255)], axis=1).astype(np.uint8)
    want = px[None].astype(np.float32).mean(axis=2)[0]
    assert np.array_equal(codecs._GRAY_OF_SUM.view(np.uint32),
                          want.view(np.uint32))


def _png_filtered(pixels, filters):
    """An 8-bit RGB PNG whose row y is written with filter type
    ``filters[y]`` (0 None, 1 Sub, 2 Up, 3 Average, 4 Paeth), per the
    PNG spec and independent of the codec's encoder; the IDAT stream
    is split over two chunks."""
    import struct
    import zlib

    h, w, _ = pixels.shape
    rows = pixels.reshape(h, w * 3).astype(np.int64)
    out = []
    for y, f in enumerate(filters):
        cur = rows[y]
        up = rows[y - 1] if y else np.zeros_like(cur)
        left = np.concatenate([np.zeros(3, np.int64), cur[:-3]])
        upleft = np.concatenate([np.zeros(3, np.int64), up[:-3]])
        if f == 0:
            pred = np.zeros_like(cur)
        elif f == 1:
            pred = left
        elif f == 2:
            pred = up
        elif f == 3:
            pred = (left + up) // 2
        else:
            p = left + up - upleft
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
            pred = np.where((pa <= pb) & (pa <= pc), left,
                            np.where(pb <= pc, up, upleft))
        out.append(bytes([f]) + ((cur - pred) % 256).astype(np.uint8)
                   .tobytes())
    idat = zlib.compress(b"".join(out))

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    half = len(idat) // 2
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", idat[:half]) + chunk(b"IDAT", idat[half:])
            + chunk(b"IEND", b""))


def test_png_decode_every_filter_type():
    """decode_png undoes each scanline filter: every row written with
    one filter type, and mixes of all five types across rows."""
    rng = np.random.default_rng(5)
    for h, w in ((1, 1), (2, 1), (7, 5), (16, 33)):
        for px in (rng.integers(0, 256, (h, w, 3), dtype=np.uint8),
                   render_pixels(h * 100 + w)[:h, :w]):
            for f in range(5):
                data = _png_filtered(px, [f] * h)
                assert np.array_equal(codecs.decode_png(data), px), (h, w, f)
            for _ in range(3):
                mix = rng.integers(0, 5, h).tolist()
                data = _png_filtered(px, mix)
                assert np.array_equal(codecs.decode_image(data), px), mix
    with pytest.raises(ValueError, match="bad PNG filter"):
        codecs.decode_png(_png_filtered(np.zeros((2, 2, 3), np.uint8),
                                        [0, 5]))


def test_images_table_deterministic():
    t1 = build_images_batch(0, 20)
    t2 = build_images_batch(0, 20)
    assert t1.equals(t2)
    assert t1.schema.equals(IMAGES_SCHEMA)
    assert t1.num_rows == 20
    # decoded pixels match the renderer exactly (lossless invariant)
    row = t1.slice(3, 1).to_pylist()[0]
    px = codecs.decode_image(row["bytes"], row["fmt"])
    assert np.array_equal(px, render_pixels(3))
    assert row["w"] == px.shape[1] and row["h"] == px.shape[0]
    assert row["caption"] == caption_for(3)


def test_lance_layout_roundtrip(tmp_path):
    root = tmp_path / "tbl"
    tbl = LanceLayoutTable(str(root))
    assert not tbl.exists()
    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    tbl.write_fragment(t, "part0")
    v1 = tbl.commit(["frag-part0.parquet"])
    assert v1 == 1 and tbl.count_rows() == 3
    # append-only versioning
    t2 = pa.table({"a": [4], "b": ["w"]})
    tbl.write_fragment(t2, "part1")
    v2 = tbl.commit(["frag-part1.parquet"])
    assert v2 == 2
    assert tbl.count_rows(version=1) == 3
    assert tbl.count_rows(version=2) == 4
    assert tbl.to_table()["a"].to_pylist() == [1, 2, 3, 4]
    # idempotent fragment write (resume path)
    tbl.write_fragment(pa.table({"a": [99], "b": ["q"]}), "part1")
    assert tbl.to_table()["a"].to_pylist() == [1, 2, 3, 4]


def test_generate_images_lance_resumable(tmp_path):
    root = str(tmp_path / "images")
    generate_images_lance(root, 25, rows_per_fragment=10)
    tbl = LanceLayoutTable(root)
    assert tbl.count_rows() == 25
    # rerun: no duplicate fragments, new version same rows
    generate_images_lance(root, 25, rows_per_fragment=10)
    assert tbl.count_rows() == 25


def test_synthweb_deterministic_and_crawlable():
    web = SynthWeb(num_hosts=4, base_pages=6, fanout=2)
    s1, _, b1 = web.get("http://host-0000.test/")
    s2, _, b2 = web.get("http://host-0000.test/")
    assert s1 == s2 == 200 and b1 == b2
    # image endpoint serves decodable bytes matching the table
    html = b1.decode()
    import re
    m = re.search(r'src="(/img/(\d+)\.(\w+))"', html)
    if m:
        _, _, blob = web.get("http://host-0000.test" + m.group(1))
        px = codecs.decode_image(blob)
        assert px.shape == (image_spec(int(m.group(2)))[1],
                            image_spec(int(m.group(2)))[0], 3)
    # unknown host raises (DNS-style error -> error-as-value upstream)
    with pytest.raises(ValueError):
        web.get("http://host-9999.test/")
    assert web.get("http://host-0000.test/page/99999")[0] == 404
    assert len(web.seed_urls()) == 4


def test_synthweb_oracle_crawl():
    from uniparser_ray import Uniparser
    from uniparser_ray.crawl.oracle import OracleCrawler
    from uniparser_ray.crawl.storage import JSONRuleStorage
    from uniparser_ray.rulevm.transport import SyntheticWebAdapter

    web = SynthWeb(num_hosts=2, base_pages=4, fanout=2, hot_factor=1.0)
    storage = JSONRuleStorage(**web.rule_pack())
    vm = Uniparser()
    vm.request_adapter = SyntheticWebAdapter(web)
    # crawl one page WITHOUT recursion (oracle with recursion would
    # revisit self-links forever; the distributed loop dedups via the
    # seen filter — the oracle-with-seen variant lives in crawl tests)
    rule = storage.find_crawler_rule("http://host-0000.test/")
    result = vm.crawl(rule, url="http://host-0000.test/")
    page = result["page"]
    assert page["title"] == "Page 0 of host-0000"
    for img in page["images"]:
        assert img["src"].startswith("/img/")
        assert img["caption"].startswith("a ")
    assert all(u.startswith("http://host-") for u in page["__request__"])


def test_images_shard_pack_prefix_sum(ray_session):
    """Distributed two-pass ordered prefix sum == single-process
    cumsum over the generator's sizes; packing invariants hold."""
    from uniparser_ray.pipelines.images_q import (expected_images_sizes,
                                                  images_shard_pack)
    got = images_shard_pack("/root/testdata/sf0.001") \
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    exp = expected_images_sizes("sf0.001").to_pandas()
    assert (got["image_id"].to_numpy() == exp["image_id"].to_numpy()).all()
    assert (got["nbytes"].to_numpy() == exp["nbytes"].to_numpy()).all()
    before = exp["nbytes"].cumsum().shift(fill_value=0).to_numpy()
    assert (got["shard"].to_numpy() == before // 262_144).all()
    # packing invariants: shards are contiguous from 0; each shard's
    # payload stays under budget + one max item (greedy bound)
    shards = got.groupby("shard")["nbytes"].sum()
    assert list(shards.index) == list(range(len(shards)))
    assert (shards.to_numpy()[:-1]
            <= 262_144 + exp["nbytes"].max()).all()


def test_images_aspect_buckets_argmin_and_gate(ray_session):
    """Bucket = integer-key argmin with list-order tie-break; quality
    gate flags extremes."""
    import numpy as np

    from uniparser_ray.pipelines.images_q import (_AR_SCALE,
                                                  ASPECT_BUCKETS,
                                                  images_aspect_buckets)
    got = images_aspect_buckets("/root/testdata/sf0.001").to_pandas()
    keys = np.array([(_AR_SCALE * n) // d for _, n, d in ASPECT_BUCKETS])
    names = [b[0] for b in ASPECT_BUCKETS]
    ar = got["ar_key"].to_numpy()
    want = np.argmin(np.abs(ar[:, None] - keys[None, :]), axis=1)
    assert (got["bucket"].to_numpy()
            == np.array(names, object)[want]).all()
    # gate: a 16px side or an out-of-band ratio is dropped
    small = got[(got.w < 32) | (got.h < 32)]
    assert len(small) and not small["keep"].any()
    wide = got[got.ar_key > 4_000_000]
    assert not wide["keep"].any()
    kept = got[got.keep]
    assert len(kept) and (kept.w >= 32).all() and (kept.h >= 32).all()


def test_images_bucket_shards_never_mix_ratios(ray_session):
    """Per-bucket packing: shard numbering restarts at 0 per bucket,
    packing order is image_id within bucket, shards never mix
    buckets."""
    from uniparser_ray.pipelines.images_q import images_bucket_shards
    got = images_bucket_shards("/root/testdata/sf0.001") \
        .to_pandas().sort_values(["bucket", "image_id"]) \
        .reset_index(drop=True)
    for _, g in got.groupby("bucket"):
        before = g["nbytes"].cumsum().shift(fill_value=0).to_numpy()
        assert (g["shard"].to_numpy() == before // 131_072).all()
        assert g["shard"].iloc[0] == 0
    # (bucket, shard) pairs are unique packing units: no shard id is
    # reused across buckets WITH different composition — i.e. each
    # row's unit is identified only by the pair, by construction
    assert got.groupby(["bucket", "shard"])["nbytes"].sum().gt(0).all()


def test_caption_align_stage_semantics(ray_session):
    """Alignment score = 64 - hamming(phash, caption simhash): the
    stage must equal a direct tokenhash recomputation, flag both ways
    at the default threshold, and score empty captions as simhash 0."""
    import numpy as np
    import pyarrow as pa

    from uniparser_ray.pipelines.images_q import (ALIGN_MAX_HAMMING,
                                                  CaptionAlignStage,
                                                  images_caption_align)
    from uniparser_ray.stages.dedup import popcount64
    from uniparser_ray.stages.tokenhash import (shingle_hashes,
                                                simhash_values)

    # direct stage call on a constructed batch incl. an empty caption
    batch = pa.table({
        "image_id": pa.array(["a", "b", "c"], pa.string()),
        "caption": pa.array(["red square on white field", "", "solo"],
                            pa.string()),
        "phash": pa.array([123456789, -42, 0], pa.int64())})
    out = CaptionAlignStage()(batch).to_pandas()
    sh, counts = shingle_hashes(batch["caption"].to_pylist(), 3)
    sim = simhash_values(sh, counts)
    ph = np.array([123456789, -42, 0], np.int64).view(np.uint64)
    want_ham = popcount64(sim ^ ph)
    assert out["hamming"].tolist() == want_ham.tolist()
    assert out.loc[1, "cap_simhash"] == 0          # empty caption
    assert (out["aligned"] ==
            (out["hamming"] <= ALIGN_MAX_HAMMING).astype("int64")).all()

    # pipeline over the synthetic table: threshold splits non-trivially
    full = images_caption_align("/root/testdata/sf0.001").to_pandas()
    assert set(full["aligned"].unique()) == {0, 1}
    assert len(full) == 300


def test_wet_write_parse_roundtrip(tmp_path):
    """WET record framing survives adversarial payloads: CRLF and
    blank lines INSIDE a record body (Content-Length framing must not
    split on them), empty bodies, unicode, and idempotent rewrite."""
    from uniparser_ray.sources.warc import parse_wet, write_wet_fragment

    rows = [
        ("http://a.test/1", 200, "plain"),
        ("http://a.test/2", 200, "has\r\n\r\ninner blank line"),
        ("http://a.test/3", 404, ""),
        ("http://a.test/4", 200, "unicodé ✓ 中文"),
        ("http://a.test/5", -1, "WARC/1.0\r\nfake header soup"),
    ]
    p = str(tmp_path / "t.warc")
    write_wet_fragment(iter(rows), p)
    got = list(parse_wet(open(p, "rb").read()))
    assert got == rows
    # idempotent: a second write keeps the existing file
    write_wet_fragment(iter([("http://x/", 200, "other")]), p)
    assert list(parse_wet(open(p, "rb").read())) == rows


def test_bytes_dedup_exact_groups(ray_session, tmp_path):
    """Byte-level exact dedup on a constructed Lance table WITH real
    duplicate payloads: identical bytes collapse to one keeper (min
    image_id), dup_count counts the group, distinct bytes keep
    themselves — the positive path the crawl's URL-seen dedup never
    produces on the synthetic web."""
    from uniparser_ray.pipelines.images_q import _bytes_dedup

    blob_a, blob_b = b"\x89PNGfakepayloadA", b"BMfakepayloadB"
    t = pa.table({
        "image_id": ["img-3", "img-1", "img-2", "img-4"],
        "bytes": [blob_a, blob_a, blob_b, blob_a]})
    tbl = LanceLayoutTable(str(tmp_path / "tbl"))
    f0 = tbl.write_fragment(t.slice(0, 2), "p0")
    f1 = tbl.write_fragment(t.slice(2, 2), "p1")
    tbl.commit([f0, f1])

    got = _bytes_dedup(tbl).to_pandas() \
        .sort_values("image_id").reset_index(drop=True)
    assert got["image_id"].tolist() == ["img-1", "img-2", "img-3",
                                        "img-4"]
    assert got["keeper_id"].tolist() == ["img-1", "img-2", "img-1",
                                         "img-1"]
    assert got["dup_count"].tolist() == [3, 1, 3, 3]
    assert got["keep"].tolist() == [1, 1, 0, 0]


def test_images_phash_ann_knn(ray_session):
    """Binary-code visual KNN invariants: every probe is an md5-residue
    sample member, a probe is never its own neighbor, ranks are 1..k
    ordered by (hamming asc, neighbor_id asc), and each probe's rank-1
    hamming equals the true minimum xor-popcount over all OTHER
    images (brute-force numpy check)."""
    import numpy as np

    from uniparser_ray.pipelines.images_q import (PHASH_ANN_K,
                                                  PHASH_ANN_QUERY_MOD,
                                                  images_lance_for,
                                                  images_phash_ann)
    from uniparser_ray.stages.dedup import popcount64
    from uniparser_ray.stages.sketches import hash31

    got = images_phash_ann("/root/testdata/sf0.001").to_pandas()
    assert len(got)
    assert (got["query_id"] != got["neighbor_id"]).all()
    assert ((hash31(got["query_id"].to_numpy(object))
             % PHASH_ANN_QUERY_MOD) == 0).all()
    for _, g in got.sort_values(["query_id", "rank"]).groupby("query_id"):
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        assert len(g) <= PHASH_ANN_K
        assert (np.diff(g["hamming"].to_numpy()) >= 0).all()

    meta = images_lance_for("/root/testdata/sf0.001") \
        .read_dataset(columns=["image_id", "phash"]).to_pandas()
    ph = meta["phash"].to_numpy(np.int64).view(np.uint64)
    ids = meta["image_id"].to_numpy(object)
    top1 = got[got["rank"] == 1].set_index("query_id")["hamming"]
    for qid, want in top1.items():
        q = np.where(ids == qid)[0][0]
        ham = popcount64(np.uint64(ph[q]) ^ ph)
        ham[q] = 65
        assert want == ham.min()


def test_images_hard_negatives_mining(ray_session):
    """Hard-negative mining invariants on the synthetic crawl table:
    every anchor is an md5-residue sample member, its own caption
    never appears among its negatives, ranks are 1..k ordered by
    (hamming asc, neg_image_id asc), and each anchor's rank-1 hamming
    equals the true minimum over all OTHER captions (brute-force
    numpy check)."""
    import numpy as np

    from uniparser_ray.pipelines.images_q import (HARDNEG_ANCHOR_MOD,
                                                  HARDNEG_K,
                                                  images_hard_negatives,
                                                  images_lance_for)
    from uniparser_ray.stages.dedup import popcount64
    from uniparser_ray.stages.sketches import hash31
    from uniparser_ray.stages.tokenhash import shingle_hashes, simhash_values

    got = images_hard_negatives("/root/testdata/sf0.001").to_pandas()
    assert (got["anchor_id"] != got["neg_image_id"]).all()
    assert ((hash31(got["anchor_id"].to_numpy(object))
             % HARDNEG_ANCHOR_MOD) == 0).all()
    per = got.sort_values(["anchor_id", "rank"]).groupby("anchor_id")
    for _, g in per:
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        assert len(g) <= HARDNEG_K
        h = g["hamming"].to_numpy()
        assert (np.diff(h) >= 0).all()

    # brute-force rank-1 check
    meta = images_lance_for("/root/testdata/sf0.001") \
        .read_dataset(columns=["image_id", "caption", "phash"]).to_pandas()
    sh, counts = shingle_hashes(meta["caption"].tolist(), 3)
    sim = simhash_values(sh, counts)
    ph = meta["phash"].to_numpy(np.int64).view(np.uint64)
    ids = meta["image_id"].to_numpy(object)
    top1 = got[got["rank"] == 1].set_index("anchor_id")["hamming"]
    for aid, want in top1.items():
        a = np.where(ids == aid)[0][0]
        ham = popcount64(np.uint64(ph[a]) ^ sim)
        ham[a] = 65
        assert want == ham.min()


def test_wds_write_parse_roundtrip(tmp_path):
    """WebDataset tar framing survives adversarial payloads: binary
    bytes that look like tar noise, empty images, empty + unicode
    captions, keys with dots (rpartition must split on the LAST dot),
    deterministic rewrite bytes, and idempotent rewrite."""
    from uniparser_ray.sources.wds import parse_wds, write_wds_shard

    rows = [
        ("img-0", b"\x00" * 600, "plain caption"),
        ("img-1.v2", b"ustar\x00fake tar magic", ""),
        ("img-2", b"", "unicodé ✓ 中文"),
        ("img-3", bytes(range(256)) * 3, "trailing spaces   "),
    ]
    p = str(tmp_path / "s.tar")
    write_wds_shard(iter(rows), p)
    blob1 = open(p, "rb").read()
    got = list(parse_wds(blob1, "s"))
    assert got == [(k, b, c, "s") for k, b, c in rows]
    # deterministic: rewrite produces byte-identical shard
    write_wds_shard(iter(rows), str(tmp_path / "s2.tar"))
    assert open(tmp_path / "s2.tar", "rb").read() == blob1
    # idempotent: a second write keeps the existing file
    write_wds_shard(iter([("x", b"other", "o")]), p)
    assert list(parse_wds(open(p, "rb").read(), "s")) == got


def test_wds_export_matches_fragments(ray_session, tmp_path):
    """export_wds writes one shard per Lance fragment and read_wds
    recovers every (key, bytes, caption) with the right shard id."""
    import pyarrow as pa

    from uniparser_ray.sources.wds import export_wds, read_wds, shard_name
    from uniparser_ray.storage.lance_layout import LanceLayoutTable

    t = LanceLayoutTable(str(tmp_path / "tbl"))
    frags = []
    for i in range(3):
        tab = pa.table({
            "image_id": [f"i{i}-{j}" for j in range(4)],
            "bytes": pa.array([bytes([i, j]) * (j + 1) for j in range(4)],
                              pa.large_binary()),
            "caption": [f"cap {i} {j}" for j in range(4)]})
        frags.append(t.write_fragment(tab, f"part-{i}"))
    t.commit(frags)

    paths = export_wds(t, str(tmp_path / "wds"))
    assert len(paths) == 3
    assert sorted(shard_name(f) for f in t.fragment_files()) == \
        sorted(p.rsplit("/", 1)[1][:-4] for p in paths)

    rows = sorted(read_wds(paths).take_all(), key=lambda r: r["image_id"])
    assert len(rows) == 12
    for r in rows:
        i, j = map(int, r["image_id"][1:].split("-"))
        assert r["bytes"] == bytes([i, j]) * (j + 1)
        assert r["caption"] == f"cap {i} {j}"
        assert r["shard"] == f"part-{i}"
