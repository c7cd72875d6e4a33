"""Pure-stdlib image codecs: PPM (P6), BMP (24-bit), PNG (RGB8) — all
lossless — plus QPX, a real LOSSY codec (6-bit quantization, 6:8
packing).

No PIL in the sandbox, so the multimodal column (``bytes`` holding an
encoded image) is backed by these codecs.  Losslessness makes the
per-row conformance invariant ("decoded-pixel allclose, PSNR>=40dB for
lossy") hold as exact equality for the default rotation; QPX exercises
the PSNR>=40dB branch for real (images_psnr_audit + the lossy-web
crawl conformance test).

All codecs are numpy-vectorized: pixels are ``uint8`` arrays of shape
(h, w, 3).  PNG uses zlib with filter type 0 on every scanline (we
decode all filter types 0-4 for robustness against foreign files).
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# PPM (P6 binary)
# ---------------------------------------------------------------------------


def encode_ppm(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    # header: magic, width, height, maxval — whitespace/comment separated
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only maxval=255 supported")
    return np.frombuffer(data, np.uint8, count=w * h * 3, offset=pos).reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# BMP (BITMAPINFOHEADER, 24bpp, bottom-up)
# ---------------------------------------------------------------------------


def encode_bmp(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    row_size = (w * 3 + 3) & ~3
    padded = np.zeros((h, row_size), np.uint8)
    bgr = pixels[::-1, :, ::-1]  # bottom-up rows, BGR channel order
    padded[:, :w * 3] = bgr.reshape(h, w * 3)
    body = padded.tobytes()
    file_size = 54 + len(body)
    header = struct.pack("<2sIHHI", b"BM", file_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0)
    return header + info + body


def decode_bmp(data: bytes) -> np.ndarray:
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    offset = struct.unpack_from("<I", data, 10)[0]
    header_size = struct.unpack_from("<I", data, 14)[0]
    if header_size < 40:
        raise ValueError("unsupported BMP header")
    w, h = struct.unpack_from("<ii", data, 18)
    bpp = struct.unpack_from("<H", data, 28)[0]
    if bpp != 24:
        raise ValueError("only 24bpp BMP supported")
    bottom_up = h > 0
    h = abs(h)
    row_size = (w * 3 + 3) & ~3
    rows = np.frombuffer(data, np.uint8, count=h * row_size, offset=offset).reshape(h, row_size)
    bgr = rows[:, :w * 3].reshape(h, w, 3)
    if bottom_up:
        bgr = bgr[::-1]
    return bgr[:, :, ::-1].copy()


# ---------------------------------------------------------------------------
# PNG (RGB8, zlib)
# ---------------------------------------------------------------------------


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def encode_png(pixels: np.ndarray, level: int = 1) -> bytes:
    h, w, _ = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit RGB
    # filter byte 0 prepended to each scanline
    raw = np.empty((h, 1 + w * 3), np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = pixels.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), level)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat)
            + _png_chunk(b"IEND", b""))


def decode_png(data: bytes) -> np.ndarray:
    if not data.startswith(_PNG_SIG):
        raise ValueError("not a PNG")
    pos = 8
    idat = []
    w = h = None
    bit_depth = color_type = None
    while pos < len(data):
        length, tag = struct.unpack_from(">I4s", data, pos)
        payload = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bit_depth, color_type = struct.unpack_from(">IIBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if bit_depth != 8 or color_type != 2:
        raise ValueError("only 8-bit RGB PNG supported")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    raw = raw.reshape(h, 1 + w * 3)
    filters = raw[:, 0]
    if filters.max(initial=0) > 4:
        raise ValueError(f"bad PNG filter {filters.max()}")
    # filter-0 rows (all of them in files encode_png writes) are the raw
    # bytes; the rest are undone top-down, each from its finished
    # predecessor
    out = raw[:, 1:].copy()
    bpp = 3
    for y in np.flatnonzero(filters).tolist():
        f = filters[y]
        line = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y else np.zeros(w * 3, np.int32)
        if f == 1:  # Sub: a running sum per channel
            cur = np.cumsum(line.reshape(w, bpp), axis=0).reshape(-1)
        elif f == 2:  # Up
            cur = line + prev
        else:
            cur = line.copy()
            for x in range(w * 3):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                if f == 3:  # Average
                    cur[x] = (line[x] + ((a + b) >> 1)) & 0xFF
                else:  # Paeth
                    c = prev[x - bpp] if x >= bpp else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                    cur[x] = (line[x] + pred) & 0xFF
        out[y] = cur & 0xFF
    return out.reshape(h, w, 3)


# ---------------------------------------------------------------------------
# QPX — the LOSSY codec (6-bit uniform quantization, 6:8 bit packing)
# ---------------------------------------------------------------------------
#
# The conformance rule reads "decoded-pixel allclose, PSNR>=40dB for
# LOSSY formats" — with only lossless codecs that clause is vacuous,
# so QPX makes it real: each 8-bit sample is quantized to 6 bits
# (step 4, midpoint reconstruction -> per-sample error in {-2..1},
# MSE 1.5, PSNR ~46.4 dB — genuinely lossy yet above the 40 dB bar)
# and four 6-bit samples pack into three bytes (a true 25% size cut).
# Layout: b"QPX1" + >HH (w, h) + packed samples, zero-padded to a
# multiple of 4 samples.  Deterministic: encode(decode(encode(px)))
# == encode(px) (quantization is idempotent).

_QPX_MAGIC = b"QPX1"


def encode_qpx(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    flat = (pixels.reshape(-1).astype(np.uint32)) >> 2
    pad = (-len(flat)) % 4
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, np.uint32)])
    g = flat.reshape(-1, 4)
    word = (g[:, 0] << 18) | (g[:, 1] << 12) | (g[:, 2] << 6) | g[:, 3]
    out = np.empty((len(word), 3), np.uint8)
    out[:, 0] = word >> 16
    out[:, 1] = (word >> 8) & 0xFF
    out[:, 2] = word & 0xFF
    return _QPX_MAGIC + struct.pack(">HH", w, h) + out.tobytes()


def decode_qpx(data: bytes) -> np.ndarray:
    if not data.startswith(_QPX_MAGIC):
        raise ValueError("not a QPX image")
    w, h = struct.unpack_from(">HH", data, 4)
    n = w * h * 3
    groups = -(-n // 4)
    raw = np.frombuffer(data, np.uint8, count=groups * 3, offset=8) \
        .reshape(groups, 3).astype(np.uint32)
    word = (raw[:, 0] << 16) | (raw[:, 1] << 8) | raw[:, 2]
    q = np.stack([(word >> 18) & 0x3F, (word >> 12) & 0x3F,
                  (word >> 6) & 0x3F, word & 0x3F], axis=1).reshape(-1)[:n]
    return ((q << 2) + 2).astype(np.uint8).reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# dispatch + perceptual hash
# ---------------------------------------------------------------------------

_ENCODERS = {"ppm": encode_ppm, "bmp": encode_bmp, "png": encode_png,
             "qpx": encode_qpx}
_DECODERS = {"ppm": decode_ppm, "bmp": decode_bmp, "png": decode_png,
             "qpx": decode_qpx}
FORMATS = ("ppm", "bmp", "png")     # the lossless rotation (image_spec)
LOSSY_FORMATS = ("qpx",)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    return _ENCODERS[fmt](pixels)


def decode_image(data: bytes, fmt: str = None) -> np.ndarray:
    if fmt:
        return _DECODERS[fmt](data)
    if data.startswith(_PNG_SIG):
        return decode_png(data)
    if data.startswith(b"BM"):
        return decode_bmp(data)
    if data.startswith(b"P6"):
        return decode_ppm(data)
    if data.startswith(_QPX_MAGIC):
        return decode_qpx(data)
    raise ValueError("unknown image format")


# grayscale of a uint8 RGB pixel by its channel sum: the mean of three
# exact float32 integers is float32(sum) / 3, correctly rounded, so this
# table equals ``astype(float32).mean(axis=2)`` for every sum 0..765
_GRAY_OF_SUM = np.arange(766, dtype=np.float32) / np.float32(3)


def _hash_side(n: int) -> list:
    """The 8 block bands of one image side, grouped by width: per width,
    (width, the bands' numbers, the indices that gather them band by
    band).  Band edges are n*k//8, each band at least one index wide
    and clipped to the side (a 1-px side leaves empty bands past it)."""
    e = (np.arange(9) * n // 8).clip(1, n).tolist()
    e[0] = 0
    by_width: dict = {}
    for i in range(8):
        lo, hi = min(e[i], n), min(max(e[i + 1], e[i] + 1), n)
        by_width.setdefault(hi - lo, []).append((i, lo))
    return [(width, [i for i, _ in bands],
             np.array([lo + k for _, lo in bands for k in range(width)],
                      np.intp))
            for width, bands in by_width.items()]


@lru_cache(maxsize=256)
def _hash_plan(h: int, w: int):
    """Gather plan of the 64 average-hash blocks of an (h, w) image, one
    entry per block size: the blocks' flat 8x8 positions, the row and
    column indices that gather them, the gathered shape and the block
    size.  Also the positions of empty blocks, or None."""
    plan, empty = [], []
    col_side = _hash_side(w)
    for nr, rs, rows in _hash_side(h):
        for nc, cs, cols in col_side:
            pos = np.array([i * 8 + j for i in rs for j in cs], np.intp)
            if nr * nc:
                plan.append((pos, rows, cols, (len(rs), nr, len(cs), nc),
                             np.intp(nr * nc)))
            else:
                empty.append(pos)
    return plan, (np.concatenate(empty) if empty else None)


def average_hash64(pixels: np.ndarray) -> int:
    """64-bit average-hash: grayscale -> 8x8 block means -> bits above
    the global mean, packed MSB-first.  Deterministic, documented; the
    signed-int64 twin of the table's ``phash`` column."""
    gray = _GRAY_OF_SUM.take(pixels[..., 0].astype(np.uint16)
                             + pixels[..., 1] + pixels[..., 2])
    plan, empty = _hash_plan(*gray.shape)
    small = np.empty(64, np.float32)
    # each block is gathered into one contiguous row, and one float32
    # add.reduce per block size sums every row in the same buffered
    # pairwise order np.mean uses on a block view (a reshape-mean of
    # the block would sum in another order and flip exact ties); the
    # division by an intp count is np.mean's own.  A 1-px side leaves
    # empty blocks, NaN as np.mean gives them
    for pos, rows, cols, shape, n in plan:
        blocks = gray.take(rows, axis=0).take(cols, axis=1).reshape(shape)
        small[pos] = np.add.reduce(
            blocks.transpose(0, 2, 1, 3).reshape(len(pos), -1), axis=1) / n
    if empty is not None:
        small[empty] = np.nan
    bits = small > small.mean()
    # MSB-first pack (np.packbits default bitorder) — value-identical
    # to the shift-or loop it replaced, without 64 python iterations
    val = int.from_bytes(np.packbits(bits).tobytes(), "big")
    # wrap to signed int64 range for the Arrow column
    return val - (1 << 64) if val >= (1 << 63) else val


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio (dB) between two uint8 pixel arrays —
    the per-row conformance metric for lossy codecs ("decoded-pixel
    allclose, PSNR>=40dB").  Identical arrays -> +inf.  Shape mismatch
    is a hard fail (conformance requires identical dimensions)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10((255.0 ** 2) / mse)
