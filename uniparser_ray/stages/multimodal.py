"""Multimodal actor-pool stages: audio decode/feature-extract and
video frame-sampling over opaque ``binary`` columns.

The real codec libraries (soundfile / PyAV / ffmpeg) are not in this
container, so the *codec* is pluggable per-actor state: each stage
tries the real library in ``__init__`` and otherwise falls back to a
deterministic stub decoder (or raises ``NotImplementedError`` when
``strict=True``).  Everything Ray-side is real and tested — schema,
actor signature, batch sizing, output layout — so swapping the codec
in is a one-line change.

Layout conventions (the image table's conventions extended):

* audio row:  (clip_id:string, bytes:binary, sample_rate:int32,
               n_samples:int32, fmt:string)
* video row:  (video_id:string, bytes:binary, n_frames:int32,
               w:int32, h:int32, fps:float32, fmt:string)

Batches must stay SMALL for these stages (payloads are large binaries)
— callers pass ``batch_size<=64`` and ``num_cpus=1``; the helper
functions below bake those defaults in.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

AUDIO_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("bytes", pa.binary()),
    ("sample_rate", pa.int32()),
    ("n_samples", pa.int32()),
    ("fmt", pa.string()),
])

VIDEO_SCHEMA = pa.schema([
    ("video_id", pa.string()),
    ("bytes", pa.binary()),
    ("n_frames", pa.int32()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fps", pa.float32()),
    ("fmt", pa.string()),
])


def _stub_pcm(blob: bytes, n_samples: int) -> np.ndarray:
    """Deterministic fake decode: the blob IS little-endian int16 PCM
    (that is how the synthetic generator encodes it), so the stub is a
    real decoder for the 'pcm16' fmt and a placeholder for others."""
    pcm = np.frombuffer(blob, dtype="<i2", count=n_samples)
    return pcm.astype(np.float32) / 32768.0


def _synth_audio_pcm(i: int, seed: int = 42,
                     sample_rate: int = 8000) -> np.ndarray:
    """Quantized int16 samples of clip i (pre-byte-encoding)."""
    rng = np.random.default_rng(seed * 1_000_003 + i)
    n = int(sample_rate * (0.25 + (i % 8) * 0.125))
    t = np.arange(n, dtype=np.float32) / sample_rate
    freq = 110.0 * (1 + (i % 12))
    wave = (0.5 * np.sin(2 * np.pi * freq * t)
            + 0.05 * rng.standard_normal(n).astype(np.float32))
    return np.clip(wave * 32767.0, -32768, 32767).astype("<i2")


def synth_audio_table(n_clips: int, seed: int = 42,
                      sample_rate: int = 8000) -> pa.Table:
    """Deterministic synthetic audio table (pcm16 sine+noise clips)."""
    ids, blobs, srs, ns, fmts = [], [], [], [], []
    for i in range(n_clips):
        pcm = _synth_audio_pcm(i, seed, sample_rate)
        ids.append(f"clip-{i:08d}")
        blobs.append(pcm.tobytes())
        srs.append(sample_rate)
        ns.append(len(pcm))
        fmts.append("pcm16")
    return pa.Table.from_arrays([
        pa.array(ids, pa.string()), pa.array(blobs, pa.binary()),
        pa.array(srs, pa.int32()), pa.array(ns, pa.int32()),
        pa.array(fmts, pa.string())], schema=AUDIO_SCHEMA)


def expected_audio_features(n_clips: int, seed: int = 42,
                            sample_rate: int = 8000) -> pa.Table:
    """Oracle-side expected feature rows, computed from the quantized
    sample arrays directly (never byte-encoded): a mismatch against
    the pipeline isolates the pcm16 bytes round trip."""
    rows = []
    for i in range(n_clips):
        x = _synth_audio_pcm(i, seed, sample_rate).astype(np.float32) \
            / 32768.0
        d, r, z, p = audio_feature_values(x, sample_rate)
        rows.append({"clip_id": f"clip-{i:08d}", "duration_s": d,
                     "rms": r, "zcr": z, "peak": p})
    return pa.Table.from_pylist(rows)


def audio_feature_values(x: np.ndarray, sample_rate: int) -> tuple:
    """(duration_s, rms, zcr, peak) of a float sample array — shared
    by the decode stage and the generator-side expected builder, so a
    value mismatch isolates the bytes round trip."""
    sr = max(sample_rate, 1)
    return (round(len(x) / sr, 6),
            round(float(np.sqrt(np.mean(x * x))), 6),
            round(float(np.mean(np.abs(np.diff(np.sign(x))) > 0)), 6),
            round(float(np.max(np.abs(x))), 6))


class AudioFeatureStage:
    """Actor-pool stage: decode audio -> per-clip features
    (duration, RMS, zero-crossing rate, peak).

    ``__init__`` resolves the decoder ONCE per actor: the real
    ``soundfile`` backend when importable, else the pcm16 stub
    (``strict=True`` raises instead of stubbing non-pcm16 formats).
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        try:  # pragma: no cover - library absent in this container
            import soundfile
            self._lib = soundfile
        except ImportError:
            self._lib = None

    def _decode(self, blob: bytes, fmt: str, n_samples: int) -> np.ndarray:
        if fmt == "pcm16":
            return _stub_pcm(blob, n_samples)
        if self._lib is not None:  # pragma: no cover
            import io
            data, _sr = self._lib.read(io.BytesIO(blob))
            return np.asarray(data, np.float32)
        if self.strict:
            raise NotImplementedError(
                f"no decoder for audio fmt={fmt!r} (soundfile not "
                "installed); install soundfile or use fmt='pcm16'")
        # deterministic placeholder keyed by content hash
        h = int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
        rng = np.random.default_rng(h)
        return rng.standard_normal(max(n_samples, 1)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, feats = [], []
        for row in batch.to_pylist():
            x = self._decode(row["bytes"], row["fmt"], row["n_samples"])
            ids.append(row["clip_id"])
            feats.append(audio_feature_values(x, row["sample_rate"]))
        dur, rms, zcr, peak = (list(t) for t in zip(*feats)) if feats else \
            ([], [], [], [])
        return pa.Table.from_arrays([
            pa.array(ids, pa.string()), pa.array(dur, pa.float64()),
            pa.array(rms, pa.float64()), pa.array(zcr, pa.float64()),
            pa.array(peak, pa.float64())],
            names=["clip_id", "duration_s", "rms", "zcr", "peak"])


class VideoFrameSampleStage:
    """Actor-pool stage: sample ``k`` evenly-spaced frames per video
    and emit one ROW PER FRAME (explode) with the frame re-encoded as
    PPM — the shape a caption/embedding model stage consumes.

    The container has no video codec; 'rawrgb' fmt (the synthetic
    generator's: concatenated H*W*3 uint8 frames) is decoded for real,
    other formats stub (or raise when ``strict=True``).  A deployment
    swaps ``self._decode_frames`` for a PyAV/ffmpeg reader in
    ``__init__`` — nothing else changes.
    """

    def __init__(self, k: int = 4, strict: bool = False):
        self.k = k
        self.strict = strict
        try:  # pragma: no cover
            import av
            self._lib = av
        except ImportError:
            self._lib = None

    def _decode_frames(self, row: dict) -> np.ndarray:
        h, w, n = row["h"], row["w"], row["n_frames"]
        if row["fmt"] == "rawrgb":
            return np.frombuffer(row["bytes"], np.uint8,
                                 count=n * h * w * 3).reshape(n, h, w, 3)
        if self._lib is not None:  # pragma: no cover
            raise NotImplementedError("PyAV path not exercised in sandbox")
        if self.strict:
            raise NotImplementedError(
                f"no decoder for video fmt={row['fmt']!r} (PyAV not "
                "installed); use fmt='rawrgb'")
        hsh = int.from_bytes(hashlib.sha256(row["bytes"]).digest()[:8],
                             "little")
        rng = np.random.default_rng(hsh)
        return rng.integers(0, 256, (n, h, w, 3), dtype=np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources.codecs import encode_ppm
        vids, idxs, blobs, ts = [], [], [], []
        for row in batch.to_pylist():
            frames = self._decode_frames(row)
            n = frames.shape[0]
            k = min(self.k, n)
            picks = np.linspace(0, n - 1, k).round().astype(int)
            fps = max(float(row["fps"]), 1e-6)
            for j in picks:
                vids.append(row["video_id"])
                idxs.append(int(j))
                blobs.append(encode_ppm(frames[j]))
                ts.append(round(j / fps, 6))
        return pa.Table.from_arrays([
            pa.array(vids, pa.string()), pa.array(idxs, pa.int32()),
            pa.array(blobs, pa.binary()), pa.array(ts, pa.float64())],
            names=["video_id", "frame_index", "frame_ppm", "t_seconds"])


def _synth_video_frames(i: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed * 999_983 + i)
    n, h, w = 6 + (i % 5), 16, 16
    return rng.integers(0, 256, (n, h, w, 3), dtype=np.uint8)


def synth_video_table(n_videos: int, seed: int = 7) -> pa.Table:
    ids, blobs, nfs, ws, hs, fps, fmts = [], [], [], [], [], [], []
    for i in range(n_videos):
        frames = _synth_video_frames(i, seed)
        n, h, w, _ = frames.shape
        ids.append(f"vid-{i:08d}")
        blobs.append(frames.tobytes())
        nfs.append(n)
        ws.append(w)
        hs.append(h)
        fps.append(8.0)
        fmts.append("rawrgb")
    return pa.Table.from_arrays([
        pa.array(ids, pa.string()), pa.array(blobs, pa.binary()),
        pa.array(nfs, pa.int32()), pa.array(ws, pa.int32()),
        pa.array(hs, pa.int32()), pa.array(fps, pa.float32()),
        pa.array(fmts, pa.string())], schema=VIDEO_SCHEMA)


def expected_video_frames(n_videos: int, k: int = 3,
                          seed: int = 7) -> pa.Table:
    """Oracle-side expected frame rows (frame bytes as md5 of the PPM
    encoding), computed from the generator's source frame arrays —
    independent of the rawrgb blob decode the pipeline performs."""
    from ..sources.codecs import encode_ppm
    rows = []
    for i in range(n_videos):
        frames = _synth_video_frames(i, seed)
        n = frames.shape[0]
        kk = min(k, n)
        picks = np.linspace(0, n - 1, kk).round().astype(int)
        for j in picks:
            rows.append({
                "video_id": f"vid-{i:08d}", "frame_index": int(j),
                "frame_md5": hashlib.md5(
                    encode_ppm(frames[j])).hexdigest(),
                "t_seconds": round(j / 8.0, 6)})
    return pa.Table.from_pylist(rows)


def audio_features(ds):
    """Dataset of AUDIO_SCHEMA rows -> per-clip features.

    Task form via the warm-worker cache, not an actor pool: the stage's
    state is a flag, and a pool pays spin-up per execution (plus Ray's
    min-actor / constructor-args-in-object-store warnings on small
    inputs).  A real codec with heavy model state would switch back to
    ``map_batches(Cls, concurrency=...)``."""
    from .taskcache import cached_stage
    return ds.map_batches(cached_stage(AudioFeatureStage),
                          batch_format="pyarrow", batch_size=64)


def video_frame_samples(ds, k: int = 4):
    """Dataset of VIDEO_SCHEMA rows -> one row per sampled frame (task
    form — see audio_features)."""
    from .taskcache import cached_stage
    return ds.map_batches(cached_stage(VideoFrameSampleStage, k=k),
                          batch_format="pyarrow", batch_size=16)


def _synth_shot_frames(i: int, seed: int = 11) -> tuple:
    """Deterministic SHOT-STRUCTURED clip: 2-4 shots, each a random
    base frame with a tiny intra-shot wobble (+2/frame on one channel,
    clipped — SAD <= 512), so consecutive-frame SAD separates crisply
    from cross-shot SAD (~65k for 16x16x3 random bases).  Returns
    (frames uint8[n,16,16,3], shot_lens list)."""
    rng = np.random.default_rng(seed * 1_000_003 + i)
    n_shots = 2 + (i % 3)
    shot_lens = [2 + int(rng.integers(0, 3)) for _ in range(n_shots)]
    frames = []
    for ln in shot_lens:
        base = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        for j in range(ln):
            f = base.copy()
            f[..., 0] = np.minimum(f[..., 0].astype(np.int32) + 2 * j,
                                   255).astype(np.uint8)
            frames.append(f)
    return np.stack(frames), shot_lens


def synth_shot_video_table(n_videos: int, seed: int = 11) -> pa.Table:
    """Shot-structured synthetic videos in the VIDEO_SCHEMA layout."""
    ids, blobs, nfs, ws, hs, fps, fmts = [], [], [], [], [], [], []
    for i in range(n_videos):
        frames, _ = _synth_shot_frames(i, seed)
        n, h, w, _c = frames.shape
        ids.append(f"shot-{i:08d}")
        blobs.append(frames.tobytes())
        nfs.append(n)
        ws.append(w)
        hs.append(h)
        fps.append(8.0)
        fmts.append("rawrgb")
    return pa.Table.from_arrays([
        pa.array(ids, pa.string()), pa.array(blobs, pa.binary()),
        pa.array(nfs, pa.int32()), pa.array(ws, pa.int32()),
        pa.array(hs, pa.int32()), pa.array(fps, pa.float32()),
        pa.array(fmts, pa.string())], schema=VIDEO_SCHEMA)


def shot_rows_from_frames(frames: np.ndarray, threshold: int):
    """Per-frame (sad, is_boundary, shot_id) from a clip's frame
    stack — integer SAD (sum of absolute per-pixel diffs to the
    previous frame), one vectorized diff over the whole clip.  Frame 0
    has sad 0 and starts shot 0."""
    n = frames.shape[0]
    sad = np.zeros(n, np.int64)
    if n > 1:
        d = np.abs(frames[1:].astype(np.int64)
                   - frames[:-1].astype(np.int64))
        sad[1:] = d.sum(axis=(1, 2, 3))
    bound = (sad > threshold).astype(np.int64)
    bound[0] = 0
    shot = np.cumsum(bound)
    return sad, bound, shot


class VideoShotStage(VideoFrameSampleStage):
    """Shot-boundary detection + keyframe flag: decode (rawrgb real,
    other codecs stub exactly as the frame sampler), one vectorized
    SAD pass per clip, emit one row per frame.  The keyframe a
    training pipeline would caption/encode is each shot's FIRST frame
    (``is_keyframe``); integer SAD makes every output value exact, so
    the VALUES oracle (built from the generator's SOURCE arrays, an
    independent path) hash-matches through the byte decode."""

    def __init__(self, threshold: int = 5000, strict: bool = False):
        super().__init__(strict=strict)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids, idxs, sads, bnds, shots, keys = [], [], [], [], [], []
        for row in batch.to_pylist():
            frames = self._decode_frames(row)
            sad, bound, shot = shot_rows_from_frames(frames,
                                                     self.threshold)
            n = len(sad)
            vids += [row["video_id"]] * n
            idxs += list(range(n))
            sads += sad.tolist()
            bnds += bound.tolist()
            shots += shot.tolist()
            first = np.concatenate([[1], bound[1:]])
            keys += first.tolist()
        return pa.Table.from_arrays([
            pa.array(vids, pa.string()), pa.array(idxs, pa.int64()),
            pa.array(sads, pa.int64()), pa.array(bnds, pa.int64()),
            pa.array(shots, pa.int64()), pa.array(keys, pa.int64())],
            names=["video_id", "frame_index", "sad", "is_boundary",
                   "shot_id", "is_keyframe"])


def expected_shot_rows(n_videos: int, threshold: int = 5000,
                       seed: int = 11) -> pa.Table:
    """Oracle-side expected shot rows.  The boundary / shot_id /
    keyframe columns come STRUCTURALLY from the generator's shot_lens
    (fully independent of any pixel math); sad is recomputed from the
    source frame arrays (proving the pipeline's byte decode).  The
    structural and SAD-derived boundaries must agree — asserted here,
    so a drifting threshold fails loudly at oracle-build time."""
    rows = []
    for i in range(n_videos):
        frames, shot_lens = _synth_shot_frames(i, seed)
        sad, bound, shot = shot_rows_from_frames(frames, threshold)
        starts = np.cumsum([0] + shot_lens[:-1])
        struct_bound = np.zeros(len(sad), np.int64)
        struct_bound[starts[1:]] = 1
        assert (bound == struct_bound).all(), (i, bound, shot_lens)
        for j in range(len(sad)):
            rows.append({
                "video_id": f"shot-{i:08d}", "frame_index": j,
                "sad": int(sad[j]), "is_boundary": int(bound[j]),
                "shot_id": int(shot[j]),
                "is_keyframe": int(j == 0 or bound[j])})
    return pa.Table.from_pylist(rows)


VAD_WINDOW = 160          # 20 ms @ 8 kHz
VAD_THRESHOLD = 100_000   # per-window sum(|int16 sample|)


def _synth_segmented_pcm(i: int, seed: int = 23) -> tuple:
    """Deterministic VAD-STRUCTURED clip: alternating silence (tiny
    ±40 dither, window energy <= 6,400) and tone (±(12k..16k) square,
    window energy >= 1.9M) segments, each a whole number of 20 ms
    windows so structural boundaries align with the analysis grid.
    Returns (int16 samples, [(n_windows, active)] plan)."""
    rng = np.random.default_rng(seed * 999_983 + i)
    n_segs = 2 + (i % 4)
    start_active = i % 2
    plan = []
    chunks = []
    amp = 12_000 + 1_000 * (i % 5)
    for s in range(n_segs):
        n_win = 1 + int(rng.integers(0, 4))
        active = (s + start_active) % 2
        n = n_win * VAD_WINDOW
        if active:
            wave = np.full(n, amp, np.int32)
            wave[1::2] = -amp
        else:
            wave = rng.integers(-40, 41, n).astype(np.int32)
        plan.append((n_win, active))
        chunks.append(wave)
    return np.concatenate(chunks).astype("<i2"), plan


def synth_vad_audio_table(n_clips: int, seed: int = 23,
                          sample_rate: int = 8000) -> pa.Table:
    """VAD-structured synthetic audio in the AUDIO_SCHEMA layout."""
    ids, blobs, srs, ns, fmts = [], [], [], [], []
    for i in range(n_clips):
        pcm, _ = _synth_segmented_pcm(i, seed)
        ids.append(f"vad-{i:08d}")
        blobs.append(pcm.tobytes())
        srs.append(sample_rate)
        ns.append(len(pcm))
        fmts.append("pcm16")
    return pa.Table.from_arrays([
        pa.array(ids, pa.string()), pa.array(blobs, pa.binary()),
        pa.array(srs, pa.int32()), pa.array(ns, pa.int32()),
        pa.array(fmts, pa.string())], schema=AUDIO_SCHEMA)


def vad_segments_from_pcm(pcm: np.ndarray, threshold: int = VAD_THRESHOLD,
                          window: int = VAD_WINDOW):
    """Run-length (start_win, n_windows, active, energy_sum) segments
    from an int16 sample array — integer energies (sum |sample| per
    window), vectorized reshape + diff RLE; a trailing partial window
    is dropped (the generator emits whole windows)."""
    n_win = len(pcm) // window
    if n_win == 0:
        return np.zeros((0, 4), np.int64)
    w = np.abs(pcm[:n_win * window].astype(np.int64)) \
        .reshape(n_win, window).sum(axis=1)
    active = (w > threshold).astype(np.int64)
    cuts = np.flatnonzero(np.diff(active)) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n_win]])
    return np.stack([
        starts, ends - starts, active[starts],
        np.add.reduceat(w, starts)], axis=1).astype(np.int64)


class AudioVadStage(AudioFeatureStage):
    """Energy-threshold voice-activity segmentation: decode (pcm16
    real, other codecs exactly as AudioFeatureStage), one vectorized
    window-energy + RLE pass per clip, one row per segment.  Integer
    energies make every value exact, so the VALUES oracle (built
    structurally from the generator's segment plan) hash-matches
    through the byte decode."""

    def __init__(self, threshold: int = VAD_THRESHOLD,
                 window: int = VAD_WINDOW, strict: bool = False):
        super().__init__(strict=strict)
        self.threshold = threshold
        self.window = window

    def _decode_int16(self, row: dict) -> np.ndarray:
        if row["fmt"] == "pcm16":
            return np.frombuffer(row["bytes"], dtype="<i2",
                                 count=row["n_samples"])
        x = self._decode(row["bytes"], row["fmt"], row["n_samples"])
        return np.clip(x * 32767.0, -32768, 32767).astype("<i2")

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, segs, starts, lens, actives, energies = [], [], [], [], [], []
        for row in batch.to_pylist():
            rle = vad_segments_from_pcm(self._decode_int16(row),
                                        self.threshold, self.window)
            for k in range(rle.shape[0]):
                ids.append(row["clip_id"])
                segs.append(k)
                starts.append(int(rle[k, 0]))
                lens.append(int(rle[k, 1]))
                actives.append(int(rle[k, 2]))
                energies.append(int(rle[k, 3]))
        return pa.Table.from_arrays([
            pa.array(ids, pa.string()), pa.array(segs, pa.int64()),
            pa.array(starts, pa.int64()), pa.array(lens, pa.int64()),
            pa.array(actives, pa.int64()), pa.array(energies, pa.int64())],
            names=["clip_id", "seg_index", "start_win", "n_windows",
                   "active", "energy_sum"])


def expected_vad_segments(n_clips: int, seed: int = 23) -> pa.Table:
    """Oracle-side expected segments: active/boundary structure comes
    from the generator's segment PLAN (independent of energy math);
    energies are recomputed from the source arrays.  Plan-vs-detected
    agreement is asserted at build time, so threshold drift fails
    loudly."""
    rows = []
    for i in range(n_clips):
        pcm, plan = _synth_segmented_pcm(i, seed)
        rle = vad_segments_from_pcm(pcm)
        # adjacent plan segments with equal activity merge in the RLE;
        # rebuild the merged structural plan for comparison
        merged = []
        for n_win, active in plan:
            if merged and merged[-1][1] == active:
                merged[-1][0] += n_win
            else:
                merged.append([n_win, active])
        assert [(int(r[1]), int(r[2])) for r in rle] \
            == [(n, a) for n, a in merged], (i, plan, rle)
        for k in range(rle.shape[0]):
            rows.append({"clip_id": f"vad-{i:08d}", "seg_index": k,
                         "start_win": int(rle[k, 0]),
                         "n_windows": int(rle[k, 1]),
                         "active": int(rle[k, 2]),
                         "energy_sum": int(rle[k, 3])})
    return pa.Table.from_pylist(rows)
