"""Multimodal column plumbing: image/audio/video as opaque ``binary``
columns with typed metadata, processed by actor-pool map_batches stages.

Two modes per stage, resolved ONCE per actor in ``__init__`` (the
reference's lazily-loaded-CodeBERT pattern,
``models/feature_extraction.py:37-43``):

- ``mode="real"`` — actual decode: PIL/soundfile/av are preferred when
  importable (the production path); otherwise the engine's pure-stdlib
  codecs take over (``functions/codecs.py``: PNG via zlib + filter
  reconstruction, WAV via the stdlib ``wave`` module, RAWV raw-video
  container). An undecodable payload raises — a failed decode fails the
  partition loudly (the engine never copies the reference's silent
  fallback-to-previous-stage pattern, ``end_to_end_prediction.py:
  358-360``).
- ``mode="fake"`` — deterministic pseudo-features derived from payload
  bytes, for plumbing tests and for formats no available codec handles.

Scale notes baked into the design:
- payloads are LARGE: callers pass a small ``batch_size`` (e.g. 16-64) so
  batch × concurrency fits worker heaps; blocks holding binary columns
  should be read with a reduced ``target_max_block_size``;
- decode state loads once per actor in ``__init__``;
- outputs are fixed-size-list feature columns, never re-encoded payloads
  (except the explicit resize stage), so everything downstream of decode
  is narrow.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("sample_rate", pa.int32()),
        ("n_frames", pa.int32()),
    ]
)


def _fake_floats(payload: bytes, n: int, salt: bytes) -> np.ndarray:
    """Deterministic pseudo-features from payload bytes (sha256-seeded)."""
    seed = int.from_bytes(hashlib.sha256(salt + payload).digest()[:4], "little")
    return np.random.RandomState(seed).standard_normal(n).astype(np.float32)


def _resolve_image_decoder():
    """(decode(bytes) -> uint8 (h, w, c), backend name) — PIL when
    importable, else the stdlib PNG codec."""
    try:
        from PIL import Image  # type: ignore

        def dec(data: bytes) -> np.ndarray:
            img = Image.open(io.BytesIO(data))
            a = np.asarray(img.convert("RGB") if img.mode not in ("L", "RGB", "RGBA") else img)
            return a[:, :, None] if a.ndim == 2 else a

        return dec, "pil"
    except ImportError:
        from .codecs import decode_png

        return decode_png, "stdlib-png"


def _resolve_audio_decoder():
    """(decode(bytes) -> (float32 (n, ch), rate), backend name)."""
    try:
        import soundfile as sf  # type: ignore

        def dec(data: bytes):
            x, rate = sf.read(io.BytesIO(data), dtype="float32", always_2d=True)
            return x, int(rate)

        return dec, "soundfile"
    except ImportError:
        from .codecs import decode_wav

        return decode_wav, "stdlib-wav"


def _resolve_video_decoder():
    """(decode(bytes) -> uint8 (n_frames, h, w), backend name) — av/cv2
    when importable, else the RAWV raw-container codec."""
    try:
        import av  # type: ignore  # noqa: F401

        def dec(data: bytes) -> np.ndarray:  # pragma: no cover - av absent here
            container = av.open(io.BytesIO(data))
            frames = [
                np.asarray(f.to_image().convert("L")) for f in container.decode(video=0)
            ]
            return np.stack(frames)

        return dec, "pyav"
    except ImportError:
        from .codecs import decode_rawv

        return decode_rawv, "stdlib-rawv"


def _image_features(img: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic image descriptor: shape stats + gray histogram +
    coarse 4×4 intensity grid, padded/truncated to ``dim``."""
    gray = img.astype(np.float32).mean(axis=2)
    h, w = gray.shape
    hist, _ = np.histogram(gray, bins=16, range=(0.0, 256.0))
    hist = hist.astype(np.float32) / max(gray.size, 1)
    from .codecs import resize_nearest

    grid = resize_nearest(gray[:, :, None], 4, 4)[:, :, 0].reshape(-1) / 255.0
    head = np.array(
        [w, h, img.shape[2], gray.mean() / 255.0, gray.std() / 255.0, gray.min() / 255.0, gray.max() / 255.0],
        dtype=np.float32,
    )
    feat = np.concatenate([head, hist, grid])
    out = np.zeros(dim, dtype=np.float32)
    out[: min(dim, feat.size)] = feat[:dim]
    return out


def _audio_features(x: np.ndarray, rate: int, dim: int) -> np.ndarray:
    """Deterministic audio descriptor: rate/length/RMS/ZCR + log-spaced
    FFT band energies, padded/truncated to ``dim``."""
    mono = x.mean(axis=1)
    n = mono.size
    rms = float(np.sqrt(np.mean(mono**2))) if n else 0.0
    zcr = float(np.mean(np.abs(np.diff(np.signbit(mono))))) if n > 1 else 0.0
    head = np.array([rate / 48000.0, n / max(rate, 1), rms, zcr], dtype=np.float32)
    n_bands = max(dim - head.size, 0)
    bands = np.zeros(n_bands, dtype=np.float32)
    if n and n_bands:
        mag = np.abs(np.fft.rfft(mono))
        edges = np.unique(np.geomspace(1, mag.size, n_bands + 1).astype(np.int64))
        for i in range(min(n_bands, edges.size - 1)):
            seg = mag[edges[i] : edges[i + 1]]
            bands[i] = float(np.log1p(seg.mean())) if seg.size else 0.0
    feat = np.concatenate([head, bands])
    out = np.zeros(dim, dtype=np.float32)
    out[: min(dim, feat.size)] = feat[:dim]
    return out


def _frame_features(frame: np.ndarray, dim: int) -> np.ndarray:
    f = frame.astype(np.float32)
    hist, _ = np.histogram(f, bins=max(dim - 4, 1), range=(0.0, 256.0))
    head = np.array([f.mean() / 255.0, f.std() / 255.0, f.min() / 255.0, f.max() / 255.0], dtype=np.float32)
    feat = np.concatenate([head, hist.astype(np.float32) / max(f.size, 1)])
    out = np.zeros(dim, dtype=np.float32)
    out[: min(dim, feat.size)] = feat[:dim]
    return out


def _check_mode(mode: str) -> None:
    if mode not in ("fake", "real"):
        raise ValueError("mode must be 'fake' or 'real'")


class ImageFeatureStage:
    """binary payload -> ``image_feat: fixed_size_list<float, dim>``.

    ``mode="real"`` decodes (PIL if importable, else stdlib PNG) and
    extracts a deterministic descriptor; decoder resolved once per actor.
    """

    def __init__(self, dim: int = 64, mode: str = "fake"):
        _check_mode(mode)
        self.dim, self.mode = dim, mode
        if mode == "real":
            self.decode, self.backend = _resolve_image_decoder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        if not payloads:  # np.stack([]) raises on a drained block
            feats = np.zeros((0, self.dim), dtype=np.float32)
        elif self.mode == "real":
            feats = np.stack([_image_features(self.decode(p), self.dim) for p in payloads])
        else:
            feats = np.stack(
                [_fake_floats(p if p is not None else b"", self.dim, b"img") for p in payloads]
            )
        col = pa.FixedSizeListArray.from_arrays(pa.array(feats.reshape(-1), type=pa.float32()), self.dim)
        return batch.drop_columns(["payload"]).append_column("image_feat", col)


class AudioFeatureStage:
    """binary payload -> ``audio_feat`` + ``duration_s``.

    ``mode="real"`` decodes PCM (soundfile if importable, else stdlib
    WAV); ``duration_s`` is then the true decoded duration."""

    def __init__(self, dim: int = 32, mode: str = "fake"):
        _check_mode(mode)
        self.dim, self.mode = dim, mode
        if mode == "real":
            self.decode, self.backend = _resolve_audio_decoder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        if not payloads:  # np.stack([]) raises on a drained block
            feats = np.zeros((0, self.dim), dtype=np.float32)
            durations = np.zeros(0, dtype=np.float64)
        elif self.mode == "real":
            feats, durations = [], []
            for p in payloads:
                x, rate = self.decode(p)
                feats.append(_audio_features(x, rate, self.dim))
                durations.append(x.shape[0] / max(rate, 1))
            feats = np.stack(feats)
            durations = np.asarray(durations, dtype=np.float64)
        else:
            rates = batch["sample_rate"].to_numpy(zero_copy_only=False)
            feats = np.stack([_fake_floats(p or b"", self.dim, b"aud") for p in payloads])
            durations = np.array(
                [len(p or b"") / max(int(r) if r else 16000, 1) for p, r in zip(payloads, rates)],
                dtype=np.float64,
            )
        col = pa.FixedSizeListArray.from_arrays(pa.array(feats.reshape(-1), type=pa.float32()), self.dim)
        out = batch.drop_columns(["payload"]).append_column("audio_feat", col)
        return out.append_column("duration_s", pa.array(durations, type=pa.float64()))


class VideoFrameSampleStage:
    """binary payload -> ``n_frames_sampled`` + per-frame feature list
    (every ``stride``-th frame).

    ``mode="real"`` decodes frames (pyav if importable, else the RAWV raw
    container — real codec video needs ``av``/``cv2``)."""

    def __init__(self, stride: int = 10, dim: int = 16, mode: str = "fake", payload_col: str = "payload"):
        _check_mode(mode)
        self.stride, self.dim, self.mode, self.payload_col = stride, dim, mode, payload_col
        if mode == "real":
            self.decode, self.backend = _resolve_video_decoder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        sampled, feats = [], []
        if self.mode == "real":
            for p in payloads:
                frames = self.decode(p)[:: self.stride]
                sampled.append(len(frames))
                feats.append([_frame_features(f, self.dim).tolist() for f in frames])
        else:
            n_frames = batch["n_frames"].to_numpy(zero_copy_only=False)
            for p, nf in zip(payloads, n_frames):
                # ceil(nf / stride): frames[::stride] of an nf-frame clip
                # yields that many — fake mode must agree with real mode
                # for the same metadata (round-5 review: floor undercounted
                # whenever nf % stride != 0)
                take = -(-int(nf or 0) // self.stride) if nf else 0
                sampled.append(take)
                feats.append(_fake_floats(p or b"", take * self.dim, b"vid").reshape(take, self.dim).tolist())
        out = batch.drop_columns([self.payload_col])
        out = out.append_column("n_frames_sampled", pa.array(sampled, type=pa.int32()))
        return out.append_column(
            "frame_feats", pa.array(feats, type=pa.list_(pa.list_(pa.float32(), self.dim)))
        )


class ImageResizeStage:
    """binary payload -> resized binary payload + updated width/height.

    ``mode="real"``: decode → nearest-neighbor resize (one numpy gather)
    → PNG re-encode; width/height come from the ACTUAL decoded pixels.
    ``mode="fake"`` emits a deterministic payload scaled by the
    target/source area ratio so downstream stages see realistic
    byte-volume reduction."""

    def __init__(self, target_w: int = 224, target_h: int = 224, mode: str = "fake"):
        _check_mode(mode)
        self.tw, self.th, self.mode = target_w, target_h, mode
        if mode == "real":
            self.decode, self.backend = _resolve_image_decoder()
            from .codecs import encode_png, resize_nearest

            self.encode, self.resize = encode_png, resize_nearest

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        n = batch.num_rows
        if self.mode == "real":
            out_payloads = [
                self.encode(self.resize(self.decode(p), self.tw, self.th)) for p in payloads
            ]
        else:
            ws = batch["width"].to_numpy(zero_copy_only=False)
            hs = batch["height"].to_numpy(zero_copy_only=False)
            out_payloads = []
            for p, w, h in zip(payloads, ws, hs):
                p = p or b""
                src_area = max(int(w or 1) * int(h or 1), 1)
                scale = (self.tw * self.th) / src_area
                target_len = max(8, int(len(p) * min(scale, 1.0)))
                digest = hashlib.sha256(b"rsz" + p).digest()
                reps = target_len // len(digest) + 1
                out_payloads.append((digest * reps)[:target_len])
        out = batch.drop_columns(["payload", "width", "height"])
        out = out.append_column("payload", pa.array(out_payloads, type=pa.binary()))
        out = out.append_column("width", pa.array(np.full(n, self.tw, dtype=np.int32)))
        return out.append_column("height", pa.array(np.full(n, self.th, dtype=np.int32)))


def media_features(ds, stage_cls, batch_size: int = 32, concurrency: int | None = None, **stage_kwargs):
    """Run a media feature stage as an actor pool with small batches —
    large binary payloads need batch × concurrency sized to worker heaps.
    Default pool size scales with the input estimate (Ray requires an
    explicit concurrency for callable-class stages)."""
    from .shuffle import sized_actor_concurrency

    return ds.map_batches(
        stage_cls,
        fn_constructor_kwargs=stage_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=concurrency or sized_actor_concurrency(ds),
    )


def synthesize_media_table(n: int, seed: int = 42, real_payloads: bool = False) -> pa.Table:
    """Deterministic media table matching MEDIA_SCHEMA.

    ``real_payloads=True`` emits genuinely decodable bytes — PNG images,
    16-bit PCM WAV audio, RAWV video — for exercising the stages' real
    decode mode without any media library."""
    rng = np.random.RandomState(seed)
    types = np.array(["image", "audio", "video"], dtype=object)[rng.randint(0, 3, n)]
    widths = rng.randint(16, 64, n).astype(np.int32) if real_payloads else rng.randint(16, 1024, n).astype(np.int32)
    heights = rng.randint(16, 64, n).astype(np.int32) if real_payloads else rng.randint(16, 1024, n).astype(np.int32)
    n_frames = rng.randint(1, 12, n).astype(np.int32) if real_payloads else rng.randint(1, 300, n).astype(np.int32)
    payloads = []
    if real_payloads:
        from .codecs import encode_png, encode_rawv, encode_wav

        for i in range(n):
            if types[i] == "image":
                payloads.append(encode_png(rng.randint(0, 256, (int(heights[i]), int(widths[i]), 3), dtype=np.uint8)))
            elif types[i] == "audio":
                t = np.arange(1600) / 16000.0
                payloads.append(encode_wav(0.5 * np.sin(2 * np.pi * (100 + 50 * i) * t), 16000))
            else:
                payloads.append(
                    encode_rawv(rng.randint(0, 256, (int(n_frames[i]), int(heights[i]), int(widths[i])), dtype=np.uint8))
                )
    else:
        payloads = [rng.bytes(rng.randint(64, 512)) for _ in range(n)]
    return pa.Table.from_pydict(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "media_type": pa.array(types, type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
            "width": widths,
            "height": heights,
            "sample_rate": pa.array(np.full(n, 16000, dtype=np.int32)),
            "n_frames": n_frames,
        },
        schema=MEDIA_SCHEMA,
    )
