"""Image/video I/O and the real-data preprocessing pipelines.

PGM (P5) and PPM (P6) are the required bit-exact interchange formats; PNG is
available behind the same interface when Pillow is installed.  Grayscale
values map to [0,1] by /255 with round-half-up quantization on save.

Videos persist as a directory of frame_0001.pgm .. frame_NNNN.pgm plus a
manifest.json {n_frames, height, width, binary, provenance}.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from ._records import PositiveInt, check, read_object
from .datagen import gaussian_blur
from .dynamics import Video
from .grid import Grid, as_grid


class IngestError(Exception):
    """I/O or preprocessing failure; carries the offending path or frame."""


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB image; pixels shaped (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ValueError(f"RgbImage needs uint8 (H,W,3), got {p.dtype} {p.shape}")
        object.__setattr__(self, "pixels", p)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class HsvMask:
    """HSV selection box; the hue range may wrap around 360 degrees."""

    hue_lo: float
    hue_hi: float
    sat_lo: float = 0.0
    sat_hi: float = 1.0
    val_lo: float = 0.0
    val_hi: float = 1.0

    def contains(self, hsv: np.ndarray) -> np.ndarray:
        h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
        if self.hue_lo <= self.hue_hi:
            hue_ok = (h >= self.hue_lo) & (h <= self.hue_hi)
        else:  # wrapped range, e.g. (330, 70) covers red through yellow
            hue_ok = (h >= self.hue_lo) | (h <= self.hue_hi)
        return (
            hue_ok
            & (s >= self.sat_lo) & (s <= self.sat_hi)
            & (v >= self.val_lo) & (v <= self.val_hi)
        )


# fire fronts render as saturated red-through-yellow pixels; overridable
FIRE_DEFAULT_MASK = HsvMask(hue_lo=330.0, hue_hi=70.0, sat_lo=0.4, val_lo=0.5)
# hand-drawn annotation red
ICE_RED_MASK = HsvMask(hue_lo=330.0, hue_hi=30.0, sat_lo=0.35, val_lo=0.3)


@dataclass(frozen=True)
class PreprocessConfig:
    """The [preprocess] config section; a mask of None keeps the default."""

    blur_size: int = 5
    blur_sigma: float = 1.0
    fire_mask: HsvMask | None = None
    ice_mask: HsvMask | None = None


def quantize(grid: Grid) -> np.ndarray:
    """Round-half-up 8-bit quantization of [0,1] values."""
    g = np.clip(np.asarray(grid, dtype=np.float64), 0.0, 1.0)
    return np.floor(g * 255.0 + 0.5).astype(np.uint8)


def _read_pnm_tokens(data: bytes, path, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace/comment-separated integer header tokens,
    returning them with the offset one byte past the final separator."""
    tokens, pos, n = [], 0, len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        tok = data[start:pos]
        if not tok.isdigit():
            raise IngestError(f"{path}: bad header token {tok!r} at byte {start}")
        tokens.append(int(tok))
        pos += 1  # single whitespace after the last header token starts the raster
    return tokens, pos


def load_frame(path) -> Grid | RgbImage:
    """Load PGM (P5) as a [0,1] grid, PPM (P6) as an RgbImage, or PNG via
    Pillow when available."""
    path = Path(path)
    if path.suffix.lower() == ".png":
        return _load_png(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise IngestError(f"{path}: {err}") from err
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise IngestError(f"{path}: bad magic number {magic!r} at byte 0")
    if not data[2:3].isspace():
        raise IngestError(f"{path}: no whitespace after the magic number at byte 2")
    (width, height, maxval), offset = _read_pnm_tokens(data[2:], path, 3)
    offset += 2
    if maxval != 255:
        raise IngestError(f"{path}: only maxval 255 supported, got {maxval}")
    if width == 0 or height == 0:
        raise IngestError(f"{path}: empty {width}x{height} image")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raster = data[offset:]
    if len(raster) != need:
        raise IngestError(f"{path}: raster from byte {offset} holds {len(raster)} bytes, "
                          f"expected {need}")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).astype(np.float64) / 255.0
    return RgbImage(arr.reshape(height, width, 3).copy())


def save_frame(frame, path) -> None:
    """Save a grid as binary PGM or an RgbImage as binary PPM; round trip is
    lossless for 8-bit quantized data."""
    path = Path(path)
    if path.suffix.lower() == ".png":
        _save_png(frame, path)
        return
    if isinstance(frame, RgbImage):
        header = f"P6\n{frame.width} {frame.height}\n255\n".encode()
        path.write_bytes(header + frame.pixels.tobytes())
        return
    grid = quantize(as_grid(frame))
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode()
    path.write_bytes(header + grid.tobytes())


def _load_png(path):
    try:
        from PIL import Image
    except ImportError as err:
        raise IngestError(f"{path}: PNG support requires Pillow") from err
    with Image.open(path) as img:
        if img.mode in ("RGB", "RGBA", "P"):
            return RgbImage(np.asarray(img.convert("RGB"), dtype=np.uint8))
        return np.asarray(img.convert("L"), dtype=np.float64) / 255.0


def _save_png(frame, path):
    try:
        from PIL import Image
    except ImportError as err:
        raise IngestError(f"{path}: PNG support requires Pillow") from err
    if isinstance(frame, RgbImage):
        Image.fromarray(frame.pixels, mode="RGB").save(path)
    else:
        Image.fromarray(quantize(as_grid(frame)), mode="L").save(path)


def rgb_to_hsv(image: RgbImage | np.ndarray) -> np.ndarray:
    """Standard hexcone conversion: h in [0,360) degrees (0 where undefined),
    s and v in [0,1]."""
    pixels = image.pixels if isinstance(image, RgbImage) else np.asarray(image)
    rgb = pixels.astype(np.float64) / 255.0 if pixels.dtype == np.uint8 else pixels
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    v = rgb.max(axis=-1)
    c = v - rgb.min(axis=-1)
    s = np.where(v > 0, c / np.where(v > 0, v, 1.0), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        hr = np.where(c > 0, ((g - b) / c) % 6.0, 0.0)
        hg = np.where(c > 0, (b - r) / c + 2.0, 0.0)
        hb = np.where(c > 0, (r - g) / c + 4.0, 0.0)
    h = np.where(v == r, hr, np.where(v == g, hg, hb))
    h = np.where(c > 0, h * 60.0, 0.0)
    return np.stack([h, s, v], axis=-1)


def _blur_rgb(image: RgbImage, blur_size: int, blur_sigma: float) -> np.ndarray:
    rgb = image.pixels.astype(np.float64) / 255.0
    stack = np.stack([rgb[..., c] for c in range(3)])
    blurred = gaussian_blur(stack, blur_size, blur_sigma)
    return np.stack([blurred[c] for c in range(3)], axis=-1)


def fire_preprocess(
    frames: list[RgbImage],
    mask: HsvMask = FIRE_DEFAULT_MASK,
    blur_size: int = 5,
    blur_sigma: float = 1.0,
) -> Video:
    """Fire-front pipeline: blur, HSV-mask, binarize, then pixelwise OR with
    the previous frame so the output is a cumulative burnt-area chain."""
    if len(frames) < 2:
        raise IngestError("fire preprocessing needs at least 2 frames")
    shape = (frames[0].height, frames[0].width)
    out, previous = [], np.zeros(shape)
    for i, frame in enumerate(frames):
        if (frame.height, frame.width) != shape:
            raise IngestError(f"frame {i}: size {frame.height}x{frame.width} != {shape}")
        hsv = rgb_to_hsv(_blur_rgb(frame, blur_size, blur_sigma))
        binary = mask.contains(hsv).astype(np.float64)
        previous = np.maximum(previous, binary)
        out.append(previous.copy())
    video = np.stack(out)
    if video[-1].sum() == 0:
        warnings.warn("fire mask matched nothing in any frame", RuntimeWarning)
    return video


def ice_preprocess(frames: list[RgbImage], red_mask: HsvMask = ICE_RED_MASK) -> Video:
    """Ice pipeline: extract the red outline, close 1-pixel gaps, flood-fill
    the background from the border; ice = outline plus enclosed interior."""
    out = []
    for i, frame in enumerate(frames):
        hsv = rgb_to_hsv(frame)
        outline = red_mask.contains(hsv)
        closed = ndimage.binary_closing(outline, structure=np.ones((3, 3)), iterations=1)
        background = ~closed
        border_seed = np.zeros_like(background)
        border_seed[0, :] = border_seed[-1, :] = True
        border_seed[:, 0] = border_seed[:, -1] = True
        reached = ndimage.binary_propagation(border_seed & background, mask=background)
        ice = ~reached
        interior = ice & ~closed
        if not interior.any():
            raise IngestError(
                f"frame {i}: open or missing outline (flood fill reached the interior)"
            )
        out.append(ice.astype(np.float64))
    return np.stack(out)


def save_video(video: Video, directory, binary: bool | None = None,
               provenance: str = "") -> Path:
    """Write frames plus manifest; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    video = np.asarray(video, dtype=np.float64)
    if binary is None:
        binary = bool(np.all((video == 0.0) | (video == 1.0)))
    for i, frame in enumerate(video, start=1):
        save_frame(frame, directory / f"frame_{i:04d}.pgm")
    manifest = {
        "n_frames": int(video.shape[0]),
        "height": int(video.shape[1]),
        "width": int(video.shape[2]),
        "binary": binary,
        "provenance": provenance,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return directory


def load_video(directory) -> Video:
    """The frames a video manifest lists, each checked against the
    manifest's height and width."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    hints = dict.fromkeys(("n_frames", "height", "width"), PositiveInt)
    manifest = check(read_object(manifest_path, "video manifest", IngestError), hints,
                     f"{manifest_path}: video manifest", IngestError, required=hints)
    shape = (manifest["height"], manifest["width"])
    frames = []
    for i in range(1, manifest["n_frames"] + 1):
        path = directory / f"frame_{i:04d}.pgm"
        frame = load_frame(path)
        got = frame.pixels.shape if isinstance(frame, RgbImage) else frame.shape
        if got != shape:
            raise IngestError(f"{path}: frame shape {got} is not the manifest's "
                              f"(height, width) {shape}")
        frames.append(frame)
    return np.stack(frames)
