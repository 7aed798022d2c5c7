"""Synthetic dataset construction: initial shapes, videos under sampled
kernel/threshold combinations, and the two noise corruptions.

Every stochastic choice is driven by a counter-based Philox stream derived
from (master seed, combo index, video index), so datasets are bit-reproducible
and videos can be generated independently in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from ._glyphs import random_glyph
from ._records import PositiveInt, PositiveOddInt
from .dynamics import DynParams, Video, rollout
from .grid import Grid, as_grid, conv2d_same
from .kernels import Kernel

FAMILIES = ("gaussian", "skewed_gaussian", "double_gaussian", "raster", "disk")
NOISE_KINDS = ("none", "blur", "saltpepper")


def make_rng(*entropy) -> np.random.Generator:
    """Philox generator keyed on a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SampleMeta:
    """Provenance of one video sample."""

    family: str
    threshold: float
    noise: str
    combo: int
    video: int
    seed: int


@dataclass(frozen=True)
class VideoSample:
    """A clean binary video plus its corrupted counterpart.

    With noise "none" the two are one array, marked read-only (``noisy is
    clean``), so a noise-free dataset holds each video once; writing to it
    raises ValueError.  Every other noise kind makes a new ``noisy`` array.
    """

    clean: Video
    noisy: Video
    meta: SampleMeta

    def __post_init__(self):
        if self.clean.shape != self.noisy.shape:
            raise ValueError("clean and noisy videos must have identical shapes")


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to reproduce a dataset from its master seed.

    Combos cycle round-robin through thresholds and families: combo i uses
    thresholds[i % len] and families[i % len], with a fresh kernel sampled
    per combo.  With 4 thresholds and 5 families, n_combos=100 gives each
    pair exactly five distinct sampled kernels.
    """

    frame_size: PositiveInt = 64
    n_frames: int = 7
    kernel_size: PositiveOddInt = 31
    thresholds: tuple[float, ...] = (0.2, 0.3, 0.5, 0.6)
    families: tuple[str, ...] = FAMILIES
    n_combos: int | None = None
    videos_per_combo: int = 30
    noise: str = "none"
    blur_size: int = 5
    blur_sigma: float = 1.0
    sp_prob: float = 0.3
    train_fraction: float = 0.9
    n_test: int | None = None  # explicit total test-video count, overrides train_fraction
    master_seed: int = 0

    def __post_init__(self):
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        if not self.thresholds or not self.families:
            raise ValueError("thresholds and families must each name at least one entry")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown kernel family {fam!r}")
        for a in self.thresholds:
            if not 0.0 < a < 1.0:
                raise ValueError(f"thresholds must lie in (0,1), got {a}")
        if min(self.videos_per_combo, self.frame_size) < 1:
            raise ValueError("videos_per_combo and frame_size must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be positive and odd")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ValueError(f"train_fraction must lie in [0, 1], got {self.train_fraction}")
        if self.n_test is not None and self.n_test < 0:
            raise ValueError(f"n_test must be >= 0, got {self.n_test}")

    @property
    def combo_count(self) -> int:
        if self.n_combos is not None:
            return self.n_combos
        return len(self.thresholds) * len(self.families)


@dataclass(frozen=True)
class Combo:
    """One ground-truth dynamics: a sampled kernel and a threshold."""

    index: int
    family: str
    threshold: float
    kernel: Kernel


@dataclass
class Dataset:
    """Samples plus the whole-video train/test split."""

    spec: DatasetSpec
    combos: list[Combo]
    samples: list[VideoSample]
    train_indices: list[int] = field(default_factory=list)
    test_indices: list[int] = field(default_factory=list)

    @property
    def train_samples(self) -> list[VideoSample]:
        return [self.samples[i] for i in self.train_indices]

    @property
    def test_samples(self) -> list[VideoSample]:
        return [self.samples[i] for i in self.test_indices]


def sample_kernel(family: str, size: int, rng) -> Kernel:
    """Draw one ground-truth kernel from a family at the given odd size."""
    lo, hi = size / 10.0, size / 5.0
    if family == "gaussian":
        mu = rng.uniform(-size / 10.0, size / 10.0, size=2)
        return kernels.gaussian(size, mu[0], mu[1], rng.uniform(lo, hi))
    if family == "skewed_gaussian":
        mu = rng.uniform(-size / 10.0, size / 10.0, size=2)
        sx = rng.uniform(lo, hi)
        sy = sx * rng.choice([rng.uniform(1.6, 2.5), rng.uniform(0.4, 0.625)])
        return kernels.gaussian(size, mu[0], mu[1], sx, sy)
    if family == "double_gaussian":
        mu1 = rng.uniform(-size / 5.0, size / 5.0, size=2)
        mu2 = rng.uniform(-size / 5.0, size / 5.0, size=2)
        return kernels.double_gaussian(
            size, tuple(mu1), tuple(mu2), rng.uniform(lo, hi) / 1.5,
            rng.uniform(lo, hi) / 1.5, weight=rng.uniform(0.3, 0.7),
        )
    if family == "raster":
        return kernels.raster(random_glyph(size, rng))
    if family == "disk":
        radius = rng.uniform(size / 6.0, size / 3.0)
        span = size / 2.0 + 0.5 - radius
        center = rng.uniform(-span / 2.0, span / 2.0, size=2)
        return kernels.disk(size, tuple(center), radius)
    raise ValueError(f"unknown kernel family {family!r}")


def initial_frame(shape_source, size: int) -> Grid:
    """Center a grayscale raster into a size x size frame, binarized at 0.5."""
    src = as_grid(shape_source)
    sh, sw = src.shape
    if sh > size or sw > size:
        raise ValueError(f"shape source {src.shape} larger than frame {size}")
    binary = (src >= 0.5).astype(np.float64)
    if not binary.any():
        raise ValueError("shape source binarizes to an empty frame")
    frame = np.zeros((size, size))
    top, left = (size - sh) // 2, (size - sw) // 2
    frame[top : top + sh, left : left + sw] = binary
    return frame


def generate_video(frame0: Grid, kernel: Kernel, threshold: float, n_frames: int) -> Video:
    """Hard-threshold evolution: n_frames frames including frame0."""
    if n_frames < 2:
        raise ValueError("a video needs at least 2 frames")
    params = DynParams(kernel, threshold)
    return rollout(frame0, params, n_steps=n_frames - 1)


def gaussian_blur(video: Video, blur_size: int = 5, blur_sigma: float = 1.0) -> Video:
    """Convolve every frame with a unit-sum Gaussian kernel, in one batched
    call (bit-equal to blurring frame by frame)."""
    k = kernels.gaussian(blur_size, sigma_x=blur_sigma).grid
    return conv2d_same(video, k)


def salt_pepper(video: Video, p: float, seed) -> Video:
    """Replace each pixel, independently with probability p, by a fair coin
    flip in {0,1}.  Deterministic given the seed (an int or a Generator)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must be in [0,1], got {p}")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    video = np.asarray(video, dtype=np.float64)
    hit = rng.random(video.shape) < p
    coins = rng.integers(0, 2, size=video.shape).astype(np.float64)
    return np.where(hit, coins, video)


def _corrupt(video: Video, spec: DatasetSpec, rng) -> Video:
    if spec.noise == "none":  # the clean video itself, shared read-only
        video.setflags(write=False)
        return video
    if spec.noise == "blur":
        return gaussian_blur(video, spec.blur_size, spec.blur_sigma)
    return salt_pepper(video, spec.sp_prob, rng)


def make_combos(spec: DatasetSpec) -> list[Combo]:
    out = []
    for i in range(spec.combo_count):
        family = spec.families[i % len(spec.families)]
        threshold = spec.thresholds[i % len(spec.thresholds)]
        rng = make_rng(spec.master_seed, 1, i)
        out.append(Combo(i, family, threshold, sample_kernel(family, spec.kernel_size, rng)))
    return out


def _initial_shape(spec: DatasetSpec, rng) -> Grid:
    # heavy strokes: thin digits die within the training window under
    # shrinking dynamics, leaving the threshold unidentifiable from frames 1-4
    glyph_size = min(spec.frame_size, max(12, int(round(spec.frame_size * rng.uniform(0.5, 0.65)))))
    stroke = rng.uniform(0.18, 0.24)
    glyph = random_glyph(glyph_size, rng, stroke=stroke)
    frame = initial_frame(glyph, spec.frame_size)
    # small placement jitter so videos of one combo differ beyond the digit
    max_shift = max(1, spec.frame_size // 16)
    dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
    return np.roll(frame, (dy, dx), axis=(0, 1))


def generate_sample(spec: DatasetSpec, combo: Combo, video_index: int) -> VideoSample:
    """One clean/noisy video pair; independent of all other samples."""
    rng = make_rng(spec.master_seed, 2, combo.index, video_index)
    frame0 = _initial_shape(spec, rng)
    clean = generate_video(frame0, combo.kernel, combo.threshold, spec.n_frames)
    noisy = _corrupt(clean, spec, rng)
    meta = SampleMeta(
        family=combo.family,
        threshold=combo.threshold,
        noise=spec.noise,
        combo=combo.index,
        video=video_index,
        seed=spec.master_seed,
    )
    return VideoSample(clean=clean, noisy=noisy, meta=meta)


def split_indices(spec: DatasetSpec) -> tuple[list[int], list[int]]:
    """Whole-video split: test videos taken round-robin across combos, from
    the end of each combo's video list."""
    n_combos, per = spec.combo_count, spec.videos_per_combo
    total = n_combos * per
    if spec.n_test is not None:
        n_test = spec.n_test
    else:
        n_test = int(round(total * (1.0 - spec.train_fraction)))
    if n_test >= total:
        raise ValueError(f"test split ({n_test}) would consume every video ({total})")
    taken = [0] * n_combos
    test = []
    for k in range(n_test):
        combo = k % n_combos
        taken[combo] += 1
        test.append(combo * per + (per - taken[combo]))
    test_set = set(test)
    train = [i for i in range(total) if i not in test_set]
    return train, sorted(test)


def build_dataset(spec: DatasetSpec) -> Dataset:
    """Generate every sample of a spec; reproducible bit-for-bit from the
    master seed."""
    combos = make_combos(spec)
    samples = [
        generate_sample(spec, combo, v)
        for combo in combos
        for v in range(spec.videos_per_combo)
    ]
    train, test = split_indices(spec)
    return Dataset(spec=spec, combos=combos, samples=samples,
                   train_indices=train, test_indices=test)
