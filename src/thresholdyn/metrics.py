"""The three video-comparison metrics and their aggregation.

SSIM uses whole-frame statistics (one global window) with population-
normalized variances, C1=(0.01*L)^2 and C2=(0.03*L)^2 at L=1.  Jaccard is
intersection over union on binary masks; both-empty counts as perfect
agreement.  Relative MSE normalizes by the ground-truth energy and is the
only asymmetric metric of the three.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import Grid, is_binary

_C1 = (0.01 * 1.0) ** 2
_C2 = (0.03 * 1.0) ** 2
DEFAULT_EPSILON = 1e-8


def ssim(x: Grid, y: Grid) -> float:
    """Structural similarity of two frames from global moment statistics."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"ssim shape mismatch: {x.shape} vs {y.shape}")
    mx, my = x.mean(), y.mean()
    vx = ((x - mx) ** 2).mean()
    vy = ((y - my) ** 2).mean()
    cov = ((x - mx) * (y - my)).mean()
    return float(
        (2 * mx * my + _C1) * (2 * cov + _C2) / ((mx * mx + my * my + _C1) * (vx + vy + _C2))
    )


def jaccard(x: Grid, y: Grid) -> float:
    """Intersection over union of binary masks; two empty masks agree
    perfectly (1.0), one empty mask scores 0.0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"jaccard shape mismatch: {x.shape} vs {y.shape}")
    if not (is_binary(x) and is_binary(y)):
        raise ValueError("jaccard requires binary inputs")
    union = np.count_nonzero((x == 1.0) | (y == 1.0))
    if union == 0:
        return 1.0
    inter = np.count_nonzero((x == 1.0) & (y == 1.0))
    return inter / union


def relative_mse(pred, truth) -> float:
    """Sum of squared frame errors normalized by the true video's energy
    (plus DEFAULT_EPSILON, so an all-zero truth stays finite)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"relative_mse shape mismatch: {pred.shape} vs {truth.shape}")
    return float(((pred - truth) ** 2).sum() / ((truth**2).sum() + DEFAULT_EPSILON))


@dataclass
class VideoScores:
    """Per-video breakdown over the evaluated frame range."""

    relative_mse: float
    ssim_per_frame: list[float]
    jaccard_per_frame: list[float]

    @property
    def ssim(self) -> float:
        return float(np.mean(self.ssim_per_frame))

    @property
    def jaccard(self) -> float:
        return float(np.mean(self.jaccard_per_frame))


@dataclass
class EvalReport:
    """Aggregate metrics over a list of test videos.

    relative_mse, ssim and jaccard are fractions; the text table renders
    percentages in the usual reporting layout.
    """

    relative_mse: float
    ssim: float
    jaccard: float
    frame_range: tuple[int, int] | None = None
    per_video: list[VideoScores] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_table(self) -> str:
        header = f"{'Relative MSE':>14} | {'SSIM Value':>10} | {'Jaccard Index':>13}"
        row = (
            f"{self.relative_mse * 100:>13.3f}% | {self.ssim:>10.3f} | "
            f"{self.jaccard * 100:>12.3f}%"
        )
        return header + "\n" + row


def binarize(frame: Grid, level: float = 0.5) -> Grid:
    return (np.asarray(frame, dtype=np.float64) >= level).astype(np.float64)


def evaluate(
    pred_videos,
    truth_videos,
    frame_range: tuple[int, int] | None = None,
) -> EvalReport:
    """Score aligned prediction/truth video lists.

    frame_range is 1-indexed inclusive, e.g. (2, 7) for generalization over
    frames 2-7 or (5, 7) for extrapolation-only scoring.  SSIM and Jaccard
    average per frame within each video and then across videos; relative MSE
    is computed per video and then averaged.  Predictions are binarized at
    0.5 for Jaccard only.
    """
    if len(pred_videos) != len(truth_videos):
        raise ValueError(
            f"misaligned lists: {len(pred_videos)} predictions vs {len(truth_videos)} truths"
        )
    if not pred_videos:
        raise ValueError("nothing to evaluate")
    per_video = []
    for idx, (pred, truth) in enumerate(zip(pred_videos, truth_videos)):
        pred = np.asarray(pred, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if pred.shape != truth.shape:
            raise ValueError(f"video {idx}: shape mismatch {pred.shape} vs {truth.shape}")
        if frame_range is not None:
            lo, hi = frame_range
            if not 1 <= lo <= hi <= pred.shape[0]:
                raise ValueError(f"video {idx}: frame range {frame_range} out of bounds")
            pred, truth = pred[lo - 1 : hi], truth[lo - 1 : hi]
        per_video.append(
            VideoScores(
                relative_mse=relative_mse(pred, truth),
                ssim_per_frame=[ssim(p, t) for p, t in zip(pred, truth)],
                jaccard_per_frame=[
                    jaccard(binarize(p), binarize(t)) for p, t in zip(pred, truth)
                ],
            )
        )
    return EvalReport(
        relative_mse=float(np.mean([v.relative_mse for v in per_video])),
        ssim=float(np.mean([v.ssim for v in per_video])),
        jaccard=float(np.mean([v.jaccard for v in per_video])),
        frame_range=frame_range,
        per_video=per_video,
    )
