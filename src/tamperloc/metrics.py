"""Pixel-level localisation metrics and the evaluation loop.

Masks are (H, W) arrays; ground truth is binary, predictions are
probabilities binarised at a threshold. Two mean-IoU readings exist in the
wild, so reports carry both: ``miou`` averages the tampered and the original
class (the headline number) and ``miou_fg`` is the tampered class alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .core import _as_float64, as_sequence, check_seed, split_item
from .errors import PipelineError
from .fusion import ParamStore, check_views, predict
from .perturb import PerturbSpec, perturb_pair

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionCounts:
    """Pixel counts of one prediction/truth pair (tampered = positive)."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def binarize(pred: np.ndarray) -> np.ndarray:
    """Probabilities >= ``DEFAULT_THRESHOLD`` become tampered."""
    pred = _as_float64(pred, "bad-prediction")
    if not (pred.size and 0.0 <= pred.min() and pred.max() <= 1.0):  # NaN fails both comparisons
        raise PipelineError("bad-prediction", "no probabilities, or some outside [0, 1]")
    return pred >= DEFAULT_THRESHOLD


def confusion_counts(pred_bin: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    pred_bin = np.asarray(pred_bin, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred_bin.shape != truth.shape:
        raise PipelineError("shape-mismatch", f"pred {pred_bin.shape} vs truth {truth.shape}")
    tp = int(np.count_nonzero(pred_bin & truth))
    fp = int(np.count_nonzero(pred_bin & ~truth))
    fn = int(np.count_nonzero(~pred_bin & truth))
    tn = int(np.count_nonzero(~pred_bin & ~truth))
    return ConfusionCounts(tp, fp, fn, tn)


def f1_score(c: ConfusionCounts) -> float:
    """2tp / (2tp + fp + fn); defined as 1.0 when both masks are empty."""
    denom = 2 * c.tp + c.fp + c.fn
    return 1.0 if denom == 0 else 2.0 * c.tp / denom


def foreground_iou(c: ConfusionCounts) -> float:
    denom = c.tp + c.fp + c.fn
    return 1.0 if denom == 0 else c.tp / denom


def background_iou(c: ConfusionCounts) -> float:
    denom = c.tn + c.fp + c.fn
    return 1.0 if denom == 0 else c.tn / denom


def miou(c: ConfusionCounts) -> float:
    """Class-mean IoU over {tampered, original}; an absent class scores 1.0."""
    return 0.5 * (foreground_iou(c) + background_iou(c))


@dataclass(frozen=True)
class FrameMetrics:
    item_id: str
    miou: float
    f1: float
    miou_fg: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-frame metrics plus their unweighted means and run provenance."""

    miou: float
    f1: float
    miou_fg: float
    per_frame: tuple[FrameMetrics, ...]
    features: tuple[str, ...]
    perturbation: str
    seed: int
    arch: str
    threshold: float


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def evaluate(
    params: ParamStore,
    dataset: Sequence,
    views: "Sequence[str] | None" = None,
    perturbation: "PerturbSpec | None" = None,
    seed: int = 0,
) -> MetricsReport:
    """Run the network over (id, frame, mask) items and average per-frame metrics.

    An optional perturbation is applied to every pair before prediction, with
    a per-item seed derived from ``seed`` so noisy kinds are reproducible.
    Frames run on the workers of ``autodiff.thread_policy``; each job indexes
    ``dataset`` for its own item, so a split from ``datagen.load_split`` is
    read one frame per worker at a time. The rows keep item order, so the
    report does not depend on the worker count.
    """
    items = as_sequence(dataset)
    if not len(items):
        raise PipelineError("empty-dataset", "nothing to evaluate")
    chosen, seed = check_views(views), check_seed(seed)

    def row(index: int) -> FrameMetrics:
        item_id, frame, truth = split_item(items[index], index)
        if perturbation is not None:
            frame, truth = perturb_pair(frame, truth, perturbation, seed=[seed, index])
        pred = predict(params, frame, chosen)
        c = confusion_counts(binarize(pred), truth)
        return FrameMetrics(item_id, miou(c), f1_score(c), foreground_iou(c))

    with ad.thread_policy():
        rows = ad.share(row, range(len(items)))

    return MetricsReport(
        miou=_mean([r.miou for r in rows]),
        f1=_mean([r.f1 for r in rows]),
        miou_fg=_mean([r.miou_fg for r in rows]),
        per_frame=tuple(rows),
        features=chosen,
        perturbation=perturbation.describe() if perturbation is not None else "none",
        seed=seed,
        arch=params.arch.variant,
        threshold=DEFAULT_THRESHOLD,
    )
