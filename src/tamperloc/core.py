"""Planar image containers and fixed-kernel filtering shared by every feature view.

Conventions used throughout the package:

* frames are channel-planar ``(3, H, W)`` float64 with samples in ``[0, 1]``;
* feature stacks are ``(C, H, W)`` float64 with one text label per channel;
* filtering is cross-correlation (kernels applied as written, never reversed)
  with reflect padding that mirrors about the edge sample without repeating it.
  That is numpy's ``np.pad(mode="reflect")`` and scipy.ndimage's
  ``mode="mirror"``; ndimage's ``mode="reflect"`` repeats the edge sample and
  is wrong here;
* all internal arithmetic is 64-bit, file formats narrow to 32-bit on write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import PipelineError

MIN_FRAME_SIDE = 8
LUMA_WEIGHTS = (0.299, 0.587, 0.114)  # BT.601 luma coefficients

RGB_LABELS = ("rgb_R", "rgb_G", "rgb_B")


def _as_float64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


@dataclass(frozen=True)
class Frame:
    """One video frame: ``(3, H, W)`` float64 planar RGB, samples in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        data = _as_float64(self.data)
        if data.ndim != 3 or data.shape[0] != 3:
            raise PipelineError("bad-frame", f"expected (3, H, W), got {data.shape}")
        if data.shape[1] < MIN_FRAME_SIDE or data.shape[2] < MIN_FRAME_SIDE:
            raise PipelineError("bad-frame", f"frame smaller than {MIN_FRAME_SIDE}px: {data.shape}")
        if not np.isfinite(data).all():
            raise PipelineError("bad-frame", "non-finite sample")
        if data.min() < 0.0 or data.max() > 1.0:
            raise PipelineError("bad-frame", "samples outside [0, 1]")
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class FeatureStack:
    """Labelled channel stack ``(C, H, W)``; one label per channel."""

    data: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        data = _as_float64(self.data)
        labels = tuple(self.labels)
        if data.ndim != 3:
            raise PipelineError("bad-stack", f"expected (C, H, W), got {data.shape}")
        if len(labels) != data.shape[0]:
            raise PipelineError("bad-stack", f"{len(labels)} labels for {data.shape[0]} channels")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class Kernel2D:
    """Square odd-sized filter taps, applied as printed (cross-correlation)."""

    taps: np.ndarray

    def __post_init__(self):
        taps = _as_float64(self.taps)
        if taps.ndim != 2 or taps.shape[0] != taps.shape[1]:
            raise PipelineError("bad-kernel", f"taps must be square, got {taps.shape}")
        if taps.shape[0] < 3 or taps.shape[0] % 2 == 0:
            raise PipelineError("bad-kernel", f"size must be odd and >= 3, got {taps.shape[0]}")
        object.__setattr__(self, "taps", taps)

    @property
    def size(self) -> int:
        return self.taps.shape[0]


def apply_kernel_bank(data: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Cross-correlate every channel of ``data`` with every kernel.

    ``data`` is ``(C, H, W)``, ``kernels`` is ``(K, k, k)`` with one shared odd
    size; returns ``(K, C, H, W)`` with reflect padding. Direct sums keep small
    integer kernels exact. A kernel larger than the image is
    ``kernel-exceeds-image``.
    """
    side = kernels.shape[-1]
    if side > data.shape[-2] or side > data.shape[-1]:
        raise PipelineError("kernel-exceeds-image", f"kernel {side}x{side} does not fit {data.shape[-2]}x{data.shape[-1]}")
    return np.stack([ndimage.correlate(data, k[np.newaxis], mode="mirror") for k in kernels])


def affine_map_to_unit(data: np.ndarray, lo, hi) -> np.ndarray:
    """Clamp ``data`` to [lo, hi] and map that interval onto [0, 1].

    ``lo`` and ``hi`` are scalars or arrays broadcasting against ``data``,
    e.g. ``(K, 1, 1)`` for one bound pair per channel; any pair with
    ``lo >= hi`` is ``bad-range``. Returns a fresh array, ``data`` is untouched.
    """
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if not np.all(lo < hi):
        raise PipelineError("bad-range", f"need lo < hi, got [{lo}, {hi}]")
    out = np.clip(data, lo, hi)
    out -= lo
    out /= hi - lo
    return out


def luminance(f: Frame) -> FeatureStack:
    """BT.601 luma: 0.299 R + 0.587 G + 0.114 B, one channel in [0, 1]."""
    w = np.asarray(LUMA_WEIGHTS, dtype=np.float64)
    luma = np.tensordot(w, f.data, axes=(0, 0))
    return FeatureStack(luma[np.newaxis], ("luma",))


def split_item(entry, index: int) -> "tuple[str, Frame, np.ndarray]":
    """One dataset item as (id, frame, float64 mask).

    Items are ``(id, frame, mask)`` or ``(frame, mask)`` tuples or lists; the
    latter is named ``frame_<index>``. Anything else is ``bad-item``, and a
    mask whose shape is not the frame's is ``shape-mismatch``.
    """
    parts = tuple(entry) if isinstance(entry, (tuple, list)) else ()
    if len(parts) not in (2, 3) or not isinstance(parts[-2], Frame):
        raise PipelineError("bad-item", f"item {index}: expected (id, Frame, mask) or (Frame, mask)")
    item_id = str(parts[0]) if len(parts) == 3 else f"frame_{index:04d}"
    frame, mask = parts[-2], np.asarray(parts[-1], dtype=np.float64)
    if mask.shape != (frame.height, frame.width):
        raise PipelineError("shape-mismatch", f"mask {mask.shape} vs frame {frame.height}x{frame.width}")
    return item_id, frame, mask
