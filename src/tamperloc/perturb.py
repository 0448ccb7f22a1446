"""Frame perturbations used both as robustness probes and training augmentation.

Every perturbation maps (frame, mask) to (frame, mask). Only ``flip`` touches
the mask; the rest are photometric. ``gaussian`` is the only seeded kind, so
everything else is a pure function of its inputs.

The filters are numpy versions of the scipy calls the kinds were defined
with, bit for bit: blur and detail sum as ``ndimage.correlate1d`` does,
median selects as ``ndimage.median_filter`` does (both ``mode="mirror"``),
and compression runs :mod:`.frequency`'s port of pocketfft's DCT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Frame
from .errors import PipelineError
from .frequency import blockwise_dct

KINDS = ("none", "compression", "detail", "gaussian", "blur", "median", "flip")

# Default strength per kind, applied when a spec string omits the parameter.
_DEFAULTS = {
    "compression": 75.0,
    "detail": 1.0,
    "gaussian": 0.02,
    "blur": 1.5,
    "median": 3.0,
}

BLUR_KSIZE = 7  # fixed support for the blur and detail kernels

# Standard 8x8 luminance quantisation table.
JPEG_LUMA_TABLE = np.asarray(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class PerturbSpec:
    """One perturbation: a kind plus its single strength parameter."""

    kind: str
    param: "float | None" = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PipelineError("bad-perturb-param", f"unknown kind {self.kind!r}")
        if self.kind in ("none", "flip"):
            if self.param is not None:
                raise PipelineError("bad-perturb-param", f"{self.kind} takes no parameter")
            return
        value = _DEFAULTS[self.kind] if self.param is None else float(self.param)
        if self.kind == "compression" and not (1.0 <= value <= 100.0):
            raise PipelineError("bad-perturb-param", f"quality must be in [1, 100], got {value}")
        if self.kind == "detail" and not (0.0 < value <= 8.0):
            raise PipelineError("bad-perturb-param", f"amount must be in (0, 8], got {value}")
        if self.kind == "gaussian" and not (0.0 <= value <= 0.25):
            raise PipelineError("bad-perturb-param", f"sigma must be in [0, 0.25], got {value}")
        if self.kind == "blur" and not (0.0 < value <= 6.0):
            raise PipelineError("bad-perturb-param", f"sigma must be in (0, 6], got {value}")
        if self.kind == "median" and not (3.0 <= value <= 15.0 and value % 2 == 1.0):
            raise PipelineError("bad-perturb-param", f"window must be odd in [3, 15], got {value}")
        object.__setattr__(self, "param", value)

    def describe(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"


def parse_spec(text: str) -> PerturbSpec:
    """Parse ``kind`` or ``kind:param`` (e.g. ``compression:75``)."""
    head, sep, tail = text.strip().partition(":")
    if not sep:
        return PerturbSpec(head)
    try:
        value = float(tail)
    except ValueError:
        raise PipelineError("bad-perturb-param", f"bad parameter {tail!r}") from None
    return PerturbSpec(head, value)


def perturb_suite() -> tuple[PerturbSpec, ...]:
    """The standard robustness sweep: every kind at its default strength, in reporting order."""
    return tuple(PerturbSpec(kind) for kind in KINDS)


def gaussian_taps(sigma: float, ksize: int) -> np.ndarray:
    """Normalised 1-D Gaussian taps on the fixed odd support."""
    r = ksize // 2
    x = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-(x**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def _correlate_symmetric(data: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``data`` along ``axis`` with symmetric odd ``taps`` (radius r),
    reflect-padded, summed as ``scipy.ndimage.correlate1d`` sums a symmetric
    filter: x[c] * w[r], then + (x[c - j] + x[c + j]) * w[r - j] for j = r .. 1.

    The padded array is read flat, so a shift along ``axis`` is one contiguous
    slice; positions that straddle two lines are computed and dropped.
    """
    r, n = len(taps) // 2, data.shape[axis]
    padded = np.pad(data, [(r, r) if a == axis else (0, 0) for a in range(data.ndim)], mode="reflect").reshape(-1)
    step = math.prod(data.shape[axis + 1 :])  # flat distance between neighbours along the axis
    span = padded.size - 2 * r * step
    full = np.empty(padded.size)
    out = full[r * step : r * step + span]
    np.multiply(padded[r * step : r * step + span], taps[r], out=out)
    pair = np.empty(span)
    for j in range(r, 0, -1):
        np.add(padded[(r - j) * step : (r - j) * step + span], padded[(r + j) * step : (r + j) * step + span], out=pair)
        pair *= taps[r - j]
        out += pair
    shape = data.shape[:axis] + (n + 2 * r,) + data.shape[axis + 1 :]
    return full.reshape(shape)[(slice(None),) * axis + (slice(r, r + n),)]


def gaussian_blur(data: np.ndarray, sigma: float, ksize: int) -> np.ndarray:
    """Separable Gaussian blur of (C, H, W) data with reflect padding, rows first."""
    taps = gaussian_taps(sigma, ksize)
    return _correlate_symmetric(_correlate_symmetric(data, taps, 1), taps, 2)


MEDIAN_BAND_BYTES = 1 << 20  # the median's window buffer


def _median_filter(data: np.ndarray, window: int) -> np.ndarray:
    """Median of every reflect-padded ``window`` x ``window`` neighbourhood of
    each (C, H, W) channel: a selection, so ``scipy.ndimage.median_filter``'s
    values exactly. Windows are copied a band of rows at a time into one
    buffer of at most MEDIAN_BAND_BYTES (or one row), partitioned in place."""
    r, (c, h, w), taps = window // 2, data.shape, window * window
    padded = np.pad(data, ((0, 0), (r, r), (r, r)), mode="reflect")
    out = np.empty(data.shape)
    rows = max(1, min(h, MEDIAN_BAND_BYTES // (w * taps * 8)))
    band = np.empty((rows, w, taps))
    for ch in range(c):
        for y in range(0, h, rows):
            n = min(rows, h - y)
            windows = np.lib.stride_tricks.sliding_window_view(padded[ch, y : y + n + 2 * r], (window, window))
            band[:n].reshape(n, w, window, window)[...] = windows
            band[:n].partition(taps // 2, axis=-1)
            out[ch, y : y + n] = band[:n, :, taps // 2]
    return out


def quantize_like_jpeg(data: np.ndarray, quality: float) -> np.ndarray:
    """Blockwise DCT quantisation of (C, H, W) data in [0, 1].

    Works on the 0-255 scale: 8x8 orthonormal DCT, divide by the luminance
    table scaled by s = (5000/q if q < 50 else 200 - 2q)/100 with entries
    clamped to >= 1, round, multiply back, invert, renormalise and clamp.
    """
    q = float(quality)
    s = (5000.0 / q if q < 50.0 else 200.0 - 2.0 * q) / 100.0
    table = np.maximum(JPEG_LUMA_TABLE * s, 1.0)

    def quantize(coeffs):  # in place: blockwise_dct hands over its own buffer
        coeffs /= table
        np.rint(coeffs, out=coeffs)
        coeffs *= table
        return coeffs

    recon = blockwise_dct(data * 255.0, 8, quantize)
    return np.clip(recon / 255.0, 0.0, 1.0)


def perturb_pair(f: Frame, mask: np.ndarray, spec: PerturbSpec, seed=0) -> tuple[Frame, np.ndarray]:
    """Apply one perturbation to a frame/mask pair.

    ``seed`` feeds the noise generator for ``gaussian`` and is ignored by the
    deterministic kinds, so results are reproducible per (inputs, spec, seed).
    """
    kind, value = spec.kind, spec.param
    if kind == "none":
        return f, mask
    if kind == "flip":
        return Frame(f.data[:, :, ::-1].copy()), np.ascontiguousarray(np.asarray(mask)[:, ::-1])
    if kind == "compression":
        return Frame(quantize_like_jpeg(f.data, value)), mask
    if kind == "detail":
        soft = gaussian_blur(f.data, 1.0, BLUR_KSIZE)
        return Frame(np.clip(f.data + value * (f.data - soft), 0.0, 1.0)), mask
    if kind == "gaussian":
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, value, size=f.data.shape)
        return Frame(np.clip(f.data + noise, 0.0, 1.0)), mask
    if kind == "blur":
        return Frame(np.clip(gaussian_blur(f.data, value, BLUR_KSIZE), 0.0, 1.0)), mask
    # median
    return Frame(np.clip(_median_filter(f.data, int(value)), 0.0, 1.0)), mask
