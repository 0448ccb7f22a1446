"""Gabor texture view: a quadrature filter bank applied to luminance.

Kernels follow the classic even/odd pair

    even(x, y) = exp(-(x'^2 + gamma^2 y'^2) / (2 sigma^2)) * cos(2 pi x'/lambda + phi)
    odd(x, y)  = exp(-(x'^2 + gamma^2 y'^2) / (2 sigma^2)) * sin(2 pi x'/lambda + phi)

with the rotated coordinates x' = x cos(theta) + y sin(theta) and
y' = -x sin(theta) + y cos(theta). ``x`` is the column offset from the kernel
centre and ``y`` the row offset (rows grow downward).

The bank is applied with numpy's FFTs, which run the pocketfft passes of
``scipy.fft``; the inverse reproduces ``scipy.fft.irfft2`` bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Frame, FeatureStack, Kernel2D, affine_map_to_unit, check_int, check_real, luminance
from .errors import PipelineError

PHASES = ("even", "odd")


@dataclass(frozen=True)
class GaborParams:
    """One oriented band-pass filter: envelope sigma, wavelength, aspect gamma,
    phase offset phi, orientation theta and an odd kernel size."""

    sigma: float
    wavelength: float
    gamma: float
    phi: float
    theta: float
    ksize: int

    def __post_init__(self):
        for name in ("sigma", "wavelength", "gamma", "phi", "theta"):
            angle = name in ("phi", "theta")  # any finite number; the others are positive
            value = check_real(getattr(self, name), "bad-gabor", name, -math.inf if angle else 0.0, math.inf, not angle)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "ksize", check_int(self.ksize, "bad-gabor", "ksize", 3))
        if self.ksize % 2 == 0:
            raise PipelineError("bad-gabor", f"ksize must be odd, got {self.ksize}")
        # keep the Gaussian envelope essentially inside the support: ksize >= 2 ceil(3 sigma) + 1
        if 3.0 * self.sigma > self.ksize // 2:
            raise PipelineError("bad-gabor", f"ksize {self.ksize} truncates sigma={self.sigma}")


def gabor_kernel(params: GaborParams, phase: str) -> Kernel2D:
    """Materialise the even (cosine) or odd (sine) kernel for ``params``."""
    if phase not in PHASES:
        raise PipelineError("bad-gabor", f"phase must be one of {PHASES}, got {phase!r}")
    r = params.ksize // 2
    y, x = np.mgrid[-r : r + 1, -r : r + 1].astype(np.float64)
    xr = x * math.cos(params.theta) + y * math.sin(params.theta)
    yr = -x * math.sin(params.theta) + y * math.cos(params.theta)
    envelope = np.exp(-(xr**2 + params.gamma**2 * yr**2) / (2.0 * params.sigma**2))
    carrier = 2.0 * np.pi * xr / params.wavelength + params.phi
    wave = np.cos(carrier) if phase == "even" else np.sin(carrier)
    return Kernel2D(envelope * wave)


BANK_ORIENTATIONS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
BANK_SCALES = ((2.0, 4.0, 13), (4.0, 8.0, 25))  # (sigma, wavelength, ksize)


def gabor_bank() -> tuple[tuple[GaborParams, str], ...]:
    """Enumerate the bank: orientation outermost, scale next, phase innermost."""
    entries = []
    for theta in BANK_ORIENTATIONS:
        for sigma, wavelength, ksize in BANK_SCALES:
            for phase in PHASES:
                entries.append((GaborParams(sigma, wavelength, gamma=0.5, phi=0.0, theta=theta, ksize=ksize), phase))
    return tuple(entries)


def _bank_label(params: GaborParams, phase: str) -> str:
    deg = round(math.degrees(params.theta)) % 180
    return f"gabor_t{deg}_s{params.sigma:g}_{phase}"


TEXTURE_LABELS = tuple(_bank_label(p, ph) for p, ph in gabor_bank())
# the side of the largest kernel in the bank, the shared FFT support
BANK_SIDE = max(p.ksize for p, _ in gabor_bank())


@functools.lru_cache(maxsize=None)
def fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= ``n``: scipy's ``next_fast_len(n, real=True)``."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def irfft2(spectrum: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``scipy.fft.irfft2(spectrum, shape)`` with the same bytes, consuming
    ``spectrum`` (complex, C-contiguous).

    pocketfft's 2-D c2r runs an unscaled complex pass over the rows, then the
    real pass over the columns, and applies 1/(rows * cols), rounded from long
    double, last. The complex pass runs in place, so beside ``spectrum`` only
    the real output is held.
    """
    np.fft.ifft(spectrum, axis=-2, norm="forward", out=spectrum)
    out = np.fft.irfft(spectrum, n=shape[1], axis=-1, norm="forward")
    out *= float(1 / np.longdouble(shape[0] * shape[1]))
    return out


@functools.lru_cache(maxsize=4)
def _bank_spectrum(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The bank's spectrum at the FFT size ``shape``
    and each kernel's bound sum(|taps|), both read-only.

    Correlation is convolution with the flipped kernel; centring every kernel
    in one shared support lets one FFT product serve the whole bank.
    """
    kernels = [gabor_kernel(p, ph).taps for p, ph in gabor_bank()]
    r = BANK_SIDE // 2
    bank = np.zeros((len(kernels), BANK_SIDE, BANK_SIDE))
    for i, k in enumerate(kernels):
        o = r - k.shape[0] // 2
        bank[i, o : BANK_SIDE - o, o : BANK_SIDE - o] = k[::-1, ::-1]
    spectrum = np.fft.rfft2(bank, shape)
    bounds = np.array([np.abs(k).sum() for k in kernels])
    spectrum.setflags(write=False)
    bounds.setflags(write=False)
    return spectrum, bounds


def extract_texture(f: Frame, out: "np.ndarray | None" = None) -> FeatureStack:
    """16-channel texture view: the Gabor bank correlated with luminance.

    Each response is normalised to [0, 1] by clamping to +-sum(|taps|) (the
    largest magnitude any unit-range input can produce) and mapping affinely.
    Each FFT axis of the reflect-padded frame (side + 24) is zero-padded to
    the next 5-smooth length; the extra zeros only push wrap-around further
    from the cropped region, so the result is exact up to rounding. The bank's
    spectrum is cached per FFT size. The product and inverse FFT run one
    orientation (4 kernels) at a time, clamped straight into ``out``
    ((16, H, W); a new array when None).
    """
    h, w = f.height, f.width
    if BANK_SIDE > h or BANK_SIDE > w:
        raise PipelineError("kernel-exceeds-image", f"kernel {BANK_SIDE}x{BANK_SIDE} on {h}x{w}")
    out = np.empty((len(TEXTURE_LABELS), h, w)) if out is None else out
    r = BANK_SIDE // 2
    padded = np.pad(luminance(f).data[0], r, mode="reflect")
    size = tuple(fast_len(side) for side in padded.shape)
    bank_spectrum, bounds = _bank_spectrum(size)
    spectrum, bounds = np.fft.rfft2(padded, size), bounds[:, None, None]
    group = len(BANK_SCALES) * len(PHASES)  # one orientation's kernels, consecutive in the bank
    for g in range(0, len(out), group):
        resp = irfft2(spectrum * bank_spectrum[g : g + group], size)[:, 2 * r : 2 * r + h, 2 * r : 2 * r + w]
        affine_map_to_unit(resp, -bounds[g : g + group], bounds[g : g + group], out=out[g : g + group])
    return FeatureStack(out, TEXTURE_LABELS)
