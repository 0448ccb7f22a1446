"""Gabor texture view: a quadrature filter bank applied to luminance.

Kernels follow the classic even/odd pair

    even(x, y) = exp(-(x'^2 + gamma^2 y'^2) / (2 sigma^2)) * cos(2 pi x'/lambda + phi)
    odd(x, y)  = exp(-(x'^2 + gamma^2 y'^2) / (2 sigma^2)) * sin(2 pi x'/lambda + phi)

with the rotated coordinates x' = x cos(theta) + y sin(theta) and
y' = -x sin(theta) + y cos(theta). ``x`` is the column offset from the kernel
centre and ``y`` the row offset (rows grow downward).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft2, rfft2

from .core import Frame, FeatureStack, Kernel2D, affine_map_to_unit, luminance
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
        if self.sigma <= 0 or self.wavelength <= 0 or self.gamma <= 0:
            raise PipelineError("bad-gabor", "sigma, wavelength and gamma must be positive")
        if self.ksize < 3 or self.ksize % 2 == 0:
            raise PipelineError("bad-gabor", f"ksize must be odd and >= 3, got {self.ksize}")
        # keep the Gaussian envelope essentially inside the support
        if self.ksize < 2 * math.ceil(3.0 * self.sigma) + 1:
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


@functools.lru_cache(maxsize=4)
def _bank_spectrum(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The bank's spectrum on a reflect-padded frame of ``shape``
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
    spectrum = rfft2(bank, shape)
    bounds = np.array([np.abs(k).sum() for k in kernels])
    spectrum.setflags(write=False)
    bounds.setflags(write=False)
    return spectrum, bounds


def extract_texture(f: Frame) -> FeatureStack:
    """16-channel texture view: the Gabor bank correlated with luminance.

    Each response is normalised to [0, 1] by clamping to +-sum(|taps|) (the
    largest magnitude any unit-range input can produce) and mapping affinely.
    The bank's spectrum is cached per frame shape.
    """
    if BANK_SIDE > f.height or BANK_SIDE > f.width:
        raise PipelineError("kernel-exceeds-image", f"kernel {BANK_SIDE}x{BANK_SIDE} on {f.height}x{f.width}")
    r = BANK_SIDE // 2
    padded = np.pad(luminance(f).data[0], r, mode="reflect")
    bank_spectrum, bounds = _bank_spectrum(padded.shape)
    resp = irfft2(rfft2(padded) * bank_spectrum, padded.shape)[:, 2 * r :, 2 * r :]  # (K, H, W)
    bounds = bounds[:, None, None]
    return FeatureStack(affine_map_to_unit(resp, -bounds, bounds), TEXTURE_LABELS)
