"""Frequency view: blockwise DCT band filtering at several block sizes.

Each channel is reflect-padded to a block multiple, transformed with the
orthonormal 2-D DCT-II, masked to a diagonal frequency band, inverted and
cropped back. Compression history shows up as band-energy structure aligned
to block boundaries, which differs between spliced material and its host.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn

from .core import Frame, FeatureStack, affine_map_to_unit
from .errors import PipelineError

BANDS = ("low", "mid", "high", "full")
BAND_SPECS = ((32, "low"), (16, "mid"), (8, "high"), (4, "full"))
CLAMP_LO, CLAMP_HI = -1.0, 2.0

FREQUENCY_LABELS = tuple(f"dct{b}_{band}_{c}" for b, band in BAND_SPECS for c in ("R", "G", "B"))


def _check_block(block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != block.shape[1] or block.shape[0] == 0:
        raise PipelineError("bad-block", f"expected square 2-D block, got {block.shape}")
    return block


def dct2(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one square block."""
    return dctn(_check_block(block), type=2, norm="ortho")


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2`."""
    return idctn(_check_block(coeffs), type=2, norm="ortho")


def band_mask(block_size: int, band: str) -> np.ndarray:
    """Boolean (B, B) mask keeping coefficients with diagonal index u+v in the band.

    With D = 2B-2: low keeps d <= floor(D/4), mid keeps floor(D/4) < d <= floor(D/2),
    high keeps d > floor(D/2) and full keeps everything.
    """
    if block_size < 1:
        raise PipelineError("bad-block", f"block size must be >= 1, got {block_size}")
    if band not in BANDS:
        raise PipelineError("bad-band", f"band must be one of {BANDS}, got {band!r}")
    u, v = np.mgrid[0:block_size, 0:block_size]
    d = u + v
    top = 2 * block_size - 2
    if band == "low":
        return d <= top // 4
    if band == "mid":
        return (d > top // 4) & (d <= top // 2)
    if band == "high":
        return d > top // 2
    return np.ones((block_size, block_size), dtype=bool)


def blockwise_dct(data: np.ndarray, block: int, op) -> np.ndarray:
    """Reflect-pad the last two axes to a ``block`` multiple, take the orthonormal
    DCT-II of every block, apply ``op`` to the ``(..., rows, cols, block, block)``
    coefficients, invert and crop back.
    """
    h, w = data.shape[-2:]
    padded = np.pad(data, [(0, 0)] * (data.ndim - 2) + [(0, -h % block), (0, -w % block)], mode="reflect")
    hb, wb = padded.shape[-2] // block, padded.shape[-1] // block
    blocks = padded.reshape(*padded.shape[:-2], hb, block, wb, block).swapaxes(-3, -2)
    coeffs = op(dctn(blocks, type=2, norm="ortho", axes=(-2, -1)))
    recon = idctn(coeffs, type=2, norm="ortho", axes=(-2, -1))
    return recon.swapaxes(-3, -2).reshape(padded.shape)[..., :h, :w]


def band_reconstruct(channel: np.ndarray, block_size: int, band: str) -> np.ndarray:
    """Blockwise DCT -> band mask -> inverse DCT of one 2-D channel (pre-clamp)."""
    channel = np.asarray(channel, dtype=np.float64)
    if channel.ndim != 2:
        raise PipelineError("bad-block", f"expected 2-D channel, got {channel.shape}")
    mask = band_mask(block_size, band)
    return blockwise_dct(channel, block_size, lambda coeffs: coeffs * mask)


def frequency_features(f: Frame, out: "np.ndarray | None" = None) -> FeatureStack:
    """12 channels: (32, low), (16, mid), (8, high), (4, full) per RGB channel,
    one transform of all three channels per block size.

    Reconstructions are clamped to [-1, 2] (band filtering can overshoot the
    input range) and mapped affinely onto [0, 1]. Written into ``out``
    ((12, H, W); a new array when None).
    """
    out = np.empty((len(FREQUENCY_LABELS), f.height, f.width)) if out is None else out
    for i, (b, band) in enumerate(BAND_SPECS):
        out[3 * i : 3 * i + 3] = blockwise_dct(f.data, b, lambda c, m=band_mask(b, band): c * m)
    return FeatureStack(affine_map_to_unit(out, CLAMP_LO, CLAMP_HI, out=out), FREQUENCY_LABELS)
