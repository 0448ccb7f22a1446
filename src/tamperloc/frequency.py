"""Frequency view: blockwise DCT band filtering at several block sizes.

Each channel is reflect-padded to a block multiple, transformed with the
orthonormal 2-D DCT-II, masked to a diagonal frequency band, inverted and
cropped back. Compression history shows up as band-energy structure aligned
to block boundaries, which differs between spliced material and its host.

The DCT is a numpy port of pocketfft's type-2/3 DCT (Makhoul, IEEE TASSP 1980: one
real FFT of a reordered sequence plus a twiddle pass), the routine behind
``scipy.fft.dctn(norm="ortho")``, step for step, so every coefficient has the
same bytes. The band filter is a fixed linear map per block, so the view
applies it as gemms with the DCT matrix of the same routine.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import Frame, FeatureStack, affine_map_to_unit
from .errors import PipelineError

BANDS = ("low", "mid", "high", "full")
BAND_SPECS = ((32, "low"), (16, "mid"), (8, "high"), (4, "full"))
CLAMP_LO, CLAMP_HI = -1.0, 2.0

FREQUENCY_LABELS = tuple(f"dct{b}_{band}_{c}" for b, band in BAND_SPECS for c in ("R", "G", "B"))

_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _twiddles(n: int, scale: float, ndim: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The length-``n`` DCT's twiddles tw[i] = cos(2 pi (i + 1) / 4n) times
    ``scale``: tw[k - 1] and tw[n - k - 1] for 0 < k < (n + 1) // 2, shaped to
    scale the rows of an ``ndim`` array, and 2 tw[n // 2 - 1].

    Each cosine is rounded as pocketfft's ``sincos_2pibyn(4n)`` rounds it: the
    real part of the product of two table entries, one for the low and one
    for the high bits of the angle's index, each from cos/sin by octant.
    """
    m = 4 * n
    ang = float(np.longdouble(0.25) * np.longdouble("3.141592653589793238462643383279502884197") / m)
    shift = 1
    while 4**shift < (m + 2) // 2:
        shift += 1

    def entry(x):  # exp(2 pi i x / m) for 0 <= x <= n
        x *= 8
        if x < m:
            return math.cos(x * ang), math.sin(x * ang)
        if x < 2 * m:
            return math.sin((2 * m - x) * ang), math.cos((2 * m - x) * ang)
        return -0.0, 1.0  # x == n: a quarter turn

    tw = []
    for i in range(1, n + 1):
        (ar, ai), (br, bi) = entry(i & ((1 << shift) - 1)), entry(i >> shift << shift)
        tw.append(ar * br - ai * bi)
    tw, ns2, lanes = np.array(tw) * scale, (n + 1) // 2, (1,) * (ndim - 1)
    return tw[: ns2 - 1].reshape((-1,) + lanes), tw[n - 2 : n - ns2 - 1 : -1].reshape((-1,) + lanes), 2.0 * tw[ns2 - 1]


def _dct_along(x: np.ndarray, axis: int, fct: float, inverse: bool, out=None, work=None) -> np.ndarray:
    """pocketfft's ortho DCT-II (DCT-III when ``inverse``) of ``x`` along ``axis``,
    with its FFT output scaled by ``fct``.

    The result has ``x``'s shape and is a view of ``out``, a contiguous array
    of ``x.size`` floats that a forward pass may share with ``x``, laid out
    transform axis first; ``work`` is complex scratch of
    ``(n // 2 + 1) * x.size / n`` entries. Either is allocated when None. Each step is one numpy call over
    every lane. A power-of-two ``fct`` and the forward pass's 1/2 are folded
    into the twiddles, which scales each product exactly.
    """
    c = x.swapaxes(0, axis)
    n, ns2, half, lanes = c.shape[0], (c.shape[0] + 1) // 2, (c.shape[0] - 1) // 2, c.shape[1:]
    r = np.empty(c.shape) if out is None else out.reshape(c.shape)
    z = np.empty((n // 2 + 1,) + lanes, np.complex128) if work is None else work.reshape((n // 2 + 1,) + lanes)
    t1, t2 = z.reshape(-1).view(np.float64)[: 2 * (ns2 - 1) * r[0].size].reshape((2, ns2 - 1) + lanes)
    fold = fct if math.frexp(fct)[0] == 0.5 else 1.0
    a, b, mid = _twiddles(n, fold if inverse else 0.5 * fold, c.ndim)
    lo, hi = r[1:ns2], r[n - 1 : n - ns2 : -1]  # r[k], r[n - k] for 0 < k < ns2
    re, im = z.real, z.imag
    if not inverse:  # 2 c[0], (c[k] + c[k+1], c[k+1] - c[k]) for odd k, 2 c[n-1] as a half-complex spectrum
        np.multiply(c[0], 2.0, out=re[0])
        np.add(c[1 : n - 1 : 2], c[2:n:2], out=re[1 : half + 1])
        np.subtract(c[2:n:2], c[1 : n - 1 : 2], out=im[1 : half + 1])
        if n % 2 == 0:
            np.multiply(c[n - 1], 2.0, out=re[n // 2])
        np.fft.irfft(z, n=n, axis=0, norm="forward", out=r)
        if fold != fct:
            r *= fct
        np.multiply(a, hi, out=t1)  # t1, t2 reuse the spectrum's memory
        t1 += np.multiply(b, lo, out=t2)
        np.multiply(a, lo, out=t2)
        hi *= b
        t2 -= hi
        np.add(t1, t2, out=lo)
        np.subtract(t1, t2, out=hi)
        if n % 2 == 0:
            r[ns2] *= mid
        r[0] *= _SQRT2 * 0.5 * fold
        return r.swapaxes(0, axis)
    np.add(c[1:ns2], c[n - 1 : n - ns2 : -1], out=t1)
    np.subtract(c[1:ns2], c[n - 1 : n - ns2 : -1], out=t2)
    np.multiply(c[0], _SQRT2 * fold, out=r[0])
    if n % 2 == 0:
        np.multiply(c[ns2], mid, out=r[ns2])
    np.multiply(a, t2, out=lo)
    np.multiply(a, t1, out=hi)
    t1 *= b
    lo += t1
    t2 *= b
    hi -= t2
    np.fft.rfft(r, axis=0, out=z)
    if fold != fct:
        re *= fct
        im *= fct
    r[0] = re[0]  # unpack and undo the pairing: r[k], r[k+1] = re - im, im + re for odd k
    np.subtract(re[1 : half + 1], im[1 : half + 1], out=r[1 : n - 1 : 2])
    np.add(im[1 : half + 1], re[1 : half + 1], out=r[2:n:2])
    if n % 2 == 0:
        r[n - 1] = re[n // 2]
    return r.swapaxes(0, axis)


@functools.lru_cache(maxsize=None)
def _ortho(shape: tuple[int, ...]) -> float:
    """pocketfft's orthonormal factor 1/sqrt(prod 2n), in long double."""
    return float(1 / np.sqrt(np.longdouble(math.prod(2 * n for n in shape))))


def _dctn(x: np.ndarray, axes: tuple[int, ...], inverse: bool = False) -> np.ndarray:
    """``scipy.fft.dctn`` (``idctn`` when ``inverse``) with ``type=2, norm="ortho"``:
    the factor goes with the first axis, as in pocketfft."""
    fct = _ortho(tuple(x.shape[a] for a in axes))
    for a in axes:
        x, fct = _dct_along(x, a, fct, inverse), 1.0
    return x


def _check_block(block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != block.shape[1] or block.shape[0] == 0:
        raise PipelineError("bad-block", f"expected square 2-D block, got {block.shape}")
    return block


def dct2(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one square block."""
    return np.ascontiguousarray(_dctn(_check_block(block), (0, 1)))


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2`."""
    return np.ascontiguousarray(_dctn(_check_block(coeffs), (0, 1), inverse=True))


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


def _pad_to_blocks(data: np.ndarray, block: int) -> np.ndarray:
    """A new array of ``data`` reflect-padded at the bottom and right to ``block`` multiples."""
    h, w = data.shape[-2:]
    if h % block == 0 and w % block == 0:
        return np.array(data, dtype=np.float64)  # np.pad's bookkeeping costs more than the copy
    return np.pad(data, [(0, 0)] * (data.ndim - 2) + [(0, -h % block), (0, -w % block)], mode="reflect")


def blockwise_dct(data: np.ndarray, block: int, op) -> np.ndarray:
    """Reflect-pad the last two axes to a ``block`` multiple, take the orthonormal
    DCT-II of every block, apply ``op`` to the ``(..., rows, cols, block, block)``
    coefficients (it may work in place and return its argument), invert and
    crop back.

    The transforms are :func:`_dctn`'s, pass by pass: all but the first
    inverse pass write over the padded copy, and one complex scratch serves
    all four.
    """
    h, w = data.shape[-2:]
    padded = _pad_to_blocks(data, block)
    blocks = padded.reshape(*padded.shape[:-2], padded.shape[-2] // block, block, padded.shape[-1] // block, block)
    work = np.empty(padded.size // block * (block // 2 + 1), np.complex128)
    fct = _ortho((block, block))
    coeffs = _dct_along(_dct_along(blocks, -3, fct, False, padded, work), -1, 1.0, False, padded, work)
    coeffs = op(coeffs.swapaxes(-3, -2)).swapaxes(-3, -2)
    recon = _dct_along(_dct_along(coeffs, -3, fct, True, None, work), -1, 1.0, True, padded, work)
    return recon.reshape(padded.shape)[..., :h, :w]


@functools.lru_cache(maxsize=None)
def _band_projector(block: int, band: str) -> tuple[np.ndarray, np.ndarray]:
    """The (B, B) orthonormal DCT matrix, the 1-D transform of the identity, and
    the band's mask as (B, 1, B) floats; both read-only."""
    basis = np.ascontiguousarray(_dct_along(np.eye(block), 0, _ortho((block,)), False))
    mask = band_mask(block, band).astype(np.float64)[:, None, :]
    basis.setflags(write=False)
    mask.setflags(write=False)
    return basis, mask


def band_reconstruct(channel: np.ndarray, block_size: int, band: str) -> np.ndarray:
    """Blockwise DCT -> band mask -> inverse DCT of one 2-D channel (pre-clamp).

    With C the DCT matrix, each block X becomes C^T ((C X C^T) * mask) C: two
    gemms per axis over the padded channel, block rows as a batch and block
    columns as one long matrix. Equal to the transform route within rounding.
    """
    channel = np.asarray(channel, dtype=np.float64)
    if channel.ndim != 2:
        raise PipelineError("bad-block", f"expected 2-D channel, got {channel.shape}")
    basis, mask = _band_projector(block_size, band)
    h, w = channel.shape
    padded = _pad_to_blocks(channel, block_size)
    by_rows = (padded.shape[0] // block_size, block_size, padded.shape[1])
    by_cols = (-1, block_size)
    a = np.matmul(basis, padded.reshape(by_rows))
    b = np.matmul(a.reshape(by_cols), basis.T)
    b.reshape(by_rows[0], block_size, -1, block_size)[...] *= mask
    np.matmul(b.reshape(by_cols), basis, out=a.reshape(by_cols))
    np.matmul(basis.T, a, out=b.reshape(by_rows))
    return b.reshape(padded.shape)[:h, :w]


def frequency_features(f: Frame, out: "np.ndarray | None" = None) -> FeatureStack:
    """12 channels: (32, low), (16, mid), (8, high), (4, full) per RGB channel.

    Reconstructions are clamped to [-1, 2] (band filtering can overshoot the
    input range) and mapped affinely onto [0, 1]. Written into ``out``
    ((12, H, W); a new array when None).
    """
    out = np.empty((len(FREQUENCY_LABELS), f.height, f.width)) if out is None else out
    for i, (b, band) in enumerate(BAND_SPECS):
        for c, channel in enumerate(f.data):
            out[3 * i + c] = band_reconstruct(channel, b, band)
    return FeatureStack(affine_map_to_unit(out, CLAMP_LO, CLAMP_HI, out=out), FREQUENCY_LABELS)
