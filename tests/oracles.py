"""Independent brute-force reference implementations used only by tests.

Everything here is written as scalar loops against the documented formulas,
deliberately sharing no code with the package, so that agreement between the
two is evidence rather than tautology.
"""

import math

import numpy as np


def reflect_index(i: int, n: int) -> int:
    """Mirror an out-of-range index without repeating the edge sample."""
    if n == 1:
        return 0
    while not 0 <= i < n:
        if i < 0:
            i = -i
        else:
            i = 2 * n - 2 - i
    return i


def conv2d_reflect(channel: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Same-size cross-correlation with mirror padding, scalar loops."""
    h, w = channel.shape
    k = taps.shape[0]
    r = k // 2
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy = reflect_index(y + dy, h)
                    xx = reflect_index(x + dx, w)
                    acc += channel[yy, xx] * taps[dy + r, dx + r]
            out[y, x] = acc
    return out


def gaussian_blur_reflect(channel: np.ndarray, sigma: float, ksize: int) -> np.ndarray:
    """Separable Gaussian blur, rows then columns, mirror padding, scalar loops."""
    h, w = channel.shape
    r = ksize // 2
    taps = [math.exp(-(d * d) / (2.0 * sigma * sigma)) for d in range(-r, r + 1)]
    total = sum(taps)
    taps = [t / total for t in taps]
    rows = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            rows[y, x] = sum(channel[reflect_index(y + d, h), x] * taps[d + r] for d in range(-r, r + 1))
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            out[y, x] = sum(rows[y, reflect_index(x + d, w)] * taps[d + r] for d in range(-r, r + 1))
    return out


def median_reflect(channel: np.ndarray, window: int) -> np.ndarray:
    """Square-window median with mirror padding, scalar loops."""
    h, w = channel.shape
    r = window // 2
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            values = sorted(channel[reflect_index(y + dy, h), reflect_index(x + dx, w)]
                            for dy in range(-r, r + 1) for dx in range(-r, r + 1))
            out[y, x] = values[len(values) // 2]
    return out


def gabor_tap(x: int, y: int, sigma: float, lam: float, gamma: float,
              phi: float, theta: float, odd: bool) -> float:
    """Single Gabor tap straight from the textbook formula."""
    xr = x * math.cos(theta) + y * math.sin(theta)
    yr = -x * math.sin(theta) + y * math.cos(theta)
    env = math.exp(-(xr * xr + gamma * gamma * yr * yr) / (2.0 * sigma * sigma))
    carrier = math.sin if odd else math.cos
    return env * carrier(2.0 * math.pi * xr / lam + phi)


def luminance_601(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma, per pixel."""
    h, w = rgb.shape[1:]
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            out[y, x] = (0.299 * rgb[0, y, x]
                         + 0.587 * rgb[1, y, x]
                         + 0.114 * rgb[2, y, x])
    return out


def affine_unit(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clamped affine map of [lo, hi] onto [0, 1]."""
    out = (values - lo) / (hi - lo)
    return np.clip(out, 0.0, 1.0)


def dct2_naive(block: np.ndarray) -> np.ndarray:
    """Type-II orthonormal 2-D DCT from the definition, O(B^4)."""
    b = block.shape[0]
    out = np.zeros((b, b), dtype=np.float64)
    for u in range(b):
        for v in range(b):
            acc = 0.0
            for y in range(b):
                for x in range(b):
                    acc += (block[y, x]
                            * math.cos(math.pi * (2 * y + 1) * u / (2 * b))
                            * math.cos(math.pi * (2 * x + 1) * v / (2 * b)))
            au = math.sqrt(1.0 / b) if u == 0 else math.sqrt(2.0 / b)
            av = math.sqrt(1.0 / b) if v == 0 else math.sqrt(2.0 / b)
            out[u, v] = au * av * acc
    return out


def idct2_naive(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct2_naive, from the definition."""
    b = coeffs.shape[0]
    out = np.zeros((b, b), dtype=np.float64)
    for y in range(b):
        for x in range(b):
            acc = 0.0
            for u in range(b):
                for v in range(b):
                    au = math.sqrt(1.0 / b) if u == 0 else math.sqrt(2.0 / b)
                    av = math.sqrt(1.0 / b) if v == 0 else math.sqrt(2.0 / b)
                    acc += (au * av * coeffs[u, v]
                            * math.cos(math.pi * (2 * y + 1) * u / (2 * b))
                            * math.cos(math.pi * (2 * x + 1) * v / (2 * b)))
            out[y, x] = acc
    return out


def band_reconstruct_blocks(channel: np.ndarray, block_size: int, keep) -> np.ndarray:
    """Blockwise band reconstruction with an explicit block loop.

    ``keep(u, v, b)`` decides which coefficients survive.  Padding mirrors
    the channel; the result is cropped back, left unclamped and unmapped.
    """
    import scipy.fft

    h, w = channel.shape
    b = block_size
    ph = math.ceil(h / b) * b
    pw = math.ceil(w / b) * b
    padded = np.zeros((ph, pw), dtype=np.float64)
    for y in range(ph):
        for x in range(pw):
            padded[y, x] = channel[reflect_index(y, h), reflect_index(x, w)]
    out = np.zeros_like(padded)
    for by in range(0, ph, b):
        for bx in range(0, pw, b):
            block = padded[by:by + b, bx:bx + b]
            coeffs = scipy.fft.dctn(block, type=2, norm="ortho")
            for u in range(b):
                for v in range(b):
                    if not keep(u, v, b):
                        coeffs[u, v] = 0.0
            out[by:by + b, bx:bx + b] = scipy.fft.idctn(coeffs, type=2, norm="ortho")
    return out[:h, :w]


def confusion(pred: np.ndarray, gt: np.ndarray):
    """Hand-counted confusion quadruple as Python ints."""
    tp = fp = fn = tn = 0
    h, w = pred.shape
    for y in range(h):
        for x in range(w):
            p = bool(pred[y, x])
            g = bool(gt[y, x])
            if p and g:
                tp += 1
            elif p and not g:
                fp += 1
            elif not p and g:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def f1_exact(tp: int, fp: int, fn: int):
    """F1 as an exact fraction; conventions for empty classes."""
    from fractions import Fraction

    if tp + fp + fn == 0:
        return Fraction(1)
    return Fraction(2 * tp, 2 * tp + fp + fn)


def miou_exact(tp: int, fp: int, fn: int, tn: int):
    """Class-mean IoU as an exact fraction."""
    from fractions import Fraction

    fg = Fraction(1) if tp + fp + fn == 0 else Fraction(tp, tp + fp + fn)
    bg = Fraction(1) if tn + fp + fn == 0 else Fraction(tn, tn + fp + fn)
    return (fg + bg) / 2


def jpeg_block_quantize(channel: np.ndarray, quality: float,
                        table: np.ndarray) -> np.ndarray:
    """Explicit block-loop JPEG-style requantization of one channel in [0,1]."""
    import scipy.fft

    s = (5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality) / 100.0
    qtab = np.maximum(table * s, 1.0)
    h, w = channel.shape
    ph = math.ceil(h / 8) * 8
    pw = math.ceil(w / 8) * 8
    padded = np.zeros((ph, pw), dtype=np.float64)
    for y in range(ph):
        for x in range(pw):
            padded[y, x] = channel[reflect_index(y, h), reflect_index(x, w)] * 255.0
    out = np.zeros_like(padded)
    for by in range(0, ph, 8):
        for bx in range(0, pw, 8):
            block = padded[by:by + 8, bx:bx + 8]
            coeffs = scipy.fft.dctn(block, type=2, norm="ortho")
            coeffs = np.rint(coeffs / qtab) * qtab
            out[by:by + 8, bx:bx + 8] = scipy.fft.idctn(coeffs, type=2, norm="ortho")
    return np.clip(out[:h, :w] / 255.0, 0.0, 1.0)


def correlate2d_strided(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                        stride: int, pad: int, pad_mode: str) -> np.ndarray:
    """Scalar-loop cross-correlation: x (Cin,H,W), w (Cout,Cin,kh,kw), b (Cout,)."""
    cout, cin, kh, kw = w.shape
    _, h, wd = x.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    padded = np.zeros((cin, hp, wp), dtype=np.float64)
    for c in range(cin):
        for y in range(hp):
            for xx in range(wp):
                sy, sx = y - pad, xx - pad
                if pad_mode == "wrap":
                    padded[c, y, xx] = x[c, sy % h, sx % wd]
                elif 0 <= sy < h and 0 <= sx < wd:
                    padded[c, y, xx] = x[c, sy, sx]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((cout, ho, wo), dtype=np.float64)
    for co in range(cout):
        for oy in range(ho):
            for ox in range(wo):
                acc = b[co]
                for ci in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            acc += padded[ci, oy * stride + u, ox * stride + v] * w[co, ci, u, v]
                out[co, oy, ox] = acc
    return out
