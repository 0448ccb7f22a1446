"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 array. Every primitive op records its parents and
a closure that routes the output gradient back to them; ``backward`` replays
the tape in reverse topological order. Gradients are only materialised for
tensors that require them (directly or through a parent), so feeding constant
inputs is cheap. Inside ``with no_grad():`` ops record nothing at all, so an
inference pass keeps no tape and each intermediate array is freed as soon as
no later op needs it.

The op set is deliberately small: what the fusion network needs, plus
``softmax``, which no model code calls; it is kept only because the
benchmark's tracer wraps it by name. ``attention`` is one fused op for
scaled dot-product attention; it works through blocks of query rows, so its
memory grows linearly in the token count. ``conv2d`` likewise works through
bands of output rows, building each band's im2col columns channel-major and
rebuilding them in the backward pass, so beyond its inputs, output and
gradients it holds one band of columns, not a whole frame of them. Both
recompute rather than store, as in Rabe & Staats (arXiv 2112.05682).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PipelineError

LAYER_NORM_EPS = 1e-12

# Query rows per attention block. Blocks of 64-256 rows timed within 10% of
# each other at 256 and 2304 tokens (64 and 192 px frames).
ATTENTION_BLOCK = 128

# Output pixels per conv2d band. Over the three stage-1 convolutions at 192
# px, one BLAS thread, bands of 1024-2048 pixels timed within 2% of each
# other, 4096 13% slower and 16384 35% slower (fwd+bwd 243, 273 and 357
# ms); at 64 px 1024-8192 timed within noise. 2048 pixels of 52-channel
# 3x3 columns are 7.3 MiB.
CONV_BLOCK = 2048

_grad_enabled = True


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.grad is not None else 'no'})"


@contextmanager
def no_grad():
    """Record no tape for ops run inside the block (nesting is allowed).

    Outputs never require gradients, so ``backward`` on them raises
    ``no-tape``; parameters keep their ``requires_grad`` flag and ``grad``.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, grad: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a fresh array in the layout zeros_like would give; never an alias,
        # because closures pass views such as g.reshape(old)
        t.grad = np.empty_like(t.data)
        t.grad[...] = grad
    else:
        t.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into ``grad`` of every grad-requiring leaf.

    ``root`` must be the output of recorded ops; calling this on a bare leaf
    means no forward pass was taped.
    """
    if root._backward_fn is None:
        raise PipelineError("no-tape", "tensor was not produced by recorded operations")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def back(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def back(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), back)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def back(g):
        _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(a.data @ b.data, (a, b), back)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def back(g):
        _accumulate(x, g * mask)

    return _make(np.where(mask, x.data, 0.0), (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        _accumulate(x, g * y * (1.0 - y))

    return _make(y, (x,), back)


def log(x: Tensor) -> Tensor:
    def back(g):
        _accumulate(x, g / x.data)

    return _make(np.log(x.data), (x,), back)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data > lo) & (x.data < hi)

    def back(g):
        _accumulate(x, g * inside)

    return _make(np.clip(x.data, lo, hi), (x,), back)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``. The network uses ``attention`` instead; this
    stays a public op because ``tamperbench/tracing.py`` wraps it by name."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - inner))

    return _make(y, (x,), back)


def attention(q, k, v, scale: float) -> Tensor:
    """Scaled dot-product attention ``softmax(scale * q @ k^T) @ v``.

    ``q``, ``k`` and ``v`` are (heads, n, dh). Query rows are processed in
    blocks of ``ATTENTION_BLOCK``; every row's softmax is complete within its
    block, so each output row comes from the same numpy ops, in the same
    order, as the dense computation. The backward pass recomputes each
    block's probabilities instead of storing them. Beyond the inputs, the
    output and the gradients, forward and backward hold O(heads *
    ATTENTION_BLOCK * n) floats at a time, never the O(heads * n^2) score
    matrix.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    qd, kd, vd = q.data, k.data, v.data
    kt = np.swapaxes(kd, -1, -2)
    n = qd.shape[-2]
    block = ATTENTION_BLOCK
    starts = range(0, n, block)

    def probs(lo):
        s = qd[..., lo : lo + block, :] @ kt
        s *= scale
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        return s

    out = np.empty(qd.shape[:-1] + vd.shape[-1:])
    for lo in starts:
        out[..., lo : lo + block, :] = probs(lo) @ vd

    def back(g):
        dq, dk, dv = np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for lo in starts:
            p = probs(lo)
            gb = g[..., lo : lo + block, :]
            dv += np.swapaxes(p, -1, -2) @ gb
            ds = gb @ np.swapaxes(vd, -1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            dq[..., lo : lo + block, :] = ds @ kd
            dk += np.swapaxes(ds, -1, -2) @ qd[..., lo : lo + block, :]
        _accumulate(q, dq)
        _accumulate(k, dk)
        _accumulate(v, dv)

    return _make(out, (q, k, v), back)


def layer_norm(x: Tensor) -> Tensor:
    """Normalise to zero mean / unit variance along the last axis (no affine part)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = xc * inv

    def back(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (g - gm - y * gy))

    return _make(y, (x,), back)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def back(g):
        _accumulate(x, np.full(x.data.shape, float(g) / n))

    return _make(np.asarray(x.data.mean()), (x,), back)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def back(g):
        _accumulate(x, g.reshape(old))

    return _make(x.data.reshape(shape), (x,), back)


def transpose(x: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def back(g):
        _accumulate(x, g.transpose(inverse))

    return _make(x.data.transpose(axes), (x,), back)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    parts = [_coerce(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accumulate(p, g[tuple(sl)])

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0, pad_mode: str = "zero") -> Tensor:
    """2-D convolution-as-correlation: x (Cin, H, W), w (Cout, Cin, kh, kw), b (Cout,).

    ``pad_mode`` is "zero" for training and "wrap" for the periodic test
    harness used to probe translation consistency.

    Output rows are processed in bands of ``max(1, CONV_BLOCK // wo)`` rows.
    Each band's channel-major columns (Cin*kh*kw, band*wo) are built, used in
    one gemm and dropped; the backward pass rebuilds them for the weight
    gradient instead of storing them. Beyond the inputs, the padded input,
    the output and the gradients, forward and backward hold O((Cin*kh*kw +
    Cout) * max(CONV_BLOCK, wo)) floats at a time, never the whole-frame
    (H*W, Cin*kh*kw) im2col matrix.
    """
    if pad_mode not in ("zero", "wrap"):
        raise PipelineError("bad-pad-mode", pad_mode)
    xd, wd = x.data, w.data
    cout, cin, kh, kw = wd.shape
    if xd.ndim != 3 or xd.shape[0] != cin:
        raise PipelineError("shape-mismatch", f"conv input {xd.shape} vs weight {wd.shape}")

    if pad:
        mode = "constant" if pad_mode == "zero" else "wrap"
        padded = np.pad(xd, ((0, 0), (pad, pad), (pad, pad)), mode=mode)
    else:
        padded = xd
    hp, wp = padded.shape[1:]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    win = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]  # (cin, ho, wo, kh, kw)
    wmat = wd.reshape(cout, -1)
    band = max(1, CONV_BLOCK // wo)
    bands = [(lo, slice(lo * wo, (lo + band) * wo)) for lo in range(0, ho, band)]

    def columns(lo):
        return win[:, lo : lo + band].transpose(0, 3, 4, 1, 2).reshape(cin * kh * kw, -1)

    out = np.empty((cout, ho * wo))
    for lo, px in bands:
        out[:, px] = wmat @ columns(lo)
    out += b.data[:, None]

    def back(g):
        gmat = g.reshape(cout, -1)  # (cout, ho*wo)
        _accumulate(b, gmat.sum(axis=1))
        dw = np.zeros_like(wmat)
        dpad = np.zeros_like(padded) if x.requires_grad else None
        for lo, px in bands:
            gb = gmat[:, px]
            dw += gb @ columns(lo).T
            if dpad is None:
                continue
            nb = min(band, ho - lo)
            dcols = (wmat.T @ gb).reshape(cin, kh, kw, nb, wo)
            top = lo * stride
            for u in range(kh):
                for v in range(kw):
                    dpad[:, top + u : top + u + stride * nb : stride, v : v + stride * wo : stride] += dcols[:, u, v]
        _accumulate(w, dw.reshape(wd.shape))
        if dpad is None:
            return
        if pad == 0:
            _accumulate(x, dpad)
        elif pad_mode == "zero":
            _accumulate(x, dpad[:, pad:-pad, pad:-pad])
        else:  # fold wrapped borders back onto the image
            h, wdt = xd.shape[1:]
            rows = (np.arange(hp) - pad) % h
            colsix = (np.arange(wp) - pad) % wdt
            dx = np.zeros_like(xd)
            np.add.at(dx, (slice(None), rows[:, None], colsix[None, :]), dpad)
            _accumulate(x, dx)

    return _make(out.reshape(cout, ho, wo), (x, w, b), back)


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2; spatial dims must be even."""
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise PipelineError("shape-mismatch", f"avg_pool2 needs even dims, got {h}x{w}")
    y = x.data.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    def back(g):
        _accumulate(x, np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) * 0.25)

    return _make(y, (x,), back)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    def back(g):
        c, h, w = x.data.shape
        _accumulate(x, g.reshape(c, h, factor, w, factor).sum(axis=(2, 4)))

    return _make(np.repeat(np.repeat(x.data, factor, axis=1), factor, axis=2), (x,), back)
