"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 array. Every primitive op records its parents and
a closure that routes the output gradient back to them; ``backward`` replays
the tape in reverse topological order. Gradients are only materialised for
tensors that require them (directly or through a parent), so feeding constant
inputs is cheap. Inside ``with no_grad():`` ops run by that thread record
nothing at all, so an inference pass keeps no tape and each intermediate
array is freed as soon as no later op needs it.

``thread_policy`` is the program's one thread policy: it pins numpy's
OpenBLAS to one thread for its block and lets ``share`` spread coarse work
over one worker per core, at one level at a time. The workers are the
calling thread and the helpers of one pool per process, started once and
reused. ``train`` shares a minibatch's samples, ``evaluate`` its frames,
``build_feature_stack`` a frame's views, and ``predict`` on a single frame
its convolutions' forward bands and its attention heads. An op hands
``share`` its natural jobs, one per band or head, and never sizes its work
to the worker count; ``share`` alone decides how many threads run them.
Each worker builds its own tape, so tapes never share a ``Tensor``.

The op set is deliberately small: what the fusion network needs, plus
``softmax``, which no model code calls; it is kept only because the
benchmark's tracer wraps it by name. ``attention`` is one fused op for
scaled dot-product attention; it works through cache-sized tiles of query
rows, so its memory grows linearly in the token count, and keeps only each
row's log-sum-exp for the backward pass, as in FlashAttention-2 (Dao, arXiv
2307.08691). Each head is one job, with its own tile, which stays in the L2
of the core that runs it. ``conv2d`` likewise works through bands of output
rows, one job per forward band, building each band's im2col columns
channel-major from its own slab of padded input rows and rebuilding them in
the backward pass, so beyond its inputs, output and gradients it holds one
band of columns and one slab per running job. Both recompute rather than
store, as in Rabe & Staats (arXiv 2112.05682).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import queue
import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PipelineError

LAYER_NORM_EPS = 1e-12

# Score entries per attention tile, one tile per running head: 2**17
# float64 are 1 MiB, inside the 2 MiB L2 of the core that runs the head. A
# tile is max(1, ATTENTION_BLOCK // n_keys) query rows: 56 at 2304 tokens
# (192 px frames), the whole head at 256 tokens (64 px).
ATTENTION_BLOCK = 2**17

# Output pixels per conv2d band in the backward pass; forward bands, one
# share job each, take half as many, so two running forward bands hold one
# block of columns between them. Over the three stage-1 convolutions at
# 192 px, one BLAS thread, bands of 1024-2048 pixels timed within 2% of each
# other, 4096 13% slower and 16384 35% slower (fwd+bwd 243, 273 and 357 ms);
# at 64 px 1024-8192 timed within noise. 2048 pixels of 52-channel 3x3
# columns are 7.3 MiB.
CONV_BLOCK = 2048


# The cgroup v2 CPU quota of this process's group, read only: "max 100000",
# or "<quota> <period>" in microseconds.
CPU_MAX = "/sys/fs/cgroup/cpu.max"


def cores() -> int:
    """Cores this process may run on: its CPU affinity (``os.cpu_count()``
    where there is no affinity call), capped by the cgroup ``cpu.max`` quota
    at ceil(quota / period). ``max`` or a missing file sets no cap."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    try:
        with open(CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        return max(1, min(n, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError, ZeroDivisionError):  # no file, "max", or not cgroup v2's format
        return n


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles in ``numpy.libs``, or None where there is no such library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)  # numpy loaded it already: the same handle
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _ThreadState(threading.local):
    grad_enabled = True  # cleared by no_grad, for its own thread only
    workers = 0  # threads share() may use; 0 outside a thread policy


_state = _ThreadState()
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = 1


@contextmanager
def thread_policy():
    """The program's one thread policy, for the block; yields the number of
    threads ``share`` may use in it. Nesting is allowed.

    While any thread is inside a policy, numpy's OpenBLAS runs one thread;
    the first to enter saves the old count and the last to leave restores
    it, on an exception too. The thread that enters may ``share`` work over
    one worker per core, itself and the pool's helpers; inside a job nothing
    more is shared, so work is shared at one level at a time. On two cores,
    two sample workers each with one BLAS thread took a 64 px training step
    (batch 4) from 208 to 125 ms against samples one after another on one
    BLAS thread, while two workers each calling a two-thread BLAS made
    192 px frames 29% slower than inline attention.

    Without the OpenBLAS symbols the count cannot be set. OpenBLAS then
    keeps the count it read from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS,
    when it loaded, with a thread per core when neither is set; the block
    gets the cores that count leaves free, at least one.
    """
    global _blas_holders, _blas_saved
    if _state.workers:
        yield _state.workers
        return
    blas = _openblas()
    workers = cores()
    if blas is None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            value = os.environ.get(var, "").strip()
            if value.isdigit() and int(value) > 0:
                workers = max(1, workers // int(value))
                break
        else:
            workers = 1
    else:
        with _blas_lock:
            if _blas_holders == 0:
                _blas_saved = blas[0]()
                blas[1](1)
            _blas_holders += 1
    _state.workers = workers
    try:
        yield workers
    finally:
        _state.workers = 0
        if blas is not None:
            with _blas_lock:
                _blas_holders -= 1
                if _blas_holders == 0:
                    blas[1](_blas_saved)


def share(work, jobs) -> list:
    """``[work(job) for job in jobs]``, in job order.

    Inside a ``thread_policy`` block, the jobs run on min(jobs, workers)
    threads: the caller and helpers of the process's one pool, which start
    when a call first needs them and then wait for the next call. Each
    participant takes the next job not yet started, so the caller never
    waits for a helper to pick the call up, only for jobs a helper has
    started. Anywhere else, and inside a job, the jobs run inline. The first
    error in job order reaches the caller, and jobs not yet started are
    dropped. Every job tapes exactly when the caller would.
    """
    jobs = list(jobs)
    n = min(len(jobs), _state.workers)
    if n <= 1:
        return [work(job) for job in jobs]
    call = _Call(work, jobs)
    _pool.hand_out(call, n - 1)
    return call.finish()


class _Call:
    """The jobs of one shared ``share`` call and their results."""

    def __init__(self, work, jobs):
        self.work, self.jobs, self.grad_enabled = work, jobs, _state.grad_enabled
        self.count, self.results, self.errors = len(jobs), [None] * len(jobs), {}
        self.next = self.running = 0
        self.cond = threading.Condition()

    def take(self):
        """Run jobs until none is left to start or one has failed, with the
        taping of the caller and sharing nothing further."""
        saved = _state.workers, _state.grad_enabled
        try:
            while True:
                with self.cond:
                    if self.errors or self.next == self.count:
                        return
                    i, self.next, self.running = self.next, self.next + 1, self.running + 1
                _state.workers, _state.grad_enabled = 1, self.grad_enabled
                try:
                    self.results[i] = self.work(self.jobs[i])
                except BaseException as exc:  # raised in the caller by finish()
                    with self.cond:
                        self.errors[i] = exc
                finally:
                    with self.cond:
                        self.running -= 1
                        self.cond.notify_all()
        finally:
            _state.workers, _state.grad_enabled = saved

    def finish(self) -> list:
        """The caller's part: take jobs, wait for those that helpers started,
        then return the results or raise the first error in job order."""
        self.take()
        with self.cond:
            self.cond.wait_for(lambda: self.running == 0)
            self.next = self.count  # a helper that picks the call up late finds nothing to start
            results, errors = self.results, self.errors
            self.work = self.jobs = self.results = self.errors = None
        if errors:
            raise errors[min(errors)]
        return results


class _Pool:
    """The process's helper threads, started as calls first need them: at
    most ``cores() - 1`` under the thread policy. A helper takes the next
    call handed out and works on it until it has no job left to start."""

    def __init__(self):
        self.calls = queue.SimpleQueue()
        self.lock = threading.Lock()
        self.helpers = 0

    def hand_out(self, call: _Call, helpers: int):
        with self.lock:
            for i in range(self.helpers, helpers):
                threading.Thread(target=self.serve, name=f"tamperloc-{i}", daemon=True).start()
            self.helpers = max(self.helpers, helpers)
        for _ in range(helpers):
            self.calls.put(call)

    def serve(self):
        while True:
            self.calls.get().take()


_pool = _Pool()
if hasattr(os, "register_at_fork"):  # Unix: a forked child has none of the parent's helpers
    os.register_at_fork(after_in_child=_pool.__init__)


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
    """Record no tape for ops this thread runs inside the block (nesting is
    allowed); other threads keep recording.

    Outputs never require gradients, so ``backward`` on them raises
    ``no-tape``; parameters keep their ``requires_grad`` flag and ``grad``.
    """
    saved = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = saved


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _state.grad_enabled and any(p.requires_grad for p in parents):
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


def relu(x: Tensor, overwrite: bool = False) -> Tensor:
    """max(x, 0), with +0.0 for every x that is not above zero (NaN too).

    With ``overwrite``, a pass that records no tape for ``x`` writes the
    result over ``x.data``, which the caller must alone hold, and keeps no
    mask: ``fmax`` maps NaN and negatives to 0.0, and adding 0.0 turns -0.0
    into +0.0, so the bytes are those of the copy.
    """
    if overwrite and not (_state.grad_enabled and x.requires_grad):
        d = np.fmax(x.data, 0.0, out=x.data)
        d += 0.0
        return Tensor(d)
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

    ``q``, ``k`` and ``v`` are (heads, n, dh) with equal heads and dh; ``k``
    and ``v`` hold the same number of keys. Each head is processed in tiles
    of ``max(1, ATTENTION_BLOCK // n_keys)`` query rows, so a tile of scores
    fits in a core's L2 cache. Each head is one ``share`` job, forward and
    backward, with its own tile buffers; inside a ``thread_policy`` block
    that shares nothing else, such as ``predict`` on one frame, the heads
    run on one worker per core. A head runs the same ops in the same order
    on any thread, so the bytes do not depend on the worker count. A tile
    takes four elementwise passes over its scores (max, subtract, exp, sum)
    and divides the (rows, dh) output by the row sums, never the
    probabilities. Every row's log-sum-exp is kept, so the backward pass
    rebuilds a tile's probabilities as ``exp(scale * q k^T - lse)`` and uses
    ``rowsum(g * out)`` in place of ``rowsum(dP * P)``, as in
    FlashAttention-2 (Dao, arXiv 2307.08691).
    Beyond the inputs, the output and the gradients, forward and backward
    hold one tile of scores per running head and heads * n row statistics,
    never the O(heads * n^2) score matrix; the tape keeps only the
    log-sum-exp.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    qd, kd, vd = q.data, k.data, v.data
    if (
        not qd.ndim == kd.ndim == vd.ndim == 3
        or not qd.shape[0] == kd.shape[0] == vd.shape[0]
        or not qd.shape[2] == kd.shape[2] == vd.shape[2]
        or kd.shape[1] != vd.shape[1]
        or kd.shape[1] == 0
    ):
        raise PipelineError("shape-mismatch", f"attention q {qd.shape}, k {kd.shape}, v {vd.shape}")
    heads, n, _ = qd.shape
    rows = max(1, ATTENTION_BLOCK // kd.shape[1])
    tiles = [slice(lo, lo + rows) for lo in range(0, n, rows)]
    tile = (min(rows, n), kd.shape[1])

    def scores(h, t, buf):
        qs = qd[h, t] * scale
        return qs, np.matmul(qs, kd[h].T, out=buf[: len(qs)])

    out = np.empty(qd.shape)
    lse = np.empty((heads, n, 1))

    def forward_head(h):
        buf = np.empty(tile)  # reused by every tile of this head; never kept by the tape
        for t in tiles:
            _, s = scores(h, t, buf)
            m = s.max(axis=1, keepdims=True)
            s -= m
            np.exp(s, out=s)
            z = s.sum(axis=1, keepdims=True)
            np.matmul(s, vd[h], out=out[h, t])
            out[h, t] /= z
            lse[h, t] = m + np.log(z)

    share(forward_head, range(heads))

    def back(g):
        dq, dk, dv = np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        rowdot = (g * out).sum(axis=-1, keepdims=True)  # rowsum(dP * P), per query row

        def backward_head(h):
            pbuf, dsbuf = np.empty(tile), np.empty(tile)
            for t in tiles:
                qs, p = scores(h, t, pbuf)
                p -= lse[h, t]
                np.exp(p, out=p)
                gt = g[h, t]
                dv[h] += p.T @ gt
                ds = np.matmul(gt, vd[h].T, out=dsbuf[: len(qs)])
                ds -= rowdot[h, t]
                ds *= p
                np.matmul(ds, kd[h], out=dq[h, t])
                dq[h, t] *= scale
                dk[h] += ds.T @ qs

        share(backward_head, range(heads))
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

    Output rows are processed in bands of ``max(1, CONV_BLOCK // 2 // wo)``
    rows forward and ``max(1, CONV_BLOCK // wo)`` rows backward. Each band's
    channel-major columns (Cin*kh*kw, band*wo) are built, used in one gemm
    and dropped (a 1x1 convolution's are a view of its input); the backward
    pass rebuilds them for the weight gradient instead of storing them. Zero
    padding is applied per band, in a (Cin, (band-1)*stride + kh, W + 2*pad)
    slab of the band's input rows made for that band, so no padded copy of
    the input exists ("wrap" still pads it whole).

    Each forward band is one ``share`` job that builds its own slab and
    columns and whose gemm writes straight into the output. Band heights
    never depend on the worker count, because OpenBLAS gives a column
    different bytes in gemms of different widths; so neither do the bytes.
    Inside a sample worker of ``train`` the bands run inline. Beyond the
    inputs, the output and the gradients, forward and backward hold one slab
    and O(Cin*kh*kw * max(CONV_BLOCK, wo)) floats per running band, never
    the whole-frame (H*W, Cin*kh*kw) im2col matrix.
    """
    if pad_mode not in ("zero", "wrap"):
        raise PipelineError("bad-pad-mode", pad_mode)
    xd, wd = x.data, w.data
    cout, cin, kh, kw = wd.shape
    if xd.ndim != 3 or xd.shape[0] != cin:
        raise PipelineError("shape-mismatch", f"conv input {xd.shape} vs weight {wd.shape}")

    wrap = pad_mode == "wrap" and pad > 0
    src = np.pad(xd, ((0, 0), (pad, pad), (pad, pad)), mode="wrap") if wrap else xd
    margin = 0 if wrap else pad  # zero rows and columns around src
    h, wdt = src.shape[1:]
    hp, wp = h + 2 * margin, wdt + 2 * margin
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    wmat = wd.reshape(cout, -1)

    def band_rows(lo, band):
        """(output pixels, padded input rows read) of the band of ``band``
        rows from output row ``lo``: a zero-margined slab of its own, or rows
        of ``src`` where there is no margin."""
        top, n = lo * stride - margin, min((band - 1) * stride + kh, hp - lo * stride)
        if margin:
            a, z = max(top, 0), max(min(top + n, h), top, 0)
            rows = np.zeros((cin, n, wp))
            rows[:, a - top : z - top, margin:-margin] = src[:, a:z]
        else:
            rows = src[:, top : top + n]
        return slice(lo * wo, (lo + band) * wo), rows

    def columns(rows):
        win = sliding_window_view(rows, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]  # (cin, nb, wo, kh, kw)
        # a view of the input rows for a 1x1, stride-1 convolution of contiguous rows, a copy otherwise
        return win.transpose(0, 3, 4, 1, 2).reshape(cin * kh * kw, -1)

    out = np.empty((cout, ho * wo))
    band = max(1, CONV_BLOCK // 2 // wo)

    def forward_band(lo):
        px, rows = band_rows(lo, band)
        np.matmul(wmat, columns(rows), out=out[:, px])
        out[:, px] += b.data[:, None]

    share(forward_band, range(0, ho, band))

    def back(g):
        gmat = g.reshape(cout, -1)  # (cout, ho*wo)
        _accumulate(b, gmat.sum(axis=1))
        dw = np.zeros_like(wmat)
        dpad = np.zeros((cin, hp, wp)) if x.requires_grad else None
        band = max(1, CONV_BLOCK // wo)
        for lo in range(0, ho, band):
            px, rows = band_rows(lo, band)
            gb = gmat[:, px]
            dw += gb @ columns(rows).T
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
            rows = (np.arange(hp) - pad) % xd.shape[1]
            colsix = (np.arange(wp) - pad) % xd.shape[2]
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


def upsample_nearest(x: Tensor, factor: int, size: tuple[int, int]) -> Tensor:
    """Repeat each pixel ``factor`` x ``factor`` times and keep the top-left ``size``."""
    c, h, w = x.data.shape
    full, crop = (c, h * factor, w * factor), np.s_[:, : size[0], : size[1]]

    def back(g):
        if g.shape != full:  # the cropped margin gets a zero gradient
            g = np.pad(g, ((0, 0), (0, full[1] - size[0]), (0, full[2] - size[1])))
        _accumulate(x, g.reshape(c, h, factor, w, factor).sum(axis=(2, 4)))

    return _make(np.repeat(np.repeat(x.data, factor, axis=1), factor, axis=2)[crop], (x,), back)
