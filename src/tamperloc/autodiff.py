"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 array. Every primitive op records its parents and
a closure that routes the output gradient back to them; ``backward`` replays
the tape in reverse topological order. Gradients are only materialised for
tensors that require them (directly or through a parent), so feeding constant
inputs is cheap. ``backward`` drops each op's output gradient once its
closure has run, so only leaves keep gradients, and a closure may write
into the gradient it is handed or pass it on to one parent (``_takes``).
A closure hands ``_accumulate`` the gradient arrays it creates, which
become a tensor's first gradient without a copy; other views of the output
gradient are copied. Inside ``with no_grad():`` ops run by that thread
record nothing at all, so an inference pass keeps no tape and each
intermediate array is freed as soon as no later op needs it.

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
2307.08691). It shifts scores by their row max only when the Cauchy-Schwarz
bound ``|scale| * max |q_i| * max |k_j|`` exceeds ``EXP_SAFE``; below it a
tile takes two elementwise passes over its scores forward and three
backward. Each head is one job, with its own tile, which stays in the L2
of the core that runs it. ``conv2d`` likewise works through bands of output
rows, one job per forward band: it splits each band's padded input rows
into stride x stride phase planes and runs one gemm per kernel tap over a
contiguous shifted slice of them (Anderson et al., arXiv 1709.03395),
rebuilding the planes in the backward pass, so beyond its inputs, output
and gradients it holds one band's planes and two band-sized sums per
running job, and no im2col columns. Both recompute rather than store, as
in Rabe & Staats (arXiv 2112.05682).
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

from .errors import PipelineError

LAYER_NORM_EPS = 1e-12

# Score entries per attention tile, one tile per running head: 2**17
# float64 are 1 MiB, inside the 2 MiB L2 of the core that runs the head. A
# tile is max(1, ATTENTION_BLOCK // n_keys) query rows: 56 at 2304 tokens
# (192 px frames), the whole head at 256 tokens (64 px).
ATTENTION_BLOCK = 2**17

# Largest score bound at which attention skips its row-max shift. Unshifted,
# every exp lies in [e^-64, e^64], so no row sum overflows below 10^250 keys
# and none underflows to 0; exp itself overflows only past 709.
EXP_SAFE = 64.0

# Twice the output pixels of a conv2d forward band, one share job each. A
# backward band at stride s takes s * s times fewer output pixels, so that it
# reads no more input than a stride-1 forward band. With im2col columns, over
# the three stage-1 convolutions at 192 px, one BLAS thread, bands of
# 1024-2048 pixels timed within 2% of each other, 4096 13% slower and 16384
# 35% slower (fwd+bwd 243, 273 and 357 ms); at 64 px 1024-8192 timed within
# noise. A 52-channel 3x3 forward band of 1024 pixels at 128 px (8 rows of
# 130 padded columns) holds a 0.5 MiB slab and two 32-channel sums of
# 0.25 MiB. The backward pass of stage1.conv2 (stride 2) at 64 px took
# 5.2 ms in one band of all 32 output rows and 2.9 ms in four of 8 rows
# (medians of 30 calls, one BLAS thread).
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


def _accumulate(t: Tensor, grad: np.ndarray, fresh: bool = False):
    """Add ``grad`` into ``t.grad``. A first gradient is copied, into the
    layout zeros_like would give, unless ``fresh``: an array the closure
    alone holds and hands to this one tensor, one it has just created or
    the output gradient it was handed (see ``_takes``). Views such as
    g.reshape(old), and ``g`` itself for a second parent, are never fresh."""
    if not t.requires_grad:
        return
    if t.grad is None and fresh:
        t.grad = np.asarray(grad)  # 0-d ops give numpy scalars
    elif t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = grad
    else:
        t.grad += grad


def _takes(t: Tensor, g: np.ndarray) -> np.ndarray | None:
    """``g``, the output gradient a closure alone holds, where it may become
    ``t``'s first gradient as it is, else None: t needs a gradient and has
    none yet, and g has its shape and the layout ``empty_like(t.data)``
    gives, both C-contiguous. Closures pass the result as the ``out`` of
    t's gradient product, whose bytes are those of a fresh product."""
    fits = t.requires_grad and t.grad is None and g.shape == t.data.shape
    return g if fits and g.flags.c_contiguous and t.data.flags.c_contiguous else None


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
    means no forward pass was taped. Each op's output gradient is dropped
    (``grad`` set to None) as soon as its closure has run, so afterwards
    only leaves hold gradients, and the closure may write into it or hand
    it on. The tape itself is left as it is.
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
            node.grad = None


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def back(g):
        # g goes on as it is to the first parent it fits; the other gets a copy or a sum
        taker = next((t for t in (a, b) if a is not b and _takes(t, g) is not None), None)
        _accumulate(a, _unbroadcast(g, a.data.shape), fresh=a is taker)
        _accumulate(b, _unbroadcast(g, b.data.shape), fresh=b is taker)

    return _make(a.data + b.data, (a, b), back)


def mul(a, b) -> Tensor:
    """a * b; a parent that needs no gradient gets no product."""
    a, b = _coerce(a), _coerce(b)

    def back(g):  # b's product first, so that a's may be written into g
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.multiply(g, b.data, out=_takes(a, g)), a.data.shape), fresh=True)

    return _make(a.data * b.data, (a, b), back)


def matmul(a, b, bias=None) -> Tensor:
    """a @ b, plus ``bias`` added in place into the product when given: the
    bytes of ``add(matmul(a, b), bias)`` with one array on the tape, not two."""
    a, b = _coerce(a), _coerce(b)
    c = None if bias is None else _coerce(bias)
    out = a.data @ b.data
    if c is not None:
        out += c.data

    def back(g):
        _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape), fresh=True)
        _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape), fresh=True)
        if c is not None:
            gc = _unbroadcast(g, c.data.shape)
            _accumulate(c, gc, fresh=gc is not g)

    return _make(out, (a, b) if c is None else (a, b, c), back)


def relu(x: Tensor, overwrite: bool = False) -> Tensor:
    """max(x, 0), with +0.0 for every x that is not above zero (NaN too).

    ``fmax`` maps NaN and negatives to 0.0, and adding 0.0 turns -0.0 into
    +0.0. With ``overwrite`` the result is written over ``x.data``, taped or
    not: the caller must alone hold ``x.data``, and no closure on the tape
    may read it, as ``conv2d``'s and ``matmul``'s never read their output.
    The tape keeps no mask: x > 0 exactly where the output is.
    """
    y = np.fmax(x.data, 0.0, out=x.data if overwrite else None)
    y += 0.0

    def back(g):
        _accumulate(x, np.multiply(g, y > 0.0, out=_takes(x, g)), fresh=True)

    return _make(y, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        gx = np.multiply(g, y, out=_takes(x, g))
        gx *= 1.0 - y
        _accumulate(x, gx, fresh=True)

    return _make(y, (x,), back)


def log(x: Tensor) -> Tensor:
    def back(g):
        _accumulate(x, np.divide(g, x.data, out=_takes(x, g)), fresh=True)

    return _make(np.log(x.data), (x,), back)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data > lo) & (x.data < hi)

    def back(g):
        _accumulate(x, np.multiply(g, inside, out=_takes(x, g)), fresh=True)

    return _make(np.clip(x.data, lo, hi), (x,), back)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``. The network uses ``attention`` instead; this
    stays a public op because ``tamperbench/tracing.py`` wraps it by name."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - inner), fresh=True)

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
    on any thread, so the bytes do not depend on the worker count.

    Before any head runs, one decision is made from the inputs alone: by
    Cauchy-Schwarz every score satisfies ``|score| <= |scale| * max_i |q_i|
    * max_j |k_j|``. When that bound is at most ``EXP_SAFE``, ``exp`` of the
    raw scores can neither overflow nor underflow, so no tile is shifted by
    its row max; otherwise (NaN and inf included) every tile is. A forward
    tile takes two elementwise passes over its scores (exp, sum), four when
    shifted (max, subtract, exp, sum), and divides the (rows, dh) output by
    the row sums, never the probabilities. Every row's log-sum-exp is kept,
    so the backward pass rebuilds a tile's probabilities and uses
    ``rowsum(g * out)`` in place of ``rowsum(dP * P)``, as in
    FlashAttention-2 (Dao, arXiv 2307.08691). Unshifted, it takes three
    passes (exp, subtract, multiply): the probabilities are ``exp(s) * w``
    with ``w = exp(-lse)`` per row, and ``w`` scales the (rows, dh) output
    gradient and row sums instead of the tile. Shifted, it takes four, with
    ``exp(s - lse)``.
    Beyond the inputs, the output and the gradients, forward and backward
    hold one tile of scores per running head and heads * n row statistics,
    never the O(heads * n^2) score matrix; the tape keeps only the
    log-sum-exp and the shift decision.
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
    q2, k2 = (np.einsum("...i,...i->...", a, a).max(initial=0.0) for a in (qd, kd))
    shift = not (abs(scale) * math.sqrt(q2) * math.sqrt(k2) <= EXP_SAFE)  # a NaN bound shifts too
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
            if shift:
                m = s.max(axis=1, keepdims=True)
                s -= m
            np.exp(s, out=s)
            z = s.sum(axis=1, keepdims=True)
            np.matmul(s, vd[h], out=out[h, t])
            out[h, t] /= z
            lse[h, t] = m + np.log(z) if shift else np.log(z)

    share(forward_head, range(heads))

    def back(g):
        dq, dk, dv = np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        rowdot = (g * out).sum(axis=-1, keepdims=True)  # rowsum(dP * P), per query row

        def backward_head(h):
            pbuf, dsbuf, prod = np.empty(tile), np.empty(tile), np.empty(kd.shape[1:])
            for t in tiles:
                qs, p = scores(h, t, pbuf)
                if shift:
                    p -= lse[h, t]
                    gt, rd = g[h, t], rowdot[h, t]
                else:
                    w = np.exp(-lse[h, t])
                    gt, rd = g[h, t] * w, rowdot[h, t] * w
                np.exp(p, out=p)
                dv[h] += np.matmul(p.T, gt, out=prod)
                ds = np.matmul(gt, vd[h].T, out=dsbuf[: len(qs)])
                ds -= rd
                ds *= p
                np.matmul(ds, kd[h], out=dq[h, t])
                dq[h, t] *= scale
                dk[h] += np.matmul(ds.T, qs, out=prod)

        share(backward_head, range(heads))
        _accumulate(q, dq, fresh=True)
        _accumulate(k, dk, fresh=True)
        _accumulate(v, dv, fresh=True)

    return _make(out, (q, k, v), back)


def layer_norm(x: Tensor, scale, offset) -> Tensor:
    """``y * scale + offset``, where y is x normalised to zero mean and unit
    variance along the last axis.

    One op for what was ``add(mul(layer_norm(x), scale), offset)``: the same
    ufuncs in the same order, forward and backward, so the same bytes, with
    the tape keeping y and the output but not the product between them.
    """
    scale, offset = _coerce(scale), _coerce(offset)
    mu = x.data.mean(axis=-1, keepdims=True)
    y = x.data - mu
    var = (y**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y *= inv
    out = y * scale.data
    out += offset.data

    def back(g):
        go = _unbroadcast(g, offset.data.shape)
        _accumulate(offset, go, fresh=go is not g)
        if scale.requires_grad:
            _accumulate(scale, _unbroadcast(g * y, scale.data.shape), fresh=True)
        if x.requires_grad:
            g = g * scale.data
            gm = g.mean(axis=-1, keepdims=True)
            gy = (g * y).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (g - gm - y * gy), fresh=True)

    return _make(out, (x, scale, offset), back)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def back(g):
        _accumulate(x, np.full(x.data.shape, float(g) / n), fresh=True)

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


def _hits(offset: int, step: int, n: int, count: int) -> tuple[slice, slice]:
    """The run of i in range(count) whose ``offset + i * step`` lies in
    range(n), as a slice of i and the strided slice of those positions."""
    a = max(0, -(offset // step))
    z = max(a, min(count, -((offset - n) // step)))
    start = offset + a * step
    return slice(a, z), slice(start, start + (z - a) * step, step)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0, pad_mode: str = "zero") -> Tensor:
    """2-D convolution-as-correlation: x (Cin, H, W), w (Cout, Cin, kh, kw), b (Cout,).

    ``pad_mode`` is "zero" for training and "wrap" for the periodic test
    harness used to probe translation consistency ("wrap" pads the input
    whole; zero padding never copies it).

    Output rows are processed in bands of ``max(1, CONV_BLOCK // 2 // wo)``
    rows forward and ``max(1, CONV_BLOCK // 2 // (s * s * wo))`` rows
    backward, so a backward band reads about as much input as a stride-1
    forward band, whatever the stride. With stride s, a band's padded input
    rows become s x s phase planes of width ``wq = ceil(padded width / s)``,
    flattened with ``(kw - 1) // s`` trailing zeros: at stride 1 the band's
    zero-margined slab, for a 1x1 unpadded convolution a view of its input
    rows. The closure reads the input and the weights, never the output,
    which a ReLU may therefore overwrite. Tap (u, v) reads plane (u mod s,
    v mod s) as the contiguous slice of ``band * wq`` floats from ``(u // s)
    * wq + v // s``: one (Cout, Cin) gemm per tap, summed in tap order, of
    which each ``wq``-wide row keeps its first ``wo`` (Anderson et al., arXiv
    1709.03395). The backward pass widens the output gradient to ``wq`` with
    zeros, rebuilds the planes, and adds each tap's input gradient into the
    same slice of the band's phase gradient, which s * s strided adds fold
    into the input gradient.

    Each forward band is one ``share`` job that writes straight into the
    output. Band heights never depend on the worker count, because OpenBLAS
    gives a column different bytes in gemms of different widths; so neither
    do the bytes. Beyond the inputs, the output and the gradients, a running
    band holds its planes and 2 * Cout * band * wq floats, never im2col
    columns.
    """
    if pad_mode not in ("zero", "wrap"):
        raise PipelineError("bad-pad-mode", pad_mode)
    xd, wd = x.data, w.data
    cout, cin, kh, kw = wd.shape
    if xd.ndim != 3 or xd.shape[0] != cin:
        raise PipelineError("shape-mismatch", f"conv input {xd.shape} vs weight {wd.shape}")

    s = stride
    wrap = pad_mode == "wrap" and pad > 0
    src = np.pad(xd, ((0, 0), (pad, pad), (pad, pad)), mode="wrap") if wrap else xd
    margin = 0 if wrap else pad  # zero rows and columns around src
    h, wdt = src.shape[1:]
    hp, wp = h + 2 * margin, wdt + 2 * margin
    ho, wo = (hp - kh) // s + 1, (wp - kw) // s + 1
    wq, tail, down = -(-wp // s), (kw - 1) // s, (kh - 1) // s  # a band of nb output rows reads nb + down plane rows
    wt = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))  # (kh, kw, cout, cin): one gemm operand per tap
    cols = [_hits(q - margin, s, wdt, wq) for q in range(s)]

    def pieces(lo, m):
        """(phase-grid index, src index) of every src pixel in the m plane
        rows of the band from output row ``lo``, phase by phase."""
        for p in range(s):
            ri, rs = _hits(lo * s + p - margin, s, h, m)
            for q, (ci, cs) in enumerate(cols):
                yield (p, q, slice(None), ri, ci), (slice(None), rs, cs)

    def grid(planes, m):
        return planes[:, :, : m * wq].reshape(s, s, cin, m, wq)

    def band_planes(lo, m):
        """(s * s, Cin, m * wq + tail): the phase planes of the band from
        output row ``lo``, m rows each."""
        if s == 1 and margin == 0 and tail == 0:  # kw 1: the band's rows of src
            return src[:, lo : lo + m].reshape(1, cin, -1)
        planes = np.zeros((s * s, cin, m * wq + tail))
        phases = grid(planes, m)
        for at, ix in pieces(lo, m):
            phases[at] = src[ix]
        return planes

    def taps(nb):
        """(u, v, index of the slice tap (u, v) reads from a band's planes)."""
        for u in range(kh):
            for v in range(kw):
                at = (u // s) * wq + v // s
                yield u, v, (u % s * s + v % s, slice(None), slice(at, at + nb * wq))

    out = np.empty((cout, ho, wo))
    band = max(1, CONV_BLOCK // 2 // wo)

    def forward_band(lo):
        nb = min(band, ho - lo)
        planes, acc, prod = band_planes(lo, nb + down), np.empty((cout, nb * wq)), np.empty((cout, nb * wq))
        for u, v, ix in taps(nb):
            if u == v == 0:
                np.matmul(wt[u, v], planes[ix], out=acc)
            else:
                acc += np.matmul(wt[u, v], planes[ix], out=prod)
        np.add(acc.reshape(cout, nb, wq)[:, :, :wo], b.data[:, None, None], out=out[:, lo : lo + nb])

    share(forward_band, range(0, ho, band))

    def back(g):
        _accumulate(b, g.reshape(cout, -1).sum(axis=1), fresh=True)
        dw = np.zeros(wd.shape)
        dsrc = np.zeros(src.shape) if x.requires_grad else None
        band = max(1, CONV_BLOCK // 2 // (s * s * wo))
        for lo in range(0, ho, band):
            nb = min(band, ho - lo)
            gw = np.zeros((cout, nb, wq))
            gw[:, :, :wo] = g[:, lo : lo + nb]
            gw = gw.reshape(cout, -1)
            planes = band_planes(lo, nb + down)
            dplanes = None if dsrc is None else np.zeros(planes.shape)
            prod = None if dsrc is None else np.empty((cin, nb * wq))  # one tap's input gradient
            for u, v, ix in taps(nb):
                dw[:, :, u, v] += gw @ planes[ix].T
                if dplanes is not None:
                    dplanes[ix] += np.matmul(wt[u, v].T, gw, out=prod)
            if dplanes is not None:
                dphases = grid(dplanes, nb + down)
                for at, ix in pieces(lo, nb + down):
                    dsrc[ix] += dphases[at]
        _accumulate(w, dw, fresh=True)
        if dsrc is not None and wrap:  # fold the wrapped borders back onto the image
            rows, columns = ((np.arange(n + 2 * pad) - pad) % n for n in xd.shape[1:])
            padded, dsrc = dsrc, np.zeros_like(xd)
            np.add.at(dsrc, (slice(None), rows[:, None], columns[None, :]), padded)
        _accumulate(x, dsrc, fresh=True)  # None only where x needs no gradient

    return _make(out, (x, w, b), back)


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2; spatial dims must be even."""
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise PipelineError("shape-mismatch", f"avg_pool2 needs even dims, got {h}x{w}")
    d = x.data
    # mean(axis=(2, 4))'s bytes on a C-contiguous x of two or more pooled
    # rows, as the network pools; with one pooled row it adds in row order
    y = d[:, 0::2, 0::2] + d[:, 0::2, 1::2]
    y += d[:, 1::2, 0::2] + d[:, 1::2, 1::2]
    y /= 4.0

    def back(g):
        _accumulate(x, np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) * 0.25, fresh=True)

    return _make(y, (x,), back)


def upsample_nearest(x: Tensor, factor: int, size: tuple[int, int]) -> Tensor:
    """Repeat each pixel ``factor`` x ``factor`` times and keep the top-left ``size``."""
    c, h, w = x.data.shape
    full, crop = (c, h * factor, w * factor), np.s_[:, : size[0], : size[1]]

    def back(g):
        if g.shape != full:  # the cropped margin gets a zero gradient
            g = np.pad(g, ((0, 0), (0, full[1] - size[0]), (0, full[2] - size[1])))
        _accumulate(x, g.reshape(c, h, factor, w, factor).sum(axis=(2, 4)), fresh=True)

    return _make(np.repeat(np.repeat(x.data, factor, axis=1), factor, axis=2)[crop], (x,), back)
