"""Workloads of the tamperloc benchmark: set-up, timed loops and output checks.

Importing this module pins BLAS to one thread (it must come before numpy),
keeps freed heap memory in the process (see ``pin_malloc``) and puts the
checkout's ``src/`` first on the import path, so the benchmark always
measures the source tree next to it, never an installed copy.

Workloads (closed loop, one client, one BLAS thread):

* ``train-64``: clean ``cnn_vit`` training, batch 4, on a 64 px corpus. Each
  operation is one ``train()`` call of ``TRAIN_STEPS`` steps. The clean-stack
  cache makes extraction nearly free after the first epoch, so the tape's
  forward, backward and Adam dominate a step.
* ``infer-64``: frames one after another through the infer/eval path
  (read_ppm, compression:75 on every odd item, predict, binarize,
  confusion_counts, write_pgm). Feature extraction and conv2d dominate.
* ``infer-192``: the same path on 192 px frames, where the O(n^2) attention
  scores dominate time and peak memory.

Each corpus comes from ``datagen.make_dataset`` with seed ``seed % R``,
where R is the number of seeds in the reference file: every input a run can
draw has recorded reference outputs.
"""

from __future__ import annotations

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("BLAS threads must be pinned before numpy is imported")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes
import importlib
import json
import math
import platform
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# glibc malloc settings: serve every block from the heap, never from a
# fresh mapping, and never give freed heap back to the system. By default
# the numpy temporaries of each frame are mapped afresh and fault their
# pages in again, and on a shared virtual machine a fault's cost swings
# from run to run. On a 2-vCPU Xeon VM, default malloc gave infer-64 frames
# of 63-92 ms with 1-24 ms of sys time, and infer-192 frames of 1.7 s with
# 0.73 s of sys time (31000 faults); pinned, both keep under 2 ms of sys
# time and about one fault a frame, and infer-192 takes 1.2 s. The cost:
# peak RSS on infer-192 rises from 1659 to 1793 MiB, and a change that only
# saves page faults (fewer or smaller temporaries) shows in user time and
# peak RSS alone.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
MALLOC_SETTINGS = {M_TRIM_THRESHOLD: 2**31 - 1, M_MMAP_MAX: 0}  # C ints


def pin_malloc() -> str:
    """Apply MALLOC_SETTINGS; returns "pinned", or "default" without glibc."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return "default"
    ok = all(mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS.items())
    return "pinned" if ok else "default"


MALLOC = pin_malloc()

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import tamperloc  # noqa: E402

if Path(tamperloc.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"tamperloc imported from {tamperloc.__file__}, not from {SRC}")

datagen = importlib.import_module("tamperloc.datagen")
formats = importlib.import_module("tamperloc.formats")
fusion = importlib.import_module("tamperloc.fusion")
metrics = importlib.import_module("tamperloc.metrics")
perturb = importlib.import_module("tamperloc.perturb")
train_mod = importlib.import_module("tamperloc.train")

TRAIN_STEPS = 16
BATCH = 4
# Set-up is repeated and its median reported: at least SETUP_MIN times, and
# more while all set-ups so far took under SETUP_BUDGET_S, up to SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 3.0
COMPRESSION = perturb.PerturbSpec("compression", 75.0)

# Output checks. Noise of 1e-15 relative on every conv2d output, or 4e-14 on
# every feature (the size of a summation-order change such as batching or
# FFT correlation), moves the loss history of one 16-step train() call at
# 64 px by under 2e-15 relative, and the probability sums of infer-64 and
# infer-192 frames, plain or index-weighted, by under 2e-15 too. Defects
# move them far more: scaling the conv1 weight gradient by 0.999 moves the
# loss history by 1.2e-10, the attention query gradient by 1.001 by 1.8e-11,
# zeroing the head bias gradient by 3e-4; rolling the probability map by
# one pixel moves the index-weighted sum by 1.3e-8 at 192 px. A pixel within
# AMBIGUOUS_MARGIN of the 0.5 threshold may flip either way.
LOSS_RTOL = 1e-12
PROB_SUM_RTOL = 1e-12
AMBIGUOUS_MARGIN = 1e-6

# Host speed. On a shared virtual machine the same code runs up to a fifth
# slower for seconds to minutes at a time, with CPU time equal to wall time,
# so whole-run medians drift from run to run. Timed runs therefore sample a
# fixed numpy kernel (HostGauge) before every frame and after every training
# step, outside the operation's time, and multiply the run's step and frame
# times by GAUGE_REF_S over the run's median kernel time. GAUGE_REF_S is
# about the kernel's time between operations on a 2-vCPU Xeon VM when calm,
# so adjusted times read close to wall times there. On that VM, five 30 s
# infer-64 runs gave wall frame medians of 56.9-63.9 ms in a noisy spell;
# scaled by the gauge they read 60.1-61.7 ms. In ten 30 s train-64 runs
# the step medians' interquartile range went from 5.8% of the median (wall)
# to 3.1% (adjusted). The gauge is benchmark code: a change to the package
# moves adjusted times as it moves wall times.
GAUGE_REF_S = 2.0e-3


class CheckFailed(Exception):
    """An output disagrees with itself or with the recorded reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "infer"
    size: int  # frame side in pixels
    count: int  # corpus items; train uses the 75% train split


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-64", "train", 64, 16),
        Workload("infer-64", "infer", 64, 16),
        Workload("infer-192", "infer", 192, 6),
    )
}


@dataclass
class State:
    """Everything one set-up produced and the timed loop reads."""

    workload: Workload
    seed: int  # corpus, model and training seed
    corpus: Path
    out: Path
    items: list
    params: object = None
    views: tuple = ()
    clock: "StepClock | None" = None


class HostGauge:
    """A fixed numpy kernel whose time tracks the host's speed (see GAUGE_REF_S)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tile = rng.standard_normal((64, 64))
        self.square = rng.standard_normal((96, 96))
        self.block = rng.standard_normal(500_000)
        self.seconds: list[float] = []

    def _pass(self):
        x = self.tile
        for _ in range(64):
            x = np.tanh(x * 0.5 + 0.1)
        self.square @ self.square
        self.block.copy()

    def sample(self):
        """Time one kernel pass after an untimed one, so that the operation
        before does not leave the kernel cold."""
        self._pass()
        t0 = time.perf_counter()
        self._pass()
        self.seconds.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor that takes this run's times to the reference host speed."""
        return GAUGE_REF_S / statistics.median(self.seconds)


class StepClock:
    """Times every ``Adam.step``, one list of (start, end) per ``train()`` call.

    A step ends as ``Adam.step`` returns and starts where the previous one
    ended, or where the call began. A gauge is sampled as each call begins
    and after each step, outside the steps' times.
    """

    def __init__(self, tracer=None, gauge: HostGauge | None = None):
        self.calls: list[list[tuple[float, float]]] = []
        self.tracer = tracer
        self.gauge = gauge
        self._orig = vars(train_mod.Adam)["step"]
        self._start = 0.0
        clock = self

        def step(opt):
            clock._orig(opt)
            clock.calls[-1].append((clock._start, time.perf_counter()))
            clock._resume()
            if clock.tracer is not None:
                clock.tracer.op += 1

        train_mod.Adam.step = step

    def _resume(self):
        if self.gauge is not None:
            self.gauge.sample()
        self._start = time.perf_counter()

    def begin(self):
        self.calls.append([])
        self._resume()

    def step_seconds(self, skip: int) -> list[float]:
        """Durations of every step after the first ``skip`` of each call."""
        return [b - a for steps in self.calls for a, b in steps[skip:]]

    def close(self):
        train_mod.Adam.step = self._orig


def train_call(state: State, steps: int = TRAIN_STEPS) -> list[float]:
    cfg = train_mod.TrainConfig(steps=steps, batch_size=BATCH, seed=state.seed)
    if state.clock is not None:
        state.clock.begin()
    _, history = train_mod.train(cfg, fusion.ArchConfig(), state.items)
    return history


def first_epoch_steps(state: State) -> int:
    return math.ceil(len(state.items) / BATCH)


def infer_frame(state: State, position: int) -> tuple[int, list]:
    """One frame through the infer/eval path; returns (item, output summary).

    The summary is the probability sum, the probability sum weighted by
    pixel index (which a transposed or shifted map changes), the tampered
    pixel count and the count of pixels within AMBIGUOUS_MARGIN of 0.5.
    """
    i = position % len(state.items)
    item_id, _, truth = state.items[i]
    frame = formats.read_ppm(state.corpus / f"{item_id}.ppm")
    if i % 2:
        frame, truth = perturb.perturb_pair(frame, truth, COMPRESSION, seed=[state.seed, i])
    pred = fusion.predict(state.params, frame, state.views)
    mask = metrics.binarize(pred)
    counts = metrics.confusion_counts(mask, truth)
    formats.write_pgm(state.out / f"mask_{i:04d}.pgm", mask)
    tampered = int(np.count_nonzero(mask))
    if counts.total != mask.size or counts.tp + counts.fp != tampered:
        raise CheckFailed(f"confusion counts {counts} disagree with mask of {tampered} pixels")
    ambiguous = int(np.count_nonzero(np.abs(pred - 0.5) < AMBIGUOUS_MARGIN))
    return i, [float(pred.sum()), float(pred.ravel() @ _ramp(pred.size)), tampered, ambiguous]


def _ramp(n: int) -> np.ndarray:
    """Weights 1..n, so a sum weighted by them changes when pixels move."""
    return np.arange(1, n + 1, dtype=np.float64)


def frame_matches(got: list, ref: list) -> bool:
    (psum, ramp, tampered, ambiguous), (rsum, rramp, rtampered, rambiguous) = got, ref
    return (
        abs(psum - rsum) <= PROB_SUM_RTOL * abs(rsum)
        and abs(ramp - rramp) <= PROB_SUM_RTOL * abs(rramp)
        and abs(tampered - rtampered) <= max(ambiguous, rambiguous)
    )


def losses_match(got: list, ref: list) -> bool:
    return len(got) == len(ref) and all(
        math.isfinite(g) and abs(g - r) <= LOSS_RTOL * abs(r) for g, r in zip(got, ref)
    )


def set_up(wl: Workload, size: int, seed: int, work: Path, index: int, warm: bool = True) -> State:
    """Synthesize the corpus, load it, build the model and warm up once."""
    corpus = work / f"corpus{index}"
    out = work / "masks"
    out.mkdir(parents=True, exist_ok=True)
    datagen.make_dataset(corpus, count=wl.count, size=size, seed=seed)
    if wl.kind == "train":
        state = State(wl, seed, corpus, out, datagen.load_split(corpus, "train"))
        if warm:
            train_call(state, steps=1)
        return state
    model = work / f"model{index}.uvlt"
    formats.save_model(model, fusion.init_network(fusion.ArchConfig(), seed), fusion.FEATURE_VIEWS)
    params, views = formats.load_model(model)
    state = State(wl, seed, corpus, out, datagen.load_split(corpus, "all"), params, views)
    if warm:
        infer_frame(state, 0)
    return state


def set_up_repeatedly(wl: Workload, size: int, seed: int, work: Path) -> tuple[State, list]:
    """Fresh set-ups as SETUP_MIN/MAX/BUDGET_S say; the last state and every duration."""
    seconds: list[float] = []
    while len(seconds) < SETUP_MIN or (sum(seconds) < SETUP_BUDGET_S and len(seconds) < SETUP_MAX):
        t0 = time.perf_counter()
        state = set_up(wl, size, seed, work, len(seconds))
        seconds.append(time.perf_counter() - t0)
    return state, seconds


@dataclass
class Loop:
    """What one timed loop did: per-operation seconds, tracing and outcomes."""

    seconds: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_loop(state: State, ref: list, seconds: float, tracer=None, gauge: HostGauge | None = None) -> Loop:
    """Run operations back to back for ``seconds``, checking every output.

    An operation is one frame (infer) or one ``train()`` call (train). One
    that raises or fails its check counts as failed; the loop goes on. With
    a tracer, operations alternate in pairs between untraced and traced, so
    both see the same drift in machine speed; pairs keep every other item
    (the compressed ones) from always landing on the same side. A gauge is
    sampled before every operation, outside its time.
    """
    if state.workload.kind == "train":

        def op(n):
            return losses_match(train_call(state), ref)

    else:

        def op(n):
            i, summary = infer_frame(state, n)
            return frame_matches(summary, ref[i])

    traced_op = tracer.span("bench." + state.workload.kind, op) if tracer is not None else None
    loop = Loop()
    start = time.perf_counter()

    def more() -> bool:
        if not loop.seconds or (traced_op is not None and not any(loop.traced)):
            return True
        # stop when the next operation, if as long as the last, would end
        # more than half of it past the deadline
        return time.perf_counter() - start + loop.seconds[-1] / 2 < seconds

    while more():
        if gauge is not None:
            gauge.sample()
        traced = traced_op is not None and (loop.attempted // 2) % 2 == 1
        if traced:
            tracer.install()
            if state.workload.kind == "infer":
                tracer.op += 1
        t0 = time.perf_counter()
        try:
            ok = (traced_op if traced else op)(loop.attempted)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        loop.seconds.append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        loop.traced.append(traced)
        loop.attempted += 1
        if not ok:
            loop.failed += 1
            print(f"{state.workload.name}: operation {loop.attempted - 1} failed its check", file=sys.stderr)
    return loop


def load_reference(path: Path, wl: Workload, size: int) -> list:
    """Per-seed reference outputs for this workload, recorded by record.py."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)[wl.name]
    want = {"size": size, "count": wl.count, "steps": TRAIN_STEPS if wl.kind == "train" else None}
    have = {key: doc.get(key) for key in want}
    if have != want:
        raise ValueError(f"reference for {wl.name} was recorded for {have}, this run needs {want}")
    return doc["seeds"]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "blas_threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "malloc": MALLOC,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def fresh_workdir(name: str) -> Path:
    work = Path(__file__).resolve().parent / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work
