"""Span tracing of the tamperloc layers, applied from outside the package.

The traced run wraps public functions at module boundaries: every reference
to a layer's function in the loaded ``tamperloc`` modules (module globals,
and module-level dicts such as the fusion view table) is rebound to a
wrapper that records a span. Nothing inside ``src/`` changes, and the
untraced runs call the functions unwrapped.

A span is (name, start, end, parent, op, phase): ``op`` is the step or frame
it belongs to and ``phase`` is ``setup`` or ``loop``. Spans stay in memory
and are written out once, when the run ends. A layer's self time is its
span's duration minus the time its child spans cover.

Three counts are computed from operand shapes rather than timed, so they
repeat exactly: conv2d and matmul GFLOP and the largest softmax input.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _conv2d_flop(args, out) -> int:
    w = args[1]
    return 2 * out.data.size * w.data[0].size


def _matmul_flop(args, out) -> int:
    a = args[0]
    return 2 * out.data.size * getattr(a, "data", a).shape[-1]


# (span name, module, attribute, flop counter). Two attributes may share a
# span name when they are alternative entry points into the same layer.
LAYERS = (
    ("datagen.make_dataset", "tamperloc.datagen", "make_dataset", None),
    ("datagen.load_split", "tamperloc.datagen", "load_split", None),
    ("formats.read_ppm", "tamperloc.formats", "read_ppm", None),
    ("formats.write_pgm", "tamperloc.formats", "write_pgm", None),
    ("formats.save_model", "tamperloc.formats", "save_model", None),
    ("formats.load_model", "tamperloc.formats", "load_model", None),
    ("perturb.perturb_pair", "tamperloc.perturb", "perturb_pair", None),
    ("metrics.confusion_counts", "tamperloc.metrics", "confusion_counts", None),
    ("fusion.build_feature_stack", "tamperloc.fusion", "build_feature_stack", None),
    ("texture.extract", "tamperloc.texture", "extract_texture", None),
    ("edge.extract", "tamperloc.edge", "edge_features", None),
    ("pixel.extract", "tamperloc.pixel", "srm_features", None),
    ("frequency.extract", "tamperloc.frequency", "frequency_features", None),
    ("fusion.forward", "tamperloc.fusion", "forward", None),
    ("fusion.forward", "tamperloc.fusion", "forward_graph", None),
    ("autodiff.conv2d", "tamperloc.autodiff", "conv2d", _conv2d_flop),
    ("autodiff.matmul", "tamperloc.autodiff", "matmul", _matmul_flop),
    ("autodiff.softmax", "tamperloc.autodiff", "softmax", None),
    ("autodiff.mul", "tamperloc.autodiff", "mul", None),
    ("autodiff.backward", "tamperloc.autodiff", "backward", None),
    ("train.adam_step", "tamperloc.train", "Adam.step", None),
)


def _rebind(old, new) -> list:
    """Point every reference to ``old`` in loaded tamperloc modules at ``new``.

    Returns undo records. Covers module globals and the values of
    module-level dicts, bare or as the first element of a tuple.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tamperloc" or mod_name.startswith("tamperloc.")):
            continue
        space = vars(mod)
        for key, value in list(space.items()):
            if value is old:
                undo.append((space, key, value))
                space[key] = new
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        undo.append((value, k, v))
                        value[k] = new
                    elif isinstance(v, tuple) and v and v[0] is old:
                        undo.append((value, k, v))
                        value[k] = (new,) + v[1:]
    return undo


class Tracer:
    """In-memory span recorder; ``op`` and ``phase`` are set by the workload."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.phase = "setup"
        self.flop: dict[str, int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.max_softmax_bytes = 0
        self._stack: list[int] = []
        self._undo: list = []

    def span(self, name: str, fn, flop=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op, tracer.phase)
            tracer.calls[(tracer.phase, name)] += 1
            if tracer.phase == "loop":
                if flop is not None:
                    tracer.flop[name] += flop(args, out)
                if name == "autodiff.softmax":
                    tracer.max_softmax_bytes = max(tracer.max_softmax_bytes, args[0].data.nbytes)
            return out

        return wrapper

    def install(self):
        for name, mod_name, attr, flop in LAYERS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                old = vars(cls)[meth]
                self._undo.append((cls, meth, old))
                setattr(cls, meth, self.span(name, old, flop))
            else:
                old = getattr(mod, attr)
                self._undo.extend(_rebind(old, self.span(name, old, flop)))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Seconds of self time per (phase, span name)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, _, _, phase) in enumerate(self.spans):
            out[(phase, name)] += end - start - covered[i]
        return out

    def write(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, start, end, parent, op, phase) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op, "phase": phase}
                    )
                    + "\n"
                )
