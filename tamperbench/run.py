"""The tamperloc benchmark.

    python3 tamperbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
``--workload all`` runs every workload, each in its own process. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it give the same numbers by the
names the workload's users know them by, plus the machine and versions.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``setup_s``: median of three or more set-ups (corpus synthesis,
  load_split, model build/save/load, one warm-up operation), wall time;
* ``adj_step_ms_p50``/``adj_step_ms_p90``: per Adam step after the first
  epoch of each ``train()`` call (train-64), or per frame (infer-*);
* ``adj_items_per_s``: training samples (first epoch included) or frames a
  second of step or frame time;
* ``peak_rss_mib``: peak resident set of the process.

The ``adj_`` times are wall times scaled to a reference host speed by a
gauge kernel timed between steps or frames (see ``GAUGE_REF_S`` in
workloads.py); the human-readable lines give the wall times beside them.
Every run keeps freed memory in the process (see ``pin_malloc``).

``--trace 1`` gives per-layer metrics. Operations alternate in pairs between
untraced and traced with spans around every layer (see tracing.py); the
difference of the two per-operation times is ``trace.overhead_ms``. Layer
times are self time per step or frame, except the set-up layers, which are
per set-up. Spans are written to ``tamperbench/out/``. Counts marked
"computed" come from operand shapes and repeat exactly.

``--size`` and ``--reference`` exist for the smoke test, which runs tiny
frames against a reference it records itself.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent

EXTRACTION = ("texture.extract", "edge.extract", "pixel.extract", "frequency.extract", "fusion.build_feature_stack")
ATTENTION = ("autodiff.softmax", "autodiff.matmul", "autodiff.mul")
NETWORK = ("fusion.forward", "autodiff.conv2d", "autodiff.backward", "train.adam_step") + ATTENTION
LOOP_LAYERS = EXTRACTION + NETWORK + (
    "perturb.perturb_pair",
    "metrics.confusion_counts",
    "formats.read_ppm",
    "formats.write_pgm",
)
SETUP_LAYERS = ("datagen.make_dataset", "datagen.load_split", "formats.save_model", "formats.load_model")

# Names the issue and the CLI use for each end-to-end metric, per workload kind.
LABELS = {
    "train": {"items_per_s": "train_samples_per_s", "step_ms_p50": "train_step_ms_p50", "step_ms_p90": "train_step_ms_p90"},
    "infer": {"items_per_s": "infer_frames_per_s", "step_ms_p50": "infer_frame_ms_p50", "step_ms_p90": "infer_frame_ms_p90"},
}


def _parse(argv):
    p = argparse.ArgumentParser(description="tamperloc benchmark")
    p.add_argument("--workload", required=True, choices=(*w.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, default=None, help="frame side override (smoke test)")
    p.add_argument("--reference", default=None, help="reference file (default: tamperbench/reference.json)")
    return p.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def timed_run(wl, state, ref, setup_seconds, seconds):
    gauge = w.HostGauge()
    if wl.kind == "train":
        state.clock = w.StepClock(gauge=gauge)
    try:
        loop = w.run_loop(state, ref, seconds, gauge=None if wl.kind == "train" else gauge)
    finally:
        if state.clock is not None:
            state.clock.close()
    if wl.kind == "train":
        steps, every = state.clock.step_seconds(w.first_epoch_steps(state)), state.clock.step_seconds(0)
        items = w.BATCH * len(every)
    else:
        steps = every = loop.seconds
        items = len(every)
    wall = {
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * _p90(steps),
        "items_per_s": items / sum(every),
    }
    scale = gauge.scale()
    values = {
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
        "adj_step_ms_p50": _metric(wall["step_ms_p50"] * scale, "ms"),
        "adj_step_ms_p90": _metric(wall["step_ms_p90"] * scale, "ms"),
        "adj_items_per_s": _metric(wall["items_per_s"] / scale, "1/s"),
        "peak_rss_mib": _metric(_peak_rss_mib(), "MiB"),
    }
    _report_end_to_end(wl, values, wall, len(steps), loop)
    print(
        f"{wl.name}  host gauge median {1e3 * statistics.median(gauge.seconds):.4f} ms over "
        f"{len(gauge.seconds)} samples, reference {1e3 * w.GAUGE_REF_S:.4f} ms"
    )
    return loop.attempted, loop.failed, values


def _report_end_to_end(wl, values, wall_values, samples, loop):
    labels = LABELS[wl.kind]
    print(f"{wl.name}  {'':<22} {'adjusted':>12} {'wall':>12}")
    for name, m in values.items():
        base = name.removeprefix("adj_")
        wall = f"{wall_values[base]:12.4f}" if base in wall_values else " " * 12
        note = ""
        if base.startswith("step_ms"):
            note = f"  (n={samples})"
            if base == "step_ms_p90" and samples < 100:
                note += ", fewer than 10 samples beyond p90"
        print(f"{wl.name}  {labels.get(base, base):<22} {m['value']:12.4f} {wall} {m['unit']:<4} [{name}]{note}")
    frac = loop.failed / loop.attempted
    print(f"{wl.name}  {'failed_frac':<22} {frac:12.4f}      ({loop.failed} of {loop.attempted} operations)")


def _forward_peak_mib(wl, state) -> float:
    """tracemalloc peak of one forward pass on the first item's feature stack."""
    stack = w.fusion.build_feature_stack(state.items[0][1], state.views or None)
    if wl.kind == "train":
        params = w.fusion.init_network(w.fusion.ArchConfig(), state.seed)
        run = lambda: w.fusion.forward_graph(params, stack)  # noqa: E731
    else:
        run = lambda: w.fusion.forward(state.params, stack)  # noqa: E731
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_run(wl, size, seed, ref, work, seconds, meta):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state, setups = w.set_up_repeatedly(wl, size, seed, work)
    finally:
        tracer.uninstall()
    tracer.phase = "loop"
    if wl.kind == "train":
        state.clock = w.StepClock(tracer)
    try:
        loop = w.run_loop(state, ref, seconds, tracer)
    finally:
        if state.clock is not None:
            state.clock.close()
    if state.clock is not None:
        ops_per = [len(steps) for steps in state.clock.calls]
    else:
        ops_per = [1] * loop.attempted
    ops = sum(n for n, t in zip(ops_per, loop.traced) if t)
    plain_ops = sum(n for n, t in zip(ops_per, loop.traced) if not t)
    traced_ms = 1e3 * sum(s for s, t in zip(loop.seconds, loop.traced) if t) / ops
    plain_ms = 1e3 * sum(s for s, t in zip(loop.seconds, loop.traced) if not t) / plain_ops
    samples = w.BATCH * ops if wl.kind == "train" else ops
    self_s = tracer.self_times()
    per_op = {name: 1e3 * self_s.get(("loop", name), 0.0) / ops for name in LOOP_LAYERS}
    per_setup = {name: 1e3 * self_s.get(("setup", name), 0.0) / len(setups) for name in SETUP_LAYERS}
    root_ms = 1e3 * self_s.get(("loop", "bench." + wl.kind), 0.0) / ops

    values = {f"{name}_ms": _metric(v, "ms") for name, v in {**per_op, **per_setup}.items()}
    computed = {
        "autodiff.conv2d_calls": _metric(tracer.calls[("loop", "autodiff.conv2d")] / ops, "count"),
        "autodiff.conv2d_gflop": _metric(tracer.flop["autodiff.conv2d"] / ops / 1e9, "GFLOP"),
        "autodiff.matmul_gflop": _metric(tracer.flop["autodiff.matmul"] / ops / 1e9, "GFLOP"),
        "autodiff.scores_mib": _metric(tracer.max_softmax_bytes / 2**20, "MiB"),
        "train.stack_cache_hit_ratio": _metric(
            1.0 - tracer.calls[("loop", "fusion.build_feature_stack")] / samples, "ratio"
        ),
        "fusion.forward_peak_alloc_mib": _metric(_forward_peak_mib(wl, state), "MiB"),
    }
    values.update(computed)
    values["trace.overhead_ms"] = _metric(traced_ms - plain_ms, "ms")
    values["trace.unattributed_ms"] = _metric(root_ms, "ms")

    unit = "step" if wl.kind == "train" else "frame"
    print(f"{wl.name}  traced: {ops} {unit}s, untraced: {plain_ops}; self time per {unit} (ms), share of the traced {unit}")
    for name in sorted(per_op, key=per_op.get, reverse=True):
        if per_op[name] > 0:
            print(f"{wl.name}    {name:<28} {per_op[name]:10.3f}  {per_op[name] / traced_ms:6.1%}")
    print(f"{wl.name}    {'(benchmark loop itself)':<28} {root_ms:10.3f}  {root_ms / traced_ms:6.1%}")
    accounted = sum(per_op.values()) + root_ms
    print(
        f"{wl.name}  sum of self times {accounted:.3f} ms = traced {unit} {traced_ms:.3f} ms; "
        f"untraced {unit} {plain_ms:.3f} ms; tracing overhead {traced_ms - plain_ms:.3f} ms"
    )
    for group, names in (("extraction", EXTRACTION), ("attention ops", ATTENTION), ("network", NETWORK)):
        share = sum(per_op[n] for n in names) / traced_ms
        print(f"{wl.name}  share of traced {unit}: {group:<14} {share:6.1%}")
    for name, v in per_setup.items():
        print(f"{wl.name}  set-up layer {name:<24} {v:10.3f} ms per set-up")
    for name, m in computed.items():
        print(f"{wl.name}  {name:<32} {m['value']:12.6g} {m['unit']} (computed)")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{wl.name}-seed{meta['seed']}.jsonl"
    tracer.write(path, meta)
    print(f"{wl.name}  wrote {len(tracer.spans)} spans to {path.relative_to(HERE.parent)}")
    return loop.attempted, loop.failed, values


def run_one(args) -> int:
    wl = w.WORKLOADS[args.workload]
    size = args.size or wl.size
    try:
        refs = w.load_reference(Path(args.reference) if args.reference else w.REFERENCE, wl, size)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no usable reference: {exc}", file=sys.stderr)
        return 2
    seed = args.seed % len(refs)
    meta = {"workload": wl.name, "seed": args.seed, "corpus_seed": seed, "size": size, "seconds": args.seconds}
    meta.update(w.environment())
    print("meta " + json.dumps(meta, sort_keys=True))
    work = w.fresh_workdir(wl.name)
    try:
        if args.trace:
            attempted, failed, values = traced_run(wl, size, seed, refs[seed], work, args.seconds, meta)
        else:
            state, setup_seconds = w.set_up_repeatedly(wl, size, seed, work)
            attempted, failed, values = timed_run(wl, state, refs[seed], setup_seconds, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.size:
        rest += ["--size", str(args.size)]
    if args.reference:
        rest += ["--reference", args.reference]
    codes = [
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, *rest]).returncode
        for name in w.WORKLOADS
    ]
    return max(codes)


def main(argv) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    try:
        import tracing
        import workloads as w
    except ImportError as exc:
        print(f"error: cannot import the tamperloc sources next to the benchmark: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
