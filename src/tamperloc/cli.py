"""Command-line surface: synth / extract / train / infer / eval / gradcheck.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 failed check.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .datagen import load_split, make_dataset
from .errors import PipelineError
from .formats import load_model, read_ppm, save_model, write_pgm, write_report, write_tensorfile
from .fusion import (
    FEATURE_VIEWS,
    VARIANTS,
    ArchConfig,
    build_feature_stack,
    finite_difference_check,
    micro_arch,
    predict,
)
from .metrics import binarize, evaluate
from .perturb import parse_spec
from .train import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad invocations instead of calling sys.exit(2)."""

    def error(self, message):
        raise _UsageError(message)


def _parse_views(text: "str | None"):
    """'all' -> every view, 'none' -> RGB only, otherwise a comma list."""
    if text is None or text == "all":
        return None
    if text == "none":
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_augment(text: "str | None"):
    if text is None:
        return ()
    return tuple(parse_spec(part.strip()) for part in text.split(",") if part.strip())


def _build_parser() -> _Parser:
    parser = _Parser(prog="tamperloc", description="multi-view tampering localization pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True, help="number of items")
    p.add_argument("--size", type=int, default=64, help="frame side in pixels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", type=float, default=0.75, help="train fraction")
    p.add_argument("--inpaint", type=float, default=0.25, help="inpaint item fraction")

    p = sub.add_parser("extract", help="write a frame's feature stack as a tensor file")
    p.add_argument("--in", dest="input", required=True, help="frame (binary PPM)")
    p.add_argument("--out", required=True, help="tensor container path")
    p.add_argument("--features", default="all", help="all, none, or comma list of " + ",".join(FEATURE_VIEWS))

    p = sub.add_parser("train", help="train a model on a corpus' train split")
    p.add_argument("--data", required=True, help="corpus directory from synth")
    p.add_argument("--out", required=True, help="model container path")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment", default=None, help="comma list of perturbation specs, e.g. compression:75,flip")
    p.add_argument("--arch", choices=VARIANTS, default="cnn_vit")
    p.add_argument("--features", default="all")

    p = sub.add_parser("infer", help="predict a tamper mask for one frame")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True, help="frame (binary PPM)")
    p.add_argument("--out", required=True, help="mask path (binary PGM)")
    p.add_argument("--visual", action="store_true", help="write white/gray display masks instead of white/black")
    p.add_argument("--features", default=None, help="override the model's train-time feature switches")

    p = sub.add_parser("eval", help="evaluate a model over a corpus split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--perturb", default=None, help="perturbation spec, e.g. gaussian:0.02")
    p.add_argument("--features", default=None, help="override the model's train-time feature switches")
    p.add_argument("--split", choices=("train", "eval", "all"), default="eval")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", required=True, help="report output path")

    p = sub.add_parser("gradcheck", help="finite-difference check of every parameter tensor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", choices=VARIANTS, default="cnn_vit")

    return parser


def _run_synth(args) -> int:
    manifest = make_dataset(
        args.out,
        count=args.n,
        size=args.size,
        seed=args.seed,
        train_fraction=args.split,
        inpaint_fraction=args.inpaint,
    )
    print(
        f"wrote {len(manifest.items)} items "
        f"({manifest.counts['train']} train, {manifest.counts['eval']} eval) to {args.out}"
    )
    return EXIT_OK


def _run_extract(args) -> int:
    frame = read_ppm(args.input)
    stack = build_feature_stack(frame, _parse_views(args.features))
    write_tensorfile(args.out, [(label, stack.data[i]) for i, label in enumerate(stack.labels)])
    print(f"wrote {stack.channels} channels ({stack.height}x{stack.width}) to {args.out}")
    return EXIT_OK


def _run_train(args) -> int:
    items = load_split(args.data, "train")
    views = _parse_views(args.features)
    cfg = TrainConfig(
        steps=args.steps,
        lr=args.lr,
        batch_size=args.batch,
        seed=args.seed,
        augment=_parse_augment(args.augment),
        views=views if views is not None else FEATURE_VIEWS,
    )
    params, history = train(cfg, ArchConfig(variant=args.arch), items)
    save_model(args.out, params, cfg.views)
    print(f"trained {args.arch} for {cfg.steps} steps on {len(items)} items; final loss {history[-1]:.4f}")
    print(f"saved model to {args.out}")
    return EXIT_OK


def _run_infer(args) -> int:
    params, train_views = load_model(args.model)
    views = train_views if args.features is None else _parse_views(args.features)
    frame = read_ppm(args.input)
    pred = predict(params, frame, views)
    mask = binarize(pred)
    write_pgm(args.out, mask, visual=args.visual)
    print(f"tampered fraction {mask.mean():.3f}; wrote {args.out}")
    return EXIT_OK


def _run_eval(args) -> int:
    params, train_views = load_model(args.model)
    views = train_views if args.features is None else _parse_views(args.features)
    items = load_split(args.data, args.split)
    report = evaluate(
        params,
        items,
        views,
        perturbation=parse_spec(args.perturb) if args.perturb else None,
        seed=args.seed,
    )
    write_report(args.json, report)
    print(
        f"miou {report.miou:.4f} f1 {report.f1:.4f} miou_fg {report.miou_fg:.4f} "
        f"over {len(report.per_frame)} frames ({report.perturbation})"
    )
    return EXIT_OK


def _run_gradcheck(args) -> int:
    ok, report = finite_difference_check(seed=args.seed, arch=micro_arch(args.arch))
    for name in sorted(report):
        print(f"{name}: {report[name]:.3e}")
    if not ok:
        print("gradient check failed", file=sys.stderr)
        return EXIT_CHECK
    print("gradient check passed")
    return EXIT_OK


_RUNNERS = {
    "synth": _run_synth,
    "extract": _run_extract,
    "train": _run_train,
    "infer": _run_infer,
    "eval": _run_eval,
    "gradcheck": _run_gradcheck,
}


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return _RUNNERS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
