"""Measure how a trained localizer holds up under post-processing.

Real tampered footage rarely arrives pristine: it gets recompressed,
filtered, sharpened, flipped. This demo trains two models on the same
corpus, one with perturbation augmentation and one without, then scores
both on held-out frames under every perturbation in the benchmark suite.
The augmented model should degrade more gracefully. DEMO_STEPS sets the
number of training steps (120).
"""

import os
import tempfile
from pathlib import Path

from tamperloc.datagen import load_split, make_dataset
from tamperloc.fusion import ArchConfig
from tamperloc.metrics import evaluate
from tamperloc.perturb import perturb_suite
from tamperloc.train import TrainConfig, train

with tempfile.TemporaryDirectory(prefix="robustness_") as tmp:
    # a split reads its files as items are drawn, so it is used only while
    # its directory exists
    root = Path(tmp)
    make_dataset(root / "train", count=8, size=64, seed=21, train_fraction=1.0, inpaint_fraction=0.0)
    make_dataset(root / "held", count=4, size=64, seed=2021, train_fraction=0.0, inpaint_fraction=0.0)
    train_items = load_split(root / "train", "train")
    held_items = load_split(root / "held", "eval")

    steps = int(os.environ.get("DEMO_STEPS", 120))
    print("training the plain model...")
    plain, _ = train(TrainConfig(steps=steps, seed=21), ArchConfig(), train_items)
    print("training the augmented model (random suite perturbation per sample)...")
    augmented, _ = train(TrainConfig(steps=steps, seed=21, augment=perturb_suite()), ArchConfig(), train_items)

    scores = {"plain": {}, "augmented": {}}
    print(f"\n{'perturbation':<16} {'plain mIoU':>12} {'augmented mIoU':>15}")
    for spec in perturb_suite():
        scores["plain"][spec.kind] = evaluate(plain, held_items, perturbation=spec, seed=21).miou
        scores["augmented"][spec.kind] = evaluate(augmented, held_items, perturbation=spec, seed=21).miou
        print(f"{spec.describe():<16} {scores['plain'][spec.kind]:>12.4f} "
              f"{scores['augmented'][spec.kind]:>15.4f}")

print("\nmean mIoU drop from the unperturbed row (smaller = more robust):")
for label, row in scores.items():
    drops = [row["none"] - v for k, v in row.items() if k != "none"]
    print(f"  {label:<10} {sum(drops) / len(drops):+.4f}")
