"""Train a small localizer end to end and inspect what it learned.

Builds an 8-frame synthetic corpus, trains the default fused architecture
for 240 steps, then reports the loss curve and per-frame tampered-class
IoU on the frames it trained on. A minute of CPU is enough for the
network to localize the training splices convincingly. DEMO_STEPS sets the
number of training steps (240).
"""

import os
import tempfile
import time
from pathlib import Path

from tamperloc.datagen import load_split, make_dataset
from tamperloc.formats import save_model, write_pgm
from tamperloc.fusion import ArchConfig, predict
from tamperloc.metrics import binarize, confusion_counts, foreground_iou
from tamperloc.train import TrainConfig, train

with tempfile.TemporaryDirectory(prefix="train_demo_") as tmp:
    root = Path(tmp)
    make_dataset(root / "data", count=8, size=64, seed=11, train_fraction=1.0, inpaint_fraction=0.0)
    items = load_split(root / "data", "train")
    print(f"corpus: {len(items)} spliced 64x64 frames")

    cfg = TrainConfig(steps=int(os.environ.get("DEMO_STEPS", 240)), lr=1e-3, batch_size=4, seed=11)
    t0 = time.monotonic()
    params, history = train(cfg, ArchConfig(), items)
    print(f"trained {sum(t.data.size for t in params.tensors.values())} parameters "
          f"for {cfg.steps} steps in {time.monotonic() - t0:.0f}s")
    print("loss curve:", "  ".join(f"{history[i]:.3f}" for i in range(0, len(history), 40)))

    print(f"\n{'frame':<12} {'tampered-IoU':>12}")
    for item_id, frame, mask in items:
        pred = binarize(predict(params, frame))
        iou = foreground_iou(confusion_counts(pred, mask))
        print(f"{item_id:<12} {iou:>12.3f}")
        write_pgm(root / f"{item_id}_pred.pgm", pred, visual=True)

    save_model(root / "model.uvlt", params)
    print(f"\nmodel and predicted masks written to {root}, which is removed on exit")
