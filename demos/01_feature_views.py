"""Walk through the four feature views on a single spliced frame.

Synthesizes a 64x64 frame with a rectangular donor region, extracts each
view, and measures how strongly the splice seam stands out in each: the
mean absolute feature difference across pixel pairs that straddle the
mask boundary, against the same statistic over all adjacent pairs.
"""

import tempfile
from pathlib import Path

import numpy as np

from tamperloc.datagen import Region, SpliceSpec, splice
from tamperloc.edge import edge_features
from tamperloc.formats import write_pgm, write_ppm
from tamperloc.frequency import frequency_features
from tamperloc.pixel import srm_features
from tamperloc.texture import extract_texture


def pair_contrast(values: np.ndarray, mask: np.ndarray, crossing_only: bool) -> float:
    """Mean |difference| over 4-adjacent pixel pairs, optionally only the
    pairs whose endpoints straddle the mask boundary."""
    m = mask > 0.5
    total, count = 0.0, 0
    for dy, dx in ((0, 1), (1, 0)):
        a = values[:, : values.shape[1] - dy, : values.shape[2] - dx]
        b = values[:, dy:, dx:]
        if crossing_only:
            keep = m[: m.shape[0] - dy, : m.shape[1] - dx] != m[dy:, dx:]
            a, b = a[:, keep], b[:, keep]
        total += float(np.abs(a - b).sum())
        count += a.size
    return total / count


with tempfile.TemporaryDirectory(prefix="feature_views_") as tmp:
    out_dir = Path(tmp)

    # host and donor differ in texture family and in compression history, so
    # both spatial and frequency views have something to find
    spec = SpliceSpec(
        host_kind="value_noise",
        host_seed=3,
        donor_kind="grating",
        donor_seed=4,
        region=Region("rectangle", (20, 24, 18, 16)),
        host_sigma=0.01,
        donor_sigma=0.0,
        host_quality=75,
        donor_quality=100,
    )
    frame, mask = splice(spec, 64)
    write_ppm(out_dir / "frame.ppm", frame)
    write_pgm(out_dir / "truth.pgm", mask, visual=True)
    print(f"spliced frame: donor {spec.donor_kind} into host {spec.host_kind}, "
          f"{int(mask.sum())} tampered pixels")

    inside = mask > 0.5
    print(f"\n{'view':<10} {'channels':>8} {'seam pairs':>11} {'all pairs':>10} {'ratio':>7}")
    for name, stack in (
        ("texture", extract_texture(frame)),
        ("edge", edge_features(frame)),
        ("pixel", srm_features(frame)),
        ("frequency", frequency_features(frame)),
    ):
        seam = pair_contrast(stack.data, mask, crossing_only=True)
        everywhere = pair_contrast(stack.data, mask, crossing_only=False)
        print(f"{name:<10} {stack.channels:>8} {seam:>11.4f} {everywhere:>10.4f} "
              f"{seam / everywhere:>7.1f}")
        # save the channel whose means separate most between the two regions
        per_channel = np.abs(stack.data[:, inside].mean(axis=1) - stack.data[:, ~inside].mean(axis=1))
        best = int(per_channel.argmax())
        write_pgm(out_dir / f"{name}_{stack.labels[best]}.pgm",
                  (stack.data[best] > stack.data[best].mean()).astype(float))

    print(f"\nwrote frame, truth and per-view channels to {out_dir}, which is removed on exit")
