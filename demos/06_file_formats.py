"""The three on-disk formats: netpbm images, tensor containers, reports.

Frames travel as binary PPM, masks as binary PGM (with a white/gray
visual mode for direct viewing), and every tensor collection - feature
stacks, model checkpoints - uses one little-endian container format.
All of them round-trip byte-identically, which the acceptance battery
leans on.
"""

import tempfile
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from tamperloc.core import Frame
from tamperloc.formats import (
    load_model,
    read_pgm,
    read_ppm,
    read_tensorfile,
    save_model,
    write_pgm,
    write_ppm,
    write_tensorfile,
)
from tamperloc.fusion import forward, init_network, micro_arch

with tempfile.TemporaryDirectory(prefix="formats_demo_") as tmp:
    root = Path(tmp)
    rng = default_rng(0)

    # PPM: 8-bit quantization on write, exact recovery of quantized values
    frame = Frame(rng.integers(0, 256, size=(3, 16, 16)).astype(np.float64) / 255.0)
    write_ppm(root / "frame.ppm", frame)
    again = read_ppm(root / "frame.ppm")
    print(f"PPM round trip exact: {np.array_equal(frame.data, again.data)}")

    # PGM: binary masks store 255/0; visual masks store 255/128 for viewing
    mask = (rng.uniform(size=(16, 16)) > 0.6).astype(np.float64)
    write_pgm(root / "mask.pgm", mask)
    write_pgm(root / "mask_visual.pgm", mask, visual=True)
    print(f"PGM binary round trip exact: {np.array_equal(read_pgm(root / 'mask.pgm'), mask)}")
    print(f"PGM visual round trip exact: {np.array_equal(read_pgm(root / 'mask_visual.pgm'), mask)}")

    # the tensor container holds named float32 arrays in file order
    write_tensorfile(root / "stack.uvlt", [("ones", np.ones((2, 3))), ("ramp", np.arange(4.0))])
    for name, array in read_tensorfile(root / "stack.uvlt"):
        print(f"tensor record {name!r}: shape {array.shape}")

    # model checkpoints are tensor containers with metadata rows; a reloaded
    # model forwards identically every time it is read back
    params = init_network(micro_arch(), seed=9)
    save_model(root / "model.uvlt", params, views=("texture", "pixel"))
    loaded, views = load_model(root / "model.uvlt")
    x = rng.uniform(size=(loaded.arch.input_channels, 8, 8))
    same = forward(loaded, x).tobytes() == forward(load_model(root / "model.uvlt")[0], x).tobytes()
    print(f"model reload: arch {loaded.arch.variant}, views {views}, "
          f"repeat-load forward bit-identical: {same}")
    print(f"files written to {root}, which is removed on exit")
