"""Edge view: Sobel gradients and two Laplacian variants on each RGB channel.

One filter-bank pass correlates every RGB channel with Sobel x, Sobel y, the
4-neighbour and the 8-neighbour Laplacian (kernel-major order). Each response
is clamped to the largest magnitude a unit-range input can produce with its
kernel (+-4, +-4, +-4, +-8) and mapped affinely onto [0, 1].
"""

from __future__ import annotations

import numpy as np

from .core import Frame, FeatureStack, Kernel2D, affine_map_to_unit, apply_kernel_bank

SOBEL_X = Kernel2D([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
SOBEL_Y = Kernel2D(np.asarray(SOBEL_X.taps).T)
LAPLACIAN_4 = Kernel2D([[0, 1, 0], [1, -4, 1], [0, 1, 0]])
LAPLACIAN_8 = Kernel2D([[1, 1, 1], [1, -8, 1], [1, 1, 1]])

_BANK = np.stack([k.taps for k in (SOBEL_X, SOBEL_Y, LAPLACIAN_4, LAPLACIAN_8)])
_BOUNDS = np.array([4.0, 4.0, 4.0, 8.0])[:, None, None, None]
EDGE_LABELS = tuple(f"{kind}_{c}" for kind in ("sobel_x", "sobel_y", "lap4", "lap8") for c in ("R", "G", "B"))


def edge_features(f: Frame, out: "np.ndarray | None" = None) -> FeatureStack:
    """The 12-channel edge view: Sobel x, Sobel y, Laplacian-4, Laplacian-8 of R, G, B,
    written into ``out`` (C-contiguous (12, H, W); a new array when None)."""
    out = np.empty((len(EDGE_LABELS), f.height, f.width)) if out is None else out
    resp = apply_kernel_bank(f.data, _BANK, out.reshape(4, 3, f.height, f.width, copy=False))
    affine_map_to_unit(resp, -_BOUNDS, _BOUNDS, out=resp)
    return FeatureStack(out, EDGE_LABELS)
