"""Pixel-statistics view: spatial rich-model noise residuals per RGB channel.

The three predictors below estimate a pixel from its neighbourhood and keep
the prediction error. Content is suppressed (all taps sum to zero) while
sensor noise, interpolation and quantisation artefacts survive, which is what
makes the residuals useful for locating material from a different source.
"""

from __future__ import annotations

import numpy as np

from .core import Frame, FeatureStack, Kernel2D, affine_map_to_unit, apply_kernel_bank

RESIDUAL_CLAMP = 2.0

_K1 = np.zeros((5, 5))
_K1[1:4, 1:4] = [[-1, 2, -1], [2, -4, 2], [-1, 2, -1]]
_K1 /= 4.0

_K2 = np.asarray(
    [
        [-1, 2, -2, 2, -1],
        [2, -6, 8, -6, 2],
        [-2, 8, -12, 8, -2],
        [2, -6, 8, -6, 2],
        [-1, 2, -2, 2, -1],
    ],
    dtype=np.float64,
) / 12.0

_K3 = np.zeros((5, 5))
_K3[2, :] = [0, 1, -2, 1, 0]
_K3 /= 2.0

SRM_KERNELS = (Kernel2D(_K1), Kernel2D(_K2), Kernel2D(_K3))
SRM_LABELS = tuple(f"srm{i}_{c}" for i in (1, 2, 3) for c in ("R", "G", "B"))


def srm_features(f: Frame, out: "np.ndarray | None" = None) -> FeatureStack:
    """Nine channels: K1, K2, K3 residuals of R, G, B (kernel-major order).

    Residuals are computed on the 0-255 scale, clamped to +-2 and mapped
    affinely onto [0, 1]; a flat input therefore lands exactly on 0.5.
    Written into ``out`` (C-contiguous (9, H, W); a new array when None).
    """
    out = np.empty((len(SRM_LABELS), f.height, f.width)) if out is None else out
    bank = np.stack([k.taps for k in SRM_KERNELS])
    resp = apply_kernel_bank(f.data * 255.0, bank, out.reshape(3, 3, f.height, f.width, copy=False))
    affine_map_to_unit(resp, -RESIDUAL_CLAMP, RESIDUAL_CLAMP, out=resp)
    return FeatureStack(out, SRM_LABELS)
