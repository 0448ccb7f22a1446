import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc.core import Frame
from tamperloc.edge import (
    EDGE_LABELS,
    LAPLACIAN_4,
    LAPLACIAN_8,
    SOBEL_X,
    SOBEL_Y,
    edge_features,
)

from oracles import conv2d_reflect


def sobel(f: Frame) -> np.ndarray:
    """The six Sobel channels of the edge view: x then y of R, G, B."""
    return edge_features(f).data[:6]


def laplacians(f: Frame) -> np.ndarray:
    """The six Laplacian channels of the edge view: 4- then 8-neighbour of R, G, B."""
    return edge_features(f).data[6:]


KERNELS_AND_BOUNDS = (
    (SOBEL_X, 4.0), (SOBEL_Y, 4.0), (LAPLACIAN_4, 4.0), (LAPLACIAN_8, 8.0),
)


class TestLayout:
    def test_twelve_channels_in_declared_order(self):
        f = Frame(default_rng(0).uniform(size=(3, 8, 8)))
        stack = edge_features(f)
        assert stack.channels == 12
        assert stack.labels == EDGE_LABELS
        assert stack.labels == tuple(
            f"{kind}_{c}" for kind in ("sobel_x", "sobel_y", "lap4", "lap8") for c in "RGB"
        )


class TestConstantAndSteps:
    def test_constant_frame_all_half(self):
        stack = edge_features(Frame(np.full((3, 12, 12), 0.3)))
        assert np.allclose(stack.data, 0.5, atol=1e-15)

    def test_vertical_step_saturates_sobel_x(self):
        data = np.zeros((3, 8, 8))
        data[:, :, 4:] = 1.0
        stack = sobel(Frame(data))
        # columns flanking the step see the full +4 response on every row
        for c in range(3):
            assert np.all(stack[c][:, 3:5] == 1.0)

    def test_linear_ramp_zeroes_laplacians_interior(self):
        ramp = np.tile(np.linspace(0.0, 1.0, 16), (16, 1))
        stack = laplacians(Frame(np.stack([ramp] * 3)))
        assert np.allclose(stack[:, 1:-1, 1:-1], 0.5, atol=1e-12)

    def test_single_bright_pixel(self):
        data = np.zeros((3, 9, 9))
        data[:, 4, 4] = 1.0
        stack = laplacians(Frame(data))
        # center pixel: 4-neighbour response -4 -> 0.0; 8-neighbour -8 -> 0.0
        assert stack[0, 4, 4] == 0.0  # lap4_R
        assert stack[3, 4, 4] == 0.0  # lap8_R


class TestOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        f = Frame(default_rng(seed).uniform(size=(3, 16, 16)))
        stack = edge_features(f)
        idx = 0
        for kernel, bound in KERNELS_AND_BOUNDS:
            for c in range(3):
                resp = conv2d_reflect(f.data[c], np.asarray(kernel.taps))
                want = np.clip((resp + bound) / (2.0 * bound), 0.0, 1.0)
                assert np.allclose(stack.data[idx], want, atol=1e-10)
                idx += 1


class TestFlipInvariants:
    def test_sobel_x_mirror_negates(self):
        f = Frame(default_rng(1).uniform(size=(3, 12, 12)))
        flipped = Frame(f.data[:, :, ::-1])
        a = sobel(f)[:3]
        b = sobel(flipped)[:3]
        assert np.allclose(b, 1.0 - a[:, :, ::-1], atol=1e-12)

    def test_sobel_y_mirror_commutes(self):
        f = Frame(default_rng(2).uniform(size=(3, 12, 12)))
        flipped = Frame(f.data[:, :, ::-1])
        a = sobel(f)[3:]
        b = sobel(flipped)[3:]
        assert np.allclose(b, a[:, :, ::-1], atol=1e-12)

    def test_laplacians_mirror_invariant(self):
        f = Frame(default_rng(3).uniform(size=(3, 12, 12)))
        flipped = Frame(f.data[:, :, ::-1])
        a = laplacians(f)
        b = laplacians(flipped)
        assert np.allclose(b, a[:, :, ::-1], atol=1e-12)


class TestRange:
    def test_output_in_unit_interval(self):
        f = Frame(default_rng(4).uniform(size=(3, 16, 16)))
        stack = edge_features(f)
        assert stack.data.min() >= 0.0 and stack.data.max() <= 1.0
