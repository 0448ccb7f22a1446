import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc.core import (
    Frame,
    FeatureStack,
    Kernel2D,
    PipelineError,
    affine_map_to_unit,
    apply_kernel_bank,
    luminance,
)

from oracles import conv2d_reflect, luminance_601, affine_unit


def random_frame(seed: int, h: int = 16, w: int = 16) -> Frame:
    return Frame(default_rng(seed).uniform(0.0, 1.0, (3, h, w)))


def correlate(channel: np.ndarray, kernel: Kernel2D) -> np.ndarray:
    """One (H, W) channel correlated with one kernel."""
    return apply_kernel_bank(channel[np.newaxis], kernel.taps[np.newaxis])[0, 0]


class TestFrame:
    def test_valid(self):
        f = random_frame(0)
        assert f.height == 16 and f.width == 16

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(PipelineError, match="bad-frame"):
            Frame(np.zeros((4, 16, 16)))

    def test_rejects_small_side(self):
        with pytest.raises(PipelineError, match="bad-frame"):
            Frame(np.zeros((3, 7, 16)))

    def test_rejects_out_of_range(self):
        data = np.zeros((3, 16, 16))
        data[0, 0, 0] = 1.5
        with pytest.raises(PipelineError, match="bad-frame"):
            Frame(data)

    def test_rejects_non_finite(self):
        data = np.zeros((3, 16, 16))
        data[1, 2, 3] = np.nan
        with pytest.raises(PipelineError, match="bad-frame"):
            Frame(data)


class TestFeatureStack:
    def test_label_count_must_match(self):
        with pytest.raises(PipelineError, match="bad-stack"):
            FeatureStack(np.zeros((2, 8, 8)), ("only-one",))

    def test_rejects_non_3d(self):
        with pytest.raises(PipelineError, match="bad-stack"):
            FeatureStack(np.zeros((8, 8)), ("a",))


class TestKernel2D:
    def test_rejects_even_size(self):
        with pytest.raises(PipelineError, match="bad-kernel"):
            Kernel2D(np.zeros((4, 4)))

    def test_rejects_non_square(self):
        with pytest.raises(PipelineError, match="bad-kernel"):
            Kernel2D(np.zeros((3, 5)))


class TestConv2dSame:
    """Same-size reflect-padded correlation through ``apply_kernel_bank``."""

    def test_identity_kernel(self):
        f = random_frame(1)
        ident = np.zeros((3, 3))
        ident[1, 1] = 1.0
        out = correlate(f.data[0], Kernel2D(ident))
        assert np.array_equal(out, f.data[0])

    def test_zero_sum_kernel_on_constant(self):
        k = Kernel2D(np.array([[1.0, -2.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 2.0, -1.0]]))
        out = correlate(np.full((12, 12), 0.7), k)
        assert np.allclose(out, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        rng = default_rng(seed)
        channel = rng.uniform(0.0, 1.0, (16, 16))
        taps = rng.normal(0.0, 1.0, (5, 5))
        got = correlate(channel, Kernel2D(taps))
        want = conv2d_reflect(channel, taps)
        assert np.allclose(got, want, atol=1e-10)

    def test_linearity(self):
        rng = default_rng(7)
        a, b = rng.uniform(size=(16, 16)), rng.uniform(size=(16, 16))
        k = Kernel2D(rng.normal(size=(3, 3)))
        lhs = correlate(0.3 * a + 0.6 * b, k)
        rhs = 0.3 * correlate(a, k) + 0.6 * correlate(b, k)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_horizontal_flip_anticommutes_with_sobel_x(self):
        sobel_x = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        channel = default_rng(3).uniform(size=(16, 16))
        lhs = correlate(channel[:, ::-1], Kernel2D(sobel_x))
        rhs = -correlate(channel, Kernel2D(sobel_x))[:, ::-1]
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_kernel_exceeds_image(self):
        with pytest.raises(PipelineError, match="kernel-exceeds-image"):
            correlate(np.zeros((8, 8)), Kernel2D(np.zeros((17, 17))))

    def test_preserves_all_channels(self):
        f = random_frame(2)
        k = Kernel2D(default_rng(0).normal(size=(3, 3)))
        out = apply_kernel_bank(f.data, k.taps[np.newaxis])[0]
        assert out.shape[0] == 3
        for c in range(3):
            assert np.allclose(out[c], conv2d_reflect(f.data[c], k.taps), atol=1e-10)


class TestApplyKernelBank:
    def test_matches_single_convs(self):
        rng = default_rng(11)
        stack = rng.uniform(size=(2, 12, 12))
        kernels = rng.normal(size=(4, 3, 3))
        out = apply_kernel_bank(stack, kernels)
        assert out.shape == (4, 2, 12, 12)
        for ki in range(4):
            for ci in range(2):
                assert np.allclose(out[ki, ci], conv2d_reflect(stack[ci], kernels[ki]), atol=1e-10)


class TestAffineToUnit:
    def test_endpoints_and_midpoint(self):
        vals = np.array([-4.0, 0.0, 4.0])
        out = affine_map_to_unit(vals, -4.0, 4.0)
        assert np.array_equal(out, np.array([0.0, 0.5, 1.0]))

    def test_clamps_outside(self):
        out = affine_map_to_unit(np.array([-9.0, 14.0]), -4.0, 4.0)
        assert np.array_equal(out, np.array([0.0, 1.0]))

    def test_matches_oracle(self):
        vals = default_rng(2).normal(0.0, 3.0, (16, 16))
        assert np.allclose(affine_map_to_unit(vals, -4.0, 4.0),
                           affine_unit(vals, -4.0, 4.0), atol=1e-15)

    def test_bad_range(self):
        with pytest.raises(PipelineError, match="bad-range"):
            affine_map_to_unit(np.zeros(3), 2.0, 2.0)

    def test_per_channel_bounds_match_scalar_calls(self):
        vals = default_rng(3).normal(0.0, 5.0, (4, 9, 7))
        bounds = np.array([4.0, 4.0, 4.0, 8.0])
        out = affine_map_to_unit(vals, -bounds[:, None, None], bounds[:, None, None])
        for c, b in enumerate(bounds):
            assert np.array_equal(out[c], affine_map_to_unit(vals[c], -float(b), float(b)))

    def test_one_bad_pair_rejected(self):
        lo = np.array([-1.0, 3.0, -2.0])[:, None]
        hi = np.array([1.0, 3.0, 2.0])[:, None]
        with pytest.raises(PipelineError, match="bad-range"):
            affine_map_to_unit(np.zeros((3, 4)), lo, hi)

    def test_input_left_unchanged(self):
        vals = default_rng(4).normal(0.0, 5.0, (3, 8, 8))
        before = vals.copy()
        out = affine_map_to_unit(vals, -np.ones((3, 1, 1)), np.full((3, 1, 1), 2.0))
        assert np.array_equal(vals, before)
        assert not np.shares_memory(out, vals)


class TestLuminance:
    def test_white_is_one(self):
        lum = luminance(Frame(np.ones((3, 8, 8))))
        assert np.allclose(lum.data, 1.0, atol=1e-12)

    def test_pure_red(self):
        data = np.zeros((3, 8, 8))
        data[0] = 1.0
        assert np.allclose(luminance(Frame(data)).data, 0.299, atol=1e-12)

    def test_matches_loop_oracle(self):
        f = random_frame(9, 8, 8)
        assert np.allclose(luminance(f).data[0], luminance_601(f.data), atol=1e-12)

