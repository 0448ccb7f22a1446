import importlib
import math
import types

import numpy as np
import pytest
from numpy.random import default_rng

import tamperloc
from tamperloc.core import (
    Frame,
    FeatureStack,
    Kernel2D,
    PipelineError,
    affine_map_to_unit,
    apply_kernel_bank,
    check_int,
    check_real,
    check_seed,
    luminance,
)
from tamperloc.datagen import (
    Region,
    SpliceSpec,
    make_texture,
    rasterize,
    sample_region,
    sample_splice_spec,
    simulate_inpaint,
)
from tamperloc.frequency import band_mask, band_reconstruct
from tamperloc.metrics import binarize
from tamperloc.perturb import PerturbSpec, perturb_pair
from tamperloc.texture import GaborParams

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

    def test_writes_the_fresh_bytes_into_out(self):
        rng = default_rng(12)
        stack = rng.uniform(size=(3, 13, 17))
        kernels = rng.normal(size=(4, 5, 5))
        out = np.full((4, 3, 13, 17), np.nan)
        assert apply_kernel_bank(stack, kernels, out) is out
        assert out.tobytes() == apply_kernel_bank(stack, kernels).tobytes()


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

    def test_writes_the_fresh_bytes_into_out_or_over_the_input(self):
        vals = default_rng(5).normal(0.0, 5.0, (4, 9, 7))
        bounds = np.array([4.0, 4.0, 4.0, 8.0])[:, None, None]
        want = affine_map_to_unit(vals, -bounds, bounds).tobytes()
        out = np.full_like(vals, np.nan)
        assert affine_map_to_unit(vals, -bounds, bounds, out=out) is out
        assert out.tobytes() == want
        assert affine_map_to_unit(vals, -bounds, bounds, out=vals) is vals
        assert vals.tobytes() == want


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



class TestCheckInt:
    @pytest.mark.parametrize("value", [1, 3.0, np.int64(2), np.float64(5), True, 2**70])
    def test_returns_integral_values_as_ints(self, value):
        got = check_int(value, "bad-thing", "thing")
        assert type(got) is int and got == value

    @pytest.mark.parametrize(
        "value",
        [0, -2, 1.5, float("nan"), float("inf"), float("-inf"), (1,), "1", None, np.array([1, 2]), False],
        ids=["zero", "negative", "fractional", "nan", "inf", "minus-inf", "tuple", "string", "none", "array", "false"],
    )
    def test_rejects_everything_else_with_the_given_code(self, value):
        with pytest.raises(PipelineError, match="bad-thing"):
            check_int(value, "bad-thing", "thing")

    def test_range_is_half_open(self):
        assert check_int(3, "bad-thing", "thing", 3, 4) == 3
        for value in (2, 4):
            with pytest.raises(PipelineError, match="bad-thing"):
                check_int(value, "bad-thing", "thing", 3, 4)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.25), np.int64(0), True])
    def test_returns_real_values_as_floats(self, value):
        got = check_real(value, "bad-thing", "thing", 0.0, 1.0)
        assert type(got) is float and got == value

    @pytest.mark.parametrize(
        "value",
        [(0.5,), "0.5", np.array([0.5, 0.6]), np.array(0.5), [0.2], None, float("nan"), float("inf"), float("-inf"),
         -0.1, 1.5, 10**400],
        ids=["tuple", "string", "array", "0d-array", "list", "none", "nan", "inf", "minus-inf", "below", "above",
             "beyond-float"],
    )
    def test_rejects_everything_else_with_the_given_code(self, value):
        with pytest.raises(PipelineError, match="bad-thing"):
            check_real(value, "bad-thing", "thing", 0.0, 1.0)

    def test_open_low_end(self):
        assert check_real(1e-300, "bad-thing", "thing", 0.0, np.inf, low_open=True) == 1e-300
        for value in (0.0, np.inf):
            with pytest.raises(PipelineError, match="bad-thing"):
                check_real(value, "bad-thing", "thing", 0.0, np.inf, low_open=True)


class TestCheckSeed:
    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), 5.0, 2**60])
    def test_returns_the_seed_as_an_int(self, seed):
        got = check_seed(seed)
        assert type(got) is int and got == seed

    @pytest.mark.parametrize("seed", [-1, -0.5, 1.5, float("nan"), float("inf"), float("-inf"), (3,), "3"])
    def test_rejects_negative_fractional_and_non_finite(self, seed):
        with pytest.raises(PipelineError, match="bad-seed"):
            check_seed(seed)

    def test_limit_is_exclusive(self):
        assert check_seed(2**48 - 1, 2**48) == 2**48 - 1
        with pytest.raises(PipelineError, match="bad-seed"):
            check_seed(2**48, 2**48)


GABOR = dict(sigma=2.0, wavelength=4.0, gamma=0.5, phi=0.0, theta=0.0, ksize=13)
RECTANGLE = Region("rectangle", (8, 8, 12, 12))
SPLICE = dict(host_kind="grating", host_seed=1, donor_kind="checker", donor_seed=2, region=RECTANGLE)

# Inputs that once escaped as a TypeError, a plain ValueError or a
# RuntimeWarning, or were silently accepted or truncated, with the code each
# one raises now.
ESCAPES = {
    "gabor-fractional-ksize": (lambda: GaborParams(**{**GABOR, "ksize": 13.5}), "bad-gabor"),
    "gabor-nan-sigma": (lambda: GaborParams(**{**GABOR, "sigma": math.nan}), "bad-gabor"),
    "gabor-string-sigma": (lambda: GaborParams(**{**GABOR, "sigma": "2"}), "bad-gabor"),
    "gabor-infinite-theta": (lambda: GaborParams(**{**GABOR, "theta": math.inf}), "bad-gabor"),
    "gabor-huge-sigma": (lambda: GaborParams(**{**GABOR, "sigma": 1e308}), "bad-gabor"),
    "perturb-string": (lambda: PerturbSpec("blur", "x"), "bad-perturb-param"),
    "perturb-list": (lambda: PerturbSpec("blur", [1.0]), "bad-perturb-param"),
    "texture-fractional-size": (lambda: make_texture("grating", 1, 30.5), "bad-size"),
    "texture-string-size": (lambda: make_texture("grating", 1, "32"), "bad-size"),
    "rectangle-string": (lambda: rasterize(Region("rectangle", ("a", 1, 5, 5)), 32, 32), "bad-region"),
    "rectangle-fractional": (lambda: Region("rectangle", (2.5, 2, 10, 10)), "bad-region"),
    "polygon-infinite-vertex": (
        lambda: rasterize(Region("polygon", ((2, 2), (2, 20), (math.inf, 10))), 32, 32),
        "bad-region",
    ),
    "ellipse-zero-radius": (lambda: Region("ellipse", (16, 16, 0, 8)), "bad-region"),
    "ellipse-tiny-radius": (lambda: rasterize(Region("ellipse", (16, 16, 1e-300, 8)), 32, 32), "bad-region"),
    "polygon-huge-vertex": (
        lambda: rasterize(Region("polygon", ((1e300, -1e300), (-1e300, 1e300), (0, 1e-300))), 32, 32),
        "bad-region",
    ),
    "rasterize-fractional-size": (lambda: rasterize(RECTANGLE, 32.5, 32), "bad-size"),
    "kernel-nan-taps": (lambda: Kernel2D(np.full((3, 3), np.nan)), "bad-kernel"),
    "kernel-string-taps": (lambda: Kernel2D([["a"] * 3] * 3), "bad-kernel"),
    "frame-string": (lambda: Frame("abc"), "bad-frame"),
    "frame-complex": (lambda: Frame(np.full((3, 8, 8), 0.5 + 0.5j)), "bad-frame"),
    "frame-numeric-text": (lambda: Frame(np.full((3, 8, 8), "0.5")), "bad-frame"),
    "kernel-none-tap": (lambda: Kernel2D([[0, 0, 0], [0, None, 0], [0, 0, 0]]), "bad-kernel"),
    "binarize-complex": (lambda: binarize(np.full((4, 4), 0.5 + 0.1j)), "bad-prediction"),
    "stack-string": (lambda: FeatureStack("abc", ("a",)), "bad-stack"),
    "sample-region-fractional-size": (lambda: sample_region(default_rng(0), 30.5, 32), "bad-size"),
    "sample-region-string-size": (lambda: sample_region(default_rng(0), "a", 32), "bad-size"),
    "sample-splice-fractional-size": (lambda: sample_splice_spec(default_rng(0), 40.5), "bad-size"),
    "splice-fractional-seed": (lambda: SpliceSpec(**{**SPLICE, "host_seed": 1.5}), "bad-seed"),
    "splice-fractional-quality": (lambda: SpliceSpec(**{**SPLICE, "host_quality": 75.5}), "bad-quality"),
    "splice-string-sigma": (lambda: SpliceSpec(**{**SPLICE, "donor_sigma": "a"}), "bad-sigma"),
    "splice-region-as-tuple": (lambda: SpliceSpec(**{**SPLICE, "region": (8, 8, 12, 12)}), "bad-region"),
    "inpaint-fractional-seed": (
        lambda: simulate_inpaint(make_texture("grating", 1, 32), RECTANGLE, seed=1.5),
        "bad-seed",
    ),
    "binarize-nan": (lambda: binarize(np.array([[0.2, np.nan]])), "bad-prediction"),
    "binarize-empty": (lambda: binarize(np.zeros((0, 4))), "bad-prediction"),
    "binarize-string": (lambda: binarize("abc"), "bad-prediction"),
    "gaussian-fractional-seed": (
        lambda: perturb_pair(make_texture("grating", 1, 32), np.zeros((32, 32)), PerturbSpec("gaussian"), seed=1.5),
        "bad-seed",
    ),
    "band-mask-fractional-block": (lambda: band_mask(8.5, "low"), "bad-block"),
    "band-reconstruct-fractional-block": (lambda: band_reconstruct(np.zeros((16, 16)), 8.5, "low"), "bad-block"),
}


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_bad_input_raises_its_class_code(name):
    # RuntimeWarning is an error under the pytest config, so none escapes either
    call, code = ESCAPES[name]
    with pytest.raises(PipelineError) as info:
        call()
    assert info.value.code == code


def test_checked_fields_keep_the_values_of_valid_inputs():
    gabor = GaborParams(sigma=np.float64(2), wavelength=4, gamma=0.5, phi=0, theta=np.pi / 4, ksize=np.int64(13))
    assert (gabor.sigma, gabor.wavelength, gabor.ksize) == (2.0, 4.0, 13) and type(gabor.ksize) is int
    spec = SpliceSpec(**{**SPLICE, "host_seed": np.int64(3), "host_quality": 90.0, "donor_sigma": np.float64(0.02)})
    assert (spec.host_seed, spec.host_quality, spec.donor_sigma) == (3, 90, 0.02)
    assert type(spec.host_seed) is int and type(spec.host_quality) is int and type(spec.donor_sigma) is float
    polygon = Region("polygon", np.array([[8.0, 8.0], [8.0, 20.0], [20.5, 14.0]]))
    assert polygon.geometry == ((8.0, 8.0), (8.0, 20.0), (20.5, 14.0))
    assert Region("rectangle", (8.0, np.int64(8), 12, 12)).geometry == RECTANGLE.geometry
    assert PerturbSpec("median", 5).param == 5.0 and PerturbSpec("compression").param == 75.0


def test_exports_are_the_public_names_and_train_is_the_function():
    public = {name for name, value in vars(tamperloc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(tamperloc.__all__) == public and len(tamperloc.__all__) == 64
    # the function shadows its module on the package; the module is reached by import_module
    module = importlib.import_module("tamperloc.train")
    assert isinstance(module, types.ModuleType) and tamperloc.train is module.train
    assert hasattr(module, "STACK_CACHE_BYTES") and not hasattr(tamperloc.train, "STACK_CACHE_BYTES")

