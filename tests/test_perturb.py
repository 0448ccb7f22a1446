import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc.core import Frame
from tamperloc.errors import PipelineError
from tamperloc.perturb import (
    BLUR_KSIZE,
    JPEG_LUMA_TABLE,
    KINDS,
    MEDIAN_BAND_BYTES,
    PerturbSpec,
    gaussian_blur,
    gaussian_taps,
    parse_spec,
    perturb_pair,
    perturb_suite,
    _median_filter,
    quantize_like_jpeg,
)

from oracles import gaussian_blur_reflect, jpeg_block_quantize, median_reflect


def fixture_pair(seed: int = 0, h: int = 16, w: int = 16):
    rng = default_rng(seed)
    frame = Frame(rng.uniform(0.0, 1.0, (3, h, w)))
    mask = (rng.uniform(size=(h, w)) > 0.7).astype(np.float64)
    return frame, mask


class TestPerturbSpec:
    def test_known_kinds(self):
        assert KINDS == ("none", "compression", "detail", "gaussian", "blur", "median", "flip")

    def test_rejects_unknown_kind(self):
        with pytest.raises(PipelineError, match="bad-perturb-param"):
            PerturbSpec("crop")

    def test_defaults_fill_in_when_param_missing(self):
        assert PerturbSpec("compression").param == 75.0
        assert PerturbSpec("detail").param == 1.0
        assert PerturbSpec("gaussian").param == 0.02
        assert PerturbSpec("blur").param == 1.5
        assert PerturbSpec("median").param == 3.0

    @pytest.mark.parametrize(
        "kind,param",
        [
            ("compression", 0.5),
            ("compression", 101.0),
            ("detail", 0.0),
            ("detail", 9.0),
            ("gaussian", -0.01),
            ("gaussian", 0.3),
            ("blur", 0.0),
            ("blur", 6.5),
            ("median", 2.0),
            ("median", 4.0),
            ("median", 17.0),
            ("median", float("nan")),
            ("median", float("inf")),
            ("median", float("-inf")),
            ("none", 1.0),
            ("flip", 1.0),
        ],
    )
    def test_rejects_out_of_range_params(self, kind, param):
        with pytest.raises(PipelineError, match="bad-perturb-param"):
            PerturbSpec(kind, param)

    def test_range_endpoints_accepted(self):
        PerturbSpec("compression", 1.0)
        PerturbSpec("compression", 100.0)
        PerturbSpec("gaussian", 0.0)
        PerturbSpec("gaussian", 0.25)
        PerturbSpec("detail", 8.0)
        PerturbSpec("blur", 6.0)
        PerturbSpec("median", 15.0)

    def test_describe_round_trips_through_parse(self):
        for spec in perturb_suite():
            assert parse_spec(spec.describe()) == spec

    def test_describe_format(self):
        assert PerturbSpec("compression", 75.0).describe() == "compression:75"
        assert PerturbSpec("gaussian", 0.02).describe() == "gaussian:0.02"
        assert PerturbSpec("flip").describe() == "flip"


class TestParseSpec:
    def test_bare_kind(self):
        assert parse_spec("flip") == PerturbSpec("flip")
        assert parse_spec(" none ") == PerturbSpec("none")

    def test_kind_with_param(self):
        assert parse_spec("compression:75") == PerturbSpec("compression", 75.0)
        assert parse_spec("gaussian:0.02") == PerturbSpec("gaussian", 0.02)

    def test_rejects_garbage(self):
        with pytest.raises(PipelineError, match="bad-perturb-param"):
            parse_spec("compression:high")
        with pytest.raises(PipelineError, match="bad-perturb-param"):
            parse_spec("warp:3")


class TestPerturbSuite:
    def test_seven_specs_in_reporting_order(self):
        suite = perturb_suite()
        assert len(suite) == 7
        assert [s.kind for s in suite] == ["none", "compression", "detail", "gaussian", "blur", "median", "flip"]
        assert suite[1].param == 75.0
        assert [s.describe() for s in suite] == [
            "none", "compression:75", "detail:1", "gaussian:0.02", "blur:1.5", "median:3", "flip",
        ]

    def test_applied_suite_produces_distinct_frames_except_none(self):
        frame, mask = fixture_pair(3)
        digests = []
        for spec in perturb_suite():
            out, _ = perturb_pair(frame, mask, spec, seed=5)
            digests.append(out.data.tobytes())
        assert digests[0] == frame.data.tobytes()
        assert len(set(digests)) == 7


class TestPerturbPair:
    def test_none_is_identity(self):
        frame, mask = fixture_pair(1)
        out_f, out_m = perturb_pair(frame, mask, PerturbSpec("none"))
        assert out_f is frame and out_m is mask

    def test_flip_twice_is_bit_identical(self):
        frame, mask = fixture_pair(2)
        once_f, once_m = perturb_pair(frame, mask, PerturbSpec("flip"))
        twice_f, twice_m = perturb_pair(once_f, once_m, PerturbSpec("flip"))
        assert twice_f.data.tobytes() == frame.data.tobytes()
        assert twice_m.tobytes() == mask.tobytes()

    def test_flip_mirrors_columns_of_both(self):
        frame, mask = fixture_pair(4)
        out_f, out_m = perturb_pair(frame, mask, PerturbSpec("flip"))
        np.testing.assert_array_equal(out_f.data, frame.data[:, :, ::-1])
        np.testing.assert_array_equal(out_m, mask[:, ::-1])

    def test_gaussian_sigma_zero_is_identity(self):
        frame, mask = fixture_pair(5)
        out_f, out_m = perturb_pair(frame, mask, PerturbSpec("gaussian", 0.0), seed=9)
        np.testing.assert_array_equal(out_f.data, frame.data)
        np.testing.assert_array_equal(out_m, mask)

    def test_gaussian_is_seeded_and_reproducible(self):
        frame, mask = fixture_pair(6)
        a, _ = perturb_pair(frame, mask, PerturbSpec("gaussian", 0.05), seed=1)
        b, _ = perturb_pair(frame, mask, PerturbSpec("gaussian", 0.05), seed=1)
        c, _ = perturb_pair(frame, mask, PerturbSpec("gaussian", 0.05), seed=2)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.data.tobytes() != c.data.tobytes()

    # window 15 on 5 rows: the margin is wider than the side
    @pytest.mark.parametrize("shape,window", [((3, 16, 16), 3), ((2, 10, 12), 5), ((1, 5, 9), 15)],
                             ids=["16x16-w3", "10x12-w5", "5x9-w15"])
    def test_median_matches_scalar_oracle(self, shape, window):
        data = default_rng(window).uniform(size=shape)
        got = _median_filter(data, window)
        for c in range(shape[0]):
            np.testing.assert_array_equal(got[c], median_reflect(data[c], window))

    def test_median_on_constant_frame_is_identity(self):
        frame = Frame(np.full((3, 12, 12), 0.42))
        mask = np.zeros((12, 12))
        out_f, _ = perturb_pair(frame, mask, PerturbSpec("median", 5.0))
        np.testing.assert_array_equal(out_f.data, frame.data)

    def test_detail_matches_unsharp_formula(self):
        frame, mask = fixture_pair(7)
        alpha = 1.5
        out_f, _ = perturb_pair(frame, mask, PerturbSpec("detail", alpha))
        soft = gaussian_blur(frame.data, 1.0, BLUR_KSIZE)
        expected = np.clip(frame.data + alpha * (frame.data - soft), 0.0, 1.0)
        np.testing.assert_allclose(out_f.data, expected, rtol=1e-14)

    @pytest.mark.parametrize("kind,param", [("compression", 75.0), ("detail", 1.0), ("gaussian", 0.02), ("blur", 1.5), ("median", 3.0)])
    def test_photometric_kinds_leave_mask_untouched(self, kind, param):
        frame, mask = fixture_pair(8)
        _, out_m = perturb_pair(frame, mask, PerturbSpec(kind, param), seed=3)
        assert out_m is mask

    def test_every_output_stays_a_valid_frame(self):
        frame, mask = fixture_pair(9)
        for spec in perturb_suite():
            out_f, _ = perturb_pair(frame, mask, spec, seed=11)
            assert out_f.data.min() >= 0.0 and out_f.data.max() <= 1.0


class TestCompression:
    def test_matches_block_loop_oracle(self):
        frame, _ = fixture_pair(10, h=20, w=24)
        for q in (10.0, 50.0, 75.0, 100.0):
            got = quantize_like_jpeg(frame.data, q)
            for c in range(3):
                want = jpeg_block_quantize(frame.data[c], q, JPEG_LUMA_TABLE)
                np.testing.assert_allclose(got[c], want, atol=1e-10)

    def test_quality_100_deviation_bounded_by_rounding(self):
        frame, _ = fixture_pair(11)
        out = quantize_like_jpeg(frame.data, 100.0)
        assert np.abs(out - frame.data).max() <= 2.0 / 255.0

    def test_idempotent_when_reconstruction_stays_in_range(self):
        # mid-range samples keep the blockwise reconstruction inside [0, 1],
        # where requantisation is an exact fixed point (measured delta 0.0)
        rng = default_rng(12)
        frame = Frame(0.2 + 0.6 * rng.uniform(size=(3, 16, 16)))
        mask = np.zeros((16, 16))
        for q in (10.0, 30.0, 50.0, 75.0, 90.0, 100.0):
            once, _ = perturb_pair(frame, mask, PerturbSpec("compression", q))
            twice, _ = perturb_pair(once, mask, PerturbSpec("compression", q))
            assert np.abs(twice.data - once.data).max() <= 2.0 / 255.0

    @pytest.mark.xfail(
        strict=True,
        reason="the mandatory [0,1] clamp moves saturated reconstructions between "
        "passes, so requantisation can land on a different level; measured up to "
        "13x the rounding bound at q=30 on full-range noise",
    )
    def test_idempotence_bound_on_saturated_frames(self):
        frame, mask = fixture_pair(12)
        for q in (30.0, 50.0, 75.0):
            once, _ = perturb_pair(frame, mask, PerturbSpec("compression", q))
            twice, _ = perturb_pair(once, mask, PerturbSpec("compression", q))
            assert np.abs(twice.data - once.data).max() <= 2.0 / 255.0


class TestGaussianKernels:
    def test_taps_are_normalised_and_symmetric(self):
        taps = gaussian_taps(1.5, 7)
        assert taps.sum() == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(taps, taps[::-1], rtol=1e-15)

    def test_blur_preserves_constant_frames(self):
        data = np.full((3, 10, 10), 0.3)
        np.testing.assert_allclose(gaussian_blur(data, 2.0, BLUR_KSIZE), data, rtol=1e-12)

    # 25 taps on 10x12: the margin of 12 is wider than the 10 rows
    @pytest.mark.parametrize("shape,sigma,ksize", [((3, 16, 16), 1.5, BLUR_KSIZE), ((2, 10, 12), 4.0, 25)],
                             ids=["16x16-k7", "10x12-k25"])
    def test_blur_matches_scalar_oracle(self, shape, sigma, ksize):
        data = default_rng(ksize).uniform(size=shape)
        got = gaussian_blur(data, sigma, ksize)
        for c in range(shape[0]):
            np.testing.assert_allclose(got[c], gaussian_blur_reflect(data[c], sigma, ksize), rtol=0.0, atol=1e-12)

    def test_blur_reduces_variance(self):
        data = default_rng(13).uniform(0.0, 1.0, (3, 16, 16))
        blurred = gaussian_blur(data, 1.5, BLUR_KSIZE)
        assert blurred.var() < data.var()


class TestMedianMemory:
    def test_median_holds_one_band_of_windows(self):
        # window 15 on a 64 px frame: a whole-frame copy of every window would
        # be 3 * 64 * 64 * 225 * 8 bytes (22 MB); the filter copies a band of
        # rows at a time into one buffer of at most MEDIAN_BAND_BYTES, beside
        # the padded frame and the output, and perturb_pair adds the clamped copy
        f, mask = fixture_pair(9, 64, 64)
        window = 15
        perturb_pair(f, mask, PerturbSpec("median", float(window)))
        padded = 3 * (64 + window - 1) ** 2 * 8
        tracemalloc.start()
        try:
            perturb_pair(f, mask, PerturbSpec("median", float(window)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < MEDIAN_BAND_BYTES + padded + 2 * f.data.nbytes + (64 << 10)
