import math

import numpy as np
import pytest
from numpy.random import default_rng

from scipy.fft import irfft2, next_fast_len, rfft2

from tamperloc.core import Frame, PipelineError, affine_map_to_unit, luminance
from tamperloc import texture
from tamperloc.texture import (
    BANK_SCALES,
    BANK_SIDE,
    GaborParams,
    extract_texture,
    gabor_bank,
    gabor_kernel,
)

from oracles import gabor_tap


def batched_texture(f: Frame) -> np.ndarray:
    """The texture view with one product and one inverse FFT over all 16
    kernels, clamped into a fresh array: the reference for the grouped one."""
    h, w, r = f.height, f.width, BANK_SIDE // 2
    padded = np.pad(luminance(f).data[0], r, mode="reflect")
    size = tuple(next_fast_len(side, real=True) for side in padded.shape)
    bank_spectrum, bounds = texture._bank_spectrum(size)
    resp = irfft2(rfft2(padded, size) * bank_spectrum, size)[:, 2 * r : 2 * r + h, 2 * r : 2 * r + w]
    bounds = bounds[:, None, None]
    return affine_map_to_unit(resp, -bounds, bounds)


REFERENCE_PARAMS = GaborParams(sigma=2.0, wavelength=4.0, gamma=0.5, phi=0.0,
                               theta=math.pi / 4, ksize=13)


class TestGaborParams:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(PipelineError, match="bad-gabor"):
            GaborParams(sigma=0.0, wavelength=4.0, gamma=0.5, phi=0.0, theta=0.0, ksize=13)

    def test_rejects_even_ksize(self):
        with pytest.raises(PipelineError, match="bad-gabor"):
            GaborParams(sigma=2.0, wavelength=4.0, gamma=0.5, phi=0.0, theta=0.0, ksize=12)

    def test_rejects_short_support(self):
        # 2*ceil(3*sigma)+1 = 13 for sigma=2, so 11 is too small
        with pytest.raises(PipelineError, match="bad-gabor"):
            GaborParams(sigma=2.0, wavelength=4.0, gamma=0.5, phi=0.0, theta=0.0, ksize=11)


class TestGaborKernel:
    def test_center_tap_even_is_one(self):
        k = gabor_kernel(REFERENCE_PARAMS, "even")
        assert k.taps[6, 6] == 1.0

    def test_center_tap_odd_is_zero(self):
        k = gabor_kernel(REFERENCE_PARAMS, "odd")
        assert k.taps[6, 6] == 0.0

    @pytest.mark.parametrize("phase", ["even", "odd"])
    def test_every_tap_matches_formula(self, phase):
        k = gabor_kernel(REFERENCE_PARAMS, phase)
        p = REFERENCE_PARAMS
        for row in range(13):
            for col in range(13):
                want = gabor_tap(col - 6, row - 6, p.sigma, p.wavelength, p.gamma,
                                 p.phi, p.theta, odd=(phase == "odd"))
                assert abs(k.taps[row, col] - want) <= 1e-12

    def test_even_point_symmetric(self):
        k = gabor_kernel(REFERENCE_PARAMS, "even").taps
        assert np.array_equal(k, np.rot90(k, 2))

    def test_odd_point_antisymmetric(self):
        k = gabor_kernel(REFERENCE_PARAMS, "odd").taps
        assert np.array_equal(k, -np.rot90(k, 2))

    def test_theta_plus_pi(self):
        p = REFERENCE_PARAMS
        q = GaborParams(p.sigma, p.wavelength, p.gamma, p.phi, p.theta + math.pi, p.ksize)
        even_p = gabor_kernel(p, "even").taps
        even_q = gabor_kernel(q, "even").taps
        odd_p = gabor_kernel(p, "odd").taps
        odd_q = gabor_kernel(q, "odd").taps
        assert np.allclose(even_p, even_q, atol=1e-12)
        assert np.allclose(odd_p, -odd_q, atol=1e-12)


class TestGaborBank:
    def test_default_size(self):
        assert len(gabor_bank()) == 16

    def test_default_order_head(self):
        bank = gabor_bank()
        p0, phase0 = bank[0]
        p1, phase1 = bank[1]
        assert (p0.theta, phase0) == (0.0, "even")
        assert (p1.theta, phase1) == (0.0, "odd")
        assert p0.sigma == BANK_SCALES[0][0]

    def test_theta_outer_scale_middle_phase_inner(self):
        bank = gabor_bank()
        thetas = [p.theta for p, _ in bank]
        assert thetas == sorted(thetas)  # theta varies slowest
        assert [ph for _, ph in bank[:4]] == ["even", "odd", "even", "odd"]


class TestExtractTexture:
    def test_constant_gray_odd_channels_half(self):
        f = Frame(np.full((3, 32, 32), 0.5))
        stack = extract_texture(f)
        assert stack.channels == 16
        for i, label in enumerate(stack.labels):
            if label.endswith("odd"):
                assert np.all(stack.data[i] == 0.5), label

    def test_constant_even_channel_matches_tap_sum(self):
        c = 0.6
        f = Frame(np.full((3, 32, 32), c))
        stack = extract_texture(f)
        bank = gabor_bank()
        for i, (p, phase) in enumerate(bank):
            if phase != "even":
                continue
            r = p.ksize // 2
            taps = [gabor_tap(x, y, p.sigma, p.wavelength, p.gamma, p.phi, p.theta, odd=False)
                    for y in range(-r, r + 1) for x in range(-r, r + 1)]
            signed = sum(taps)
            bound = sum(abs(t) for t in taps)
            want = (c * signed + bound) / (2.0 * bound)
            assert np.allclose(stack.data[i], want, atol=1e-10), stack.labels[i]

    def test_grating_wavelength4_even_channel_wins(self):
        # cosine grating along x at wavelength 4 pixels
        x = np.arange(32, dtype=np.float64)
        g = np.tile(0.5 + 0.4 * np.cos(2.0 * np.pi * x / 4.0), (32, 1))
        stack = extract_texture(Frame(np.stack([g, g, g])))
        variances = stack.data.var(axis=(1, 2))
        assert stack.labels[int(np.argmax(variances))] == stack.labels[0]
        assert stack.labels[0].endswith("even")

    def test_output_in_unit_interval(self):
        f = Frame(default_rng(0).uniform(0.0, 1.0, (3, 32, 32)))
        stack = extract_texture(f)
        assert stack.data.min() >= 0.0 and stack.data.max() <= 1.0

    def test_bank_spectrum_is_cached_and_read_only(self):
        f = Frame(default_rng(3).uniform(0.0, 1.0, (3, 40, 48)))
        first = extract_texture(f).data
        assert extract_texture(f).data.tobytes() == first.tobytes()
        spectrum, bounds = texture._bank_spectrum((64, 72))
        assert texture._bank_spectrum((64, 72))[0] is spectrum
        with pytest.raises(ValueError):
            spectrum[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            bounds[0] = 0.0

    @pytest.mark.parametrize("h,w", [(37, 45), (64, 64), (100, 100), (192, 192)])
    def test_grouped_inverse_gives_the_batched_bytes(self, h, w):
        f = Frame(default_rng(h + w).uniform(0.0, 1.0, (3, h, w)))
        assert extract_texture(f).data.tobytes() == batched_texture(f).tobytes()
