"""Byte oracles: the numpy filters, FFTs and DCTs against the scipy calls they replace.

The package imports numpy alone; scipy is a test dependency and serves here
as the reference. Every comparison is on bytes, so a one-ulp change in any
port (a reordered sum, a rounded factor, a twiddle) fails it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy import ndimage

from tamperloc.core import Frame, affine_map_to_unit, apply_kernel_bank, luminance
from tamperloc.edge import _BANK as EDGE_BANK
from tamperloc.frequency import blockwise_dct, dct2, idct2
from tamperloc.perturb import BLUR_KSIZE, _median_filter, gaussian_blur, gaussian_taps
from tamperloc.pixel import SRM_KERNELS
from tamperloc.texture import BANK_SIDE, extract_texture, fast_len, gabor_bank, gabor_kernel, irfft2

ORACLE = settings(derandomize=True, deadline=None, max_examples=60)
SRM_BANK = np.stack([k.taps for k in SRM_KERNELS])

seeds = st.integers(0, 2**32 - 1)


def sample(seed: int, shape, kind: int) -> np.ndarray:
    """Normal values, 0-255 pixels, or small integers with many (signed) zeros."""
    rng = np.random.default_rng(seed)
    if kind == 0:
        return rng.normal(size=shape)
    if kind == 1:
        return rng.uniform(size=shape) * 255.0
    return np.rint(rng.normal(scale=0.8, size=shape))


def same_bytes(got, want) -> bool:
    return np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestDct:
    @ORACLE
    @given(st.integers(1, 40), seeds, st.integers(0, 2))
    def test_dct2_and_idct2_match_scipy(self, size, seed, kind):
        block = sample(seed, (size, size), kind)
        assert same_bytes(dct2(block), sfft.dctn(block, type=2, norm="ortho"))
        assert same_bytes(idct2(block), sfft.idctn(block, type=2, norm="ortho"))

    # 47 runs pocketfft's generic odd radix; 509 is long enough and prime, so
    # pocketfft takes its Bluestein path
    @pytest.mark.parametrize("size", [47, 509])
    def test_prime_and_bluestein_sizes(self, size):
        block = sample(size, (size, size), 0)
        assert same_bytes(dct2(block), sfft.dctn(block, type=2, norm="ortho"))
        assert same_bytes(idct2(block), sfft.idctn(block, type=2, norm="ortho"))

    @ORACLE
    @given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 90), st.integers(1, 90), seeds, st.integers(0, 2))
    def test_blockwise_dct_matches_scipy(self, block, channels, h, w, seed, kind):
        data = sample(seed, (channels, h, w), kind)
        scale = np.random.default_rng(seed).uniform(0.5, 2.0, size=(block, block))

        def op(coeffs):
            return np.rint(coeffs / scale) * scale

        padded = np.pad(data, ((0, 0), (0, -h % block), (0, -w % block)), mode="reflect")
        hb, wb = padded.shape[1] // block, padded.shape[2] // block
        blocks = padded.reshape(channels, hb, block, wb, block).swapaxes(-3, -2)
        coeffs = op(sfft.dctn(blocks, type=2, norm="ortho", axes=(-2, -1)))
        recon = sfft.idctn(coeffs, type=2, norm="ortho", axes=(-2, -1))
        want = recon.swapaxes(-3, -2).reshape(padded.shape)[:, :h, :w]
        assert same_bytes(blockwise_dct(data, block, op), want)


class TestFft:
    def test_fast_len_is_next_fast_len_below_5000(self):
        assert [fast_len(n) for n in range(1, 5000)] == [sfft.next_fast_len(n, real=True) for n in range(1, 5000)]

    @ORACLE
    @given(st.integers(1, 4), st.integers(1, 300), st.integers(1, 300), seeds)
    def test_irfft2_matches_scipy(self, batch, rows, cols, seed):
        rng = np.random.default_rng(seed)
        spectrum = sfft.rfft2(rng.normal(size=(batch, rows, cols)))
        want = sfft.irfft2(spectrum, (rows, cols))
        assert same_bytes(irfft2(spectrum.copy(), (rows, cols)), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 97, 216, 1000, 4096, 4999])
    def test_irfft2_matches_scipy_at_fixed_sizes(self, n):
        spectrum = sfft.rfft2(np.random.default_rng(n).normal(size=(n, 8)))
        assert same_bytes(irfft2(spectrum.copy(), (n, 8)), sfft.irfft2(spectrum, (n, 8)))

    # np.fft.rfft2 runs scipy's pocketfft passes, but on degenerate inputs
    # (one sample zero-padded to many) the sign of some zero imaginary parts
    # differs; every product in the view is nonzero, so its bytes agree
    @pytest.mark.parametrize("shape", [(25, 25), (37, 45), (64, 64), (40, 97)])
    def test_texture_view_matches_a_scipy_pipeline(self, shape):
        f = Frame(np.random.default_rng(shape[1]).uniform(size=(3,) + shape))
        h, w, r = f.height, f.width, BANK_SIDE // 2
        padded = np.pad(luminance(f).data[0], r, mode="reflect")
        size = tuple(sfft.next_fast_len(side, real=True) for side in padded.shape)
        kernels = [gabor_kernel(p, phase).taps for p, phase in gabor_bank()]
        bank = np.zeros((len(kernels), BANK_SIDE, BANK_SIDE))
        for i, k in enumerate(kernels):
            o = r - k.shape[0] // 2
            bank[i, o : BANK_SIDE - o, o : BANK_SIDE - o] = k[::-1, ::-1]
        resp = sfft.irfft2(sfft.rfft2(padded, size) * sfft.rfft2(bank, size), size)[:, 2 * r : 2 * r + h, 2 * r : 2 * r + w]
        bounds = np.array([np.abs(k).sum() for k in kernels])[:, None, None]
        assert same_bytes(extract_texture(f).data, affine_map_to_unit(resp, -bounds, bounds))


def correlate_oracle(data, kernels):
    return np.stack([ndimage.correlate(data, k[np.newaxis], mode="mirror") for k in kernels])


class TestKernelBank:
    @pytest.mark.parametrize("bank", [EDGE_BANK, SRM_BANK], ids=["edge", "srm"])
    @pytest.mark.parametrize("shape", [(3, 8, 8), (3, 8, 21), (3, 37, 45), (1, 64, 64)])
    def test_feature_banks_match_ndimage(self, bank, shape):
        data = np.random.default_rng(shape[-1]).uniform(size=shape)
        for scaled in (data, data * 255.0):
            assert same_bytes(apply_kernel_bank(scaled, bank), correlate_oracle(scaled, bank))

    @ORACLE
    @given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.integers(8, 24), st.integers(8, 24), seeds)
    def test_kernels_with_zero_and_negligible_taps_match_ndimage(self, side, channels, h, w, seed):
        # ndimage leaves out every tap with |weight| <= DBL_EPSILON; a zero
        # tap left in would turn a -0.0 sum into +0.0
        rng = np.random.default_rng(seed)
        kernels = rng.normal(size=(2, side, side))
        kernels[rng.uniform(size=kernels.shape) < 0.4] = 0.0
        kernels[rng.uniform(size=kernels.shape) < 0.1] = 1e-17
        data = np.rint(rng.normal(size=(channels, h, w))) * rng.uniform(size=(channels, h, w))
        assert same_bytes(apply_kernel_bank(data, kernels), correlate_oracle(data, kernels))


class TestPerturbFilters:
    @ORACLE
    @given(st.floats(0.05, 6.0), st.integers(8, 40), st.integers(8, 40), seeds)
    def test_blur_matches_correlate1d(self, sigma, h, w, seed):
        # the blur kind's sigma range; the detail kind blurs at sigma 1
        data = np.random.default_rng(seed).uniform(size=(3, h, w))
        taps = gaussian_taps(sigma, BLUR_KSIZE)
        want = ndimage.correlate1d(ndimage.correlate1d(data, taps, axis=1, mode="mirror"), taps, axis=2, mode="mirror")
        assert same_bytes(gaussian_blur(data, sigma, BLUR_KSIZE), want)

    @pytest.mark.parametrize("size", [8, 13, 64])
    def test_inpaint_blur_matches_correlate1d(self, size):
        # datagen's inpainting blur: a 25-tap support, wider than an 8 px frame
        data = np.random.default_rng(size).uniform(size=(3, size, size))
        taps = gaussian_taps(4.0, 25)
        want = ndimage.correlate1d(ndimage.correlate1d(data, taps, axis=1, mode="mirror"), taps, axis=2, mode="mirror")
        assert same_bytes(gaussian_blur(data, 4.0, 25), want)

    @pytest.mark.parametrize("window", [3, 5, 7, 9, 11, 13, 15])
    @pytest.mark.parametrize("shape", [(3, 8, 8), (2, 8, 19), (1, 23, 9)])
    def test_median_matches_median_filter(self, window, shape):
        rng = np.random.default_rng(window)
        data = np.round(rng.uniform(size=shape), 2)  # ties, as in 8-bit frames
        want = ndimage.median_filter(data, size=(1, window, window), mode="mirror")
        assert same_bytes(_median_filter(data, window), want)
