import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc.core import Frame, PipelineError, affine_map_to_unit
from tamperloc.frequency import (
    BAND_SPECS,
    CLAMP_HI,
    CLAMP_LO,
    FREQUENCY_LABELS,
    band_mask,
    band_reconstruct,
    blockwise_dct,
    dct2,
    frequency_features,
    idct2,
)

from oracles import band_reconstruct_blocks, dct2_naive, idct2_naive


class TestDct2:
    def test_constant_block_is_pure_dc(self):
        coeffs = dct2(np.ones((8, 8)))
        assert abs(coeffs[0, 0] - 8.0) <= 1e-12
        coeffs[0, 0] = 0.0
        assert np.allclose(coeffs, 0.0, atol=1e-12)

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_round_trip_identity(self, size):
        block = default_rng(size).uniform(size=(size, size))
        assert np.allclose(idct2(dct2(block)), block, atol=1e-10)

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_parseval(self, size):
        block = default_rng(100 + size).uniform(size=(size, size))
        coeffs = dct2(block)
        assert abs(np.sum(block**2) - np.sum(coeffs**2)) <= 1e-10

    def test_matches_naive_definition(self):
        block = default_rng(1).uniform(size=(8, 8))
        assert np.allclose(dct2(block), dct2_naive(block), atol=1e-10)
        assert np.allclose(idct2(dct2(block)), idct2_naive(dct2_naive(block)), atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(PipelineError, match="bad-block"):
            dct2(np.zeros((4, 6)))


class TestBandMask:
    def test_b4_low_members(self):
        mask = band_mask(4, "low")
        want = {(0, 0), (0, 1), (1, 0)}
        got = {(u, v) for u in range(4) for v in range(4) if mask[u, v]}
        assert got == want

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_three_bands_partition_spectrum(self, size):
        low = band_mask(size, "low")
        mid = band_mask(size, "mid")
        high = band_mask(size, "high")
        full = band_mask(size, "full")
        assert np.array_equal(low | mid | high, full)
        assert not (low & mid).any() and not (mid & high).any() and not (low & high).any()

    def test_b8_extremes(self):
        assert band_mask(8, "low")[0, 0]
        assert band_mask(8, "high")[7, 7]
        assert not band_mask(8, "high")[0, 0]

    def test_unknown_band_rejected(self):
        with pytest.raises(PipelineError, match="bad-band"):
            band_mask(8, "ultra")


class TestBandReconstruct:
    def test_band_sum_recovers_channel(self):
        channel = default_rng(7).uniform(size=(20, 20))
        total = sum(band_reconstruct(channel, 8, band) for band in ("low", "mid", "high"))
        assert np.allclose(total, channel, atol=1e-10)

    def test_full_band_is_identity(self):
        channel = default_rng(8).uniform(size=(16, 16))
        assert np.allclose(band_reconstruct(channel, 4, "full"), channel, atol=1e-10)

    # 16x16 cases keep their original ids; 13x21 is a multiple of no block size
    @pytest.mark.parametrize(
        "block_size,band,shape",
        [pytest.param(b, band, (16, 16), id=f"{b}-{band}") for b, band in BAND_SPECS]
        + [pytest.param(b, band, (13, 21), id=f"{b}-{band}-13x21") for b, band in BAND_SPECS],
    )
    def test_matches_block_loop_oracle(self, block_size, band, shape):
        channel = default_rng(block_size).uniform(size=shape)
        got = band_reconstruct(channel, block_size, band)
        mask = band_mask(block_size, band)
        want = band_reconstruct_blocks(channel, block_size,
                                       lambda u, v, b: bool(mask[u, v]))
        assert np.allclose(got, want, atol=1e-10)


class TestBlockwiseDct:
    @pytest.mark.parametrize("shape", [(13, 21), (3, 10, 7)])
    @pytest.mark.parametrize("block", [4, 8])
    def test_identity_op_returns_input(self, shape, block):
        data = default_rng(len(shape)).uniform(size=shape)
        out = blockwise_dct(data, block, lambda coeffs: coeffs)
        assert out.shape == data.shape
        np.testing.assert_allclose(out, data, rtol=0.0, atol=1e-12)


class TestFrequencyFeatures:
    def test_layout(self):
        f = Frame(default_rng(0).uniform(size=(3, 16, 16)))
        stack = frequency_features(f)
        assert stack.channels == 12
        assert stack.labels == FREQUENCY_LABELS
        assert stack.labels[-3:] == ("dct4_full_R", "dct4_full_G", "dct4_full_B")

    def test_full_band_channel_is_affine_image_of_input(self):
        f = Frame(default_rng(3).uniform(size=(3, 16, 16)))
        stack = frequency_features(f)
        for c in range(3):
            want = (f.data[c] + 1.0) / 3.0
            assert np.allclose(stack.data[9 + c], want, atol=1e-12)

    def test_constant_frame_high_band_is_third(self):
        stack = frequency_features(Frame(np.full((3, 16, 16), 0.7)))
        # high band of a constant frame reconstructs zero -> (0+1)/3
        for c in range(3):
            assert np.allclose(stack.data[6 + c], 1.0 / 3.0, atol=1e-12)

    def test_output_in_unit_interval(self):
        f = Frame(default_rng(5).uniform(size=(3, 16, 16)))
        stack = frequency_features(f)
        assert stack.data.min() >= 0.0 and stack.data.max() <= 1.0

    def test_bytes_equal_the_per_channel_loop(self):
        # 37x45 is no multiple of any block size, so every transform pads
        f = Frame(default_rng(8).uniform(size=(3, 37, 45)))
        loop = np.stack([band_reconstruct(channel, b, band) for b, band in BAND_SPECS for channel in f.data])
        want = affine_map_to_unit(loop, CLAMP_LO, CLAMP_HI)
        assert frequency_features(f).data.tobytes() == want.tobytes()
