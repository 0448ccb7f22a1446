import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import default_rng

from tamperloc import autodiff as ad
from tamperloc.autodiff import LAYER_NORM_EPS, Tensor
from tamperloc.errors import PipelineError

from oracles import correlate2d_strided


def fd_gradients(build, arrays, h=1e-6):
    """Central differences of the scalar ``build(arrays)`` w.r.t. each array."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = build(arrays)
            flat[i] = keep - h
            down = build(arrays)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def check_gradients(make_loss, arrays, rtol=1e-5, atol=1e-8):
    """Backward pass against finite differences of the same forward."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = make_loss(leaves)
    ad.backward(loss)

    def scalar(arrs):
        return float(make_loss([Tensor(a) for a in arrs]).data)

    numeric = fd_gradients(scalar, [a.copy() for a in arrays])
    for leaf, num in zip(leaves, numeric):
        assert leaf.grad is not None
        np.testing.assert_allclose(leaf.grad, num, rtol=rtol, atol=atol)


def weighted_mean(out: Tensor, seed: int = 99) -> Tensor:
    """Scalarise with a fixed random weighting so output grads are non-uniform."""
    w = default_rng(seed).normal(size=out.data.shape)
    return ad.mean_all(ad.mul(out, Tensor(w)))


def dense_attention(q, k, v, scale):
    """The full (heads, n, n) score matrix, no blocking."""
    s = scale * (q @ np.swapaxes(k, -1, -2))
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)) @ v


def qkv(seed, heads, n, dh):
    rng = default_rng(seed)
    return [rng.normal(size=(heads, n, dh)) * 2.0 for _ in range(3)]


def whole_frame_pad_conv2d(x, w, b, g, stride, pad, pad_mode, block):
    """(out, dx, dw, db) of ``conv2d`` with output gradient ``g``, computed as
    it was before band slabs: the whole input padded once, its gradient
    accumulated in a padded array and cropped. The same numpy ops run in the
    same order on the same values, so the bytes must match."""
    cout, cin, kh, kw = w.shape
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), mode="constant" if pad_mode == "zero" else "wrap")
    hp, wp = padded.shape[1:]
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    win = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    wmat = w.reshape(cout, -1)

    def bands(band):
        return [(lo, slice(lo * wo, (lo + band) * wo), band) for lo in range(0, ho, band)]

    def columns(lo, band):
        return win[:, lo : lo + band].transpose(0, 3, 4, 1, 2).reshape(cin * kh * kw, -1)

    out = np.empty((cout, ho * wo))
    for lo, px, band in bands(max(1, block // 2 // wo)):  # forward bands are half a block
        out[:, px] = wmat @ columns(lo, band)
    out += b[:, None]
    gmat = g.reshape(cout, -1)
    dw, dpad = np.zeros_like(wmat), np.zeros_like(padded)
    for lo, px, band in bands(max(1, block // wo)):
        gb = gmat[:, px]
        dw += gb @ columns(lo, band).T
        nb = min(band, ho - lo)
        dcols = (wmat.T @ gb).reshape(cin, kh, kw, nb, wo)
        top = lo * stride
        for u in range(kh):
            for v in range(kw):
                dpad[:, top + u : top + u + stride * nb : stride, v : v + stride * wo : stride] += dcols[:, u, v]
    if pad_mode == "zero":
        dx = dpad[:, pad : hp - pad, pad : wp - pad]
    else:
        rows, cols = ((np.arange(n + 2 * pad) - pad) % n for n in x.shape[1:])
        dx = np.zeros_like(x)
        np.add.at(dx, (slice(None), rows[:, None], cols[None, :]), dpad)
    return out.reshape(cout, ho, wo), dx, dw.reshape(w.shape), gmat.sum(axis=1)


class TestForwardValues:
    def test_add_mul_neg_match_numpy(self):
        rng = default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        np.testing.assert_array_equal(ad.add(Tensor(a), Tensor(b)).data, a + b)
        np.testing.assert_array_equal(ad.mul(Tensor(a), Tensor(b)).data, a * b)

    def test_add_broadcasts_like_numpy(self):
        a = np.arange(12.0).reshape(3, 4)
        b = np.arange(4.0)
        np.testing.assert_array_equal(ad.add(Tensor(a), Tensor(b)).data, a + b)

    def test_matmul_matches_numpy_2d_and_batched(self):
        rng = default_rng(1)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
        np.testing.assert_allclose(ad.matmul(Tensor(a), Tensor(b)).data, a @ b, rtol=1e-15)
        a3, b3 = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 3, 5))
        np.testing.assert_allclose(ad.matmul(Tensor(a3), Tensor(b3)).data, a3 @ b3, rtol=1e-15)

    def test_relu_zeroes_negatives_only(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(ad.relu(Tensor(x)).data, [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_sigmoid_matches_closed_form_and_saturates_safely(self):
        x = np.array([-3.0, -0.1, 0.0, 0.1, 3.0])
        np.testing.assert_allclose(ad.sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)
        with np.errstate(over="raise"):
            extreme = ad.sigmoid(Tensor(np.array([-800.0, 800.0]))).data
        np.testing.assert_array_equal(extreme, [0.0, 1.0])

    def test_log_and_clip_match_numpy(self):
        x = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(ad.log(Tensor(x)).data, np.log(x), rtol=1e-15)
        y = np.array([-1.0, 0.3, 2.0])
        np.testing.assert_array_equal(ad.clip(Tensor(y), 0.0, 1.0).data, [0.0, 0.3, 1.0])

    def test_softmax_rows_are_normalised_shifted_exponentials(self):
        x = default_rng(2).normal(size=(3, 5)) * 4.0
        y = ad.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(3), rtol=1e-12)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(y, e / e.sum(axis=-1, keepdims=True), rtol=1e-12)

    @pytest.mark.parametrize("n", [5, 8, 13, 24])
    def test_attention_matches_dense_across_block_edges(self, monkeypatch, n):
        # a budget of 8 rows of n keys: one tile per head of n rows below or
        # equal to 8, tiles that do not divide n, and tiles that do
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", 8 * n)
        q, k, v = qkv(n, 3, n, 4)
        got = ad.attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        np.testing.assert_allclose(got, dense_attention(q, k, v, 0.5), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("block", [0, 6, 7, 13])
    def test_attention_one_row_tiles_match_dense(self, monkeypatch, block):
        # any budget below two rows of 7 keys gives 1-row tiles
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", block)
        q, k, v = qkv(block, 2, 7, 3)
        got = ad.attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        np.testing.assert_allclose(got, dense_attention(q, k, v, 0.5), rtol=1e-12, atol=1e-12)

    def test_attention_default_block_matches_dense(self):
        n = 600
        rows = ad.ATTENTION_BLOCK // n
        assert 2 * rows < n < 3 * rows  # two full tiles and a remainder
        q, k, v = qkv(3, 2, n, 8)
        got = ad.attention(Tensor(q), Tensor(k), Tensor(v), 8**-0.5).data
        np.testing.assert_allclose(got, dense_attention(q, k, v, 8**-0.5), rtol=1e-12, atol=1e-12)

    @staticmethod
    def attention_peak(heads, n, dh):
        """tracemalloc peak of a no-grad attention call, and its output bytes."""
        q, k, v = (Tensor(a) for a in qkv(6, heads, n, dh))
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = ad.attention(q, k, v, dh**-0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, out.data.nbytes

    def test_attention_memory_is_bounded_by_one_tile(self, policy):
        # no-grad, as one head split of a 192 px frame, on one worker: beyond
        # the output and the row statistics, one tile of scores; 128 query
        # rows of all four heads would be 9.4 MB on their own
        heads, n = 4, 2304
        with policy(1):
            peak, out_bytes = self.attention_peak(heads, n, 16)
        tile = ad.ATTENTION_BLOCK // n * n * 8
        assert peak < tile + out_bytes + heads * n * 8 + (128 << 10)

    def test_attention_memory_is_bounded_by_one_tile_per_worker(self, policy, pool_tasks):
        # each worker holds a tile and about 72 KB of row-sized temporaries,
        # 54 KiB of them the three n-element buffers numpy's iterator makes
        # for the broadcast `s -= m`; the dense scores would be 170 MB
        heads, n = 4, 2304
        with policy(2):
            peak, out_bytes = self.attention_peak(heads, n, 16)
        tile = ad.ATTENTION_BLOCK // n * n * 8
        assert pool_tasks == [4]  # one job per head, two running at a time
        assert peak < 2 * (tile + (64 << 10)) + out_bytes + heads * n * 8 + (64 << 10)

    def test_attention_tape_keeps_only_the_log_sum_exp(self):
        heads, n, dh = 4, 600, 16
        q, k, v = (Tensor(a, requires_grad=True) for a in qkv(7, heads, n, dh))
        tracemalloc.start()
        try:
            out = ad.attention(q, k, v, dh**-0.5)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held < out.data.nbytes + heads * n * 8 + (16 << 10)

    @pytest.mark.parametrize(
        "shapes",
        [((5, 4), (1, 5, 4), (1, 5, 4)), ((1, 5, 4), (1, 5, 4), (1, 1, 5, 4)), ((2, 5, 4), (1, 5, 4), (1, 5, 4)),
         ((2, 5, 4), (2, 5, 4), (3, 5, 4)), ((1, 5, 4), (1, 5, 3), (1, 5, 4)), ((1, 5, 4), (1, 5, 4), (1, 5, 3)),
         ((1, 5, 4), (1, 6, 4), (1, 5, 4)), ((1, 5, 4), (1, 0, 4), (1, 0, 4))],
        ids=["q-2d", "v-4d", "heads-q", "heads-v", "dh-k", "dh-v", "keys-vs-values", "no-keys"],
    )
    def test_attention_rejects_mismatched_shapes(self, shapes):
        q, k, v = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(PipelineError, match="shape-mismatch"):
            ad.attention(q, k, v, 0.5)

    def test_layer_norm_standardises_rows(self):
        x = default_rng(3).normal(size=(4, 7)) * 3.0 + 2.0
        y = ad.layer_norm(Tensor(x)).data
        np.testing.assert_allclose(y.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), np.ones(4), rtol=1e-9)
        np.testing.assert_allclose(
            y, (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + LAYER_NORM_EPS), rtol=1e-12
        )

    def test_layer_norm_eps_is_pinned(self):
        assert LAYER_NORM_EPS == 1e-12

    def test_shape_ops_match_numpy(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(ad.reshape(Tensor(x), (6, 4)).data, x.reshape(6, 4))
        np.testing.assert_array_equal(ad.transpose(Tensor(x), (2, 0, 1)).data, x.transpose(2, 0, 1))
        np.testing.assert_array_equal(ad.mean_all(Tensor(x)).data, x.mean())

    def test_concat_matches_numpy_on_both_axes(self):
        a = np.ones((2, 3))
        b = np.zeros((1, 3))
        np.testing.assert_array_equal(ad.concat([Tensor(a), Tensor(b)], axis=0).data, np.concatenate([a, b], axis=0))
        c = np.full((2, 2), 5.0)
        np.testing.assert_array_equal(ad.concat([Tensor(a), Tensor(c)], axis=1).data, np.concatenate([a, c], axis=1))

    def test_avg_pool2_averages_2x2_blocks(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        y = ad.avg_pool2(Tensor(x)).data
        expected = np.array([[[2.5, 4.5], [10.5, 12.5]]])
        np.testing.assert_array_equal(y, expected)

    def test_avg_pool2_rejects_odd_dims(self):
        with pytest.raises(PipelineError, match="shape-mismatch"):
            ad.avg_pool2(Tensor(np.zeros((1, 3, 4))))

    def test_upsample_nearest_repeats_pixels(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        repeated = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
        for size in [(4, 4), (3, 4), (4, 3), (3, 3)]:
            y = ad.upsample_nearest(Tensor(x), 2, size).data
            np.testing.assert_array_equal(y, repeated[:, : size[0], : size[1]])

    # 3x3 as in the convolution stages; 1x1 as in the fuse, projection and head
    # layers; 4x4 at stride 4 as in the patch embedding
    @pytest.mark.parametrize(
        "stride,pad,pad_mode,k",
        [(1, 0, "zero", 3), (1, 1, "zero", 3), (2, 1, "zero", 3), (1, 1, "wrap", 3), (2, 1, "wrap", 3),
         (1, 0, "zero", 1), (4, 0, "zero", 4)],
        ids=["1-0-zero", "1-1-zero", "2-1-zero", "1-1-wrap", "2-1-wrap", "1x1", "4x4-stride4"],
    )
    def test_conv2d_matches_scalar_loop(self, stride, pad, pad_mode, k):
        rng = default_rng(stride * 10 + pad)
        side = 8 if k == 4 else 6
        x = rng.normal(size=(3, side, side))
        w = rng.normal(size=(2, 3, k, k))
        b = rng.normal(size=2)
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad, pad_mode=pad_mode).data
        want = correlate2d_strided(x, w, b, stride, pad, pad_mode)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    # (CONV_BLOCK, stride, pad, pad_mode, k, side): output 10x10 in bands of
    # 3 rows (4 bands, the last of 1), of 1 row, and of 1 row wider than
    # the block; 5x5 at stride 2 in bands of 2 rows; 3x3 at stride 4 in
    # bands of 1 row and of 1 row wider than the block
    @pytest.mark.parametrize(
        "block,stride,pad,pad_mode,k,side",
        [(30, 1, 1, "zero", 3, 10), (30, 1, 1, "wrap", 3, 10), (10, 1, 1, "zero", 3, 10), (4, 1, 1, "wrap", 3, 10),
         (10, 2, 1, "zero", 3, 10), (10, 2, 1, "wrap", 3, 10), (3, 4, 0, "zero", 4, 12), (2, 4, 0, "zero", 4, 12)],
        ids=["band3-zero", "band3-wrap", "band1", "wider-than-block", "stride2-zero", "stride2-wrap",
             "stride4-band1", "stride4-wider"],
    )
    def test_conv2d_bands_match_scalar_loop(self, monkeypatch, block, stride, pad, pad_mode, k, side):
        monkeypatch.setattr(ad, "CONV_BLOCK", block)
        rng = default_rng(block + stride)
        x = rng.normal(size=(3, side, side))
        w = rng.normal(size=(2, 3, k, k))
        b = rng.normal(size=2)
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad, pad_mode=pad_mode).data
        want = correlate2d_strided(x, w, b, stride, pad, pad_mode)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_conv2d_memory_is_bounded_by_one_band(self):
        # no-grad 52->32 3x3 at 128x128, as conv1 of a 128 px frame: beyond
        # the padded input and the output, one band of columns and its gemm
        # result; the whole-frame im2col alone would be 61 MiB
        rng = default_rng(5)
        x, w, b = Tensor(rng.normal(size=(52, 128, 128))), Tensor(rng.normal(size=(32, 52, 3, 3))), Tensor(np.zeros(32))
        band = (52 * 9 + 32) * ad.CONV_BLOCK * 8
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = ad.conv2d(x, w, b, pad=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = 52 * 130 * 130 * 8
        assert peak < padded + out.data.nbytes + band + (1 << 20)

    # CONV_BLOCK 1 gives one-row bands wider than the block, 24 bands of 1 to
    # 12 rows, 4096 one band; the first and last bands touch the top and
    # bottom edges, and with one-row bands pad 2 and a 1x1 kernel give bands
    # that read padding only
    @pytest.mark.parametrize("block", [1, 24, 4096])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("pad_mode", ["zero", "wrap"])
    def test_conv2d_bytes_match_whole_frame_padding(self, monkeypatch, pad_mode, stride, block):
        monkeypatch.setattr(ad, "CONV_BLOCK", block)
        rng = default_rng(block + 10 * stride)
        x = rng.normal(size=(2, 9, 11))
        for pad in (0, 1, 2):
            for k in (1, 3, 4, 5):
                w, b = rng.normal(size=(3, 2, k, k)), rng.normal(size=3)
                xt, wt, bt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
                out = ad.conv2d(xt, wt, bt, stride=stride, pad=pad, pad_mode=pad_mode)
                g = rng.normal(size=out.shape)
                out._backward_fn(g)
                want = whole_frame_pad_conv2d(x, w, b, g, stride, pad, pad_mode, block)
                for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), want):
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (pad, k)

    def test_conv2d_holds_no_padded_input(self):
        # no-grad 52->32 3x3 pad-1 at 128x128, as conv1 of a 128 px frame:
        # beyond the output, one band of columns (with its 0.5 MiB gemm
        # result) and one slab of 16 + 2 padded input rows; no padded frame
        rng = default_rng(5)
        x, w, b = Tensor(rng.normal(size=(52, 128, 128))), Tensor(rng.normal(size=(32, 52, 3, 3))), Tensor(np.zeros(32))
        columns = 52 * 9 * ad.CONV_BLOCK * 8
        slab = 52 * (ad.CONV_BLOCK // 128 + 2) * 130 * 8
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = ad.conv2d(x, w, b, pad=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + columns + slab + (1 << 20)

    # with CONV_BLOCK 6 * wo, forward bands of three rows: 2-8 bands on a
    # 23 x 19 input, one job each, run by 1, 2 or 3 participants
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_conv2d_forward_bytes_do_not_depend_on_the_participants(self, monkeypatch, policy, pool_tasks, stride, layout):
        rng = default_rng(stride)
        x = rng.normal(size=(3, 23, 19)) if layout == "contiguous" else rng.normal(size=(23, 19, 3)).transpose(2, 0, 1)
        for k, pad in ((1, 0), (3, 1), (4, 0), (4, 2)):
            w, b = Tensor(rng.normal(size=(4, 3, k, k))), Tensor(rng.normal(size=4))
            ho, wo = ((n + 2 * pad - k) // stride + 1 for n in (23, 19))
            monkeypatch.setattr(ad, "CONV_BLOCK", 6 * wo)
            got = set()
            for parts in (1, 2, 3):
                del pool_tasks[:]
                with policy(parts), ad.no_grad():
                    got.add(ad.conv2d(Tensor(x), w, b, stride=stride, pad=pad).data.tobytes())
                bands = -(-ho // 3)
                assert pool_tasks == ([bands] if parts > 1 else []), (k, pad, parts)
            with policy(1):  # OpenBLAS's thread count moves gemm bytes
                want = whole_frame_pad_conv2d(x, w.data, b.data, np.zeros((4, ho, wo)), stride, pad, "zero", 6 * wo)[0]
            assert got == {want.tobytes()}, (k, pad)

    def test_relu_overwrite_gives_the_bytes_of_the_copy(self):
        # fmax may keep -0.0: numpy 2.4's keeps it on the element after the
        # last full block of eight, as on the last of these 1009
        special = [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
        x = np.concatenate([special, default_rng(3).normal(size=999), [-0.0]])
        want = ad.relu(Tensor(x.copy())).data.tobytes()
        with ad.no_grad():
            data = x.copy()
            got = ad.relu(Tensor(data, requires_grad=True), overwrite=True)
        assert got.data.tobytes() == want and np.shares_memory(got.data, data)
        taped = Tensor(x.copy(), requires_grad=True)
        out = ad.relu(taped, overwrite=True)  # a tape is recorded: x is left as it is
        assert out.requires_grad and out.data.tobytes() == want
        assert taped.data.tobytes() == x.tobytes()

    def test_conv2d_rejects_bad_pad_mode_and_shapes(self):
        x, w, b = Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((2, 3, 3, 3))), Tensor(np.zeros(2))
        with pytest.raises(PipelineError, match="bad-pad-mode"):
            ad.conv2d(x, w, b, pad_mode="reflect")
        with pytest.raises(PipelineError, match="shape-mismatch"):
            ad.conv2d(Tensor(np.zeros((4, 4, 4))), w, b)


class TestBackward:
    def test_backward_requires_a_tape(self):
        with pytest.raises(PipelineError, match="no-tape"):
            ad.backward(Tensor(np.ones(3), requires_grad=True))

    def test_constant_only_graph_records_nothing(self):
        out = ad.relu(Tensor(np.ones(3)))
        assert not out.requires_grad
        with pytest.raises(PipelineError, match="no-tape"):
            ad.backward(out)

    def test_add_with_broadcast(self):
        rng = default_rng(10)
        check_gradients(
            lambda ts: weighted_mean(ad.add(ts[0], ts[1])),
            [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))],
        )

    def test_mul_with_row_broadcast(self):
        rng = default_rng(11)
        check_gradients(
            lambda ts: weighted_mean(ad.mul(ts[0], ts[1])),
            [rng.normal(size=(3, 4)), rng.normal(size=(4,))],
        )

    def test_matmul_2d(self):
        rng = default_rng(13)
        check_gradients(
            lambda ts: weighted_mean(ad.matmul(ts[0], ts[1])),
            [rng.normal(size=(4, 3)), rng.normal(size=(3, 5))],
        )

    def test_matmul_batched(self):
        rng = default_rng(14)
        check_gradients(
            lambda ts: weighted_mean(ad.matmul(ts[0], ts[1])),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))],
        )

    def test_matmul_broadcast_shared_rhs(self):
        rng = default_rng(15)
        check_gradients(
            lambda ts: weighted_mean(ad.matmul(ts[0], ts[1])),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 3))],
        )

    def test_relu_away_from_kink(self):
        x = default_rng(16).normal(size=(3, 4))
        x += np.sign(x) * 0.1  # keep every entry clear of the probe interval
        check_gradients(lambda ts: weighted_mean(ad.relu(ts[0])), [x])

    def test_sigmoid(self):
        check_gradients(lambda ts: weighted_mean(ad.sigmoid(ts[0])), [default_rng(17).normal(size=(2, 5))])

    def test_log(self):
        x = default_rng(18).uniform(0.5, 2.0, size=(3, 3))
        check_gradients(lambda ts: weighted_mean(ad.log(ts[0])), [x])

    def test_clip_passes_inside_blocks_outside(self):
        x = np.array([-0.5, 0.3, 0.7, 1.5])
        t = Tensor(x, requires_grad=True)
        ad.backward(weighted_mean(ad.clip(t, 0.0, 1.0)))
        w = default_rng(99).normal(size=x.shape)
        np.testing.assert_allclose(t.grad, np.where((x > 0.0) & (x < 1.0), w / x.size, 0.0), rtol=1e-12)

    def test_softmax(self):
        check_gradients(lambda ts: weighted_mean(ad.softmax(ts[0], axis=-1)), [default_rng(19).normal(size=(3, 5))])

    def test_attention_spanning_three_blocks(self, monkeypatch):
        # tiles of 4 rows of 10 keys: 4, 4 and 2 query rows per head
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", 40)
        check_gradients(
            lambda ts: weighted_mean(ad.attention(ts[0], ts[1], ts[2], 0.7)),
            [a * 0.5 for a in qkv(19, 2, 10, 3)],
        )

    def test_layer_norm(self):
        check_gradients(lambda ts: weighted_mean(ad.layer_norm(ts[0])), [default_rng(20).normal(size=(3, 6))])

    def test_mean_all(self):
        t = Tensor(default_rng(21).normal(size=(4, 5)), requires_grad=True)
        ad.backward(ad.mean_all(t))
        np.testing.assert_allclose(t.grad, np.full((4, 5), 1.0 / 20.0), rtol=1e-15)

    def test_reshape_transpose_roundtrip(self):
        x = default_rng(22).normal(size=(2, 3, 4))
        check_gradients(
            lambda ts: weighted_mean(ad.transpose(ad.reshape(ts[0], (6, 4)), (1, 0))),
            [x],
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_routes_back_to_parts(self, axis):
        rng = default_rng(23 + axis)
        shapes = {0: [(2, 3), (1, 3)], 1: [(2, 2), (2, 3)]}[axis]
        check_gradients(
            lambda ts: weighted_mean(ad.concat(list(ts), axis=axis)),
            [rng.normal(size=s) for s in shapes],
        )

    @pytest.mark.parametrize("stride,pad,pad_mode", [(1, 0, "zero"), (2, 1, "zero"), (1, 1, "wrap"), (2, 1, "wrap")])
    def test_conv2d_all_inputs(self, stride, pad, pad_mode):
        rng = default_rng(30 + stride + pad)
        check_gradients(
            lambda ts: weighted_mean(ad.conv2d(ts[0], ts[1], ts[2], stride=stride, pad=pad, pad_mode=pad_mode)),
            [rng.normal(size=(2, 6, 6)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)],
        )

    @pytest.mark.parametrize("stride,pad_mode", [(1, "zero"), (1, "wrap"), (2, "zero"), (2, "wrap")])
    def test_conv2d_all_inputs_across_bands(self, monkeypatch, stride, pad_mode):
        # 7x7 output in four bands of 2 rows (the last of 1); 4x4 at stride 2
        # in four bands of 1 row
        monkeypatch.setattr(ad, "CONV_BLOCK", 14 if stride == 1 else 4)
        rng = default_rng(50 + stride)
        check_gradients(
            lambda ts: weighted_mean(ad.conv2d(ts[0], ts[1], ts[2], stride=stride, pad=1, pad_mode=pad_mode)),
            [rng.normal(size=(2, 7, 7)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)],
        )

    def test_avg_pool2(self):
        check_gradients(lambda ts: weighted_mean(ad.avg_pool2(ts[0])), [default_rng(40).normal(size=(2, 4, 4))])

    def test_upsample_nearest(self):
        # whole, then cropped: the cropped margin gets no gradient
        for size in [(12, 12), (10, 11)]:
            check_gradients(
                lambda ts: weighted_mean(ad.upsample_nearest(ts[0], 4, size)), [default_rng(41).normal(size=(1, 3, 3))]
            )

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
        ad.backward(ad.mean_all(ad.add(ad.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, (2.0 * x.data + 1.0) / 3.0, rtol=1e-14)

    def test_first_gradient_is_a_copy(self):
        t = Tensor(np.zeros((3, 2)).T, requires_grad=True)
        g = np.ones((2, 3))
        ad._accumulate(t, g)
        assert not np.shares_memory(t.grad, g)
        assert t.grad.strides == np.zeros_like(t.data).strides
        ad._accumulate(t, g)
        np.testing.assert_array_equal(g, np.ones((2, 3)))
        np.testing.assert_array_equal(t.grad, np.full((2, 3), 2.0))

    def test_untouched_leaf_keeps_no_grad(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        ad.backward(ad.mean_all(ad.mul(used, 2.0)))
        assert used.grad is not None
        assert unused.grad is None

    def test_binary_cross_entropy_composite_matches_closed_form(self):
        # d mean(bce(sigmoid(z), y)) / dz must equal (p - y) / N
        rng = default_rng(42)
        z = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = (rng.uniform(size=(4, 4)) > 0.5).astype(np.float64)
        p = ad.sigmoid(z)
        log_p = ad.log(p)
        log_not_p = ad.log(ad.add(1.0, ad.mul(p, -1.0)))
        loss = ad.mul(ad.mean_all(ad.add(ad.mul(y, log_p), ad.mul(1.0 - y, log_not_p))), -1.0)
        ad.backward(loss)
        np.testing.assert_allclose(z.grad, (p.data - y) / y.size, rtol=1e-12)


class TestAttentionWorkers:
    @staticmethod
    def output_and_gradient_bytes(heads, n, dh, seed):
        q, k, v = (Tensor(a, requires_grad=True) for a in qkv(seed, heads, n, dh))
        out = ad.attention(q, k, v, dh**-0.5)
        ad.backward(weighted_mean(out, seed))
        return [a.tobytes() for a in (out.data, q.grad, k.grad, v.grad)]

    @pytest.mark.parametrize(
        "heads, n, block",
        [(3, 600, None), (4, 50, 16 * 50), (2, 37, 5 * 37)],
        ids=["3-heads-default-block", "4-heads-remainder", "2-heads-remainder"],
    )
    def test_one_and_two_workers_give_the_same_bytes(self, monkeypatch, policy, pool_tasks, heads, n, block):
        # tiles of 218, 218 and 164 rows at the default block; 16, 16, 16
        # and 2 rows; 5 rows and a 2-row remainder
        if block is not None:
            monkeypatch.setattr(ad, "ATTENTION_BLOCK", block)
        with policy(1):
            inline = self.output_and_gradient_bytes(heads, n, 8, seed=n)
        assert pool_tasks == []
        with policy(2):
            threaded = self.output_and_gradient_bytes(heads, n, 8, seed=n)
        assert pool_tasks == [heads, heads]  # one job per head forward, one per head backward
        assert threaded == inline

    @pytest.mark.parametrize(
        "environ, workers",
        [
            ({}, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4),
            ({"OMP_NUM_THREADS": " 2 "}, 2),
            ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "two"}, 1),
        ],
    )
    def test_one_worker_per_core_that_blas_leaves_free(self, monkeypatch, policy, environ, workers):
        # without the OpenBLAS symbols the policy cannot pin BLAS, and falls
        # back to the count OpenBLAS reads from OPENBLAS_NUM_THREADS, then
        # OMP_NUM_THREADS, when it loads: without either it runs a thread
        # per core. Four cores; the environment is read as the block starts.
        monkeypatch.setattr(ad, "_openblas", lambda: None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in environ.items():
            monkeypatch.setenv(var, value)
        with policy(4) as got:
            assert got == workers

    @pytest.mark.parametrize("heads, n", [(1, 600)], ids=["one-head"])
    def test_inline_when_there_is_nothing_to_share(self, policy, pool_tasks, heads, n):
        with policy(2):
            self.output_and_gradient_bytes(heads, n, 8, seed=1)
        assert pool_tasks == []


class TestNoGrad:
    def test_backward_inside_raises_no_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = ad.mean_all(ad.mul(x, 2.0))
            assert not out.requires_grad
            with pytest.raises(PipelineError, match="no-tape"):
                ad.backward(out)
        assert x.requires_grad and x.grad is None

    def test_values_match_the_taped_op(self):
        q, k, v = qkv(7, 2, 9, 3)
        taped = ad.attention(Tensor(q, requires_grad=True), Tensor(k), Tensor(v), 0.3)
        with ad.no_grad():
            free = ad.attention(Tensor(q, requires_grad=True), Tensor(k), Tensor(v), 0.3)
        assert taped.data.tobytes() == free.data.tobytes()

    def test_flag_restored_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        assert ad.mul(x, -1.0).requires_grad

    def test_flag_restored_after_nesting(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.mul(x, -1.0).requires_grad
            assert not ad.mul(x, -1.0).requires_grad
        out = ad.mean_all(ad.mul(x, -1.0))
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, [-0.5, -0.5])


class TestThreadPolicy:
    def test_overlapping_no_grad_blocks_in_two_threads_leave_recording_on(self):
        # A enters, B enters, A leaves, B leaves: with one flag for the whole
        # process, B would restore the False that A set and nothing would tape
        x = Tensor(np.ones(2), requires_grad=True)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        taped = {}

        def a():
            with ad.no_grad():
                a_in.set()
                b_in.wait(10)
                taped["a"] = ad.mul(x, 2.0).requires_grad
            a_out.set()

        def b():
            a_in.wait(10)
            with ad.no_grad():
                b_in.set()
                a_out.wait(10)
                taped["b"] = ad.mul(x, 2.0).requires_grad

        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        assert b_in.wait(10)
        assert ad.mul(x, 3.0).requires_grad  # both threads are inside no_grad
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert taped == {"a": False, "b": False}
        ad.backward(ad.mean_all(ad.mul(x, -1.0)))
        np.testing.assert_array_equal(x.grad, [-0.5, -0.5])

    @pytest.mark.parametrize(
        "quota, cores",
        [("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1), (None, 4)],
        ids=["max", "one-and-a-half-cpus", "half-a-cpu", "no-file"],
    )
    def test_cgroup_quota_caps_the_cores(self, monkeypatch, tmp_path, quota, cores):
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        path = tmp_path / "cpu.max"
        if quota is not None:
            path.write_text(quota)
        monkeypatch.setattr(ad, "CPU_MAX", str(path))
        assert ad.cores() == cores

    def test_pins_one_blas_thread_and_restores_the_count(self, blas_threads, policy):
        before = blas_threads()
        with policy(2) as workers:
            assert (workers, blas_threads()) == (2, 1)
            with ad.thread_policy() as nested:
                assert (nested, blas_threads()) == (2, 1)
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_the_first_error_in_job_order_reaches_the_caller(self, policy):
        def work(job):
            if job in (1, 3):
                raise PipelineError("bad-item", f"job {job}")
            return job

        with pytest.raises(PipelineError, match="bad-item: job 1"):
            with policy(2):
                ad.share(work, range(5))

    def test_policies_entered_from_many_threads_restore_the_count_once(self, blas_threads, policy):
        before = blas_threads()
        inside = []

        def enter_and_leave():
            for _ in range(200):
                with ad.thread_policy():
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with policy(2):
                pass  # cores() stays patched to 2 for the threads below
            threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(inside) == 8 * 200 and set(inside) == {1}
        assert blas_threads() == before

    def test_share_keeps_job_order_and_shares_one_level(self, policy, pool_tasks):
        def outer(job):
            return ad.share(lambda inner: (job, inner, threading.current_thread().name), range(2))

        with policy(2):
            rows = ad.share(outer, range(3))
        assert [[(j, i) for j, i, _ in row] for row in rows] == [[(j, 0), (j, 1)] for j in range(3)]
        # each job's inner call ran inline on the thread that took the job:
        # the caller, or a helper of the pool
        names = [{name for _, _, name in row} for row in rows]
        assert all(len(row) == 1 for row in names)
        assert all(name == threading.current_thread().name or name.startswith("tamperloc-") for name in set.union(*names))
        assert pool_tasks == [3]
        assert ad.share(outer, range(3)) == [[(j, i, threading.current_thread().name) for i in range(2)] for j in range(3)]

    def test_the_caller_takes_jobs_beside_a_helper(self, policy, pool_tasks):
        # two jobs that each wait for the other can only finish on two
        # threads at once; a call with two jobs hands out one helper
        both = threading.Barrier(2, timeout=30)

        def work(job):
            both.wait()
            return job, threading.current_thread().name

        with policy(2):
            rows = ad.share(work, range(2))
        assert [job for job, _ in rows] == [0, 1]
        names = {name for _, name in rows} - {threading.current_thread().name}
        assert len(names) == 1 and names.pop().startswith("tamperloc-")
        assert pool_tasks == [2]

    def test_the_caller_runs_every_job_no_helper_started(self, monkeypatch, policy):
        monkeypatch.setattr(ad._pool, "hand_out", lambda call, helpers: None)
        with policy(2):
            assert ad.share(lambda job: (job, threading.current_thread().name), range(3)) == [
                (job, threading.current_thread().name) for job in range(3)
            ]

    def test_jobs_come_back_in_order_and_the_first_error_in_job_order_wins(self, policy):
        def slow_last(job):
            time.sleep(0.002 * (8 - job))
            return job * job

        started = []

        def fail_two(job):
            started.append(job)
            if job == 0:
                time.sleep(0.2)  # job 1 fails first
                raise PipelineError("bad-item", "job 0")
            raise PipelineError("bad-item", f"job {job}")

        with policy(2):
            assert ad.share(slow_last, range(8)) == [job * job for job in range(8)]
            with pytest.raises(PipelineError, match="bad-item: job 0"):
                ad.share(fail_two, range(10))
        assert set(started) <= {0, 1}  # no job starts after an error

    def test_share_restores_the_callers_workers_and_taping(self, policy):
        def flip(_):
            seen = ad._state.workers, ad._state.grad_enabled
            ad._state.grad_enabled = not ad._state.grad_enabled
            return seen

        def fail(job):
            ad._state.workers = 5
            raise PipelineError("bad-item", f"job {job}")

        with policy(2):
            with ad.no_grad():
                assert ad.share(flip, range(4)) == [(1, False)] * 4
                assert (ad._state.workers, ad._state.grad_enabled) == (2, False)
            assert ad.share(flip, range(4)) == [(1, True)] * 4
            with pytest.raises(PipelineError):
                ad.share(fail, range(2))
            assert (ad._state.workers, ad._state.grad_enabled) == (2, True)

    def test_threads_that_share_at_once_all_finish(self, policy):
        # three threads at once, each sharing over itself and two helpers
        results = {}

        def run(name):
            with ad.thread_policy():
                results[name] = [ad.share(lambda job: float(np.sum(np.full(1000, job))), range(6)) for _ in range(100)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with policy(3):
                pass  # cores() stays patched to 3 for the threads below
            threads = [threading.Thread(target=run, args=(name,)) for name in "abc"]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == {name: [[1000.0 * job for job in range(6)]] * 100 for name in "abc"}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helpers(self):
        # the parent starts a helper; a child made by os.fork() has none of
        # the parent's threads, so its shares must start their own
        script = textwrap.dedent(
            """
            import os, sys, threading
            from tamperloc import autodiff as ad

            ad.cores = lambda: 2

            def barrier_share():
                both = threading.Barrier(2, timeout=5)

                def work(job):
                    both.wait()
                    return threading.current_thread().name

                with ad.thread_policy():
                    return ad.share(work, range(2))

            barrier_share()
            pid = os.fork()
            if pid == 0:
                try:
                    names = barrier_share()
                    ok = ad._pool.calls.qsize() == 0 and any(n.startswith("tamperloc-") for n in names)
                except BaseException:
                    ok = False
                os._exit(0 if ok else 1)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            """
        )
        src = str(Path(ad.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_workers_tape_exactly_when_the_caller_does(self, policy):
        x = Tensor(np.ones(2), requires_grad=True)
        with policy(2):
            assert ad.share(lambda _: ad.mul(x, 2.0).requires_grad, range(2)) == [True, True]
            with ad.no_grad():
                assert ad.share(lambda _: ad.mul(x, 2.0).requires_grad, range(2)) == [False, False]
