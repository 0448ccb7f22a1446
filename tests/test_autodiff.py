import tracemalloc

import numpy as np
import pytest
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
        # block 8: n below, equal to, not a multiple of, and a multiple of it
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", 8)
        q, k, v = qkv(n, 3, n, 4)
        got = ad.attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        np.testing.assert_allclose(got, dense_attention(q, k, v, 0.5), rtol=1e-12, atol=1e-12)

    def test_attention_default_block_matches_dense(self):
        n = 2 * ad.ATTENTION_BLOCK + 37
        q, k, v = qkv(3, 2, n, 8)
        got = ad.attention(Tensor(q), Tensor(k), Tensor(v), 8**-0.5).data
        np.testing.assert_allclose(got, dense_attention(q, k, v, 8**-0.5), rtol=1e-12, atol=1e-12)

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
        y = ad.upsample_nearest(Tensor(x), 2).data
        np.testing.assert_array_equal(y, np.repeat(np.repeat(x, 2, axis=1), 2, axis=2))

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
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", 4)
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
        check_gradients(lambda ts: weighted_mean(ad.upsample_nearest(ts[0], 4)), [default_rng(41).normal(size=(1, 3, 3))])

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
