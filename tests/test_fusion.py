import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.fft import next_fast_len

from tamperloc import autodiff as ad
from tamperloc import fusion
from tamperloc.autodiff import Tensor
from tamperloc.core import FeatureStack, Frame
from tamperloc.edge import edge_features
from tamperloc.errors import PipelineError
from tamperloc.frequency import frequency_features
from tamperloc.fusion import (
    FEATURE_VIEWS,
    INPUT_CHANNELS,
    VARIANTS,
    ArchConfig,
    _forward_graph,
    bce_loss,
    bce_loss_graph,
    build_feature_stack,
    centre,
    check_views,
    finite_difference_check,
    forward,
    forward_graph,
    init_network,
    micro_arch,
    param_spec,
    predict,
)
from tamperloc.pixel import srm_features
from tamperloc.texture import BANK_SIDE, extract_texture

EXTRACTORS = {
    "texture": extract_texture,
    "edge": edge_features,
    "pixel": srm_features,
    "frequency": frequency_features,
}


def concatenated_stack(f: Frame, views) -> np.ndarray:
    """RGB and each view's fresh array (zeros for a disabled view) joined by
    one ``np.concatenate``: the reference for the preallocated stack."""
    parts = [f.data]
    for view in FEATURE_VIEWS:
        own = EXTRACTORS[view](f).data
        parts.append(own if view in views else np.zeros_like(own))
    return np.concatenate(parts)


def random_frame(seed: int, h: int = 32, w: int = 32) -> Frame:
    return Frame(default_rng(seed).uniform(0.0, 1.0, (3, h, w)))


def micro_input(seed: int = 5, h: int = 8, w: int = 8) -> np.ndarray:
    return default_rng(seed).uniform(0.0, 1.0, (3, h, w))


class TestArchConfig:
    def test_default_layout(self):
        cfg = ArchConfig()
        assert cfg.variant == "cnn_vit"
        assert cfg.input_channels == INPUT_CHANNELS == 52

    def test_rejects_unknown_variant(self):
        with pytest.raises(PipelineError, match="bad-arch"):
            ArchConfig(variant="resnet")

    def test_rejects_indivisible_heads(self):
        with pytest.raises(PipelineError, match="bad-arch"):
            ArchConfig(token_dim=64, heads=5)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(PipelineError, match="bad-arch"):
            ArchConfig(branch_width=0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(token_dim=64.5), dict(heads=float("nan")), dict(mlp_ratio=float("inf")), dict(branch_width=(16,)),
         dict(stage1_widths=32), dict(stage1_widths=(32, 32)), dict(stage1_widths=(32.5, 32, 64))],
        ids=["fractional", "nan", "inf", "tuple", "widths-not-a-tuple", "two-widths", "fractional-width"],
    )
    def test_rejects_non_integer_sizes(self, kwargs):
        with pytest.raises(PipelineError, match="bad-arch"):
            ArchConfig(**kwargs)

    def test_integral_sizes_become_ints(self):
        cfg = ArchConfig(token_dim=64.0, stage1_widths=[32.0, np.int64(32), 64], heads=np.float64(4))
        assert cfg == ArchConfig()
        assert all(type(v) is int for v in cfg.row())
        assert type(cfg.stage1_widths) is tuple
        assert param_spec(cfg) == param_spec(ArchConfig())
        init_network(cfg, 0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_row_is_the_variant_index_then_every_size_in_field_order(self, variant):
        cfg = micro_arch(variant)
        assert cfg.row() == (VARIANTS.index(variant), 3, 4, 4, 8, 2, 8, 2, 1, 2)
        assert ArchConfig.from_row(cfg.row()) == cfg
        assert ArchConfig().row() == (0, INPUT_CHANNELS, 32, 32, 64, 16, 64, 4, 2, 2)

    @pytest.mark.parametrize(
        "row",
        [(-1, 3, 4, 4, 8, 2, 8, 2, 1, 2), (4, 3, 4, 4, 8, 2, 8, 2, 1, 2), (0.5, 3, 4, 4, 8, 2, 8, 2, 1, 2),
         (0, 3, 4, 4, 8, 2, 8, 2, 1), (0, 3, 4, 4, 8, 2, 8, 2, 1, 2, 2), ()],
        ids=["variant-minus-1", "variant-past-end", "fractional-variant", "short", "long", "empty"],
    )
    def test_from_row_rejects_a_row_naming_no_configuration(self, row):
        with pytest.raises(PipelineError, match="bad-arch"):
            ArchConfig.from_row(row)


class TestInitNetwork:
    def test_same_seed_reproduces_identical_bytes(self):
        a = init_network(ArchConfig(), 3)
        b = init_network(ArchConfig(), 3)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            assert a[name].data.tobytes() == b[name].data.tobytes()

    def test_different_seed_changes_some_parameter(self):
        a = init_network(ArchConfig(), 3)
        b = init_network(ArchConfig(), 4)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a.tensors)

    def test_default_parameter_count_matches_hand_sum(self):
        # declared layer shapes summed independently of the implementation
        d, br, w1, w2, w3, cin = 64, 16, 32, 32, 64, 52
        mlp = d * 2
        encoder_layer = (
            2 * d                        # ln1 scale/offset
            + 4 * (d * d + d)            # q/k/v/out projections
            + 2 * d                      # ln2 scale/offset
            + (d * mlp + mlp)            # mlp in
            + (mlp * d + d)              # mlp out
        )
        expected = (
            (w1 * cin * 9 + w1)          # stage1.conv1
            + (w2 * w1 * 9 + w2)         # stage1.conv2
            + (w2 * w2 + w2)             # fuse1 fused 1x1
            + (br * w2 + br)             # fuse1 branch 1x1
            + (w3 * w2 * 9 + w3)         # stage1.conv3
            + (d * (w3 + br) + d)        # fuse2 projection
            + 2 * encoder_layer
            + (d + 1)                    # 1x1 head
        )
        assert expected == 116529
        assert sum(t.data.size for t in init_network(ArchConfig(), 0).tensors.values()) == expected

    def test_biases_zero_and_weights_fan_in_bounded(self):
        params = init_network(ArchConfig(), 1)
        np.testing.assert_array_equal(params["stage1.conv1.b"].data, np.zeros(32))
        np.testing.assert_array_equal(params["encoder.0.ln1.scale"].data, np.ones(64))
        w = params["stage1.conv1.w"].data
        bound = 1.0 / math.sqrt(52 * 9)
        assert np.all(np.abs(w) <= bound)

    def test_rejects_bad_seed(self):
        with pytest.raises(PipelineError, match="bad-seed"):
            init_network(ArchConfig(), -1)

    def test_rejects_seed_a_saved_model_cannot_hold(self):
        # the high half of 2**48 + 2**24 + 1 is 2**24 + 1, which float32 rounds to
        # 2**24, so a saved model of that seed loaded as 2**48 + 1
        with pytest.raises(PipelineError, match="bad-seed"):
            init_network(micro_arch(), 2**48)


# sha256 prefixes of the (name, shape, init) table and of init_network(cfg, 0)'s
# bytes, recorded before the variants were rewritten as one layer table: the
# draw order, the names and the initial bytes must never move
LAYOUT_DIGESTS = {
    ("cnn_vit", "default"): ("d05a3e4bfc690473", "616d887a5a8978bd"),
    ("cnn_vit", "micro"): ("db6e610b4215d84f", "3f176bd7f1164a80"),
    ("cnn_only", "default"): ("92b842221496f103", "b05ac7b5681350ea"),
    ("cnn_only", "micro"): ("d46fc394b61df811", "2c58ae6d5290d1d4"),
    ("vit_only", "default"): ("f800cfff40ef99f3", "68c9cd12f41d78e1"),
    ("vit_only", "micro"): ("878f3e71872cac53", "1a02872a1354a983"),
    ("vit_cnn", "default"): ("83796ec955cec659", "511d13e94ed8a28e"),
    ("vit_cnn", "micro"): ("91844f64f8bd9d66", "1c02719fd28f9d2a"),
}


@pytest.mark.parametrize("variant,arch", sorted(LAYOUT_DIGESTS))
def test_layout_and_init_bytes_are_pinned(variant, arch):
    cfg = ArchConfig(variant=variant) if arch == "default" else micro_arch(variant)
    spec_digest = hashlib.sha256(repr(param_spec(cfg)).encode()).hexdigest()[:16]
    params = init_network(cfg, 0)
    init_digest = hashlib.sha256()
    for name in params.tensors:
        init_digest.update(name.encode())
        init_digest.update(params[name].data.tobytes())
    assert (spec_digest, init_digest.hexdigest()[:16]) == LAYOUT_DIGESTS[(variant, arch)]


class TestForward:
    @pytest.mark.parametrize("variant", ["cnn_vit", "cnn_only", "vit_only", "vit_cnn"])
    def test_output_shape_and_open_interval(self, variant):
        params = init_network(micro_arch(variant), 0)
        out = forward(params, micro_input())
        assert out.shape == (8, 8)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_zeroed_head_outputs_exactly_half(self):
        params = init_network(micro_arch(), 0)
        params["head.w"].data[:] = 0.0
        params["head.b"].data[:] = 0.0
        np.testing.assert_array_equal(forward(params, micro_input()), np.full((8, 8), 0.5))

    def test_repeat_run_is_bit_identical(self):
        params = init_network(micro_arch(), 2)
        x = micro_input(9)
        assert forward(params, x).tobytes() == forward(params, x).tobytes()

    def test_accepts_feature_stack_and_array_equally(self):
        params = init_network(micro_arch(), 1)
        x = micro_input(3)
        stack = FeatureStack(x, ("a", "b", "c"))
        np.testing.assert_array_equal(forward(params, stack), forward(params, x))

    @pytest.mark.parametrize("height,width", [(6, 6), (10, 8)])
    def test_pads_to_a_multiple_of_4_and_crops_back(self, height, width):
        params = init_network(micro_arch(), 0)
        x = default_rng(0).uniform(size=(3, height, width))
        padded = np.pad(x, ((0, 0), (0, -height % 4), (0, -width % 4)), mode="reflect")
        got = forward(params, x)
        assert got.shape == (height, width)
        assert got.tobytes() == np.ascontiguousarray(forward(params, padded)[:height, :width]).tobytes()

    @pytest.mark.parametrize("variant", ["cnn_vit", "cnn_only", "vit_only", "vit_cnn"])
    def test_rejects_bad_pad_mode(self, variant):
        params = init_network(micro_arch(variant), 0)
        with pytest.raises(PipelineError, match="bad-pad-mode"):
            forward_graph(params, micro_input(), pad_mode="reflect")

    def test_rejects_wrong_channel_count(self):
        params = init_network(micro_arch(), 0)
        with pytest.raises(PipelineError, match="shape-mismatch"):
            forward(params, default_rng(0).uniform(size=(4, 8, 8)))

    @pytest.mark.parametrize("shape", [(8, 8), (1, 3, 8, 8)], ids=["2d", "4d"])
    def test_rejects_a_stack_that_is_not_3d(self, shape):
        params = init_network(micro_arch(), 0)
        for run in (forward, forward_graph):
            with pytest.raises(PipelineError, match="shape-mismatch"):
                run(params, np.zeros(shape))

    def test_prediction_constant_on_4x4_blocks(self):
        params = init_network(micro_arch(), 4)
        out = forward(params, micro_input(11))
        blocks = out.reshape(2, 4, 2, 4)
        assert np.all(blocks == blocks[:, :1, :, :1])

    @pytest.mark.parametrize("variant", ["cnn_vit", "cnn_only", "vit_only", "vit_cnn"])
    def test_tape_free_forward_equals_graph_bit_for_bit(self, variant):
        params = init_network(micro_arch(variant), 8)
        x = default_rng(14).uniform(0.0, 1.0, (3, 16, 16))
        assert forward(params, x).tobytes() == forward_graph(params, x)[1].data.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_no_tape_pass_keeps_the_traced_pre_activations(self, variant):
        # a ReLU writes over the conv or matmul output before it only when no
        # trace holds it; the traced pass and the plain one give the same bytes
        params = init_network(micro_arch(variant), 8)
        x = default_rng(15).uniform(0.0, 1.0, (3, 16, 16))
        trace = []
        with ad.no_grad():
            _, probs = _forward_graph(params, centre(x), "zero", trace)
        assert all(np.any(t.data < 0.0) for t in trace)
        assert probs.data.tobytes() == forward(params, x).tobytes()

    def test_an_encoder_block_tapes_twenty_ops(self):
        # two layer norms, five matmuls with their biases, q/k/v split into
        # heads (reshape and transpose each), attention, the heads joined
        # back, the MLP's ReLU and two residual adds
        params = init_network(micro_arch(), 0)
        tokens = Tensor(default_rng(3).normal(size=(16, 8)), requires_grad=True)
        seen, stack = {}, [fusion._attention_block(tokens, params, "encoder.0.", params.arch)]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen[id(t)] = t
                stack.extend(t._parents)
        assert sum(t._backward_fn is not None for t in seen.values()) == 20

    @pytest.mark.parametrize("variant", ["cnn_vit", "cnn_only", "vit_only", "vit_cnn"])
    def test_wrap_padding_translation_consistency(self, variant):
        # a 4-pixel circular shift of the input moves pre-upsample logits one token
        params = init_network(micro_arch(variant), 6)
        x = default_rng(12).uniform(0.0, 1.0, (3, 12, 12))
        logits, _ = forward_graph(params, x, pad_mode="wrap")
        rolled, _ = forward_graph(params, np.roll(x, (4, 4), axis=(1, 2)), pad_mode="wrap")
        np.testing.assert_allclose(rolled.data, np.roll(logits.data, (1, 1), axis=(1, 2)), atol=1e-12)


class TestBceLoss:
    def test_uniform_half_gives_ln2(self):
        gt = (default_rng(0).uniform(size=(8, 8)) > 0.5).astype(np.float64)
        assert bce_loss(np.full((8, 8), 0.5), gt) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_prediction_hits_clamp_floor(self):
        gt = (default_rng(1).uniform(size=(8, 8)) > 0.5).astype(np.float64)
        assert bce_loss(gt, gt) <= -math.log(1.0 - 1e-7) * 1.0000001

    def test_matches_per_pixel_summation_oracle(self):
        rng = default_rng(2)
        pred = rng.uniform(0.01, 0.99, size=(8, 8))
        gt = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
        total = 0.0
        for y in range(8):
            for x in range(8):
                p = min(max(pred[y, x], 1e-7), 1.0 - 1e-7)
                total += -(gt[y, x] * math.log(p) + (1.0 - gt[y, x]) * math.log(1.0 - p))
        assert bce_loss(pred, gt) == pytest.approx(total / 64.0, rel=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PipelineError, match="shape-mismatch"):
            bce_loss(np.full((4, 4), 0.5), np.zeros((4, 5)))

    def test_graph_version_matches_scalar_version(self):
        rng = default_rng(3)
        pred = rng.uniform(0.01, 0.99, size=(4, 4))
        gt = (rng.uniform(size=(4, 4)) > 0.5).astype(np.float64)
        assert float(bce_loss_graph(Tensor(pred), gt).data) == pytest.approx(bce_loss(pred, gt), rel=1e-14)


class TestBackward:
    def test_head_bias_gradient_matches_sigmoid_bce_identity(self):
        # dL/db_head = sum over pixels of (p - y) / N
        params = init_network(micro_arch(), 7)
        x = micro_input(21)
        target = (default_rng(22).uniform(size=(8, 8)) > 0.5).astype(np.float64)
        _, probs = forward_graph(params, x)
        loss = bce_loss_graph(probs, target)
        ad.backward(loss)
        expected = ((probs.data - target) / target.size).sum()
        assert params["head.b"].grad[0] == pytest.approx(expected, rel=1e-10)

    def test_padded_pixels_send_no_gradient(self):
        # at 10x10 the network runs on a 12x12 reflect-padded stack; the head
        # bias identity holds over the 100 real pixels alone
        params = init_network(micro_arch(), 7)
        x = micro_input(21, 10, 10)
        target = (default_rng(22).uniform(size=(10, 10)) > 0.5).astype(np.float64)
        _, probs = forward_graph(params, x)
        assert probs.data.shape == (10, 10)
        ad.backward(bce_loss_graph(probs, target))
        expected = ((probs.data - target) / target.size).sum()
        assert params["head.b"].grad[0] == pytest.approx(expected, rel=1e-10)

    def test_unused_parameter_has_no_gradient(self):
        params = init_network(micro_arch(), 0)
        used = params["head.w"]
        ignored = params["stage1.conv1.w"]
        loss = ad.mean_all(ad.mul(used, 2.0))
        ad.backward(loss)
        assert used.grad is not None
        assert ignored.grad is None

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_gradcheck_rejects_bad_seed(self, seed):
        with pytest.raises(PipelineError, match="bad-seed"):
            finite_difference_check(seed=seed)

    def test_micro_gradcheck_passes(self):
        ok, report = finite_difference_check(seed=0)
        assert ok
        assert set(report) == set(init_network(micro_arch(), 0).tensors)
        assert all(v < 1e-4 for v in report.values())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradcheck_runs_on_one_blas_thread(self, monkeypatch, blas_threads, variant):
        set_threads, seen, backward = ad._openblas()[1], [], ad.backward
        monkeypatch.setattr(ad, "backward", lambda root: seen.append(blas_threads()) or backward(root))
        reports = []
        for threads in (1, 2):
            set_threads(threads)
            reports.append(finite_difference_check(seed=0, arch=micro_arch(variant)))
            assert blas_threads() == threads
        assert seen == [1, 1]
        assert reports[0] == reports[1]


class TestFeatureViews:
    def test_check_views_defaults_and_ordering(self):
        assert check_views(None) == FEATURE_VIEWS
        assert check_views(["frequency", "texture"]) == ("texture", "frequency")

    def test_check_views_rejects_unknown(self):
        with pytest.raises(PipelineError, match="bad-feature-view"):
            check_views(["texture", "noise"])

    def test_stack_has_52_channels_in_canonical_order(self):
        stack = build_feature_stack(random_frame(0))
        assert stack.data.shape == (52, 32, 32)
        assert stack.labels[:3] == ("rgb_R", "rgb_G", "rgb_B")
        assert len(stack.labels) == 52

    @pytest.mark.parametrize("views", [None, *[(v,) for v in FEATURE_VIEWS]])
    def test_stack_is_rgb_then_each_view_bytes(self, views):
        f = random_frame(6, 30, 45)
        stack = build_feature_stack(f, views)
        parts, labels = [f.data], ["rgb_R", "rgb_G", "rgb_B"]
        for view in FEATURE_VIEWS:
            own = EXTRACTORS[view](f)
            on = views is None or view in views
            parts.append(own.data if on else np.zeros_like(own.data))
            labels += own.labels
        assert stack.labels == tuple(labels)
        assert stack.data.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("h,w", [(37, 45), (64, 64), (100, 100)])
    def test_stack_bytes_equal_the_concatenation_for_every_subset(self, policy, cores, h, w):
        f = random_frame(h + w, h, w)
        for n in range(len(FEATURE_VIEWS) + 1):
            for views in itertools.combinations(FEATURE_VIEWS, n):
                with policy(cores):
                    got = build_feature_stack(f, views).data
                assert got.tobytes() == concatenated_stack(f, views).tobytes(), views

    @pytest.mark.parametrize("view", FEATURE_VIEWS)
    @pytest.mark.parametrize("h,w", [(37, 45), (64, 64)])
    def test_extractor_writes_the_fresh_bytes_into_out(self, view, h, w):
        f = random_frame(7, h, w)
        fresh = EXTRACTORS[view](f)
        out = np.full_like(fresh.data, np.nan)
        got = EXTRACTORS[view](f, out=out)
        assert np.shares_memory(got.data, out)
        assert got.labels == fresh.labels
        assert out.tobytes() == fresh.data.tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_stack_holds_the_stack_and_one_job_per_worker(self, policy, cores):
        # 192 px: beyond the stack, each worker holds the temporaries of one
        # view, the largest of which is texture's: the padded luma and its
        # spectrum, one orientation's product, the inverse FFT's complex
        # pass over it and its real output. The concatenation held every
        # view beside the stack (28.4 MiB).
        f = random_frame(6, 192, 192)
        build_feature_stack(f)  # fills the texture view's spectrum cache for this size
        fft = next_fast_len(192 + BANK_SIDE - 1, real=True)
        half = fft * (fft // 2 + 1) * 16
        texture_job = fft * fft * 8 + half + 2 * 4 * half + 4 * fft * fft * 8
        with policy(cores):
            tracemalloc.start()
            try:
                build_feature_stack(f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 52 * 192 * 192 * 8 + cores * texture_job + (1 << 19)

    def test_views_are_shared_under_a_policy_it_takes_itself(self, monkeypatch, blas_threads, pool_tasks):
        # called outside any policy, as `tamperloc extract` calls it: one
        # job per chosen view, each run on one BLAS thread
        monkeypatch.setattr(ad, "cores", lambda: 2)
        seen = []
        for view in FEATURE_VIEWS:
            extractor, labels = fusion._VIEW_EXTRACTORS[view]

            def recording(f, out, extractor=extractor, view=view):
                seen.append((view, blas_threads()))
                return extractor(f, out=out)

            monkeypatch.setitem(fusion._VIEW_EXTRACTORS, view, (recording, labels))
        before = blas_threads()
        f = random_frame(8)
        assert build_feature_stack(f, ("edge", "texture", "pixel")).data.tobytes() == (
            concatenated_stack(f, ("edge", "texture", "pixel")).tobytes()
        )
        assert pool_tasks == [3]
        assert sorted(seen) == [("edge", 1), ("pixel", 1), ("texture", 1)]
        assert blas_threads() == before

    def test_disabled_views_keep_zero_filled_slots(self):
        f = random_frame(1)
        full = build_feature_stack(f)
        only_edge = build_feature_stack(f, views=("edge",))
        assert only_edge.data.shape == full.data.shape
        assert only_edge.labels == full.labels
        np.testing.assert_array_equal(only_edge.data[:3], full.data[:3])
        np.testing.assert_array_equal(only_edge.data[3:19], np.zeros((16, 32, 32)))
        np.testing.assert_array_equal(only_edge.data[19:31], full.data[19:31])
        np.testing.assert_array_equal(only_edge.data[31:], np.zeros((21, 32, 32)))

    def test_all_views_off_leaves_rgb_informative(self):
        f = random_frame(2)
        stack = build_feature_stack(f, views=())
        np.testing.assert_array_equal(stack.data[:3], f.data)
        np.testing.assert_array_equal(stack.data[3:], np.zeros((49, 32, 32)))

    def test_predict_runs_extractors_then_forward(self):
        f = random_frame(3)
        params = init_network(ArchConfig(), 0)
        np.testing.assert_array_equal(predict(params, f), forward(params, build_feature_stack(f)))

    def test_predict_keeps_no_tape(self, monkeypatch):
        made = []
        make = ad._make
        monkeypatch.setattr(ad, "_make", lambda *args: made.append(make(*args)) or made[-1])
        cfg = ArchConfig(stage1_widths=(4, 4, 8), branch_width=2, token_dim=8, heads=2, encoder_layers=1)
        params = init_network(cfg, 0)
        predict(params, random_frame(5))
        assert made and all(t._backward_fn is None and not t._parents for t in made)
        assert all(t.grad is None for t in params.tensors.values())

    @pytest.mark.parametrize("height,width", [(30, 30), (29, 32), (32, 27)])
    def test_predict_pads_to_a_multiple_of_4_and_crops_back(self, height, width):
        f = Frame(default_rng(height + width).uniform(size=(3, height, width)))
        params = init_network(ArchConfig(), 0)
        padded = np.pad(
            build_feature_stack(f).data, ((0, 0), (0, -height % 4), (0, -width % 4)), mode="reflect"
        )
        got = predict(params, f)
        assert got.shape == (height, width)
        np.testing.assert_array_equal(got, forward(params, padded)[:height, :width])

    def test_predict_holds_one_copy_of_the_stack(self, monkeypatch):
        # 192 px on two cores: the peak is conv1, whose output sits beside the
        # stack while each of the two participants holds the slab and the
        # column buffer of a forward band (half a block), plus 1.5 MiB. The ReLU
        # writes over conv1's output and keeps no mask; a centred or padded
        # copy of the stack would add 14.6 MiB.
        monkeypatch.setattr(ad, "cores", lambda: 2)
        f = random_frame(6, 192, 192)
        params = init_network(ArchConfig(), 0)
        predict(params, f)  # fills the texture view's spectrum cache for this size
        tracemalloc.start()
        try:
            predict(params, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack, conv1 = 52 * 192 * 192 * 8, 32 * 192 * 192 * 8
        rows = ad.CONV_BLOCK // 2 // 192
        band = (52 * 9 * rows * 192 + 52 * (rows + 2) * 194) * 8
        assert peak < stack + conv1 + 2 * band + (3 << 19)

    def test_predict_frees_the_stack_once_conv1_has_read_it(self, policy):
        # 128 px on one worker: the peak is conv1, whose output sits beside
        # the stack while its forward band holds a slab and the band's tap
        # sum and product, plus 0.5 MiB for conv1's transposed weights and
        # small temporaries. Keeping the stack through the whole network
        # added stage1.conv2's output and band to that, 2.2 MiB here.
        f = random_frame(7, 128, 128)
        params = init_network(ArchConfig(), 0)
        with policy(1):
            predict(params, f)  # fills the texture view's spectrum cache for this size
            tracemalloc.start()
            try:
                predict(params, f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        stack, conv1 = 52 * 128 * 128 * 8, 32 * 128 * 128 * 8
        rows = ad.CONV_BLOCK // 2 // 128
        band = (52 * ((rows + 2) * 130 + 2) + 2 * 32 * rows * 130) * 8
        assert peak < stack + conv1 + band + (1 << 19)

    def test_predict_rejects_non_multiview_arch(self):
        with pytest.raises(PipelineError, match="bad-arch"):
            predict(init_network(micro_arch(), 0), random_frame(4))
