import hashlib
import math

import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc import autodiff as ad
from tamperloc.autodiff import Tensor
from tamperloc.core import FeatureStack, Frame
from tamperloc.edge import edge_features
from tamperloc.errors import PipelineError
from tamperloc.frequency import frequency_features
from tamperloc.fusion import (
    FEATURE_VIEWS,
    INPUT_CHANNELS,
    ArchConfig,
    bce_loss,
    bce_loss_graph,
    build_feature_stack,
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
from tamperloc.texture import extract_texture

EXTRACTORS = {
    "texture": extract_texture,
    "edge": edge_features,
    "pixel": srm_features,
    "frequency": frequency_features,
}


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

    def test_rejects_bad_resolution(self):
        params = init_network(micro_arch(), 0)
        with pytest.raises(PipelineError, match="bad-resolution"):
            forward(params, default_rng(0).uniform(size=(3, 6, 6)))

    @pytest.mark.parametrize("variant", ["cnn_vit", "cnn_only", "vit_only", "vit_cnn"])
    def test_rejects_bad_pad_mode(self, variant):
        params = init_network(micro_arch(variant), 0)
        with pytest.raises(PipelineError, match="bad-pad-mode"):
            forward_graph(params, micro_input(), pad_mode="reflect")

    def test_rejects_wrong_channel_count(self):
        params = init_network(micro_arch(), 0)
        with pytest.raises(PipelineError, match="shape-mismatch"):
            forward(params, default_rng(0).uniform(size=(4, 8, 8)))

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

    def test_unused_parameter_has_no_gradient(self):
        params = init_network(micro_arch(), 0)
        used = params["head.w"]
        ignored = params["stage1.conv1.w"]
        loss = ad.mean_all(ad.mul(used, 2.0))
        ad.backward(loss)
        assert used.grad is not None
        assert ignored.grad is None

    def test_micro_gradcheck_passes(self):
        ok, report = finite_difference_check(seed=0)
        assert ok
        assert set(report) == set(init_network(micro_arch(), 0).tensors)
        assert all(v < 1e-4 for v in report.values())


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

    def test_predict_rejects_non_multiview_arch(self):
        with pytest.raises(PipelineError, match="bad-arch"):
            predict(init_network(micro_arch(), 0), random_frame(4))
