import json
import math

import numpy as np
import pytest
from numpy.random import default_rng

import tamperloc.autodiff as ad
import tamperloc.metrics as metrics_mod
from tamperloc.core import Frame
from tamperloc.errors import PipelineError
from tamperloc.formats import write_report
from tamperloc.fusion import ArchConfig, init_network, predict
from tamperloc.metrics import (
    ConfusionCounts,
    MetricsReport,
    background_iou,
    binarize,
    confusion_counts,
    evaluate,
    f1_score,
    foreground_iou,
    miou,
)
from tamperloc.perturb import PerturbSpec

from oracles import confusion, f1_exact, miou_exact


def random_pair(seed: int, h: int = 16, w: int = 16):
    rng = default_rng(seed)
    return rng.uniform(size=(h, w)) > 0.5, rng.uniform(size=(h, w)) > 0.5


class TestBinarize:
    def test_threshold_is_inclusive_at_half(self):
        pred = np.array([[0.49, 0.5], [0.51, 1.0]])
        np.testing.assert_array_equal(binarize(pred), [[False, True], [True, True]])

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(PipelineError, match="bad-prediction"):
            binarize(np.array([[0.5, 1.2]]))


class TestConfusionCounts:
    def test_matches_hand_counting_oracle(self):
        for seed in range(20):
            pred, truth = random_pair(seed)
            c = confusion_counts(pred, truth)
            tp, fp, fn, tn = confusion(pred, truth)
            assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
            assert c.total == pred.size

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PipelineError, match="shape-mismatch"):
            confusion_counts(np.zeros((2, 2), bool), np.zeros((2, 3), bool))


class TestF1:
    def test_perfect_prediction(self):
        assert f1_score(ConfusionCounts(tp=5, fp=0, fn=0, tn=11)) == 1.0

    def test_all_tampered_against_half_grid(self):
        # 4x4 grid, gt covers 8 pixels, prediction covers all 16
        gt = np.zeros((4, 4), bool)
        gt[:2] = True
        c = confusion_counts(np.ones((4, 4), bool), gt)
        assert (c.tp, c.fp, c.fn) == (8, 8, 0)
        assert f1_score(c) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_disjoint_predictions_score_zero(self):
        assert f1_score(ConfusionCounts(tp=0, fp=4, fn=4, tn=8)) == 0.0

    def test_both_empty_scores_one(self):
        assert f1_score(ConfusionCounts(tp=0, fp=0, fn=0, tn=16)) == 1.0

    def test_matches_exact_fraction_oracle(self):
        rng = default_rng(1)
        for _ in range(50):
            tp, fp, fn = (int(v) for v in rng.integers(0, 30, size=3))
            assert f1_score(ConfusionCounts(tp, fp, fn, 5)) == pytest.approx(float(f1_exact(tp, fp, fn)), rel=1e-15)


class TestMiou:
    def test_perfect_prediction(self):
        assert miou(ConfusionCounts(tp=3, fp=0, fn=0, tn=13)) == 1.0

    def test_all_tampered_against_half_grid(self):
        gt = np.zeros((4, 4), bool)
        gt[:2] = True
        c = confusion_counts(np.ones((4, 4), bool), gt)
        assert foreground_iou(c) == 0.5
        assert background_iou(c) == 0.0
        assert miou(c) == 0.25

    def test_complement_prediction_scores_zero(self):
        gt = np.zeros((4, 4), bool)
        gt[:2] = True
        assert miou(confusion_counts(~gt, gt)) == 0.0

    def test_absent_class_contributes_one(self):
        # nothing tampered anywhere: fg IoU defined as 1
        c = confusion_counts(np.zeros((4, 4), bool), np.zeros((4, 4), bool))
        assert foreground_iou(c) == 1.0
        assert miou(c) == 1.0

    def test_matches_exact_fraction_oracle(self):
        rng = default_rng(2)
        for _ in range(50):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 30, size=4))
            assert miou(ConfusionCounts(tp, fp, fn, tn)) == pytest.approx(float(miou_exact(tp, fp, fn, tn)), rel=1e-15)


class TestMonotonicity:
    def test_correcting_one_pixel_strictly_improves_both(self):
        rng = default_rng(3)
        for _ in range(100):
            tp, fp, fn, tn = (int(v) for v in rng.integers(1, 20, size=4))
            base_f1, base_miou = f1_score(ConfusionCounts(tp, fp, fn, tn)), miou(ConfusionCounts(tp, fp, fn, tn))
            fixed_fp = ConfusionCounts(tp, fp - 1, fn, tn + 1)
            fixed_fn = ConfusionCounts(tp + 1, fp, fn - 1, tn)
            assert f1_score(fixed_fp) > base_f1 and miou(fixed_fp) > base_miou
            assert f1_score(fixed_fn) > base_f1 and miou(fixed_fn) > base_miou


def items_with_masks(count: int = 3, size: int = 16):
    items = []
    for i in range(count):
        rng = default_rng(100 + i)
        frame = Frame(rng.uniform(0.0, 1.0, (3, size, size)))
        mask = np.zeros((size, size))
        mask[: 2 + 3 * i, : 4 + i] = 1.0
        items.append((f"item_{i}", frame, mask))
    return items


class TestEvaluate:
    def test_rejects_empty_dataset(self):
        with pytest.raises(PipelineError, match="empty-dataset"):
            evaluate(init_network(ArchConfig(), 0), [])

    @pytest.mark.parametrize("perturbation", [None, PerturbSpec("gaussian")], ids=["plain", "gaussian"])
    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_rejects_bad_seed(self, perturbation, seed):
        with pytest.raises(PipelineError, match="bad-seed"):
            evaluate(init_network(ArchConfig(), 0), items_with_masks(1), perturbation=perturbation, seed=seed)

    def test_rejects_malformed_items(self):
        item_id, frame, mask = items_with_masks(1)[0]
        params = init_network(ArchConfig(), 0)
        for entry in [(frame,), (item_id, frame, mask, "extra"), (frame.data, mask), (item_id, mask, mask), frame]:
            with pytest.raises(PipelineError, match="bad-item"):
                evaluate(params, [entry])

    def test_single_frame_report_equals_frame_metrics(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "predict", lambda params, frame, views: np.full((16, 16), 0.7))
        items = items_with_masks(1)
        report = evaluate(init_network(ArchConfig(), 0), items)
        assert report.miou == report.per_frame[0].miou
        assert report.f1 == report.per_frame[0].f1
        assert report.per_frame[0].item_id == "item_0"

    def test_oracle_predictor_scores_one(self, monkeypatch):
        items = items_with_masks(3)
        # keyed by frame, not by call order: frames may run on several workers
        truths = {id(frame): mask for _, frame, mask in items}
        monkeypatch.setattr(metrics_mod, "predict", lambda params, frame, views: truths[id(frame)])
        report = evaluate(init_network(ArchConfig(), 0), items)
        assert report.miou == 1.0 and report.f1 == 1.0 and report.miou_fg == 1.0

    def test_constant_half_predictor_matches_hand_counts(self, monkeypatch):
        # 0.5 >= threshold, so the constant predictor marks everything tampered
        monkeypatch.setattr(metrics_mod, "predict", lambda params, frame, views: np.full((16, 16), 0.5))
        items = items_with_masks(3)
        report = evaluate(init_network(ArchConfig(), 0), items)
        mious, f1s = [], []
        for _, _, mask in items:
            n_fg = int(mask.sum())
            n = mask.size
            mious.append(0.5 * (n_fg / n + 0.0))
            f1s.append(2.0 * n_fg / (2 * n_fg + (n - n_fg)))
        assert report.miou == pytest.approx(math.fsum(mious) / 3, rel=1e-15)
        assert report.f1 == pytest.approx(math.fsum(f1s) / 3, rel=1e-15)

    def test_dataset_permutation_leaves_means_unchanged(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "predict", lambda params, frame, views: np.full((16, 16), 0.5))
        items = items_with_masks(3)
        params = init_network(ArchConfig(), 0)
        fwd = evaluate(params, items)
        rev = evaluate(params, items[::-1])
        assert fwd.miou == rev.miou and fwd.f1 == rev.f1 and fwd.miou_fg == rev.miou_fg

    def test_default_item_ids_number_the_frames(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "predict", lambda params, frame, views: np.full((16, 16), 0.7))
        pairs = [(frame, mask) for _, frame, mask in items_with_masks(2)]
        report = evaluate(init_network(ArchConfig(), 0), pairs)
        assert [r.item_id for r in report.per_frame] == ["frame_0000", "frame_0001"]

    def test_perturbation_transforms_truth_before_scoring(self, monkeypatch):
        fixed_pred = np.zeros((16, 16))
        fixed_pred[:, :8] = 1.0
        monkeypatch.setattr(metrics_mod, "predict", lambda params, frame, views: fixed_pred)
        frame = Frame(default_rng(0).uniform(0.0, 1.0, (3, 16, 16)))
        mask = np.zeros((16, 16))
        mask[:, :4] = 1.0
        params = init_network(ArchConfig(), 0)
        plain = evaluate(params, [("a", frame, mask)])
        flipped = evaluate(params, [("a", frame, mask)], perturbation=PerturbSpec("flip"))
        c = confusion_counts(fixed_pred >= 0.5, mask[:, ::-1])
        assert flipped.miou == miou(c)
        assert flipped.miou != plain.miou
        assert flipped.perturbation == "flip"

    def test_report_carries_provenance(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "predict", lambda params, frame, views: np.full((16, 16), 0.7))
        report = evaluate(init_network(ArchConfig(variant="vit_cnn"), 0), items_with_masks(1), views=["edge"], seed=11)
        assert isinstance(report, MetricsReport)
        assert report.features == ("edge",)
        assert report.arch == "vit_cnn"
        assert report.seed == 11
        assert report.threshold == 0.5
        assert report.perturbation == "none"

    def test_end_to_end_with_real_network(self):
        rng = default_rng(7)
        frame = Frame(rng.uniform(0.0, 1.0, (3, 32, 32)))
        mask = np.zeros((32, 32))
        mask[8:20, 8:20] = 1.0
        report = evaluate(init_network(ArchConfig(), 0), [("x", frame, mask)])
        assert 0.0 <= report.miou <= 1.0
        assert 0.0 <= report.f1 <= 1.0
        assert len(report.per_frame) == 1


class TestSharedFrames:
    @pytest.mark.parametrize("perturbation", [None, PerturbSpec("compression", 75.0)], ids=["plain", "compression"])
    def test_one_and_two_workers_give_the_same_report_bytes(self, policy, tmp_path, perturbation):
        items = items_with_masks(5, size=32)
        params = init_network(ArchConfig(), 3)
        reports = []
        for cores in (1, 2):
            with policy(cores):
                path = tmp_path / f"report{cores}.json"
                write_report(path, evaluate(params, items, perturbation=perturbation, seed=4))
                reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        assert [row["id"] for row in json.loads(reports[1])["per_frame"]] == [f"item_{i}" for i in range(5)]

    def test_attention_runs_inline_while_frames_are_shared(self, monkeypatch, policy, pool_tasks):
        # 32 px frames have 64 tokens: tiles of 8 rows give every head 8
        # tiles; forward bands of 2 * 64 pixels give conv1 8 bands, and
        # conv2 and both fuse1 convolutions 2 each
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", 8 * 64)
        monkeypatch.setattr(ad, "CONV_BLOCK", 4 * 64)
        items, params = items_with_masks(3, size=32), init_network(ArchConfig(), 3)
        with policy(2):
            evaluate(params, items)
        assert pool_tasks == [3]  # the frames; their views, bands and heads ran inline
        with policy(2):
            predict(params, items[0][1])
        # one frame alone: its four views, then one job per band of those
        # four convolutions, then one per head in each encoder layer
        assert pool_tasks == [3] + [4] + [8, 2, 2, 2] + [4] * 2
