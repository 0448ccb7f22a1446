import hashlib
import importlib
import math
import sys
import threading

import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc import autodiff as ad
from tamperloc.core import Frame
from tamperloc.errors import PipelineError
from tamperloc.fusion import VARIANTS, ArchConfig, bce_loss_graph, forward_graph, init_network
from tamperloc.perturb import PerturbSpec, perturb_suite
from tamperloc.train import (
    _SHUFFLE_TAG,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    TrainConfig,
    _sample_stack,
    train,
)

train_mod = importlib.import_module("tamperloc.train")  # the package exports a function of that name


def balanced_items(count: int = 3, size: int = 32):
    items = []
    for seed in range(count):
        f = Frame(default_rng(seed).uniform(0.0, 1.0, (3, size, size)))
        mask = np.zeros((size, size))
        mask[: size // 2] = 1.0
        items.append((f, mask))
    return items


def square_item(seed: int = 10, size: int = 32):
    f = Frame(default_rng(seed).uniform(0.0, 1.0, (3, size, size)))
    mask = np.zeros((size, size))
    mask[8:24, 8:24] = 1.0
    return f, mask


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(steps=5)
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 4
        assert cfg.views == ("texture", "edge", "pixel", "frequency")

    @pytest.mark.parametrize(
        "kwargs",
        [dict(steps=0), dict(steps=5, batch_size=0), dict(steps=5, lr=0.0), dict(steps=5, lr=-1.0), dict(steps=5, lr=float("inf"))],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(PipelineError, match="bad-config"):
            TrainConfig(**kwargs)

    def test_normalises_views_and_augment(self):
        cfg = TrainConfig(steps=1, views=["pixel", "texture"], augment=[PerturbSpec("flip")])
        assert cfg.views == ("texture", "pixel")
        assert cfg.augment == (PerturbSpec("flip"),)


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        from tamperloc.autodiff import Tensor
        from tamperloc.fusion import ParamStore

        x0 = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.1, 0.0])
        store = ParamStore(ArchConfig(), 0, {"x": Tensor(x0.copy(), requires_grad=True)})
        store.tensors["x"].grad = g.copy()
        opt = Adam(store, lr=0.01)
        opt.step()
        m = (1.0 - ADAM_BETA1) * g
        v = (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1)
        vhat = v / (1.0 - ADAM_BETA2)
        expected = x0 - 0.01 * mhat / (np.sqrt(vhat) + ADAM_EPS)
        np.testing.assert_allclose(store.tensors["x"].data, expected, rtol=1e-15)

    def test_two_steps_match_reference_loop(self):
        from tamperloc.autodiff import Tensor
        from tamperloc.fusion import ParamStore

        x = np.array([0.7])
        grads = [np.array([0.2]), np.array([-0.4])]
        store = ParamStore(ArchConfig(), 0, {"x": Tensor(x.copy(), requires_grad=True)})
        opt = Adam(store, lr=0.05)
        ref, m, v = x.copy(), np.zeros(1), np.zeros(1)
        for t, g in enumerate(grads, start=1):
            store.tensors["x"].grad = g.copy()
            opt.step()
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            ref = ref - 0.05 * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS)
        np.testing.assert_allclose(store.tensors["x"].data, ref, rtol=1e-15)

    def test_missing_gradient_treated_as_zero(self):
        from tamperloc.autodiff import Tensor
        from tamperloc.fusion import ParamStore

        store = ParamStore(ArchConfig(), 0, {"x": Tensor(np.array([1.0]), requires_grad=True)})
        Adam(store, lr=0.1).step()
        np.testing.assert_array_equal(store.tensors["x"].data, np.array([1.0]))


class TestTrain:
    def test_rejects_empty_dataset(self):
        with pytest.raises(PipelineError, match="empty-dataset"):
            train(TrainConfig(steps=1), ArchConfig(), [])

    def test_rejects_mask_shape_mismatch(self):
        f, _ = square_item()
        with pytest.raises(PipelineError, match="shape-mismatch"):
            train(TrainConfig(steps=1), ArchConfig(), [(f, np.zeros((8, 8)))])

    def test_rejects_malformed_items(self):
        f, mask = square_item()
        for entry in [(f,), ("id", f, mask, "extra"), (f.data, mask), ("id", mask, mask), f]:
            with pytest.raises(PipelineError, match="bad-item"):
                train(TrainConfig(steps=1), ArchConfig(), [entry])

    def test_accepts_both_tuple_layouts(self):
        f, mask = square_item()
        _, h2 = train(TrainConfig(steps=1, batch_size=1), ArchConfig(), [(f, mask)])
        _, h3 = train(TrainConfig(steps=1, batch_size=1), ArchConfig(), [("id", f, mask)])
        assert h2 == h3

    def test_history_length_equals_steps(self):
        _, history = train(TrainConfig(steps=3, batch_size=2), ArchConfig(), balanced_items())
        assert len(history) == 3

    def test_fresh_init_on_balanced_masks_starts_near_ln2(self):
        for seed in (0, 1, 7, 42):
            _, h = train(TrainConfig(steps=1, seed=seed, batch_size=2), ArchConfig(), balanced_items())
            assert abs(h[0] - math.log(2.0)) < 0.2

    def test_step_zero_regression_anchor(self):
        _, h = train(TrainConfig(steps=1, seed=0, batch_size=2), ArchConfig(), balanced_items())
        assert h[0] == pytest.approx(0.7047254820612712, rel=1e-9)

    def test_same_config_reproduces_history_and_params(self):
        cfg = TrainConfig(steps=3, seed=5, batch_size=2)
        p1, h1 = train(cfg, ArchConfig(), balanced_items())
        p2, h2 = train(cfg, ArchConfig(), balanced_items())
        assert h1 == h2
        for name in p1.tensors:
            assert p1[name].data.tobytes() == p2[name].data.tobytes()

    def test_overfits_a_single_frame(self):
        _, history = train(TrainConfig(steps=80, seed=0, batch_size=1), ArchConfig(), [square_item()])
        assert history[-1] < 0.05
        assert history[-1] < history[0]

    def test_augmented_training_runs_and_differs_from_clean(self):
        items = balanced_items(2)
        cfg_clean = TrainConfig(steps=2, seed=3, batch_size=2)
        cfg_aug = TrainConfig(steps=2, seed=3, batch_size=2, augment=(PerturbSpec("flip"), PerturbSpec("gaussian", 0.02)))
        _, h_clean = train(cfg_clean, ArchConfig(), items)
        _, h_aug = train(cfg_aug, ArchConfig(), items)
        assert len(h_aug) == 2
        assert h_aug != h_clean


class TestSampleStack:
    def test_sample_depends_only_on_seed_step_and_item(self):
        # no batch-position input exists: same (seed, step, idx) must give identical bytes
        cfg = TrainConfig(steps=1, seed=9, augment=(PerturbSpec("gaussian", 0.05), PerturbSpec("flip")))
        items = balanced_items(3)
        a, mask_a = _sample_stack(cfg, items, {}, step=4, item_idx=1)
        b, mask_b = _sample_stack(cfg, items, {}, step=4, item_idx=1)
        assert a.tobytes() == b.tobytes()
        assert mask_a.tobytes() == mask_b.tobytes()

    def test_different_steps_draw_different_augmentations(self):
        cfg = TrainConfig(steps=1, seed=9, augment=(PerturbSpec("gaussian", 0.05),))
        items = balanced_items(1)
        a, _ = _sample_stack(cfg, items, {}, step=0, item_idx=0)
        b, _ = _sample_stack(cfg, items, {}, step=1, item_idx=0)
        assert a.tobytes() != b.tobytes()

    def test_clean_samples_are_cached(self):
        cfg = TrainConfig(steps=1, seed=0)
        items = balanced_items(1)
        cache: dict = {}
        a, _ = _sample_stack(cfg, items, cache, step=0, item_idx=0)
        b, _ = _sample_stack(cfg, items, cache, step=7, item_idx=0)
        assert 0 in cache
        assert a is b


def single_tape_train(cfg, arch, items):
    """train() as it was before samples were shared: one tape per minibatch,
    its samples run one after another and the root their mean loss."""
    params = init_network(arch, cfg.seed)
    opt = Adam(params, cfg.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SHUFFLE_TAG]))
    cache, order, history = {}, [], []
    for step in range(cfg.steps):
        while len(order) < cfg.batch_size:
            order.extend(int(i) for i in shuffle_rng.permutation(len(items)))
        batch, order = order[: cfg.batch_size], order[cfg.batch_size :]
        for t in params.tensors.values():
            t.grad = None
        total = None
        for item_idx in batch:
            stack, target = _sample_stack(cfg, items, cache, step, item_idx)
            _, probs = forward_graph(params, stack)
            loss = bce_loss_graph(probs, target)
            total = loss if total is None else ad.add(total, loss)
        total = ad.mul(total, 1.0 / cfg.batch_size)
        ad.backward(total)
        opt.step()
        history.append(float(total.data))
    return params, history


def training_digest(params, history) -> str:
    h = hashlib.sha256(np.array(history).tobytes())
    for name, t in params.tensors.items():
        h.update(name.encode() + t.data.tobytes())
    return h.hexdigest()


class TestSharedSamples:
    @pytest.mark.parametrize("augment", [(), perturb_suite()], ids=["clean", "augmented"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_and_two_workers_give_the_single_tape_bytes(self, policy, variant, augment):
        # 3 items in batches of 4: some batches draw an item twice
        items, arch = balanced_items(3), ArchConfig(variant=variant)
        cfg = TrainConfig(steps=16, batch_size=4, seed=5, augment=augment)
        with policy(1):  # one BLAS thread on both sides
            want = training_digest(*single_tape_train(cfg, arch, items))
        for cores in (1, 2):
            with policy(cores):
                assert training_digest(*train(cfg, arch, items)) == want

    def test_an_error_in_a_sample_worker_reaches_the_caller(self, blas_threads, policy, pool_tasks):
        # the 20 px frame is too small for the texture bank; it is extracted
        # on a worker, and the other samples of its batch are dropped or done
        before = blas_threads()
        small = Frame(default_rng(0).uniform(0.0, 1.0, (3, 20, 20)))
        items = balanced_items(3) + [(small, np.zeros((20, 20)))]
        raised = {}

        def run():
            with policy(2):
                try:
                    train(TrainConfig(steps=2, batch_size=4), ArchConfig(), items)
                except PipelineError as exc:
                    raised["error"] = exc

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(120)
        assert not worker.is_alive()
        assert str(raised["error"]) == "kernel-exceeds-image: kernel 25x25 on 20x20"
        assert len(pool_tasks) > 0
        assert blas_threads() == before

    def test_each_clean_stack_is_extracted_by_one_thread(self, monkeypatch, policy):
        # eight workers on two items drawn four times each in every batch
        extracted = []
        real = train_mod.build_feature_stack

        def counting(frame, views):
            extracted.append(id(frame))
            return real(frame, views)

        monkeypatch.setattr(train_mod, "build_feature_stack", counting)
        items = balanced_items(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with policy(8):
                train(TrainConfig(steps=2, batch_size=8), ArchConfig(), items)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(extracted) == sorted(id(frame) for frame, _ in items)

    def test_attention_runs_inline_while_samples_are_shared(self, monkeypatch, policy, pool_tasks):
        # 32 px frames have 64 tokens: tiles of 8 rows give every head 8
        # tiles; forward bands of 2 * 64 pixels give conv1 8 bands, and
        # conv2 and both fuse1 convolutions 2 each
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", 8 * 64)
        monkeypatch.setattr(ad, "CONV_BLOCK", 4 * 64)
        with policy(2):
            train(TrainConfig(steps=3, batch_size=2), ArchConfig(), balanced_items(2))
        assert pool_tasks == [2] * 3  # the samples, two a step; their views, bands and heads ran inline
        with policy(2):
            train(TrainConfig(steps=1, batch_size=1), ArchConfig(), balanced_items(1))
        # one sample alone: its four views, then one job per band of those
        # four forward convolutions, then one per head in each encoder
        # layer, forward and back
        assert pool_tasks == [2] * 3 + [4] + [8, 2, 2, 2] + [4] * 2 * 2
