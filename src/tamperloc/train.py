"""Seeded Adam training over minibatches of synthetic frames.

Everything that draws randomness (shuffling, augmentation choice, noise) is
keyed by the config seed plus fixed stream tags, so one (config, dataset)
pair always yields the same history and the same final parameters. Per-sample
augmentation seeds derive from (seed, step, item index), never from batch
position, so reordering a batch cannot change any sample's forward result.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import Frame, split_item
from .errors import PipelineError
from .fusion import (
    FEATURE_VIEWS,
    ArchConfig,
    ParamStore,
    bce_loss_graph,
    build_feature_stack,
    check_views,
    forward_graph,
    init_network,
)
from .perturb import PerturbSpec, perturb_pair

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_SHUFFLE_TAG = 101
_AUGMENT_TAG = 202


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    lr: float = 1e-3
    batch_size: int = 4
    seed: int = 0
    augment: tuple[PerturbSpec, ...] = ()
    views: tuple[str, ...] = FEATURE_VIEWS

    def __post_init__(self):
        if self.steps < 1:
            raise PipelineError("bad-config", f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise PipelineError("bad-config", f"batch size must be >= 1, got {self.batch_size}")
        if not (0.0 < self.lr < float("inf")):
            raise PipelineError("bad-config", f"learning rate must be positive and finite, got {self.lr}")
        object.__setattr__(self, "augment", tuple(self.augment))
        object.__setattr__(self, "views", check_views(self.views))


class Adam:
    """Standard Adam with bias correction; state keyed by parameter name."""

    def __init__(self, params: ParamStore, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}

    def step(self):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name, tensor in self.params.tensors.items():
            g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            step = self.lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + ADAM_EPS)
            tensor.data = tensor.data - step


def _sample_stack(
    cfg: TrainConfig,
    items: list[tuple[Frame, np.ndarray]],
    cache: dict,
    step: int,
    item_idx: int,
    fill=nullcontext(),
) -> tuple[np.ndarray, np.ndarray]:
    """Feature stack and target for one drawn sample, augmented or clean.

    Clean stacks are extracted once and cached, under the item's ``fill``
    lock, so one thread fills each entry; augmented samples re-extract
    because every view is sensitive to the perturbed pixels.
    """
    frame, mask = items[item_idx]
    if cfg.augment:
        key = [int(cfg.seed), _AUGMENT_TAG, int(step), int(item_idx)]
        rng = np.random.default_rng(np.random.SeedSequence(key))
        spec = cfg.augment[int(rng.integers(len(cfg.augment)))]
        if spec.kind != "none":
            frame, mask = perturb_pair(frame, mask, spec, seed=key + [1])
            return build_feature_stack(frame, cfg.views).data, mask
    with fill:
        if item_idx not in cache:
            cache[item_idx] = build_feature_stack(frame, cfg.views).data
    return cache[item_idx], mask


def train(cfg: TrainConfig, arch: ArchConfig, dataset) -> tuple[ParamStore, list[float]]:
    """Adam over seeded shuffled minibatches; returns params and per-step losses.

    Batches are consecutive slices of per-epoch permutations (epochs may span
    a batch boundary). Each sample gets a tape of its own over a view of the
    parameters, rooted at its BCE loss times 1 / batch size, and the samples
    run on the workers of ``autodiff.thread_policy``. The per-sample roots'
    losses and gradients are summed in draw order once all have run, so the
    batch loss is the mean of the per-sample terms and no byte depends on
    the worker count.
    """
    items = [split_item(entry, index)[1:] for index, entry in enumerate(dataset)]
    if not items:
        raise PipelineError("empty-dataset", "training needs at least one item")
    params = init_network(arch, cfg.seed)
    opt = Adam(params, cfg.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), _SHUFFLE_TAG]))
    cache: dict = {}
    fills = [threading.Lock() for _ in items]
    scale = 1.0 / cfg.batch_size

    def sample(step: int, item_idx: int):
        stack, target = _sample_stack(cfg, items, cache, step, item_idx, fills[item_idx])
        view = params.view()
        _, probs = forward_graph(view, stack)
        loss = bce_loss_graph(probs, target)
        ad.backward(ad.mul(loss, scale))
        return loss.data, [t.grad for t in view.tensors.values()]

    order: list[int] = []
    history: list[float] = []
    with ad.thread_policy():
        for step in range(cfg.steps):
            while len(order) < cfg.batch_size:
                order.extend(int(i) for i in shuffle_rng.permutation(len(items)))
            batch, order = order[: cfg.batch_size], order[cfg.batch_size :]

            samples = ad.share(lambda item_idx: sample(step, item_idx), batch)
            for k, tensor in enumerate(params.tensors.values()):
                parts = [grads[k] for _, grads in samples if grads[k] is not None]
                tensor.grad = parts[0] if parts else None  # the first sample's own array
                for grad in parts[1:]:
                    tensor.grad += grad
            opt.step()
            history.append(float(sum(loss for loss, _ in samples) * scale))
    return params, history
