"""Seeded Adam training over minibatches of synthetic frames.

Everything that draws randomness (shuffling, augmentation choice, noise) is
keyed by the config seed plus fixed stream tags, so one (config, dataset)
pair always yields the same history and the same final parameters. Per-sample
augmentation seeds derive from (seed, step, item index), never from batch
position, so reordering a batch cannot change any sample's forward result.
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import Frame, as_sequence, check_int, check_real, split_item
from .errors import PipelineError
from .fusion import (
    FEATURE_VIEWS,
    ArchConfig,
    ParamStore,
    _forward_graph,
    bce_loss_graph,
    build_feature_stack,
    centre,
    check_views,
    init_network,
)
from .perturb import PerturbSpec, perturb_pair

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_SHUFFLE_TAG = 101
_AUGMENT_TAG = 202

# Bytes of clean stacks (with their masks) kept cached between steps: 1 GiB
# holds about 600 stacks of 64 px, or 38 of 256 px.
STACK_CACHE_BYTES = 2**30


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    lr: float = 1e-3
    batch_size: int = 4
    seed: int = 0
    augment: tuple[PerturbSpec, ...] = ()
    views: tuple[str, ...] = FEATURE_VIEWS

    def __post_init__(self):
        object.__setattr__(self, "steps", check_int(self.steps, "bad-config", "steps"))
        object.__setattr__(self, "batch_size", check_int(self.batch_size, "bad-config", "batch size"))
        lr = check_real(self.lr, "bad-config", "learning rate", 0.0, math.inf, low_open=True)
        object.__setattr__(self, "lr", lr)
        object.__setattr__(self, "augment", tuple(self.augment))
        object.__setattr__(self, "views", check_views(self.views))


class Adam:
    """Standard Adam with bias correction; state keyed by parameter name.

    A step updates the moments and parameter arrays in place, with the
    textbook formula's ufuncs in its order; views of the store see it."""

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
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            gg = (1.0 - ADAM_BETA2) * g
            gg *= g
            v += gg
            step = m / c1
            step *= self.lr
            den = np.sqrt(np.divide(v, c2, out=gg), out=gg)
            den += ADAM_EPS
            step /= den
            tensor.data -= step


def _sample_stack(
    cfg: TrainConfig,
    dataset,
    cache: dict,
    step: int,
    item_idx: int,
    fill=nullcontext(),
) -> tuple[np.ndarray, np.ndarray]:
    """Centred feature stack (the network's input) and target for one drawn
    sample, augmented or clean.

    A clean sample is ``cache[item_idx]``, its stack and mask, filled on a
    miss under the item's ``fill`` lock, so one thread fills each entry.
    Augmented samples re-extract because every view is sensitive to the
    perturbed pixels. ``dataset[item_idx]`` is read, and checked with
    ``core.split_item``, only on a miss or an augmented draw.
    """
    if cfg.augment:
        key = [int(cfg.seed), _AUGMENT_TAG, int(step), int(item_idx)]
        rng = np.random.default_rng(np.random.SeedSequence(key))
        spec = cfg.augment[int(rng.integers(len(cfg.augment)))]
        if spec.kind != "none":
            _, frame, mask = split_item(dataset[item_idx], item_idx)
            frame, mask = perturb_pair(frame, mask, spec, seed=key + [1])
            return _centred_stack(frame, cfg.views), mask
    with fill:
        if item_idx not in cache:
            _, frame, mask = split_item(dataset[item_idx], item_idx)
            cache[item_idx] = _centred_stack(frame, cfg.views), mask
    return cache[item_idx]


def _centred_stack(frame: Frame, views) -> np.ndarray:
    stack = build_feature_stack(frame, views).data
    return centre(stack, out=stack)


def train(cfg: TrainConfig, arch: ArchConfig, dataset) -> tuple[ParamStore, list[float]]:
    """Adam over seeded shuffled minibatches; returns params and per-step losses.

    Batches are consecutive slices of per-epoch permutations (epochs may span
    a batch boundary). Each sample gets a tape of its own over a view of the
    parameters, rooted at its BCE loss times 1 / batch size, and the samples
    run on the workers of ``autodiff.thread_policy``. The per-sample roots'
    losses and gradients are summed in draw order once all have run, so the
    batch loss is the mean of the per-sample terms and no byte depends on
    the worker count.

    Items are indexed, and checked, only when a sample needs their pixels
    (see ``_sample_stack``), so a malformed item fails the step that first
    draws it. After each step the calling thread keeps that step's new
    clean stacks, in draw order, while the kept ones fit in
    ``STACK_CACHE_BYTES``; once the budget is reached nothing more is added
    and the other items are extracted again on each draw. What is kept
    depends on the draws alone, and a stack extracted again has the same
    bytes, so the budget moves no byte of the result.
    """
    dataset = as_sequence(dataset)
    if not len(dataset):
        raise PipelineError("empty-dataset", "training needs at least one item")
    params = init_network(arch, cfg.seed)
    opt = Adam(params, cfg.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), _SHUFFLE_TAG]))
    kept: dict = {}  # item index -> clean stack and mask, kept between steps
    held = 0  # their bytes
    fills = [threading.Lock() for _ in range(len(dataset))]
    scale = 1.0 / cfg.batch_size

    def sample(step: int, item_idx: int, cache: dict):
        stack, target = _sample_stack(cfg, dataset, cache, step, item_idx, fills[item_idx])
        view = params.view()
        _, probs = _forward_graph(view, stack, "zero")
        loss = bce_loss_graph(probs, target)
        ad.backward(ad.mul(loss, scale))
        return loss.data, [t.grad for t in view.tensors.values()]

    order: list[int] = []
    history: list[float] = []
    with ad.thread_policy():
        for step in range(cfg.steps):
            while len(order) < cfg.batch_size:
                order.extend(int(i) for i in shuffle_rng.permutation(len(dataset)))
            batch, order = order[: cfg.batch_size], order[cfg.batch_size :]
            cache = {item_idx: kept[item_idx] for item_idx in batch if item_idx in kept}
            samples = ad.share(lambda item_idx: sample(step, item_idx, cache), batch)
            for k, tensor in enumerate(params.tensors.values()):
                parts = [grads[k] for _, grads in samples if grads[k] is not None]
                tensor.grad = parts[0] if parts else None  # the first sample's own array
                for grad in parts[1:]:
                    tensor.grad += grad
            opt.step()
            history.append(float(sum(loss for loss, _ in samples) * scale))
            for item_idx in batch:
                if item_idx in cache and item_idx not in kept:
                    stack, mask = cache[item_idx]
                    if held + stack.nbytes + mask.nbytes <= STACK_CACHE_BYTES:
                        kept[item_idx] = cache[item_idx]
                        held += stack.nbytes + mask.nbytes
    return params, history
