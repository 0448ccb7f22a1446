"""Two-stage fusion network mapping a multi-view feature stack to a tamper mask.

The default layout runs a small convolutional stage at full resolution, hands
a fused representation plus a thin side branch to an attention stage working
on stride-4 tokens, and decodes with a 1x1 head, nearest x4 upsampling and a
sigmoid. Three ablation layouts rearrange the same pieces: convolutions only,
attention only, and attention before convolutions.

:func:`variant_layers` is the one place a variant is described: an ordered
table of layers. ``param_spec`` declares the parameters and ``forward_graph``
applies the layers by walking that same table, so the two cannot drift apart.

Everything runs through :mod:`tamperloc.autodiff`, so one ``forward_graph``
pass builds the complete tape for exact reverse-mode gradients; ``forward``
runs the same ops under ``no_grad`` and keeps no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import RGB_LABELS, FeatureStack, Frame
from .edge import EDGE_LABELS, edge_features
from .errors import PipelineError
from .frequency import FREQUENCY_LABELS, frequency_features
from .pixel import SRM_LABELS, srm_features
from .texture import TEXTURE_LABELS, extract_texture

VARIANTS = ("cnn_vit", "cnn_only", "vit_only", "vit_cnn")

FEATURE_VIEWS = ("texture", "edge", "pixel", "frequency")
_VIEW_EXTRACTORS = {
    "texture": (extract_texture, TEXTURE_LABELS),
    "edge": (edge_features, EDGE_LABELS),
    "pixel": (srm_features, SRM_LABELS),
    "frequency": (frequency_features, FREQUENCY_LABELS),
}

STACK_LABELS = RGB_LABELS + TEXTURE_LABELS + EDGE_LABELS + SRM_LABELS + FREQUENCY_LABELS
INPUT_CHANNELS = len(STACK_LABELS)

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class ArchConfig:
    """Network shape. The defaults describe the full two-stage layout."""

    variant: str = "cnn_vit"
    input_channels: int = INPUT_CHANNELS
    stage1_widths: tuple[int, int, int] = (32, 32, 64)
    branch_width: int = 16
    token_dim: int = 64
    heads: int = 4
    encoder_layers: int = 2
    mlp_ratio: int = 2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise PipelineError("bad-arch", f"variant must be one of {VARIANTS}, got {self.variant!r}")
        fields = (
            self.input_channels,
            *self.stage1_widths,
            self.branch_width,
            self.token_dim,
            self.heads,
            self.encoder_layers,
            self.mlp_ratio,
        )
        if len(self.stage1_widths) != 3 or any(int(v) != v or v < 1 for v in fields):
            raise PipelineError("bad-arch", "all widths/counts must be positive integers")
        if self.token_dim % self.heads:
            raise PipelineError("bad-arch", f"token_dim {self.token_dim} not divisible by heads {self.heads}")


def micro_arch(variant: str = "cnn_vit") -> ArchConfig:
    """Small configuration used for gradient checking: 3-channel 8x8 inputs."""
    return ArchConfig(
        variant=variant,
        input_channels=3,
        stage1_widths=(4, 4, 8),
        branch_width=2,
        token_dim=8,
        heads=2,
        encoder_layers=1,
        mlp_ratio=2,
    )


def _encoder_specs(cfg: ArchConfig, out):
    d, m = cfg.token_dim, cfg.token_dim * cfg.mlp_ratio
    for i in range(cfg.encoder_layers):
        p = f"encoder.{i}."
        out += [(p + "ln1.scale", (d,), "ones"), (p + "ln1.offset", (d,), "zeros")]
        for x in "qkvo":
            out += [(p + f"attn.w{x}", (d, d), d), (p + f"attn.b{x}", (d,), "zeros")]
        out += [(p + "ln2.scale", (d,), "ones"), (p + "ln2.offset", (d,), "zeros")]
        out += [(p + "mlp.w1", (d, m), d), (p + "mlp.b1", (m,), "zeros")]
        out += [(p + "mlp.w2", (m, d), m), (p + "mlp.b2", (d,), "zeros")]


class Layer(NamedTuple):
    """One row of a variant's layer table; see :func:`variant_layers`."""

    name: str
    kind: str
    cin: int
    cout: int
    k: int = 1
    stride: int = 1


def variant_layers(cfg: ArchConfig) -> tuple[Layer, ...]:
    """The ordered layer table of ``cfg.variant``: its op and parameter draw order.

    Kinds: ``conv`` is a k x k same-padded convolution and a ReLU; ``linear``
    an unpadded convolution alone; ``fuse`` two 1x1 convolutions of its input,
    ``.fused`` (``cin`` channels, passed on) and ``.branch`` (``cout``, kept
    aside); ``join`` concatenates the kept branch, average-pooled 2x when it is
    at double resolution, and applies a 1x1 convolution; ``encoder`` runs the
    ``encoder_layers`` attention blocks over the grid's tokens.
    """
    cin, br, d = cfg.input_channels, cfg.branch_width, cfg.token_dim
    w1, w2, w3 = cfg.stage1_widths
    patch, encoder = Layer("patch.proj", "linear", cin, d, 4, 4), Layer("encoder", "encoder", d, d)
    if cfg.variant == "vit_only":
        return patch, encoder, Layer("head", "linear", d, 1)
    if cfg.variant == "vit_cnn":  # attention first, convolutions second
        return (
            patch,
            encoder,
            Layer("fuse1", "fuse", d, br),
            Layer("stage2.conv1", "conv", d, w1, 3),
            Layer("stage2.conv2", "conv", w1, w3, 3),
            Layer("fuse2.proj", "join", w3 + br, w3),
            Layer("head", "linear", w3, 1),
        )
    post = (Layer("post.conv1", "conv", d, d, 3), Layer("post.conv2", "conv", d, d, 3))
    return (
        Layer("stage1.conv1", "conv", cin, w1, 3),
        Layer("stage1.conv2", "conv", w1, w2, 3, 2),
        Layer("fuse1", "fuse", w2, br),
        Layer("stage1.conv3", "conv", w2, w3, 3, 2),
        Layer("fuse2.proj", "join", w3 + br, d),
        *((encoder,) if cfg.variant == "cnn_vit" else post),
        Layer("head", "linear", d, 1),
    )


def param_spec(cfg: ArchConfig) -> list[tuple[str, tuple[int, ...], object]]:
    """Ordered (name, shape, init) table; init is a fan-in or "zeros"/"ones".

    The order is the draw order for seeded initialisation and the storage
    order everywhere else, so it must stay stable.
    """
    spec: list[tuple[str, tuple[int, ...], object]] = []

    def conv(name, cout, cin, k=1):
        spec.append((name + ".w", (cout, cin, k, k), cin * k * k))
        spec.append((name + ".b", (cout,), "zeros"))

    for layer in variant_layers(cfg):
        if layer.kind == "encoder":
            _encoder_specs(cfg, spec)
        elif layer.kind == "fuse":
            conv(layer.name + ".fused", layer.cin, layer.cin)
            conv(layer.name + ".branch", layer.cout, layer.cin)
        else:
            conv(layer.name, layer.cout, layer.cin, layer.k)
    return spec


class ParamStore:
    """Named parameter tensors plus the architecture and seed that made them."""

    def __init__(self, arch: ArchConfig, seed: int, tensors: dict[str, Tensor]):
        self.arch = arch
        self.seed = seed
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None


def init_network(cfg: ArchConfig, seed: int) -> ParamStore:
    """Fan-in-scaled uniform weights from one seeded generator; biases zero.

    Weights are drawn in ``param_spec`` order from U(-1/sqrt(fan_in),
    +1/sqrt(fan_in)); norm scales start at one, every bias/offset at zero.
    Same (cfg, seed) always reproduces the same bytes.
    """
    # a saved model stores the seed as two 24-bit halves, each exact in float32
    if int(seed) != seed or not 0 <= seed < 2**48:
        raise PipelineError("bad-seed", f"seed must be an integer in [0, 2**48), got {seed!r}")
    rng = np.random.default_rng(np.random.SeedSequence([17, int(seed)]))
    tensors: dict[str, Tensor] = {}
    for name, shape, init in param_spec(cfg):
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            bound = 1.0 / math.sqrt(float(init))
            data = rng.uniform(-bound, bound, size=shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ParamStore(cfg, int(seed), tensors)


def _attention_block(
    tokens: Tensor, p: ParamStore, prefix: str, cfg: ArchConfig, relu_trace: list | None = None
) -> Tensor:
    n, d = tokens.data.shape
    heads = cfg.heads
    dh = d // heads

    h = ad.layer_norm(tokens)
    h = ad.add(ad.mul(h, p[prefix + "ln1.scale"]), p[prefix + "ln1.offset"])

    def split(t):
        return ad.transpose(ad.reshape(t, (n, heads, dh)), (1, 0, 2))  # (heads, n, dh)

    q = split(ad.add(ad.matmul(h, p[prefix + "attn.wq"]), p[prefix + "attn.bq"]))
    k = split(ad.add(ad.matmul(h, p[prefix + "attn.wk"]), p[prefix + "attn.bk"]))
    v = split(ad.add(ad.matmul(h, p[prefix + "attn.wv"]), p[prefix + "attn.bv"]))

    ctx = ad.attention(q, k, v, 1.0 / math.sqrt(dh))  # (heads, n, dh)
    ctx = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (n, d))
    tokens = ad.add(tokens, ad.add(ad.matmul(ctx, p[prefix + "attn.wo"]), p[prefix + "attn.bo"]))

    h2 = ad.layer_norm(tokens)
    h2 = ad.add(ad.mul(h2, p[prefix + "ln2.scale"]), p[prefix + "ln2.offset"])
    pre = ad.add(ad.matmul(h2, p[prefix + "mlp.w1"]), p[prefix + "mlp.b1"])
    if relu_trace is not None:
        relu_trace.append(pre)
    h2 = ad.relu(pre)
    h2 = ad.add(ad.matmul(h2, p[prefix + "mlp.w2"]), p[prefix + "mlp.b2"])
    return ad.add(tokens, h2)


def _run_encoder(grid: Tensor, p: ParamStore, cfg: ArchConfig, relu_trace: list | None = None) -> Tensor:
    c, h, w = grid.data.shape
    tokens = ad.reshape(ad.transpose(grid, (1, 2, 0)), (h * w, c))
    for i in range(cfg.encoder_layers):
        tokens = _attention_block(tokens, p, f"encoder.{i}.", cfg, relu_trace)
    return ad.transpose(ad.reshape(tokens, (h, w, c)), (2, 0, 1))


def _forward_graph(
    p: ParamStore, x: Tensor, pad_mode: str, relu_trace: list | None = None
) -> tuple[Tensor, Tensor]:
    """Full tape: returns (pre-upsample logit grid, per-pixel probabilities).

    When ``relu_trace`` is a list, every pre-activation tensor that feeds a ReLU
    is appended to it; the finite-difference check uses this to reject points
    where a kink sits inside the probe interval.
    """
    cfg = p.arch
    c, h, w = x.data.shape
    if c != cfg.input_channels:
        raise PipelineError("shape-mismatch", f"{c} input channels, expected {cfg.input_channels}")
    if h % 4 or w % 4:
        raise PipelineError("bad-resolution", f"spatial dims must be multiples of 4, got {h}x{w}")

    # center the unit-interval features; equivalent to a conv1 bias shift but
    # keeps the ReLU units alive under the zero-bias fan-in init
    x = ad.add(x, Tensor(np.full((1, 1, 1), -0.5)))

    def conv(name, t, stride=1, pad=0):
        return ad.conv2d(t, p[name + ".w"], p[name + ".b"], stride=stride, pad=pad, pad_mode=pad_mode)

    t, branch = x, None
    for layer in variant_layers(cfg):
        if layer.kind == "encoder":
            t = _run_encoder(t, p, cfg, relu_trace)
        elif layer.kind == "fuse":
            t, branch = conv(layer.name + ".fused", t), conv(layer.name + ".branch", t)
        elif layer.kind == "join":
            if branch.data.shape[1:] != t.data.shape[1:]:
                branch = ad.avg_pool2(branch)
            t = conv(layer.name, ad.concat([t, branch], axis=0))
        elif layer.kind == "conv":
            t = conv(layer.name, t, layer.stride, layer.k // 2)
            if relu_trace is not None:
                relu_trace.append(t)
            t = ad.relu(t)
        else:
            t = conv(layer.name, t, layer.stride)

    # t is now the head's (1, H/4, W/4) logit grid
    return t, ad.sigmoid(ad.reshape(ad.upsample_nearest(t, 4), (h, w)))


def _stack_data(x) -> np.ndarray:
    if isinstance(x, FeatureStack):
        return x.data
    return np.asarray(x, dtype=np.float64)


def forward_graph(params: ParamStore, x, pad_mode: str = "zero") -> tuple[Tensor, Tensor]:
    """Differentiable forward pass: (pre-upsample logit grid, probabilities).

    The logit grid is the stride-4 token map before upsampling, which is the
    right granularity for translation-consistency checks; probabilities are
    the full-resolution sigmoid output used by the loss.
    """
    return _forward_graph(params, x if isinstance(x, Tensor) else Tensor(_stack_data(x)), pad_mode)


def forward(params: ParamStore, x, pad_mode: str = "zero") -> np.ndarray:
    """Predicted tamper probabilities, shape (H, W), each strictly in (0, 1).

    Runs without a tape: nothing is kept for a backward pass.
    """
    with ad.no_grad():
        _, probs = _forward_graph(params, Tensor(_stack_data(x)), pad_mode)
    return probs.data


def bce_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """The value of :func:`bce_loss_graph`, computed without a tape."""
    with ad.no_grad():
        return float(bce_loss_graph(Tensor(pred), np.asarray(target, dtype=np.float64)).data)


def bce_loss_graph(probs: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with probabilities clamped to [1e-7, 1 - 1e-7]."""
    if probs.data.shape != target.shape:
        raise PipelineError("shape-mismatch", f"pred {probs.data.shape} vs target {target.shape}")
    t = np.asarray(target, dtype=np.float64)
    p = ad.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    left = ad.mul(ad.log(p), t)
    right = ad.mul(ad.log(ad.add(ad.mul(p, -1.0), 1.0)), 1.0 - t)
    return ad.mul(ad.mean_all(ad.add(left, right)), -1.0)


def check_views(views: "Iterable[str] | None") -> tuple[str, ...]:
    """Normalise a feature-switch selection to the canonical ordered tuple."""
    if views is None:
        return FEATURE_VIEWS
    chosen = tuple(views)
    for v in chosen:
        if v not in FEATURE_VIEWS:
            raise PipelineError("bad-feature-view", f"unknown view {v!r}, expected subset of {FEATURE_VIEWS}")
    return tuple(v for v in FEATURE_VIEWS if v in chosen)


def build_feature_stack(f: Frame, views: "Iterable[str] | None" = None) -> FeatureStack:
    """Fixed 52-channel layout: RGB plus the four views in canonical order.

    Disabled views keep their channel slots, zero-filled, so one trained
    network accepts any switch combination.
    """
    chosen = check_views(views)
    parts = [f.data]
    for view in FEATURE_VIEWS:
        extractor, labels = _VIEW_EXTRACTORS[view]
        parts.append(extractor(f).data if view in chosen else np.zeros((len(labels), f.height, f.width)))
    return FeatureStack(np.concatenate(parts), STACK_LABELS)


def predict(params: ParamStore, f: Frame, views: "Iterable[str] | None" = None) -> np.ndarray:
    """Extract the selected views from a frame and run the network."""
    if params.arch.input_channels != INPUT_CHANNELS:
        raise PipelineError("bad-arch", "predict needs the full multi-view input layout")
    return forward(params, build_feature_stack(f, views))


GRADCHECK_STEP = 1e-5
GRADCHECK_TOL = 1e-4
GRADCHECK_ATOL = 1e-7


def finite_difference_check(seed: int = 0, arch: "ArchConfig | None" = None) -> tuple[bool, dict[str, float]]:
    """Compare tape gradients of every parameter tensor with central differences.

    Runs the micro architecture on a random 8x8 input. Returns (all_ok,
    max relative error per parameter tensor). An entry counts as matched when
    the absolute disagreement stays below ``GRADCHECK_ATOL``: central
    differences of a ~0.5 loss at this step carry ~1e-11 of cancellation
    noise, so disagreement below the floor says nothing about the tape.
    Everything above the floor must agree to relative error ``GRADCHECK_TOL``.

    Two artifacts make the raw quotient at step h = ``GRADCHECK_STEP``
    unreliable on a sliver of entries, and both shrink with the step, so
    entries that miss at h are re-probed at h/4 and h/16 before counting as
    mismatched:

    * truncation: the centered quotient carries an O(h^2) curvature term,
      and the normalization layers produce enough curvature for it to exceed
      the tolerance on otherwise perfectly matching entries;
    * kinks: a probe can push a near-zero ReLU pre-activation across zero,
      blending two one-sided slopes. Input and parameters are redrawn
      deterministically until every pre-activation clears h/2, which bounds
      how small a step is needed to probe without crossing.

    A genuinely wrong tape gradient survives refinement, because the quotient
    converges to the true derivative while the analytic value stays wrong.
    """
    cfg = arch or micro_arch()
    guard = 0.5 * GRADCHECK_STEP
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence([23, int(seed), attempt]))
        x = rng.uniform(0.0, 1.0, size=(cfg.input_channels, 8, 8))
        target = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
        params = init_network(cfg, int(seed) + 1000 * attempt)
        trace: list[Tensor] = []
        _, probs = _forward_graph(params, Tensor(x), "zero", trace)
        if min(float(np.abs(t.data).min()) for t in trace) >= guard:
            break
    else:
        raise PipelineError("gradcheck-degenerate", "no kink-free probe point in 64 draws")

    loss = bce_loss_graph(probs, target)
    ad.backward(loss)
    analytic = {name: t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for name, t in params.tensors.items()}

    def loss_value() -> float:
        return bce_loss(forward(params, x), target)

    report: dict[str, float] = {}
    ok = True
    for name, t in params.tensors.items():
        flat = t.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            a = analytic[name].reshape(-1)[i]
            keep = flat[i]
            for step in (GRADCHECK_STEP, GRADCHECK_STEP / 4.0, GRADCHECK_STEP / 16.0):
                flat[i] = keep + step
                up = loss_value()
                flat[i] = keep - step
                down = loss_value()
                flat[i] = keep
                numeric = (up - down) / (2.0 * step)
                if abs(a - numeric) <= GRADCHECK_ATOL:
                    rel = 0.0
                    break
                rel = abs(a - numeric) / max(abs(a), abs(numeric))
                if rel < GRADCHECK_TOL:
                    break
            worst = max(worst, rel)
        report[name] = worst
        if worst >= GRADCHECK_TOL:
            ok = False
    return ok, report
