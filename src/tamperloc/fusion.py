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
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import RGB_LABELS, FeatureStack, Frame, check_int, check_seed
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
_SLOTS = {  # each view's channels of the stack
    view: slice(STACK_LABELS.index(labels[0]), STACK_LABELS.index(labels[-1]) + 1)
    for view, (_, labels) in _VIEW_EXTRACTORS.items()
}

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
        if not isinstance(self.stage1_widths, (tuple, list)) or len(self.stage1_widths) != 3:
            raise PipelineError("bad-arch", f"stage1_widths must be three widths, got {self.stage1_widths!r}")
        sizes = [check_int(v, "bad-arch", "every width and count") for v in self.row()[1:]]
        for f, value in zip(fields(self)[1:], _by_field(sizes)):
            object.__setattr__(self, f.name, value)
        if self.token_dim % self.heads:
            raise PipelineError("bad-arch", f"token_dim {self.token_dim} not divisible by heads {self.heads}")

    def row(self) -> tuple:
        """The variant's index in ``VARIANTS``, then every width and count in
        field order: the ``meta.arch`` row of a saved model."""
        return (VARIANTS.index(self.variant), self.input_channels, *self.stage1_widths,
                self.branch_width, self.token_dim, self.heads, self.encoder_layers, self.mlp_ratio)

    @classmethod
    def from_row(cls, row) -> "ArchConfig":
        """The configuration whose :meth:`row` is ``row``; ``bad-arch`` if there is none."""
        if len(row) != len(cls().row()):
            raise PipelineError("bad-arch", f"an arch row holds {len(cls().row())} values, got {len(row)}")
        index = check_int(row[0], "bad-arch", "the variant index", 0, len(VARIANTS))
        return cls(VARIANTS[index], *_by_field(row[1:]))


def _by_field(sizes) -> tuple:
    """A row's widths and counts grouped as ``ArchConfig``'s fields after ``variant``."""
    return (sizes[0], tuple(sizes[1:4]), *sizes[4:])


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

    def view(self) -> "ParamStore":
        """Fresh grad-requiring tensors over the same parameter arrays, so a
        tape built on them accumulates into gradients of its own."""
        tensors = {name: Tensor(t.data, requires_grad=True) for name, t in self.tensors.items()}
        return ParamStore(self.arch, self.seed, tensors)


def init_network(cfg: ArchConfig, seed: int) -> ParamStore:
    """Fan-in-scaled uniform weights from one seeded generator; biases zero.

    Weights are drawn in ``param_spec`` order from U(-1/sqrt(fan_in),
    +1/sqrt(fan_in)); norm scales start at one, every bias/offset at zero.
    Same (cfg, seed) always reproduces the same bytes.
    """
    # a saved model stores the seed as two 24-bit halves, each exact in float32
    seed = check_seed(seed, 2**48)
    rng = np.random.default_rng(np.random.SeedSequence([17, seed]))
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
    return ParamStore(cfg, seed, tensors)


def _attention_block(
    tokens: Tensor, p: ParamStore, prefix: str, cfg: ArchConfig, relu_trace: list | None = None
) -> Tensor:
    n, d = tokens.data.shape
    heads = cfg.heads
    dh = d // heads

    def linear(t, w, b):
        return ad.matmul(t, p[prefix + w], p[prefix + b])

    def split(t):
        return ad.transpose(ad.reshape(t, (n, heads, dh)), (1, 0, 2))  # (heads, n, dh)

    h = ad.layer_norm(tokens, p[prefix + "ln1.scale"], p[prefix + "ln1.offset"])
    q, k, v = (split(linear(h, f"attn.w{x}", f"attn.b{x}")) for x in "qkv")
    ctx = ad.attention(q, k, v, 1.0 / math.sqrt(dh))  # (heads, n, dh)
    ctx = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (n, d))
    tokens = ad.add(tokens, linear(ctx, "attn.wo", "attn.bo"))

    h2 = ad.layer_norm(tokens, p[prefix + "ln2.scale"], p[prefix + "ln2.offset"])
    pre = linear(h2, "mlp.w1", "mlp.b1")
    if relu_trace is not None:
        relu_trace.append(pre)
    h2 = ad.relu(pre, overwrite=relu_trace is None)  # pre is this matmul's own output
    return ad.add(tokens, linear(h2, "mlp.w2", "mlp.b2"))


def _run_encoder(grid: Tensor, p: ParamStore, cfg: ArchConfig, relu_trace: list | None = None) -> Tensor:
    c, h, w = grid.data.shape
    tokens = ad.reshape(ad.transpose(grid, (1, 2, 0)), (h * w, c))
    for i in range(cfg.encoder_layers):
        tokens = _attention_block(tokens, p, f"encoder.{i}.", cfg, relu_trace)
    return ad.transpose(ad.reshape(tokens, (h, w, c)), (2, 0, 1))


def centre(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The network's input, ``stack - 0.5``, written into ``out`` when given
    (the stack itself, to centre a stack the caller alone holds in place).

    Centring the unit-interval features is equivalent to a conv1 bias shift
    but keeps the ReLU units alive under the zero-bias fan-in init.
    """
    return np.subtract(stack, 0.5, out=out)


def _forward_graph(p: ParamStore, x, pad_mode: str, relu_trace: list | None = None) -> tuple[Tensor, Tensor]:
    """Full tape: (pre-upsample logit grid, (H, W) probabilities) of a
    :func:`centre`-d stack ``x``.

    ``x`` may come in a one-item list, which is emptied: the stack is then
    freed once conv1 has read it, where an argument would stay alive until
    the call returns. Sides that are not multiples of 4 are reflect-padded
    on the bottom and right, and the probabilities cropped back.
    Pre-activations feeding a ReLU are appended to ``relu_trace`` when it is
    a list, so the finite-difference check can reject points where a kink
    sits inside the probe interval; without a trace, each ReLU writes over
    the output of the conv or matmul before it.
    """
    cfg = p.arch
    if isinstance(x, list):
        x = x.pop()
    if x.ndim != 3 or x.shape[0] != cfg.input_channels:
        raise PipelineError("shape-mismatch", f"stack of shape {x.shape}, expected ({cfg.input_channels}, H, W)")
    h, w = x.shape[1:]
    if h % 4 or w % 4:  # reflect padding commutes with the centring
        x = np.pad(x, ((0, 0), (0, -h % 4), (0, -w % 4)), mode="reflect")

    def conv(name, t, stride=1, pad=0):
        return ad.conv2d(t, p[name + ".w"], p[name + ".b"], stride=stride, pad=pad, pad_mode=pad_mode)

    t, branch = Tensor(x), None
    del x
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
            t = ad.relu(t, overwrite=relu_trace is None)  # t is this conv's own output
        else:
            t = conv(layer.name, t, layer.stride)

    # t is now the head's (1, ceil(H/4), ceil(W/4)) logit grid
    return t, ad.sigmoid(ad.reshape(ad.upsample_nearest(t, 4, (h, w)), (h, w)))


def _stack_data(x) -> np.ndarray:
    if isinstance(x, FeatureStack):
        return x.data
    return np.asarray(x, dtype=np.float64)


def forward_graph(params: ParamStore, x, pad_mode: str = "zero") -> tuple[Tensor, Tensor]:
    """Differentiable forward pass: (pre-upsample logit grid, probabilities).

    The logit grid is the stride-4 token map before upsampling, which is the
    right granularity for translation-consistency checks; probabilities are
    the (H, W) sigmoid output used by the loss. Any H and W are taken. The
    stack is centred into a new array, which the tape keeps.
    """
    return _forward_graph(params, [centre(_stack_data(x))], pad_mode)


def forward(params: ParamStore, x) -> np.ndarray:
    """Predicted tamper probabilities, shape (H, W), each strictly in (0, 1).

    Runs without a tape: nothing is kept for a backward pass, and the
    centred copy of the stack is freed once conv1 has read it. Runs under
    the thread policy, so the bytes do not depend on the BLAS threads the
    caller's environment asks for, and the convolutions' forward bands and
    the attention heads share the cores.
    """
    with ad.thread_policy(), ad.no_grad():
        _, probs = _forward_graph(params, [centre(_stack_data(x))], "zero")
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
    network accepts any switch combination. The stack is allocated once and
    the chosen views write into their slots as ``autodiff.share`` jobs under
    the thread policy, the two long ones first, so beyond the stack each worker
    holds one view's temporaries; inside a shared job (a sample, a frame) they run inline.
    """
    chosen = check_views(views)
    stack = np.empty((INPUT_CHANNELS, f.height, f.width))
    stack[: len(RGB_LABELS)] = f.data
    for view in set(FEATURE_VIEWS) - set(chosen):
        stack[_SLOTS[view]] = 0.0
    with ad.thread_policy():
        jobs = [v for v in ("texture", "frequency", "edge", "pixel") if v in chosen]  # long ones first
        ad.share(lambda view: _VIEW_EXTRACTORS[view][0](f, out=stack[_SLOTS[view]]), jobs)
    return FeatureStack(stack, STACK_LABELS)


def predict(params: ParamStore, f: Frame, views: "Iterable[str] | None" = None) -> np.ndarray:
    """Extract the selected views from a frame and run :func:`forward` on them.

    The stack is centred in place and handed to the network, which frees it
    once conv1 has read it. The extraction runs under the thread policy
    too: a BLAS call at the default thread count wakes OpenBLAS's own
    threads, which then spin on the cores the convolution and attention
    workers need.
    """
    if params.arch.input_channels != INPUT_CHANNELS:
        raise PipelineError("bad-arch", "predict needs the full multi-view input layout")
    with ad.thread_policy(), ad.no_grad():
        stack = [build_feature_stack(f, views).data]
        centre(stack[0], out=stack[0])
        _, probs = _forward_graph(params, stack, "zero")
    return probs.data


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
    Runs under the thread policy, like every entry point.
    """
    with ad.thread_policy():
        cfg, seed = arch or micro_arch(), check_seed(seed)
        guard = 0.5 * GRADCHECK_STEP
        for attempt in range(64):
            rng = np.random.default_rng(np.random.SeedSequence([23, seed, attempt]))
            x = rng.uniform(0.0, 1.0, size=(cfg.input_channels, 8, 8))
            target = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
            params = init_network(cfg, seed + 1000 * attempt)
            trace: list[Tensor] = []
            _, probs = _forward_graph(params, centre(x), "zero", trace)
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
