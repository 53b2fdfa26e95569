"""A small multi-scale 3D feature extractor with a pluggable fusion layer.

Structure: a grey-scale (1, D, H, W) volume runs through conv stages
(each block = fusion operator + bias + ReLU, kernel extent 3), with 2x2
mean pooling between stages.  Every stage's output is channel-unified
by a 1x1x1 convolution, upsampled back to full resolution (nearest
neighbor), and the unified maps are summed.  A final Dx1x1 valid
convolution collapses the depth axis, leaving a rank-3 (Cfeat, H, W)
feature map.

Forward and backward are exact hand-written adjoint compositions; 2D
kernels are drawn He-style (uniform with half width sqrt(6/fan_in)) from
per-layer forked substreams of the config seed, so the same seed yields
the same 2D kernels no matter which fusion operator is plugged in.
Biases start at zero.  Unification and collapse kernels carry no bias.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ctf
from .costmodel import HeadLayer, LayerDims
from .operators import (
    OperatorGrads,
    OperatorKind,
    OperatorState,
    backward as op_backward,
    forward as op_forward,
    inflate,
    load_operator,
    parameter_count,
    save_operator,
    sgd_step,
)
from .rng import SeededRng
from .tensor import ShapeError, as_volume

KERNEL_SIZE = 3


@dataclass(frozen=True)
class BackboneConfig:
    """Architecture and initialization description.

    stages lists (channels, blocks) pairs; channel widths must be
    nondecreasing.  height/width must be divisible by 2**(stages-1) so
    the between-stage pooling stays exact.  a3d_perturb is the half
    width of the a3d mixing perturbation at init (0 disables it, giving
    a backbone that computes exactly what the no-fusion one does).
    """

    depth: int = 7
    stages: tuple[tuple[int, int], ...] = ((64, 1), (256, 1), (512, 1))
    fusion: OperatorKind = OperatorKind.NOFUSION
    seed: int = 0
    height: int = 32
    width: int = 32
    a3d_perturb: float = 0.1
    tsm_div: int = 8

    def __post_init__(self):
        if not isinstance(self.fusion, OperatorKind):
            raise TypeError(f"fusion must be an OperatorKind, got {self.fusion!r}")
        stages = tuple((int(c), int(b)) for c, b in self.stages)
        object.__setattr__(self, "stages", stages)
        if len(stages) < 1:
            raise ValueError("at least one stage is required")
        for c, b in stages:
            if c < 1 or b < 1:
                raise ValueError(f"stage channels and blocks must be >= 1, got {(c, b)}")
        widths = [c for c, _ in stages]
        if any(a > b for a, b in zip(widths, widths[1:])):
            raise ValueError(f"stage channels must be nondecreasing, got {widths}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        f = self.pool_factor
        if self.height < 1 or self.width < 1 or self.height % f or self.width % f:
            raise ValueError(f"height/width must be positive multiples of {f}, "
                             f"got {self.height}x{self.width}")
        if not np.isfinite(self.a3d_perturb) or self.a3d_perturb < 0:
            raise ValueError(f"a3d_perturb must be finite and >= 0, got {self.a3d_perturb}")
        if self.tsm_div < 1:
            raise ValueError(f"tsm_div must be >= 1, got {self.tsm_div}")

    @property
    def pool_factor(self) -> int:
        return 2 ** (len(self.stages) - 1)

    @property
    def feature_channels(self) -> int:
        return self.stages[-1][0]


@dataclass
class Backbone:
    """Weights: per-block (operator state, bias), per-stage unification
    kernel, and the depth-collapse kernel.  Treated as immutable during
    forward/backward; apply_sgd builds an updated copy."""

    config: BackboneConfig
    fusion_layers: list[tuple[OperatorState, np.ndarray]]
    unify_kernels: list[np.ndarray]
    collapse: np.ndarray


@dataclass
class BackboneGrads:
    """Gradient arrays in the same layout as Backbone's weights."""

    fusion_layers: list[tuple[OperatorGrads, np.ndarray]]
    unify_kernels: list[np.ndarray]
    collapse: np.ndarray


def layer_dims(config: BackboneConfig) -> list[LayerDims]:
    """Dimensions of every fusion layer, for the cost model."""
    dims = []
    c_prev = 1
    h, w = config.height, config.width
    for s, (channels, blocks) in enumerate(config.stages):
        hs, ws = h // 2 ** s, w // 2 ** s
        for _ in range(blocks):
            dims.append(LayerDims(c_in=c_prev, c_out=channels, k=KERNEL_SIZE,
                                  d=config.depth, h=hs, w=ws))
            c_prev = channels
    return dims


def head_layers(config: BackboneConfig) -> list[HeadLayer]:
    """Dimensions of the head, for the cost model: each stage's 1x1x1
    unification at the stage's own resolution, then the Dx1x1 collapse."""
    cf, d, hw = config.feature_channels, config.depth, config.height * config.width
    head = [HeadLayer(f"unify{s}", c, cf, 1, d * hw // 4 ** s)
            for s, (c, _) in enumerate(config.stages)]
    return head + [HeadLayer("collapse", cf, cf, d, hw)]


def _he_uniform(rng: SeededRng, shape, fan_in: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, shape)


def build(config: BackboneConfig) -> Backbone:
    """Deterministically initialize all weights from the config seed."""
    root = SeededRng(config.seed)
    k = KERNEL_SIZE
    fusion_layers = []
    c_prev = 1
    for s, (channels, blocks) in enumerate(config.stages):
        for b in range(blocks):
            w2d = _he_uniform(root.fork(1, s, b), (channels, c_prev, k, k),
                              fan_in=c_prev * k * k)
            state = inflate(config.fusion, w2d, config.depth, rng=root.fork(2, s, b),
                            perturb_scale=config.a3d_perturb, tsm_div=config.tsm_div)
            fusion_layers.append((state, np.zeros(channels)))
            c_prev = channels
    cf = config.feature_channels
    unify = [_he_uniform(root.fork(3, s), (cf, c, 1, 1, 1), fan_in=c)
             for s, (c, _) in enumerate(config.stages)]
    collapse = _he_uniform(root.fork(4), (cf, cf, config.depth, 1, 1),
                           fan_in=cf * config.depth)
    return Backbone(config, fusion_layers, unify, collapse)


def _blocks(x: np.ndarray, f: int) -> np.ndarray:
    """(C, D, H, W) viewed as (C, D, H/f, f, W/f, f) blocks of f x f pixels."""
    c, d, h, w = x.shape
    return x.reshape(c, d, h // f, f, w // f, f)


def _upsample_adjoint(g: np.ndarray, f: int) -> np.ndarray:
    """Sum of every f x f block: the adjoint of nearest-neighbour
    upsampling by f, and 4x the 2x2 mean pool for f = 2.  Adds the f
    columns, then the f rows: for f <= 4 and W/f >= 2 (every demo and
    default shape) the bits of _blocks(g, f).sum(axis=(3, 5))."""
    cols = sum((g[..., j::f] for j in range(1, f)), g[..., 0::f])
    return sum((cols[:, :, i::f] for i in range(1, f)), cols[:, :, 0::f])


def _head_conv(x: np.ndarray, kernel: np.ndarray, lead: int) -> np.ndarray:
    """Bias-free convolution whose kernel is 1x1 in-plane and spans the
    first `lead` axes of x whole: the 1x1x1 unification (lead 1) or the
    Dx1x1 valid depth collapse (lead 2), as one matrix product."""
    km = kernel.reshape(kernel.shape[0], -1)
    return (km @ x.reshape(km.shape[1], -1)).reshape(kernel.shape[:1] + x.shape[lead:])


def _head_conv_adjoint(x, kernel, g):
    km = kernel.reshape(kernel.shape[0], -1)
    gm = g.reshape(km.shape[0], -1)
    return (km.T @ gm).reshape(x.shape), (gm @ x.reshape(km.shape[1], -1).T).reshape(kernel.shape)


def _check_input(config: BackboneConfig, x: np.ndarray) -> None:
    want = (1, config.depth, config.height, config.width)
    if x.shape != want:
        raise ShapeError(f"backbone expects input shape {want}, got {x.shape}")


def _forward_trace(bb: Backbone, x: np.ndarray):
    """Run the network, keeping every intermediate the adjoints need:
    per fusion layer its input, pre-activation and operator inner tensor,
    then each stage's output and the unified full-resolution sum."""
    config = bb.config
    layers = []
    stage_outputs = []
    cur = x
    li = 0
    for s, (_, blocks) in enumerate(config.stages):
        if s > 0:
            cur = _upsample_adjoint(cur, 2) / 4.0  # 2x2 mean pooling
        for _ in range(blocks):
            state, bias = bb.fusion_layers[li]
            y, inner = op_forward(state, cur, return_inner=True)
            z = y + bias[:, None, None, None]
            layers.append((cur, z, inner))
            cur = np.maximum(z, 0.0)
            li += 1
        stage_outputs.append(cur)
    # A 1x1x1 convolution commutes with nearest-neighbour upsampling, so
    # each stage is unified at its own resolution, then added to every
    # pixel of its block in the full-resolution sum.
    summed = _head_conv(stage_outputs[0], bb.unify_kernels[0], 1)
    for s in range(1, len(stage_outputs)):
        term = _head_conv(stage_outputs[s], bb.unify_kernels[s], 1)
        _blocks(summed, 2 ** s)[...] += term[:, :, :, None, :, None]
    feat = _head_conv(summed, bb.collapse, 2)
    return feat, (layers, stage_outputs, summed)


@dataclass
class Tape:
    """What one forward_features call computed, for backward_features on
    the same backbone and input to read instead of running the forward
    again.  forward_features(bb, x, Tape()) fills it."""

    backbone: Backbone | None = None
    x: np.ndarray | None = None
    trace: tuple | None = None


def forward_features(bb: Backbone, x, tape: Tape | None = None) -> np.ndarray:
    """Map a (1, D, H, W) volume to the rank-3 (Cfeat, H, W) feature map,
    recording the intermediates on tape when one is given."""
    x = as_volume(x)
    _check_input(bb.config, x)
    feat, trace = _forward_trace(bb, x)
    if tape is not None:
        tape.backbone, tape.x, tape.trace = bb, x.copy(), trace
    return feat


def backward_features(bb: Backbone, x, grad_map, tape: Tape | None = None) -> BackboneGrads:
    """Exact adjoints for every weight given the feature-map gradient.

    Reads the forward's intermediates from the tape forward_features(bb,
    x, tape) filled, or reruns the forward without one.  A tape filled
    for another backbone or input raises ValueError.
    """
    x = as_volume(x)
    _check_input(bb.config, x)
    grad_map = np.ascontiguousarray(grad_map, dtype=np.float64)
    config = bb.config
    cf = config.feature_channels
    if grad_map.shape != (cf, config.height, config.width):
        raise ShapeError(f"grad_map must be {(cf, config.height, config.width)}, "
                         f"got {grad_map.shape}")
    if tape is None:
        _, trace = _forward_trace(bb, x)
    elif tape.backbone is bb and np.array_equal(tape.x, x, equal_nan=True):
        trace = tape.trace
    else:
        raise ValueError("tape holds no forward of this backbone on this input")
    layers, stage_outputs, summed = trace

    grad_summed, grad_collapse = _head_conv_adjoint(summed, bb.collapse, grad_map)
    grad_stage, grad_unify = zip(*(
        _head_conv_adjoint(out, bb.unify_kernels[s], _upsample_adjoint(grad_summed, 2 ** s))
        for s, out in enumerate(stage_outputs)))

    grad_fusion: list[tuple[OperatorGrads, np.ndarray]] = [None] * len(bb.fusion_layers)
    li = len(bb.fusion_layers)
    carry = None
    for s in range(len(config.stages) - 1, -1, -1):
        carry = grad_stage[s] if carry is None else carry + grad_stage[s]
        for _ in range(config.stages[s][1]):
            li -= 1
            state, _ = bb.fusion_layers[li]
            layer_in, pre, inner = layers[li]
            grad_z = carry * (pre > 0)
            grad_in, opg = op_backward(state, layer_in, grad_z, inner)
            grad_fusion[li] = (opg, grad_z.sum(axis=(1, 2, 3)))
            carry = grad_in
        if s > 0:
            carry = np.repeat(np.repeat(carry, 2, axis=2), 2, axis=3) / 4.0
    return BackboneGrads(grad_fusion, list(grad_unify), grad_collapse)


def apply_sgd(bb: Backbone, grads: BackboneGrads, lr: float) -> Backbone:
    """New backbone with every weight stepped by -lr * grad."""
    fusion = [(sgd_step(state, g, lr), bias - lr * gb)
              for (state, bias), (g, gb) in zip(bb.fusion_layers, grads.fusion_layers)]
    unify = [k - lr * g for k, g in zip(bb.unify_kernels, grads.unify_kernels)]
    return Backbone(bb.config, fusion, unify, bb.collapse - lr * grads.collapse)


def total_parameters(bb: Backbone) -> int:
    total = sum(parameter_count(st) + bias.size for st, bias in bb.fusion_layers)
    total += sum(k.size for k in bb.unify_kernels)
    return int(total + bb.collapse.size)


_MANIFEST_NAME = "backbone.txt"


def _stages_str(stages) -> str:
    return ",".join(f"{c}x{b}" for c, b in stages)


def parse_stages(text: str) -> tuple[tuple[int, int], ...]:
    """Parse '64x1,256x1' into ((64, 1), (256, 1))."""
    out = []
    for piece in text.split(","):
        c, _, b = piece.strip().partition("x")
        out.append((int(c), int(b) if b else 1))
    return tuple(out)


def save_checkpoint(bb: Backbone, dirpath) -> None:
    """Write the config manifest and every weight tensor under a directory."""
    path = Path(dirpath)
    path.mkdir(parents=True, exist_ok=True)
    c = bb.config
    ctf.write_manifest(path / _MANIFEST_NAME, {
        "depth": c.depth,
        "stages": _stages_str(c.stages),
        "fusion": c.fusion.value,
        "seed": c.seed,
        "height": c.height,
        "width": c.width,
        "a3d_perturb": repr(c.a3d_perturb),
        "tsm_div": c.tsm_div,
    })
    for i, (state, bias) in enumerate(bb.fusion_layers):
        save_operator(state, path / f"layer{i}")
        ctf.write_tensor(path / f"layer{i}_bias.ctf", bias)
    for s, k in enumerate(bb.unify_kernels):
        ctf.write_tensor(path / f"unify{s}.ctf", k)
    ctf.write_tensor(path / "collapse.ctf", bb.collapse)


def load_checkpoint(dirpath) -> Backbone:
    """Read back a directory written by save_checkpoint.

    Every layer's operator must be of the manifest's fusion kind and map
    the channels its stages imply; a disagreement raises ContainerError
    naming the manifest and key.
    """
    path = Path(dirpath)
    m = ctf.read_manifest(path / _MANIFEST_NAME)
    config = BackboneConfig(
        depth=int(m["depth"]),
        stages=parse_stages(m["stages"]),
        fusion=OperatorKind.from_name(m["fusion"]),
        seed=int(m["seed"]),
        height=int(m["height"]),
        width=int(m["width"]),
        a3d_perturb=float(m["a3d_perturb"]),
        tsm_div=int(m["tsm_div"]),
    )
    fusion_layers = []
    for i, dims in enumerate(layer_dims(config)):
        state = load_operator(path / f"layer{i}")
        if state.kind is not config.fusion:
            raise ctf.ContainerError(f"{m.path}: fusion={m['fusion']}, but layer{i} holds "
                                     f"a {state.kind.value} operator")
        if (state.c_in, state.c_out) != (dims.c_in, dims.c_out):
            raise ctf.ContainerError(
                f"{m.path}: stages={m['stages']} gives layer{i} {dims.c_in} -> {dims.c_out} "
                f"channels, but it holds {state.c_in} -> {state.c_out}")
        bias = ctf.read_tensor(path / f"layer{i}_bias.ctf")
        fusion_layers.append((state, bias))
    unify = [ctf.read_tensor(path / f"unify{s}.ctf") for s in range(len(config.stages))]
    collapse = ctf.read_tensor(path / "collapse.ctf")
    return Backbone(config, fusion_layers, unify, collapse)
