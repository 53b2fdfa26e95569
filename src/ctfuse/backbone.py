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
    OperatorKind,
    OperatorState,
    backward as op_backward,
    forward as op_forward,
    inflate,
    load_operator,
    save_operator,
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


def _dotted(fusion_layers, unify_kernels, collapse) -> dict[str, np.ndarray]:
    named = {}
    for i, (op, bias) in enumerate(fusion_layers):
        named.update((f"layer{i}.{n}", arr) for n, arr in op.weight_arrays().items())
        named[f"layer{i}.bias"] = bias
    named.update((f"unify{s}", k) for s, k in enumerate(unify_kernels))
    named["collapse"] = collapse
    return named


def named_weights(bb: Backbone) -> dict[str, np.ndarray]:
    """Every weight by dotted name, in a fixed order: per fusion layer i
    layer{i}.<operator weight name> (main, aux, mix, axial, coronal,
    sagittal) then layer{i}.bias; then unify{s} per stage; then collapse.
    backward_features returns gradients under the same names."""
    return _dotted(bb.fusion_layers, bb.unify_kernels, bb.collapse)


def with_named(bb: Backbone, named: dict[str, np.ndarray]) -> Backbone:
    """Copy of bb with the weights named in `named` swapped out; a name
    named_weights does not give raises KeyError."""
    new = named_weights(bb)
    if unknown := named.keys() - new.keys():
        raise KeyError(f"no backbone weights named {sorted(unknown)}")
    new.update(named)
    fusion = [(state.with_named({n: new[f"layer{i}.{n}"] for n in state.weight_arrays()}),
               new[f"layer{i}.bias"]) for i, (state, _) in enumerate(bb.fusion_layers)]
    unify = [new[f"unify{s}"] for s in range(len(bb.unify_kernels))]
    return Backbone(bb.config, fusion, unify, new["collapse"])


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


@dataclass
class Tape:
    """What one forward_features call computed: the backbone it ran and
    every intermediate the adjoints need, for backward_features to read.
    forward_features(bb, x, Tape()) fills it; another forward refills it."""

    backbone: Backbone | None = None
    trace: tuple | None = None


def forward_features(bb: Backbone, x, tape: Tape | None = None) -> np.ndarray:
    """Map a (1, D, H, W) volume to the rank-3 (Cfeat, H, W) feature map.

    Given a tape, runs on a private copy of x and records on the tape per
    fusion layer its input, pre-activation and operator inner tensor,
    then each stage's output and the unified full-resolution sum.
    """
    x = as_volume(x)
    config = bb.config
    want = (1, config.depth, config.height, config.width)
    if x.shape != want:
        raise ShapeError(f"backbone expects input shape {want}, got {x.shape}")
    layers = []
    stage_outputs = []
    cur = x if tape is None else x.copy()
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
    if tape is not None:
        tape.backbone, tape.trace = bb, (layers, stage_outputs, summed)
    return _head_conv(summed, bb.collapse, 2)


def backward_features(tape: Tape, grad_map) -> dict[str, np.ndarray]:
    """Exact adjoints for every weight of the backbone the tape's forward
    ran, given the feature-map gradient, keyed and ordered as
    named_weights(tape.backbone).  An unfilled tape raises ValueError."""
    if tape.trace is None:
        raise ValueError("tape holds no forward; fill it with forward_features(bb, x, tape)")
    bb, (layers, stage_outputs, summed) = tape.backbone, tape.trace
    grad_map = np.ascontiguousarray(grad_map, dtype=np.float64)
    config = bb.config
    cf = config.feature_channels
    if grad_map.shape != (cf, config.height, config.width):
        raise ShapeError(f"grad_map must be {(cf, config.height, config.width)}, "
                         f"got {grad_map.shape}")

    grad_summed, grad_collapse = _head_conv_adjoint(summed, bb.collapse, grad_map)
    grad_stage, grad_unify = zip(*(
        _head_conv_adjoint(out, bb.unify_kernels[s], _upsample_adjoint(grad_summed, 2 ** s))
        for s, out in enumerate(stage_outputs)))

    grad_fusion = [None] * len(bb.fusion_layers)
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
    return _dotted(grad_fusion, grad_unify, grad_collapse)


def apply_sgd(bb: Backbone, grads: dict[str, np.ndarray], lr: float) -> Backbone:
    """New backbone with every weight stepped by -lr * grad."""
    return with_named(bb, {n: w - lr * grads[n] for n, w in named_weights(bb).items()})


_MANIFEST_NAME = "backbone.txt"


def _stages_str(stages) -> str:
    return ",".join(f"{c}x{b}" for c, b in stages)


def parse_stages(text: str) -> tuple[tuple[int, int], ...]:
    """Parse '64x1,256x1' into ((64, 1), (256, 1)); a bare 'C' means one
    block.  A piece of another form raises ValueError naming it."""
    out = []
    for piece in text.split(","):
        c, _, b = piece.strip().partition("x")
        try:
            out.append((int(c), int(b) if b else 1))
        except ValueError:
            raise ValueError(f"stage {piece.strip()!r} in {text!r} is not of the form "
                             f"CxB (channels x blocks, e.g. 64x1)") from None
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

    Every tensor must have the kind and shape the manifest implies and
    hold only finite values; a disagreement, a non-finite weight, or a
    value that makes no valid config, raises ContainerError naming the
    manifest or the tensor file.
    """
    path = Path(dirpath)
    m = ctf.read_manifest(path / _MANIFEST_NAME)
    fields = {key: m.parse(key, convert) for key, convert in (
        ("depth", int), ("stages", parse_stages), ("fusion", OperatorKind.from_name), ("seed", int),
        ("height", int), ("width", int), ("a3d_perturb", float), ("tsm_div", int))}
    try:
        config = BackboneConfig(**fields)
    except ValueError as exc:
        raise ctf.ContainerError(f"{m.path}: {exc}") from None

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
        fusion_layers.append((state, ctf.read_weight(path / f"layer{i}_bias.ctf", (dims.c_out,))))
    cf = config.feature_channels
    unify = [ctf.read_weight(path / f"unify{s}.ctf", (cf, c, 1, 1, 1))
             for s, (c, _) in enumerate(config.stages)]
    collapse = ctf.read_weight(path / "collapse.ctf", (cf, cf, config.depth, 1, 1))
    return Backbone(config, fusion_layers, unify, collapse)
