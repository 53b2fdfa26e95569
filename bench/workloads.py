"""The three workloads: set-up, one round of timed ops, and output checks.

A workload's set-up returns a `Round`: the ops of one round, run in
order, and the problems its static checks found.  `Op.run(r)` performs
the op of round r and returns what its `check` needs; `check` returns
None when the output is right and a message otherwise.  Checks run
outside the timed region, and set-up pauses its stopwatch around them.

Library calls go through the module attributes (`operators.forward`,
not a name imported from it), so the tracer's patching sees them.
"""

import contextlib
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ctfuse import backbone, costmodel, demo, operators
from ctfuse.backbone import BackboneConfig
from ctfuse.demo import SyntheticTaskConfig, TaskData, TrainConfig
from ctfuse.operators import ALL_KINDS, OperatorKind
from ctfuse.rng import SeededRng

import oracle


class Stopwatch:
    """Accumulates wall time, except inside `paused()` blocks."""

    def __init__(self):
        self.elapsed = 0.0
        self._since = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        self.elapsed += time.perf_counter() - self._since
        try:
            yield
        finally:
            self._since = time.perf_counter()

    def stop(self):
        self.elapsed += time.perf_counter() - self._since
        return self.elapsed


@dataclass
class Op:
    label: str
    run: Callable[[int], object]
    check: Callable[[object], str | None]


@dataclass
class Round:
    ops: list[Op]
    problems: list[str] = field(default_factory=list)


def measure(ops, seconds, tracer=None):
    """Whole rounds of ops: one, then another while the summed op time,
    projected at the mean round so far, stays within `seconds`."""
    durations, problems = [], []
    failed = rounds = 0
    while rounds == 0 or sum(durations) * (rounds + 1) / rounds <= seconds:
        for op in ops:
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    out, error = op.run(rounds), None
                except Exception as exc:  # a failing op is counted, not fatal
                    out, error = None, f"raised {type(exc).__name__}: {exc}"
                durations.append(time.perf_counter() - start)
            if error is None:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            del out
            if error is not None:
                failed += 1
                problems.append(f"round {rounds} {op.label}: {error}")
        rounds += 1
    return durations, failed, problems


def _mac_problems(kind, config, net):
    """The benchmark's MAC count of every fusion layer against costmodel."""
    problems = []
    dims = backbone.layer_dims(config)
    shapes = oracle.layer_inputs(config)
    if len(dims) != len(shapes) or len(shapes) != len(net.fusion_layers):
        return [f"{kind.value}: {len(net.fusion_layers)} layers built, "
                f"{len(dims)} in layer_dims, {len(shapes)} expected"]
    for i, ((state, _), d, shape) in enumerate(zip(net.fusion_layers, dims, shapes)):
        ours, theirs = oracle.fusion_macs(state, shape), costmodel.count_macs(kind, d)
        if ours != theirs:
            problems.append(f"{kind.value} layer {i}: {ours} MACs counted, "
                            f"costmodel says {theirs}")
    return problems


# --- infer-default -------------------------------------------------------

@dataclass(frozen=True)
class InferSpec:
    config: BackboneConfig = BackboneConfig()


def _weights(net):
    arrays = [net.collapse, *net.unify_kernels]
    for state, bias in net.fusion_layers:
        arrays += [*state.kernels, bias]
        arrays += [a for a in (state.aux, state.mix) if a is not None]
    return arrays


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def setup_infer(seed, spec, watch, workdir):
    """Build every kind's backbone, save and reload it (the path `ctfuse
    forward --backbone` takes), and draw one volume per kind."""
    cfg = spec.config
    volumes = np.random.default_rng(seed).uniform(
        -1.0, 1.0, (len(ALL_KINDS), 1, cfg.depth, cfg.height, cfg.width))
    nets, problems = [], []
    try:
        for kind in ALL_KINDS:
            config = replace(cfg, fusion=kind, seed=seed)
            built = backbone.build(config)
            path = workdir / kind.value
            backbone.save_checkpoint(built, path)
            nets.append(backbone.load_checkpoint(path))
            with watch.paused():
                a, b = _weights(built), _weights(nets[-1])
                if len(a) != len(b) or not all(map(_same_bits, a, b)):
                    problems.append(f"{kind.value}: reloaded weights differ from built ones")
                problems += _mac_problems(kind, config, nets[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def make(i, net):
        def run(r):
            volume = volumes[(i + r) % len(volumes)]
            return volume, backbone.forward_features(net, volume)

        def check(out):
            volume, feat = out
            err = oracle.rel_error(feat, oracle.backbone_forward(net, volume))
            if not err <= oracle.FORWARD_RTOL:
                return f"forward_features off the reference by {err:.3e} relative"
            return None
        return Op(net.config.fusion.value, run, check)

    return Round([make(i, net) for i, net in enumerate(nets)], problems)


# --- operator-sweep ------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """One fusion layer at the default backbone's stage-1 size."""

    c_in: int = 64
    c_out: int = 256
    depth: int = 7
    height: int = 16
    width: int = 16
    k: int = 3


def _dot(a, b):
    return float(np.vdot(a, b))


def _norm(a):
    return float(np.linalg.norm(a))


def check_layer(state, x, g, y, grad_x, grads):
    """Forward against the reference conv, backward by two identities.

    Every operator is linear in x and degree-1 homogeneous in each weight
    group, so <g, f(x)> = <dx, x> = <dW, W> for every group W.
    """
    err = oracle.rel_error(y, oracle.fusion_forward(state, x))
    if not err <= oracle.FORWARD_RTOL:
        return f"forward off the reference by {err:.3e} relative"
    # The size <g, f(x)> has for a random g; rounding is ~1e-13 of it.
    pairing = _dot(g, y)
    scale = max(abs(pairing), _norm(g) * _norm(y) / np.sqrt(g.size))
    if len(grads.kernels) != len(state.kernels):
        return f"{len(grads.kernels)} kernel gradients for {len(state.kernels)} kernels"
    groups = {"x": [(x, grad_x)],
              "kernels": list(zip(state.kernels, grads.kernels))}
    if state.aux is not None:
        groups["aux"] = [(state.aux, grads.aux)]
    if state.mix is not None:
        groups["mix"] = [(state.mix, grads.mix)]
    for name, pairs in groups.items():
        if any(w.shape != dw.shape for w, dw in pairs):
            return f"gradient of {name} has the wrong shape"
        err = abs(pairing - sum(_dot(dw, w) for w, dw in pairs)) / scale
        if not err <= oracle.ADJOINT_RTOL:
            return f"<g, f(x)> and <d{name}, {name}> differ by {err:.3e} relative"
    return None


def setup_sweep(seed, spec, watch, workdir):
    """Inflate one layer per kind from a He-uniform 2D kernel, with its
    own input volume and output gradient."""
    s = spec
    rng = np.random.default_rng(seed)
    bound = float(np.sqrt(6.0 / (s.c_in * s.k * s.k)))
    dims = costmodel.LayerDims(c_in=s.c_in, c_out=s.c_out, k=s.k, d=s.depth,
                               h=s.height, w=s.width)
    problems = []

    def make(i, kind):
        w2d = rng.uniform(-bound, bound, (s.c_out, s.c_in, s.k, s.k))
        state = operators.inflate(kind, w2d, s.depth, rng=SeededRng(seed).fork(i))
        x = rng.uniform(-1.0, 1.0, (s.c_in, s.depth, s.height, s.width))
        g = rng.uniform(-1.0, 1.0, (s.c_out, s.depth, s.height, s.width))
        with watch.paused():
            ours, theirs = oracle.fusion_macs(state, x.shape), costmodel.count_macs(kind, dims)
            if ours != theirs:
                problems.append(f"{kind.value}: {ours} MACs counted, costmodel says {theirs}")

        def run(r):
            y = operators.forward(state, x)
            return (y,) + operators.backward(state, x, g)

        def check(out):
            return check_layer(state, x, g, *out)
        return Op(kind.value, run, check)

    return Round([make(i, kind) for i, kind in enumerate(ALL_KINDS)], problems)


# --- train-demo ----------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    """The default demo task and training run; the ops alternate kinds."""

    task: SyntheticTaskConfig = SyntheticTaskConfig()
    train: TrainConfig = TrainConfig()
    kinds: tuple[OperatorKind, ...] = (OperatorKind.A3D, OperatorKind.NOFUSION)
    auc_range: dict = field(default_factory=lambda: {
        OperatorKind.A3D: (0.9, 1.0), OperatorKind.NOFUSION: (0.0, 0.6)})


def check_metrics(kind, metrics, spec, first_csv):
    """Finite losses, the separation the task is built for, and CSV bytes
    identical to the first op of the same kind in this process."""
    curves = metrics.train_loss + metrics.val_loss + metrics.val_auc
    if len(metrics.val_auc) != spec.train.epochs or not np.all(np.isfinite(curves)):
        return "missing or non-finite epochs in the metrics"
    lo, hi = spec.auc_range.get(kind, (0.0, 1.0))
    if not lo <= metrics.final_val_auc <= hi:
        return f"final val_auc {metrics.final_val_auc:.4f} outside [{lo}, {hi}]"
    csv = metrics.to_csv().encode()
    if first_csv.setdefault(kind, csv) != csv:
        return "metrics CSV differs from an earlier run of the same kind and seed"
    return None


def _blob(cfg, center):
    hh = np.arange(cfg.height)[:, None] - center[0]
    ww = np.arange(cfg.width)[None, :] - center[1]
    r2 = (hh ** 2 + ww ** 2).astype(np.float64)
    sigma = cfg.blob_radius / 2.0
    return cfg.amplitude * np.exp(-r2 / (2.0 * sigma * sigma)), r2 <= cfg.blob_radius ** 2


def make_task(cfg):
    """The demo task of `ctfuse.demo`, drawn by the benchmark from cfg.seed.

    Same construction: a positive blob whose sign alternates across the
    three key slices, a distractor of constant sign, a random sign per
    volume drawn in antithetic pairs, Gaussian noise.  The two centres
    are one draw from all pairs of grid points at least 2r+1 apart, so
    unlike `demo.generate_task`'s 100 rejection attempts it cannot fail.
    """
    rng = np.random.default_rng(cfg.seed)
    margin = int(np.ceil(cfg.blob_radius))
    grid = np.array([(h, w) for h in range(margin, cfg.height - margin)
                     for w in range(margin, cfg.width - margin)])
    diff = grid[:, None, :] - grid[None, :, :]
    pairs = np.argwhere(np.hypot(diff[..., 0], diff[..., 1]) >= 2 * cfg.blob_radius + 1)
    key = cfg.depth // 2
    volumes = rng.normal(size=(cfg.volumes, 1, cfg.depth, cfg.height, cfg.width))
    volumes *= cfg.noise_sigma
    masks = np.zeros((cfg.volumes, cfg.height, cfg.width), dtype=bool)
    dmasks = np.zeros_like(masks)
    flips = rng.random(cfg.volumes // 2 + 1) < 0.5
    for i in range(cfg.volumes):
        sign = 1.0 if flips[i // 2] == (i % 2 == 0) else -1.0
        pos, dist = pairs[rng.integers(len(pairs))]
        pos_img, masks[i] = _blob(cfg, grid[pos])
        dist_img, dmasks[i] = _blob(cfg, grid[dist])
        for offset, flip in ((-1, 1.0), (0, -1.0), (1, 1.0)):
            volumes[i, 0, key + offset] += sign * (flip * pos_img + dist_img)
    return TaskData(cfg, volumes, masks, dmasks, key)


def setup_train(seed, spec, watch, workdir):
    """Draw the seed's task; the networks are built inside demo.train."""
    data = make_task(replace(spec.task, seed=seed))
    problems = []
    with watch.paused():
        for kind in spec.kinds:
            config = BackboneConfig(depth=spec.task.depth, stages=demo.DEMO_STAGES,
                                    height=spec.task.height, width=spec.task.width,
                                    fusion=kind)
            problems += _mac_problems(kind, config, backbone.build(config))
    first_csv = {}

    def make(kind):
        cfg = replace(spec.train, fusion=kind, seed=seed)

        def run(r):
            return demo.train(data, cfg)

        def check(metrics):
            return check_metrics(kind, metrics, spec, first_csv)
        return Op(kind.value, run, check)

    return Round([make(kind) for kind in spec.kinds], problems)


WORKLOADS = {
    "infer-default": (setup_infer, InferSpec()),
    "train-demo": (setup_train, TrainSpec()),
    "operator-sweep": (setup_sweep, SweepSpec()),
}
