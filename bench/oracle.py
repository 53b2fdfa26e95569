"""Independent numpy forward passes and MAC counts for the output checks.

Nothing here calls ctfuse's compute code: the fusion operators and the
backbone are rebuilt from the weight arrays alone, with every convolution
done as sliding-window patches times the kernel matrix (one matmul), a
different algorithm and summation order from the library's patch-row
einsum.  Agreement is therefore checked to a relative tolerance, not
bitwise.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FORWARD_RTOL = 1e-9
ADJOINT_RTOL = 1e-10


def conv3d(x, kernel):
    """Same-padded 3D cross-correlation of a (C, D, H, W) volume."""
    co, ci, kd, kh, kw = kernel.shape
    _, d, h, w = x.shape
    padded = np.pad(x, ((0, 0), (kd // 2,) * 2, (kh // 2,) * 2, (kw // 2,) * 2))
    windows = sliding_window_view(padded, (kd, kh, kw), axis=(1, 2, 3))
    cols = windows.transpose(1, 2, 3, 0, 4, 5, 6).reshape(d * h * w, ci * kd * kh * kw)
    return (kernel.reshape(co, -1) @ cols.T).reshape(co, d, h, w)


def shift_slices(x, up, down):
    """Channels [0, up) read slice d+1, channels [up, up+down) read d-1."""
    out = x.copy()
    zero = np.zeros_like(x[:, :1])
    out[:up] = np.concatenate([x[:up, 1:], zero[:up]], axis=1)
    out[up:up + down] = np.concatenate([zero[up:up + down], x[up:up + down, :-1]], axis=1)
    return out


def mix_slices(x, mix):
    """out[c, j] = sum_d x[c, d] * mix[d, j, c]."""
    return np.einsum("cdhw,djc->cjhw", x, mix)


def fusion_forward(state, x):
    """One fusion layer, dispatched on the kind's name and its weights."""
    kind = state.kind.value
    main = state.kernels[0]
    if kind in ("nofusion", "i3d"):
        return conv3d(x, main)
    if kind == "p3d":
        return conv3d(conv3d(x, main), state.aux)
    if kind == "acs":
        return np.concatenate([conv3d(x, k) for k in state.kernels], axis=0)
    if kind == "tsm":
        return conv3d(shift_slices(x, *state.shift_splits), main)
    if kind == "a3d":
        return conv3d(mix_slices(x, state.mix), main)
    raise ValueError(f"no reference for kind {kind!r}")


def _pool2(x):
    return (x[:, :, 0::2, 0::2] + x[:, :, 1::2, 0::2]
            + x[:, :, 0::2, 1::2] + x[:, :, 1::2, 1::2]) / 4.0


def backbone_forward(bb, x):
    """(1, D, H, W) volume -> (Cfeat, H, W) map, from the weights alone."""
    stages = bb.config.stages
    outputs = []
    cur = x
    layer = 0
    for s, (_, blocks) in enumerate(stages):
        if s > 0:
            cur = _pool2(cur)
        for _ in range(blocks):
            state, bias = bb.fusion_layers[layer]
            cur = np.maximum(fusion_forward(state, cur) + bias[:, None, None, None], 0.0)
            layer += 1
        outputs.append(cur)
    _, d, h, w = x.shape
    cf = stages[-1][0]
    summed = np.zeros((cf, d * h * w))
    for s, out in enumerate(outputs):
        f = 2 ** s
        up = out.repeat(f, axis=2).repeat(f, axis=3)
        summed += bb.unify_kernels[s][:, :, 0, 0, 0] @ up.reshape(up.shape[0], -1)
    collapse = bb.collapse[:, :, :, 0, 0].reshape(cf, cf * d)
    return (collapse @ summed.reshape(cf * d, h * w)).reshape(cf, h, w)


def rel_error(got, want):
    """max |got - want| over max |want|; inf on a shape mismatch."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / (scale if scale > 0 else 1.0)


# MAC counts from weight shapes; padding taps count, shifts count zero.

def conv_macs(kernel_shape, volume_shape):
    """co*ci*kd*kh*kw*d*h*w for one same-padded conv forward."""
    _, d, h, w = volume_shape
    return int(np.prod(kernel_shape, dtype=np.int64)) * d * h * w


def slice_mix_macs(volume_shape):
    """c*d^2*h*w for one per-channel slice contraction."""
    c, d, h, w = volume_shape
    return c * d * d * h * w


def fusion_macs(state, volume_shape):
    """MACs of one fusion layer applied to a (Ci, D, H, W) volume."""
    _, d, h, w = volume_shape
    total = sum(conv_macs(k.shape, volume_shape) for k in state.kernels)
    if state.aux is not None:
        total += conv_macs(state.aux.shape, (state.c_out, d, h, w))
    if state.mix is not None:
        total += slice_mix_macs(volume_shape)
    return total


def layer_inputs(config):
    """(Ci, D, H, W) seen by each fusion layer of a backbone config."""
    shapes = []
    c_prev = 1
    for s, (channels, blocks) in enumerate(config.stages):
        for _ in range(blocks):
            shapes.append((c_prev, config.depth, config.height >> s, config.width >> s))
            c_prev = channels
    return shapes


def head_macs(config):
    """Unify (1x1x1 at full resolution, every stage) plus DxHxW collapse."""
    cf = config.stages[-1][0]
    voxels = config.depth * config.height * config.width
    unify = sum(cf * c * voxels for c, _ in config.stages)
    return unify + cf * cf * voxels
