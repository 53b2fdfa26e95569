"""Six slice-context fusion operators behind one interface.

Every operator starts from a 2D kernel (Cout, Cin, K, K) and turns it
into weights for a 3D layer over (C, D, H, W) volumes.  STAGES lists
each kind's linear stages, from which weight validation, forward,
backward, the cost counts and the axial radius are derived:

* ``nofusion``  conv 1xKxK; depth untouched.
* ``i3d``       conv KxKxK; each axial tap starts at w2d/K.
* ``p3d``       conv 1xKxK, then conv Kx1x1 (``aux``) starting at taps
                [0, ..., 1, ..., 0] on the channel diagonal, an exact
                identity along depth at init.
* ``acs``       concat of convs 1xKxK / Kx1xK / KxKx1, the output channels
                split across the three views, each filled with the plane.
* ``tsm``       shift a fraction of input channels one slice up, an equal
                fraction down, then conv 1xKxK.
* ``a3d``       mix: per-input-channel dense DxD slice mixing (identity
                plus a small uniform perturbation at init), then conv 1xKxK.

All six can be serialized to a directory (key=value manifest plus CTF1
weight files).
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import ctf
from .rng import SeededRng
from .tensor import (
    ShapeError,
    as_volume,
    axial_shift,
    axial_shift_adjoint,
    conv3d_backward,
    conv3d_forward,
    identity_mix,
    slice_contract_backward,
    slice_contract_forward,
)


class OperatorKind(Enum):
    NOFUSION = "nofusion"
    I3D = "i3d"
    P3D = "p3d"
    ACS = "acs"
    TSM = "tsm"
    A3D = "a3d"

    @classmethod
    def from_name(cls, name: str) -> "OperatorKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown operator kind {name!r}; expected one of {valid}") from None


ALL_KINDS = tuple(OperatorKind)

DEFAULT_TSM_DIV = 8
DEFAULT_PERTURB = 0.1


def acs_split(c_out: int) -> tuple[int, int, int]:
    """Partition c_out channels over the three orientations.

    Ceiling-first in order (axial, coronal, sagittal), so each view gets
    at least one channel and the counts sum to c_out.
    """
    if c_out < 3:
        raise ShapeError(f"three-view split needs c_out >= 3, got {c_out}")
    a = -(-c_out // 3)
    c = -(-(c_out - a) // 2)
    s = c_out - a - c
    return a, c, s


class Stage:
    """One linear stage.  name: the weight or OperatorState field holding
    its parameters; shapes: its weights' shapes for c input channels;
    macs: its forward multiply-accumulates; reach(k): slices one output
    slice reads each way, None for all; forward(state, x) applies it;
    backward returns the input gradient and puts the weight gradients in
    grads by name."""

    maps_channels = False

    def shapes(self, c, c_out, k, depth):
        return {}

    def macs(self, shapes, depth, hw):
        return depth * hw * sum(map(math.prod, shapes.values()))


@dataclass(frozen=True)
class Conv(Stage):
    """Same-padded convolution to Cout channels by kernel `name` ("main": kernels[0], else
    the state field of that name), of extent spec in K ("1kk" is 1xKxK)."""

    name: str
    spec: str
    maps_channels = True

    def shapes(self, c, c_out, k, depth):
        return {self.name: (c_out, c) + tuple(k if ch == "k" else 1 for ch in self.spec)}

    def reach(self, k):
        return k // 2 if self.spec[0] == "k" else 0

    def _kernel(self, state):
        return state.kernels[0] if self.name == "main" else getattr(state, self.name)

    def forward(self, state, x):
        return conv3d_forward(x, self._kernel(state))

    def backward(self, state, x, g, grads):
        grad_x, grads[self.name] = conv3d_backward(x, self._kernel(state), g)
        return grad_x


@dataclass(frozen=True)
class Concat(Stage):
    """The views' convolutions (the state's kernels) stacked along the
    channels, split over the views as acs_split gives."""

    views: tuple[Conv, ...]
    name = "kernels"
    maps_channels = True

    def shapes(self, c, c_out, k, depth):
        return dict(item for view, n in zip(self.views, acs_split(c_out))
                    for item in view.shapes(c, n, k, depth).items())

    def reach(self, k):
        return max(view.reach(k) for view in self.views)

    def forward(self, state, x):
        return np.concatenate([conv3d_forward(x, kern) for kern in state.kernels], axis=0)

    def backward(self, state, x, g, grads):
        grad_x = np.zeros_like(x)
        pieces = np.split(g, np.cumsum([kern.shape[0] for kern in state.kernels])[:-1])
        for view, kern, piece in zip(self.views, state.kernels, pieces):
            gx, grads[view.name] = conv3d_backward(x, kern, piece)
            grad_x += gx
        return grad_x


class Shift(Stage):
    """Zero-filled one-slice shift of shift_splits channels up, then down."""

    name = "shift_splits"

    def reach(self, k):
        return 1

    def forward(self, state, x):
        return axial_shift(x, state.shift_splits)

    def backward(self, state, x, g, grads):
        return axial_shift_adjoint(g, state.shift_splits)


class Mix(Stage):
    """Per-channel dense slice mixing by the (D, D, C) stack ``mix``."""

    name = "mix"

    def shapes(self, c, c_out, k, depth):
        return {"mix": (depth, depth, c)}

    def macs(self, shapes, depth, hw):
        return hw * sum(map(math.prod, shapes.values()))

    def reach(self, k):
        return None

    def forward(self, state, x):
        return slice_contract_forward(x, state.mix)

    def backward(self, state, x, g, grads):
        grad_x, grads[self.name] = slice_contract_backward(x, state.mix, g)
        return grad_x


# forward and backward make exactly the tensor calls of a kind's stages,
# in order, so the table keeps every output and gradient bit for bit.
STAGES = {
    OperatorKind.NOFUSION: (Conv("main", "1kk"),),
    OperatorKind.I3D: (Conv("main", "kkk"),),
    OperatorKind.P3D: (Conv("main", "1kk"), Conv("aux", "k11")),
    OperatorKind.ACS: (Concat((Conv("axial", "1kk"), Conv("coronal", "k1k"),
                               Conv("sagittal", "kk1"))),),
    OperatorKind.TSM: (Shift(), Conv("main", "1kk")),
    OperatorKind.A3D: (Mix(), Conv("main", "1kk")),
}


def stage_shapes(kind: OperatorKind, c_in: int, c_out: int, k: int, depth):
    """(stage, {weight name: shape}) for each of the kind's stages, in order."""
    if not isinstance(kind, OperatorKind):
        raise TypeError(f"kind must be an OperatorKind, got {kind!r}")
    c, out = c_in, []
    for stage in STAGES[kind]:
        out.append((stage, stage.shapes(c, c_out, k, depth)))
        c = c_out if stage.maps_channels else c
    return out


@dataclass(frozen=True)
class OperatorState:
    """Weights of one fusion operator.

    kernels holds the convolution weights: a single (Cout, Cin, Kd, K, K)
    array for most kinds, or for acs the three view kernels, holding the
    channels acs_split(Cout) gives each.  aux is p3d's (Cout, Cout, K, 1,
    1) axial kernel, mix is a3d's (D, D, Cin) slice-mixing stack, and
    shift_splits is tsm's (up, down) channel split.  depth_hint records
    the depth the state was built for; only a3d enforces it.  Every shape must be
    the one stage_shapes gives the kind.  Treat instances as immutable:
    training code builds updated copies via `with_named`.
    """

    kind: OperatorKind
    kernels: tuple[np.ndarray, ...]
    aux: np.ndarray | None = None
    mix: np.ndarray | None = None
    shift_splits: tuple[int, int] | None = None
    depth_hint: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, OperatorKind):
            raise TypeError(f"kind must be an OperatorKind, got {self.kind!r}")
        name = self.kind.value
        kernels = tuple(np.ascontiguousarray(k, dtype=np.float64) for k in self.kernels)
        object.__setattr__(self, "kernels", kernels)
        if not kernels or any(k.ndim != 5 for k in kernels):
            raise ShapeError(f"kernels must be rank 5, got shapes {[k.shape for k in kernels]}")
        shifts = any(stage.name == "shift_splits" for stage in STAGES[self.kind])
        if (self.shift_splits is None) == shifts:
            raise ShapeError(f"{name} {'requires' if shifts else 'takes no'} shift_splits")
        for field in ("aux", "mix"):
            if (value := getattr(self, field)) is not None:
                object.__setattr__(self, field, np.ascontiguousarray(value, dtype=np.float64))
        depth = self.mix.shape[0] if self.mix is not None and self.mix.ndim else self.depth_hint
        want = dict(item for _, shapes in stage_shapes(self.kind, self.c_in, self.c_out,
                                                       self.k, depth) for item in shapes.items())
        have = {n: arr.shape for n, arr in self.weight_arrays().items()}
        if (have != want or len(kernels) != sum(n in _KERNEL_NAMES for n in want)
                or any(0 in shape for shape in have.values())):
            raise ShapeError(f"{name} weights must be {want}, got {have} ({len(kernels)} kernels)")

        if self.mix is not None:
            if self.depth_hint is not None and self.depth_hint != depth:
                raise ShapeError(f"depth_hint {self.depth_hint} contradicts mix depth {depth}")
            object.__setattr__(self, "depth_hint", depth)
        if self.shift_splits is not None:
            up, down = (int(s) for s in self.shift_splits)
            object.__setattr__(self, "shift_splits", (up, down))
            if up < 0 or down < 0 or up + down > self.c_in:
                raise ShapeError(f"shift_splits {self.shift_splits} invalid for "
                                 f"{self.c_in} input channels")

    @property
    def c_out(self) -> int:
        return sum(k.shape[0] for k in self.kernels)

    @property
    def c_in(self) -> int:
        return self.kernels[0].shape[1]

    @property
    def k(self) -> int:
        return self.kernels[0].shape[3]

    def weight_arrays(self) -> dict[str, np.ndarray]:
        """Name -> array for every trainable tensor, in a fixed order."""
        return _named_weights(self.kernels, self.aux, self.mix)

    def with_named(self, named: dict[str, np.ndarray]) -> "OperatorState":
        """Copy of this state with the weights named in `named` swapped out;
        a name weight_arrays does not give raises KeyError."""
        own = self.weight_arrays()
        if unknown := named.keys() - own.keys():
            raise KeyError(f"no {self.kind.value} weights named {sorted(unknown)}")
        kernels, aux, mix = _split_named({**own, **named})
        return replace(self, kernels=kernels, aux=aux, mix=mix)


@dataclass(frozen=True)
class OperatorGrads:
    """Gradients mirroring OperatorState's weight layout."""

    kernels: tuple[np.ndarray, ...]
    aux: np.ndarray | None = None
    mix: np.ndarray | None = None

    def weight_arrays(self) -> dict[str, np.ndarray]:
        return _named_weights(self.kernels, self.aux, self.mix)


_KERNEL_NAMES = ("main", "axial", "coronal", "sagittal")


def _named_weights(kernels, aux, mix) -> dict[str, np.ndarray]:
    names = _KERNEL_NAMES[1:] if len(kernels) == 3 else _KERNEL_NAMES[:1]
    out = dict(zip(names, kernels))
    out.update((name, arr) for name, arr in (("aux", aux), ("mix", mix)) if arr is not None)
    return out


def _split_named(named) -> tuple:
    """(kernels, aux, mix) of a weight-name dict: _named_weights inverted."""
    return tuple(named[n] for n in _KERNEL_NAMES if n in named), named.get("aux"), named.get("mix")


def _as_kernel2d(w2d) -> np.ndarray:
    arr = np.ascontiguousarray(w2d, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError(f"2D kernel must be rank 4 (Cout, Cin, K, K), got shape {arr.shape}")
    if arr.shape[2] != arr.shape[3]:
        raise ShapeError(f"2D kernel must be square, got shape {arr.shape}")
    if arr.shape[2] % 2 != 1:
        raise ShapeError(f"kernel extent must be odd, got {arr.shape[2]}")
    return arr


def _acs_kernels_from_planes(planes: np.ndarray):
    """Place KxK planes, split over the views as acs_split gives, into the
    three orientations."""
    a, c, _ = acs_split(planes.shape[0])
    ka = planes[:a, :, None, :, :]
    kc = planes[a:a + c, :, :, None, :]
    ks = planes[a + c:, :, :, :, None]
    return (np.ascontiguousarray(ka), np.ascontiguousarray(kc), np.ascontiguousarray(ks))


def p3d_aux_init(c_out: int, k: int) -> np.ndarray:
    """Axial kernel that is the identity: center tap 1 on the channel diagonal."""
    aux = np.zeros((c_out, c_out, k, 1, 1))
    aux[np.arange(c_out), np.arange(c_out), k // 2, 0, 0] = 1.0
    return aux


def inflate(kind: OperatorKind, w2d, depth: int, rng: SeededRng | None = None, *,
            perturb_scale: float = DEFAULT_PERTURB,
            tsm_div: int = DEFAULT_TSM_DIV) -> OperatorState:
    """Build an operator's initial weights from a 2D kernel.

    depth is the number of slices the operator will see; only a3d bakes
    it into the weights (its mixing stack is depth-specific).  a3d's mix
    starts at identity plus an entrywise uniform perturbation of half
    width perturb_scale, drawn from rng; perturb_scale 0 gives the exact
    identity and needs no rng.  tsm shifts floor(Cin/tsm_div) channels in
    each direction.
    """
    w2d = _as_kernel2d(w2d)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    co, ci, k, _ = w2d.shape
    needed = {stage.name for stage in STAGES[kind]}
    fields = {}
    if kind is OperatorKind.ACS:
        fields["kernels"] = _acs_kernels_from_planes(w2d.copy())
    elif kind is OperatorKind.I3D:
        fields["kernels"] = (np.repeat((w2d / k)[:, :, None], k, axis=2),)
    else:
        fields["kernels"] = (w2d[:, :, None].copy(),)
    if "aux" in needed:
        fields["aux"] = p3d_aux_init(co, k)
    if "shift_splits" in needed:
        if tsm_div < 1:
            raise ValueError(f"tsm_div must be >= 1, got {tsm_div}")
        fields["shift_splits"] = (ci // tsm_div, ci // tsm_div)
    if "mix" in needed:
        if perturb_scale != 0.0 and rng is None:
            raise ValueError("a3d with a nonzero perturbation needs an rng")
        fields["mix"] = identity = identity_mix(depth, ci)
        if perturb_scale != 0.0:
            fields["mix"] = identity + rng.uniform(-perturb_scale, perturb_scale, identity.shape)
    return OperatorState(kind, depth_hint=depth, seed=rng.seed if rng is not None else None,
                         **fields)


def forward(state: OperatorState, x, return_inner: bool = False):
    """Apply the operator to a (Cin, D, H, W) volume, yielding (Cout, D, H, W);
    the tensor kernels reject an input of the wrong shape (ShapeError).

    With return_inner, return (output, inner) instead, where inner is the
    output of a two-stage kind's first stage (p3d's mid, tsm's shifted
    input, a3d's mixed input; None for the single-stage kinds).  backward
    takes it in place of recomputing it.
    """
    x = as_volume(x)
    *first, last = STAGES[state.kind]
    inner = first[0].forward(state, x) if first else None
    out = last.forward(state, x if inner is None else inner)
    return (out, inner) if return_inner else out


def backward(state: OperatorState, x, grad_out, inner=None) -> tuple[np.ndarray, OperatorGrads]:
    """Exact adjoints of forward: input gradient plus per-weight gradients.

    inner is the tensor forward(state, x, return_inner=True) returned
    beside the output; without it, backward recomputes it from x.
    """
    x = as_volume(x)
    grad_out = as_volume(grad_out, "grad_out")
    *first, last = STAGES[state.kind]
    if first and inner is None:
        inner = first[0].forward(state, x)
    grads = {}
    grad_x = last.backward(state, x if inner is None else inner, grad_out, grads)
    if first:
        grad_x = first[0].backward(state, x, grad_x, grads)
    return grad_x, OperatorGrads(*_split_named(grads))


_MANIFEST_NAME = "operator.txt"
_ACS_KEYS = ("acs_axial", "acs_coronal", "acs_sagittal")


def save_operator(state: OperatorState, dirpath) -> None:
    """Write the state to a directory: a manifest plus CTF1 weight files.

    main.ctf holds the convolution kernel (for acs, the three view
    kernels' KxK planes channel-concatenated back into one rank-4 array,
    which is lossless since each view kernel is dense only in its own
    plane).  aux.ctf and p.ctf appear for p3d and a3d respectively.
    """
    path = Path(dirpath)
    path.mkdir(parents=True, exist_ok=True)
    entries: dict[str, object] = {
        "kind": state.kind.value,
        "c_out": state.c_out,
        "c_in": state.c_in,
        "k": state.k,
    }
    if state.depth_hint is not None:
        entries["depth"] = state.depth_hint
    if state.seed is not None:
        entries["seed"] = state.seed
    if state.kind is OperatorKind.ACS:
        entries.update(zip(_ACS_KEYS, acs_split(state.c_out)))
        # Dropping a view kernel's unit axis leaves its KxK plane.
        planes = [kern.reshape(kern.shape[:2] + (state.k, state.k)) for kern in state.kernels]
        ctf.write_tensor(path / "main.ctf", np.concatenate(planes, axis=0))
    else:
        ctf.write_tensor(path / "main.ctf", state.kernels[0])
    if state.shift_splits is not None:
        entries["shift_up"], entries["shift_down"] = state.shift_splits
    if state.aux is not None:
        ctf.write_tensor(path / "aux.ctf", state.aux)
    if state.mix is not None:
        ctf.write_tensor(path / "p.ctf", state.mix)
    ctf.write_manifest(path / _MANIFEST_NAME, entries)


def load_operator(dirpath) -> OperatorState:
    """Read back a directory written by save_operator.

    The manifest's c_out, c_in, k, depth and acs view channels must agree
    with the loaded tensors' shapes (depth only for a3d, whose mixing
    stack fixes it); a disagreement raises ContainerError naming the
    manifest and key, and a weight file holding a non-finite value one
    naming the file.
    """
    path = Path(dirpath)
    entries = ctf.read_manifest(path / _MANIFEST_NAME)
    kind = entries.parse("kind", OperatorKind.from_name)
    needed = {stage.name for stage in STAGES[kind]}
    main = ctf.read_weight(path / "main.ctf")
    fields = {"kernels": (main,), "seed": entries.parse("seed") if "seed" in entries else None,
              "depth_hint": entries.parse("depth") if "depth" in entries else None}
    if kind is OperatorKind.ACS:
        if main.ndim != 4:
            raise ctf.ContainerError(f"{path / 'main.ctf'}: acs planes must be rank 4 "
                                     f"(Cout, Cin, K, K), got shape {main.shape}")
        fields["kernels"] = _acs_kernels_from_planes(main)
    if "shift_splits" in needed:
        fields["shift_splits"] = (entries.parse("shift_up"), entries.parse("shift_down"))
    if "aux" in needed:
        fields["aux"] = ctf.read_weight(path / "aux.ctf")
    if "mix" in needed:
        # The mixing stack fixes the depth; the manifest's is checked below.
        fields["mix"], fields["depth_hint"] = ctf.read_weight(path / "p.ctf"), None
    state = OperatorState(kind, **fields)
    for key in ("c_out", "c_in", "k"):
        entries.expect(key, getattr(state, key))
    if kind is OperatorKind.ACS:
        for key, channels in zip(_ACS_KEYS, acs_split(state.c_out)):
            entries.expect(key, channels)
    if "depth" in entries:
        entries.expect("depth", state.depth_hint)
    return state
