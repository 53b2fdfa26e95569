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
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import ctf
from .rng import SeededRng
from .tensor import (
    ShapeError,
    as_int,
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
    """One linear stage.  name: its weight's name in OperatorState.weights
    (Shift: the shift_splits field; Concat: None, its views name theirs);
    shapes: its weights' shapes by name for c input channels; macs: its
    forward multiply-accumulates; reach(k): slices one output slice reads
    each way, None for all; forward(state, x) applies it; backward returns
    the input gradient and puts the weight gradients in grads by name."""

    maps_channels = False

    def shapes(self, c, c_out, k, depth):
        return {}

    def macs(self, shapes, depth, hw):
        return depth * hw * sum(map(math.prod, shapes.values()))


@dataclass(frozen=True)
class Conv(Stage):
    """Same-padded convolution to Cout channels by the weight `name`, of
    extent spec in K ("1kk" is 1xKxK)."""

    name: str
    spec: str
    maps_channels = True

    def shapes(self, c, c_out, k, depth):
        return {self.name: (c_out, c) + tuple(k if ch == "k" else 1 for ch in self.spec)}

    def reach(self, k):
        return k // 2 if self.spec[0] == "k" else 0

    def forward(self, state, x):
        return conv3d_forward(x, state.weights[self.name])

    def backward(self, state, x, g, grads):
        grad_x, grads[self.name] = conv3d_backward(x, state.weights[self.name], g)
        return grad_x


@dataclass(frozen=True)
class Concat(Stage):
    """The view stages' outputs stacked along the channels, split over
    the views as acs_split gives."""

    views: tuple[Conv, ...]
    name = None
    maps_channels = True

    def shapes(self, c, c_out, k, depth):
        return dict(item for view, n in zip(self.views, acs_split(c_out))
                    for item in view.shapes(c, n, k, depth).items())

    def reach(self, k):
        return max(view.reach(k) for view in self.views)

    def forward(self, state, x):
        return np.concatenate([view.forward(state, x) for view in self.views], axis=0)

    def backward(self, state, x, g, grads):
        grad_x = np.zeros_like(x)
        pieces = np.split(g, np.cumsum(acs_split(state.c_out))[:-1])
        for view, piece in zip(self.views, pieces):
            grad_x += view.backward(state, x, piece, grads)
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
        return slice_contract_forward(x, state.weights[self.name])

    def backward(self, state, x, g, grads):
        grad_x, grads[self.name] = slice_contract_backward(x, state.weights[self.name], g)
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

    weights maps each weight name to its array, read-only (a mapping of
    non-writable views: assigning into one raises ValueError) and in the
    order main (or acs's axial, coronal, sagittal views), aux, mix,
    whatever order the caller passes.  The kind's stages fix the names
    and shapes (stage_shapes, for a3d at the depth its mixing stack
    spans); others raise ShapeError.  shift_splits is tsm's (up, down)
    channel split.  kernels, aux and mix are read-only views of weights.
    Treat instances as immutable: training code builds updated copies
    via `with_named`.  backward returns an operator's gradients in this
    same container, each under its weight's name.
    """

    kind: OperatorKind
    weights: Mapping[str, np.ndarray]
    shift_splits: tuple[int, int] | None = None

    def __post_init__(self):
        if not isinstance(self.kind, OperatorKind):
            raise TypeError(f"kind must be an OperatorKind, got {self.kind!r}")
        name = self.kind.value
        if unknown := self.weights.keys() - _WEIGHT_NAMES:
            raise ShapeError(f"{name} has no weights named {sorted(map(str, unknown))}")
        weights = {n: _read_only(self.weights[n]) for n in _WEIGHT_NAMES if n in self.weights}
        object.__setattr__(self, "weights", MappingProxyType(weights))
        kernels = [weights[n] for n in _KERNEL_NAMES if n in weights]
        if not kernels or any(k.ndim != 5 for k in kernels):
            raise ShapeError(f"kernels must be rank 5, got shapes {[k.shape for k in kernels]}")
        shifts = any(stage.name == "shift_splits" for stage in STAGES[self.kind])
        if (self.shift_splits is None) == shifts:
            raise ShapeError(f"{name} {'requires' if shifts else 'takes no'} shift_splits")
        c_in, k = kernels[0].shape[1], kernels[0].shape[3]
        c_out = sum(kern.shape[0] for kern in kernels)
        mix = weights.get("mix")
        depth = mix.shape[0] if mix is not None and mix.ndim else None
        want = dict(item for _, shapes in stage_shapes(self.kind, c_in, c_out, k, depth)
                    for item in shapes.items())
        have = {n: arr.shape for n, arr in self.weights.items()}
        if have != want or any(0 in shape for shape in have.values()):
            raise ShapeError(f"{name} weights must be {want}, got {have}")
        if self.shift_splits is not None:
            up, down = (int(s) for s in self.shift_splits)
            object.__setattr__(self, "shift_splits", (up, down))
            if up < 0 or down < 0 or up + down > c_in:
                raise ShapeError(f"shift_splits {self.shift_splits} invalid for "
                                 f"{c_in} input channels")

    @property
    def kernels(self) -> tuple[np.ndarray, ...]:
        """The convolution kernels, main or the acs views, in output-channel order."""
        return tuple(self.weights[n] for n in _KERNEL_NAMES if n in self.weights)

    aux = property(lambda self: self.weights.get("aux"), doc="p3d's axial kernel, else None")
    mix = property(lambda self: self.weights.get("mix"), doc="a3d's mixing stack, else None")

    @property
    def c_out(self) -> int:
        return sum(self.weights[n].shape[0] for n in _KERNEL_NAMES if n in self.weights)

    @property
    def c_in(self) -> int:
        return next(iter(self.weights.values())).shape[1]  # the first kernel

    @property
    def k(self) -> int:
        return next(iter(self.weights.values())).shape[3]

    @property
    def depth(self) -> int | None:
        """The slice count a3d's mixing stack fixes; None for kinds without a mix."""
        mix = self.weights.get("mix")
        return mix.shape[0] if mix is not None and mix.ndim else None

    def with_named(self, named: dict[str, np.ndarray]) -> "OperatorState":
        """Copy of this state with the weights named in `named` swapped out;
        a name weights does not hold raises KeyError."""
        if unknown := named.keys() - self.weights.keys():
            raise KeyError(f"no {self.kind.value} weights named {sorted(unknown)}")
        return replace(self, weights={**self.weights, **named})


@dataclass(frozen=True)
class OperatorGrads:
    """The gradient layout backward returned before it returned an
    OperatorState; the library no longer builds one."""

    kernels: tuple[np.ndarray, ...]
    aux: np.ndarray | None = None
    mix: np.ndarray | None = None


_KERNEL_NAMES = ("main", "axial", "coronal", "sagittal")
_WEIGHT_NAMES = _KERNEL_NAMES + ("aux", "mix")


def _read_only(w) -> np.ndarray:
    """w as a contiguous float64 array that cannot be written through: w
    itself if it is one, else a non-writable view of it (w keeps its own
    flags), converted first if it is not contiguous float64."""
    arr = np.ascontiguousarray(w, dtype=np.float64)
    if arr.flags.writeable:
        arr = arr.view()
        arr.setflags(write=False)
    return arr


def _as_kernel2d(w2d) -> np.ndarray:
    arr = np.ascontiguousarray(w2d, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError(f"2D kernel must be rank 4 (Cout, Cin, K, K), got shape {arr.shape}")
    if arr.shape[2] != arr.shape[3]:
        raise ShapeError(f"2D kernel must be square, got shape {arr.shape}")
    if arr.shape[2] % 2 != 1:
        raise ShapeError(f"kernel extent must be odd, got {arr.shape[2]}")
    return arr


def _acs_kernels_from_planes(planes: np.ndarray) -> dict[str, np.ndarray]:
    """Place KxK planes, split over the views as acs_split gives, into the
    three orientations, by view name."""
    a, c, _ = acs_split(planes.shape[0])
    return {"axial": planes[:a, :, None, :, :], "coronal": planes[a:a + c, :, :, None, :],
            "sagittal": planes[a + c:, :, :, :, None]}


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
    if not isinstance(kind, OperatorKind):
        raise TypeError(f"kind must be an OperatorKind, got {kind!r}")
    w2d = _as_kernel2d(w2d)
    depth, tsm_div = as_int(depth, "depth"), as_int(tsm_div, "tsm_div")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if tsm_div < 1:
        raise ValueError(f"tsm_div must be >= 1, got {tsm_div}")
    if not np.isfinite(perturb_scale) or perturb_scale < 0:
        raise ValueError(f"perturb_scale must be finite and >= 0, got {perturb_scale}")
    co, ci, k, _ = w2d.shape
    needed = {stage.name for stage in STAGES[kind]}
    if kind is OperatorKind.ACS:
        weights = _acs_kernels_from_planes(w2d.copy())
    elif kind is OperatorKind.I3D:
        weights = {"main": np.repeat((w2d / k)[:, :, None], k, axis=2)}
    else:
        weights = {"main": w2d[:, :, None].copy()}
    if "aux" in needed:
        weights["aux"] = p3d_aux_init(co, k)
    shift_splits = (ci // tsm_div, ci // tsm_div) if "shift_splits" in needed else None
    if "mix" in needed:
        if perturb_scale != 0.0 and rng is None:
            raise ValueError("a3d with a nonzero perturbation needs an rng")
        weights["mix"] = identity = identity_mix(depth, ci)
        if perturb_scale != 0.0:
            weights["mix"] = identity + rng.uniform(-perturb_scale, perturb_scale, identity.shape)
    return OperatorState(kind, weights, shift_splits)


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


def backward(state: OperatorState, x, grad_out, inner=None) -> tuple[np.ndarray, OperatorState]:
    """Exact adjoints of forward: the input gradient, and the weight
    gradients as an OperatorState of state's kind and shift_splits whose
    weights hold each weight's gradient under its name.

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
    return grad_x, replace(state, weights=grads)


_MANIFEST_NAME = "operator.txt"
_EXTRA_FILES = (("aux", "aux.ctf"), ("mix", "p.ctf"))


def _manifest_facts(state: OperatorState) -> dict[str, int]:
    """What the manifest records of a state's tensors, after its kind and
    in file order: save_operator writes these and load_operator checks
    them.  depth is a3d's alone, the acs_* view channels acs's and the
    shifts tsm's."""
    facts = {"c_out": state.c_out, "c_in": state.c_in, "k": state.k}
    if state.depth is not None:
        facts["depth"] = state.depth
    if state.kind is OperatorKind.ACS:
        facts.update(zip(("acs_axial", "acs_coronal", "acs_sagittal"), acs_split(state.c_out)))
    if state.shift_splits is not None:
        facts["shift_up"], facts["shift_down"] = state.shift_splits
    return facts


def save_operator(state: OperatorState, dirpath) -> None:
    """Write the state to a directory: a manifest plus CTF1 weight files.

    main.ctf holds the convolution kernel (for acs, the three view
    kernels' KxK planes channel-concatenated back into one rank-4 array,
    which is lossless since each view kernel is dense only in its own
    plane).  aux.ctf and p.ctf appear for p3d and a3d respectively.
    """
    path = Path(dirpath)
    path.mkdir(parents=True, exist_ok=True)
    if state.kind is OperatorKind.ACS:
        # Dropping a view kernel's unit axis leaves its KxK plane.
        planes = [kern.reshape(kern.shape[:2] + (state.k, state.k)) for kern in state.kernels]
        ctf.write_tensor(path / "main.ctf", np.concatenate(planes, axis=0))
    else:
        ctf.write_tensor(path / "main.ctf", state.kernels[0])
    for name, file in _EXTRA_FILES:
        if name in state.weights:
            ctf.write_tensor(path / file, state.weights[name])
    ctf.write_manifest(path / _MANIFEST_NAME, {"kind": state.kind.value, **_manifest_facts(state)})


def load_operator(dirpath) -> OperatorState:
    """Read back a directory written by save_operator.

    Every fact the manifest records (_manifest_facts) must agree with the
    loaded tensors; a disagreement raises ContainerError naming the
    manifest and key, and a weight file holding a non-finite value one
    naming the file.  Other keys are ignored.
    """
    path = Path(dirpath)
    entries = ctf.read_manifest(path / _MANIFEST_NAME)
    kind = entries.parse("kind", OperatorKind.from_name)
    needed = {stage.name for stage in STAGES[kind]}
    main = ctf.read_weight(path / "main.ctf")
    weights = {"main": main}
    if kind is OperatorKind.ACS:
        if main.ndim != 4:
            raise ctf.ContainerError(f"{path / 'main.ctf'}: acs planes must be rank 4 "
                                     f"(Cout, Cin, K, K), got shape {main.shape}")
        weights = _acs_kernels_from_planes(main)
    shift_splits = ((entries.parse("shift_up"), entries.parse("shift_down"))
                    if "shift_splits" in needed else None)
    weights.update((name, ctf.read_weight(path / file)) for name, file in _EXTRA_FILES
                   if name in needed)
    state = OperatorState(kind, weights, shift_splits)
    for key, value in _manifest_facts(state).items():
        entries.expect(key, value)
    return state
