"""Six slice-context fusion operators behind one interface.

Every operator starts from a 2D kernel (Cout, Cin, K, K) and turns it
into weights for a 3D layer over (C, D, H, W) volumes:

* ``nofusion``  slice-wise 1xKxK convolution; depth untouched.
* ``i3d``       full KxKxK convolution; each axial tap starts at w2d/K.
* ``p3d``       1xKxK convolution followed by a Kx1x1 axial convolution
                whose initial taps are [0, ..., 1, ..., 0] on the channel
                diagonal, so at init it is an exact identity along depth.
* ``acs``       output channels partitioned across three orientations,
                1xKxK, Kx1xK and KxKx1, each filled with the 2D plane.
* ``tsm``       a fraction of input channels shifted one slice up, an
                equal fraction down, then a 1xKxK convolution.
* ``a3d``       per-input-channel dense DxD slice mixing (initialized at
                the identity plus a small uniform perturbation), then a
                1xKxK convolution.

All six share the forward/backward/parameter-count interface and can be
serialized to a directory (key=value manifest plus CTF1 weight files).
"""

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
        raise ValueError(f"three-view split needs c_out >= 3, got {c_out}")
    a = -(-c_out // 3)
    c = -(-(c_out - a) // 2)
    s = c_out - a - c
    return a, c, s


@dataclass(frozen=True)
class OperatorState:
    """Weights of one fusion operator.

    kernels holds the convolution weights: a single (Cout, Cin, Kd, K, K)
    array for most kinds, or the three view kernels for acs.  aux is
    p3d's (Cout, Cout, K, 1, 1) axial kernel, mix is a3d's (D, D, Cin)
    slice-mixing stack, shift_splits is tsm's (up, down) channel split,
    acs_splits the per-view channel counts.  depth_hint records the depth
    the state was built for; only a3d enforces it.  Treat instances as
    immutable: training code builds updated copies via `with_weights`.
    """

    kind: OperatorKind
    kernels: tuple[np.ndarray, ...]
    aux: np.ndarray | None = None
    mix: np.ndarray | None = None
    shift_splits: tuple[int, int] | None = None
    acs_splits: tuple[int, int, int] | None = None
    depth_hint: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, OperatorKind):
            raise TypeError(f"kind must be an OperatorKind, got {self.kind!r}")
        kernels = tuple(np.ascontiguousarray(k, dtype=np.float64) for k in self.kernels)
        object.__setattr__(self, "kernels", kernels)
        for k in kernels:
            if k.ndim != 5:
                raise ShapeError(f"kernel must be rank 5, got shape {k.shape}")
        n_expected = 3 if self.kind is OperatorKind.ACS else 1
        if len(kernels) != n_expected:
            raise ShapeError(f"{self.kind.value} takes {n_expected} kernel(s), got {len(kernels)}")

        if self.kind is OperatorKind.ACS:
            if self.acs_splits is None:
                raise ShapeError("acs state requires acs_splits")
            a, c, s = self.acs_splits
            ka, kc, ks = kernels
            k = ka.shape[3]
            if (a, c, s) != (ka.shape[0], kc.shape[0], ks.shape[0]):
                raise ShapeError(f"acs_splits {self.acs_splits} do not match kernel "
                                 f"channel counts {(ka.shape[0], kc.shape[0], ks.shape[0])}")
            if min(a, c, s) < 1:
                raise ShapeError(f"every view needs at least one channel, got {self.acs_splits}")
            if not (ka.shape[1] == kc.shape[1] == ks.shape[1]):
                raise ShapeError("acs view kernels disagree on input channels")
            if ka.shape[2:] != (1, k, k) or kc.shape[2:] != (k, 1, k) or ks.shape[2:] != (k, k, 1):
                raise ShapeError(
                    f"acs view kernels must be (1,K,K)/(K,1,K)/(K,K,1), got "
                    f"{ka.shape[2:]}, {kc.shape[2:]}, {ks.shape[2:]}")
        else:
            main = kernels[0]
            co, ci, kd, kh, kw = main.shape
            if kh != kw:
                raise ShapeError(f"in-plane kernel extents must match, got {main.shape}")
            want_kd = kh if self.kind is OperatorKind.I3D else 1
            if kd != want_kd:
                raise ShapeError(f"{self.kind.value} main kernel depth extent must be "
                                 f"{want_kd}, got {kd}")

        if self.kind is OperatorKind.P3D:
            if self.aux is None:
                raise ShapeError("p3d state requires an aux axial kernel")
            aux = np.ascontiguousarray(self.aux, dtype=np.float64)
            object.__setattr__(self, "aux", aux)
            co = kernels[0].shape[0]
            k = kernels[0].shape[3]
            if aux.shape != (co, co, k, 1, 1):
                raise ShapeError(f"aux kernel must be {(co, co, k, 1, 1)}, got {aux.shape}")
        elif self.aux is not None:
            raise ShapeError(f"{self.kind.value} takes no aux kernel")

        if self.kind is OperatorKind.A3D:
            if self.mix is None:
                raise ShapeError("a3d state requires a slice-mixing stack")
            mix = np.ascontiguousarray(self.mix, dtype=np.float64)
            object.__setattr__(self, "mix", mix)
            ci = kernels[0].shape[1]
            if mix.ndim != 3 or mix.shape[0] != mix.shape[1] or mix.shape[2] != ci:
                raise ShapeError(f"mix must be (D, D, {ci}), got {mix.shape}")
            if self.depth_hint is not None and self.depth_hint != mix.shape[0]:
                raise ShapeError(f"depth_hint {self.depth_hint} contradicts mix depth {mix.shape[0]}")
            object.__setattr__(self, "depth_hint", mix.shape[0])
        elif self.mix is not None:
            raise ShapeError(f"{self.kind.value} takes no slice-mixing stack")

        if self.kind is OperatorKind.TSM:
            if self.shift_splits is None:
                raise ShapeError("tsm state requires shift_splits")
            up, down = int(self.shift_splits[0]), int(self.shift_splits[1])
            object.__setattr__(self, "shift_splits", (up, down))
            if up < 0 or down < 0 or up + down > kernels[0].shape[1]:
                raise ShapeError(f"shift_splits {self.shift_splits} invalid for "
                                 f"{kernels[0].shape[1]} input channels")
        elif self.shift_splits is not None:
            raise ShapeError(f"{self.kind.value} takes no shift_splits")

        if self.kind is not OperatorKind.ACS and self.acs_splits is not None:
            raise ShapeError(f"{self.kind.value} takes no acs_splits")

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

    def with_weights(self, kernels=None, aux=None, mix=None) -> "OperatorState":
        """Copy of this state with some weight arrays swapped out."""
        return replace(
            self,
            kernels=tuple(kernels) if kernels is not None else self.kernels,
            aux=aux if aux is not None else self.aux,
            mix=mix if mix is not None else self.mix,
        )


@dataclass(frozen=True)
class OperatorGrads:
    """Gradients mirroring OperatorState's weight layout."""

    kernels: tuple[np.ndarray, ...]
    aux: np.ndarray | None = None
    mix: np.ndarray | None = None

    def weight_arrays(self) -> dict[str, np.ndarray]:
        return _named_weights(self.kernels, self.aux, self.mix)


def _named_weights(kernels, aux, mix) -> dict[str, np.ndarray]:
    names = ("axial", "coronal", "sagittal") if len(kernels) == 3 else ("main",)
    out = dict(zip(names, kernels))
    out.update((name, arr) for name, arr in (("aux", aux), ("mix", mix)) if arr is not None)
    return out


def _as_kernel2d(w2d) -> np.ndarray:
    arr = np.ascontiguousarray(w2d, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError(f"2D kernel must be rank 4 (Cout, Cin, K, K), got shape {arr.shape}")
    if arr.shape[2] != arr.shape[3]:
        raise ShapeError(f"2D kernel must be square, got shape {arr.shape}")
    if arr.shape[2] % 2 != 1:
        raise ShapeError(f"kernel extent must be odd, got {arr.shape[2]}")
    return arr


def _acs_kernels_from_planes(planes: np.ndarray, splits: tuple[int, int, int]):
    """Place channel-partitioned KxK planes into the three orientations."""
    a, c, s = splits
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
    seed = rng.seed if rng is not None else None

    if kind is OperatorKind.NOFUSION:
        return OperatorState(kind, (w2d[:, :, None, :, :].copy(),),
                             depth_hint=depth, seed=seed)
    if kind is OperatorKind.I3D:
        main = np.repeat((w2d / k)[:, :, None, :, :], k, axis=2)
        return OperatorState(kind, (np.ascontiguousarray(main),),
                             depth_hint=depth, seed=seed)
    if kind is OperatorKind.P3D:
        return OperatorState(kind, (w2d[:, :, None, :, :].copy(),),
                             aux=p3d_aux_init(co, k), depth_hint=depth, seed=seed)
    if kind is OperatorKind.ACS:
        splits = acs_split(co)
        return OperatorState(kind, _acs_kernels_from_planes(w2d, splits),
                             acs_splits=splits, depth_hint=depth, seed=seed)
    if kind is OperatorKind.TSM:
        if tsm_div < 1:
            raise ValueError(f"tsm_div must be >= 1, got {tsm_div}")
        frac = ci // tsm_div
        return OperatorState(kind, (w2d[:, :, None, :, :].copy(),),
                             shift_splits=(frac, frac), depth_hint=depth, seed=seed)
    if kind is OperatorKind.A3D:
        mix = identity_mix(depth, ci)
        if perturb_scale != 0.0:
            if rng is None:
                raise ValueError("a3d with a nonzero perturbation needs an rng")
            mix = mix + rng.uniform(-perturb_scale, perturb_scale, (depth, depth, ci))
        return OperatorState(kind, (w2d[:, :, None, :, :].copy(),),
                             mix=mix, depth_hint=depth, seed=seed)
    raise ValueError(f"unhandled kind {kind!r}")


def _check_input(state: OperatorState, x: np.ndarray) -> None:
    if x.shape[0] != state.c_in:
        raise ShapeError(f"input has {x.shape[0]} channels, operator expects {state.c_in}")
    if state.kind is OperatorKind.A3D and x.shape[1] != state.mix.shape[0]:
        raise ShapeError(f"a3d state mixes {state.mix.shape[0]} slices, input has {x.shape[1]}")


def forward(state: OperatorState, x) -> np.ndarray:
    """Apply the operator to a (Cin, D, H, W) volume, yielding (Cout, D, H, W)."""
    x = as_volume(x)
    _check_input(state, x)
    kind = state.kind
    if kind in (OperatorKind.NOFUSION, OperatorKind.I3D):
        return conv3d_forward(x, state.kernels[0])
    if kind is OperatorKind.P3D:
        return conv3d_forward(conv3d_forward(x, state.kernels[0]), state.aux)
    if kind is OperatorKind.ACS:
        parts = [conv3d_forward(x, k) for k in state.kernels]
        return np.concatenate(parts, axis=0)
    if kind is OperatorKind.TSM:
        return conv3d_forward(axial_shift(x, state.shift_splits), state.kernels[0])
    if kind is OperatorKind.A3D:
        return conv3d_forward(slice_contract_forward(x, state.mix), state.kernels[0])
    raise ValueError(f"unhandled kind {kind!r}")


def backward(state: OperatorState, x, grad_out) -> tuple[np.ndarray, OperatorGrads]:
    """Exact adjoints of forward: input gradient plus per-weight gradients."""
    x = as_volume(x)
    grad_out = as_volume(grad_out, "grad_out")
    _check_input(state, x)
    d, h, w = x.shape[1:]
    if grad_out.shape != (state.c_out, d, h, w):
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match "
                         f"output shape {(state.c_out, d, h, w)}")
    kind = state.kind
    if kind in (OperatorKind.NOFUSION, OperatorKind.I3D):
        grad_x, grad_k = conv3d_backward(x, state.kernels[0], grad_out)
        return grad_x, OperatorGrads((grad_k,))
    if kind is OperatorKind.P3D:
        mid = conv3d_forward(x, state.kernels[0])
        grad_mid, grad_aux = conv3d_backward(mid, state.aux, grad_out)
        grad_x, grad_main = conv3d_backward(x, state.kernels[0], grad_mid)
        return grad_x, OperatorGrads((grad_main,), aux=grad_aux)
    if kind is OperatorKind.ACS:
        a, c, _ = state.acs_splits
        pieces = (grad_out[:a], grad_out[a:a + c], grad_out[a + c:])
        grad_x = np.zeros_like(x)
        grad_ks = []
        for kern, piece in zip(state.kernels, pieces):
            gx, gk = conv3d_backward(x, kern, np.ascontiguousarray(piece))
            grad_x += gx
            grad_ks.append(gk)
        return grad_x, OperatorGrads(tuple(grad_ks))
    if kind is OperatorKind.TSM:
        shifted = axial_shift(x, state.shift_splits)
        grad_shifted, grad_k = conv3d_backward(shifted, state.kernels[0], grad_out)
        return axial_shift_adjoint(grad_shifted, state.shift_splits), OperatorGrads((grad_k,))
    if kind is OperatorKind.A3D:
        mixed = slice_contract_forward(x, state.mix)
        grad_mixed, grad_k = conv3d_backward(mixed, state.kernels[0], grad_out)
        grad_x, grad_mix = slice_contract_backward(x, state.mix, grad_mixed)
        return grad_x, OperatorGrads((grad_k,), mix=grad_mix)
    raise ValueError(f"unhandled kind {kind!r}")


def parameter_count(state: OperatorState) -> int:
    """Number of trainable scalars in the state."""
    total = sum(k.size for k in state.kernels)
    if state.aux is not None:
        total += state.aux.size
    if state.mix is not None:
        total += state.mix.size
    return int(total)


def sgd_step(state: OperatorState, grads: OperatorGrads, lr: float) -> OperatorState:
    """New state with every weight moved one plain gradient step."""
    kernels = tuple(k - lr * g for k, g in zip(state.kernels, grads.kernels))
    aux = state.aux - lr * grads.aux if state.aux is not None else None
    mix = state.mix - lr * grads.mix if state.mix is not None else None
    return state.with_weights(kernels=kernels, aux=aux, mix=mix)


_MANIFEST_NAME = "operator.txt"


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
        a, c, s = state.acs_splits
        entries["acs_axial"], entries["acs_coronal"], entries["acs_sagittal"] = a, c, s
        ka, kc, ks = state.kernels
        planes = np.concatenate(
            [ka[:, :, 0, :, :], kc[:, :, :, 0, :], ks[:, :, :, :, 0]], axis=0)
        ctf.write_tensor(path / "main.ctf", planes)
    else:
        ctf.write_tensor(path / "main.ctf", state.kernels[0])
    if state.kind is OperatorKind.TSM:
        entries["shift_up"], entries["shift_down"] = state.shift_splits
    if state.aux is not None:
        ctf.write_tensor(path / "aux.ctf", state.aux)
    if state.mix is not None:
        ctf.write_tensor(path / "p.ctf", state.mix)
    ctf.write_manifest(path / _MANIFEST_NAME, entries)


def load_operator(dirpath) -> OperatorState:
    """Read back a directory written by save_operator."""
    path = Path(dirpath)
    entries = ctf.read_manifest(path / _MANIFEST_NAME)
    kind = OperatorKind.from_name(entries["kind"])
    depth = int(entries["depth"]) if "depth" in entries else None
    seed = int(entries["seed"]) if "seed" in entries else None
    main = ctf.read_tensor(path / "main.ctf")
    if kind is OperatorKind.ACS:
        splits = (int(entries["acs_axial"]), int(entries["acs_coronal"]),
                  int(entries["acs_sagittal"]))
        return OperatorState(kind, _acs_kernels_from_planes(main, splits),
                             acs_splits=splits, depth_hint=depth, seed=seed)
    if kind is OperatorKind.P3D:
        aux = ctf.read_tensor(path / "aux.ctf")
        return OperatorState(kind, (main,), aux=aux, depth_hint=depth, seed=seed)
    if kind is OperatorKind.TSM:
        splits = (int(entries["shift_up"]), int(entries["shift_down"]))
        return OperatorState(kind, (main,), shift_splits=splits, depth_hint=depth, seed=seed)
    if kind is OperatorKind.A3D:
        mix = ctf.read_tensor(path / "p.ctf")
        return OperatorState(kind, (main,), mix=mix, depth_hint=depth, seed=seed)
    return OperatorState(kind, (main,), depth_hint=depth, seed=seed)
