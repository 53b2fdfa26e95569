"""Dense rank-4 tensor kernels: slice-wise 3D convolution, per-channel
slice contraction, and axial shifting, with exact manual adjoints.

Conventions
-----------
* Feature volumes are float64 C-contiguous arrays of shape (C, D, H, W):
  channels, axial slices, rows, columns.
* Convolution kernels have shape (Cout, Cin, Kd, Kh, Kw), all extents odd.
* "Convolution" is cross-correlation (no kernel flip), the deep-learning
  convention under which 2D-pretrained kernels stay directly usable.
* Padding is always same-size zero padding.
* The forward convolution and slice contraction add terms in ascending
  scalar order, equal to the scalar-loop references bit for bit, as the
  oracle and equivariance tests pin.  The convolution is an einsum over
  the patch rows (input channel, then kernel depth, row, column); the
  slice contraction is one einsum that adds the source slices d in
  ascending order.  Above _SPLIT_MACS multiply-adds the convolution's
  einsum runs in contiguous output-channel blocks, one per CPU the
  process may run on; a block leaves each output element's order of
  terms as it is, so the bits do not depend on the thread count.  The
  backward passes are BLAS matrix products: bit-identical at a fixed
  shape and BLAS thread count, but not in the scalar order.  They, and
  the backbone's head, stay single calls, because splitting a BLAS
  product changes its bits: with one OpenBLAS 0.3.31 thread, halving the
  rows of a product of random shape (sides 2-299) changed its bits in
  235 of 600 draws and halving its columns in 309, and halving the rows
  of conv3d_backward's G @ pat^T changed them in 201 of 300.
* "Shift up" means output slice d reads input slice d+1; "down" reads
  d-1.  Vacated slices are zero-filled.

All functions are pure; inputs are never modified.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when an operand's shape violates an operation's contract."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


def as_volume(x, name: str = "x") -> np.ndarray:
    """Validate and return a (C, D, H, W) float64 array."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    _require(arr.ndim == 4, f"{name} must be rank 4 (C, D, H, W), got shape {arr.shape}")
    _require(all(s >= 1 for s in arr.shape), f"{name} has a zero-sized dimension: {arr.shape}")
    return arr


def as_int(value, name: str) -> int:
    """Validate and return a Python or numpy integer (not a bool) as int;
    anything else raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_kernel5(k, name: str = "kernel") -> np.ndarray:
    """Validate and return a (Cout, Cin, Kd, Kh, Kw) float64 array."""
    arr = np.ascontiguousarray(k, dtype=np.float64)
    _require(arr.ndim == 5, f"{name} must be rank 5 (Cout, Cin, Kd, Kh, Kw), got shape {arr.shape}")
    _require(all(s >= 1 for s in arr.shape), f"{name} has a zero-sized dimension: {arr.shape}")
    return arr


def as_slice_mix(m, name: str = "mix") -> np.ndarray:
    """Validate and return a (D, D, C) float64 slice-mixing stack."""
    arr = np.ascontiguousarray(m, dtype=np.float64)
    _require(arr.ndim == 3, f"{name} must be rank 3 (D, D, C), got shape {arr.shape}")
    _require(arr.shape[0] == arr.shape[1],
             f"{name} must be square in its first two dims, got shape {arr.shape}")
    _require(all(s >= 1 for s in arr.shape), f"{name} has a zero-sized dimension: {arr.shape}")
    _require(bool(np.all(np.isfinite(arr))), f"{name} contains non-finite entries")
    return arr


def identity_mix(depth: int, channels: int) -> np.ndarray:
    """Slice-mixing stack that maps every channel's slices through unchanged."""
    m = np.zeros((depth, depth, channels))
    m[np.arange(depth), np.arange(depth), :] = 1.0
    return m


def _check_conv_operands(x: np.ndarray, k: np.ndarray):
    co, ci, kd, kh, kw = k.shape
    _require(x.shape[0] == ci,
             f"input has {x.shape[0]} channels but kernel expects {ci} (kernel {k.shape})")
    _require(kd % 2 == 1 and kh % 2 == 1 and kw % 2 == 1,
             f"kernel extents must be odd for same padding, got ({kd}, {kh}, {kw})")


def _padded_patches(x: np.ndarray, kd: int, kh: int, kw: int) -> np.ndarray:
    """Patch matrix of the same-padded volume: row (ci, dd, dh, dw) holds
    x[ci, d+dd-pd, h+dh-ph, w+dw-pw] over the flattened (d, h, w)."""
    ci, d, h, w = x.shape
    pd, ph, pw = kd // 2, kh // 2, kw // 2
    padded = np.zeros((ci, d + 2 * pd, h + 2 * ph, w + 2 * pw))
    padded[:, pd:pd + d, ph:ph + h, pw:pw + w] = x
    windows = sliding_window_view(padded, (kd, kh, kw), axis=(1, 2, 3))
    return windows.transpose(0, 4, 5, 6, 1, 2, 3).reshape(ci * kd * kh * kw, d * h * w)


# Forward convolutions of more multiply-adds than this split over threads.
# Split on two CPUs, a demo layer (at most 1.1e6) ran up to four times
# slower, stage 0 of the default backbone (4.1e6) within noise of one
# call, and stage 1 (2.6e8) about twice as fast.
_SPLIT_MACS = 10_000_000


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _conv_rows(pat: np.ndarray, kmat: np.ndarray, threads: int) -> np.ndarray:
    """einsum("ap,fa->fp"), the rows f split into `threads` contiguous
    blocks (at most one per row), each computed on its own thread into
    its own rows of one output array."""
    co = kmat.shape[0]
    threads = min(threads, co)
    if threads <= 1:
        return np.einsum("ap,fa->fp", pat, kmat)
    out = np.empty((co, pat.shape[1]))
    bounds = [co * i // threads for i in range(threads + 1)]
    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(np.einsum, "ap,fa->fp", pat, kmat[lo:hi], out=out[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:])]
        for future in futures:
            future.result()
    return out


def conv3d_forward(x, k) -> np.ndarray:
    """Same-padded 3D cross-correlation of a (C, D, H, W) volume.

    Output (co, d, h, w) sums x[ci, d+dd-pd, h+dh-ph, w+dw-pw] * k[co, ci,
    dd, dh, dw] over ascending (ci, dd, dh, dw), taps outside the volume
    contributing zero.
    """
    x = as_volume(x)
    k = as_kernel5(k)
    _check_conv_operands(x, k)
    co = k.shape[0]
    pat = _padded_patches(x, *k.shape[2:])
    # einsum adds the patch rows one at a time in row order, the ascending
    # scalar order, which the tests pin bit-exactly; BLAS would not.
    threads = _cpu_count() if co * pat.size > _SPLIT_MACS else 1
    out = _conv_rows(pat, k.reshape(co, -1), threads)
    return out.reshape((co,) + x.shape[1:])


def conv3d_backward(x, k, grad_out) -> tuple[np.ndarray, np.ndarray]:
    """Exact adjoints of conv3d_forward: gradients for the input and kernel."""
    x = as_volume(x)
    k = as_kernel5(k)
    grad_out = as_volume(grad_out, "grad_out")
    _check_conv_operands(x, k)
    co, ci, kd, kh, kw = k.shape
    _, d, h, w = x.shape
    _require(grad_out.shape == (co, d, h, w),
             f"grad_out shape {grad_out.shape} does not match output shape {(co, d, h, w)}")
    g = grad_out.reshape(co, -1)
    grad_k = (g @ _padded_patches(x, kd, kh, kw).T).reshape(k.shape)
    grad_padded = np.zeros((ci, d + kd - 1, h + kh - 1, w + kw - 1))
    for dd in range(kd):
        for dh in range(kh):
            for dw in range(kw):
                tap = k[:, :, dd, dh, dw].T @ g
                grad_padded[:, dd:dd + d, dh:dh + h, dw:dw + w] += tap.reshape(ci, d, h, w)
    pd, ph, pw = kd // 2, kh // 2, kw // 2
    grad_x = np.ascontiguousarray(grad_padded[:, pd:pd + d, ph:ph + h, pw:pw + w])
    return grad_x, grad_k


def _check_mix_operands(x: np.ndarray, mix: np.ndarray):
    c, d = x.shape[0], x.shape[1]
    _require(mix.shape == (d, d, c),
             f"mix shape {mix.shape} does not match input with {d} slices and {c} channels "
             f"(expected {(d, d, c)})")


def slice_contract_forward(x, mix) -> np.ndarray:
    """Per-channel dense linear mixing of axial slices.

    out[c, j, h, w] = sum_d x[c, d, h, w] * mix[d, j, c], the sum running
    over d in ascending order.  mix[:, :, c] = identity is the exact
    identity map on channel c.
    """
    x = as_volume(x)
    mix = as_slice_mix(mix)
    _check_mix_operands(x, mix)
    c, d = x.shape[:2]
    # einsum walks d in ascending order for each output element, the
    # order the tests pin bit-exactly.
    return np.einsum("cdp,djc->cjp", x.reshape(c, d, -1), mix).reshape(x.shape)


def slice_contract_backward(x, mix, grad_out) -> tuple[np.ndarray, np.ndarray]:
    """Exact adjoints of slice_contract_forward.

    grad_x[c, d, h, w] = sum_j grad_out[c, j, h, w] * mix[d, j, c]
    grad_mix[d, j, c]  = sum_{h,w} x[c, d, h, w] * grad_out[c, j, h, w]
    """
    x = as_volume(x)
    mix = as_slice_mix(mix)
    grad_out = as_volume(grad_out, "grad_out")
    _check_mix_operands(x, mix)
    _require(grad_out.shape == x.shape,
             f"grad_out shape {grad_out.shape} does not match output shape {x.shape}")
    c, d = x.shape[:2]
    xs, gs = x.reshape(c, d, -1), grad_out.reshape(c, d, -1)
    grad_x = (mix.transpose(2, 0, 1) @ gs).reshape(x.shape)
    grad_mix = (xs @ gs.transpose(0, 2, 1)).transpose(1, 2, 0)
    return grad_x, np.ascontiguousarray(grad_mix)


def _check_splits(x: np.ndarray, splits) -> tuple[int, int]:
    c_up, c_down = int(splits[0]), int(splits[1])
    _require(c_up >= 0 and c_down >= 0, f"shift splits must be non-negative, got {splits}")
    _require(c_up + c_down <= x.shape[0],
             f"shift splits {splits} exceed the {x.shape[0]} input channels")
    return c_up, c_down


def axial_shift(x, splits: tuple[int, int]) -> np.ndarray:
    """Shift the first splits[0] channels one slice up, the next splits[1]
    one slice down, and keep the rest; vacated slices are zero-filled."""
    x = as_volume(x)
    c_up, c_down = _check_splits(x, splits)
    out = x.copy()
    out[:c_up, :-1] = x[:c_up, 1:]
    out[:c_up, -1] = 0.0
    out[c_up:c_up + c_down, 1:] = x[c_up:c_up + c_down, :-1]
    out[c_up:c_up + c_down, 0] = 0.0
    return out


def axial_shift_adjoint(grad_out, splits: tuple[int, int]) -> np.ndarray:
    """Exact adjoint of axial_shift: up-shifted channels receive their
    gradient shifted down, and vice versa."""
    g = as_volume(grad_out, "grad_out")
    c_up, c_down = _check_splits(g, splits)
    grad_x = g.copy()
    grad_x[:c_up, 1:] = g[:c_up, :-1]
    grad_x[:c_up, 0] = 0.0
    grad_x[c_up:c_up + c_down, :-1] = g[c_up:c_up + c_down, 1:]
    grad_x[c_up:c_up + c_down, -1] = 0.0
    return grad_x
