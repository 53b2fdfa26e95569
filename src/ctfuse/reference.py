"""Deliberately naive scalar-loop references.

These mirror the vectorized kernels one multiply at a time so the fast
paths can be checked against an independent implementation, and they
count every multiply-accumulate they perform so the analytic cost
formulas can be checked against actual work done.  They are slow on
purpose; use tiny instances.
"""

import numpy as np

from .operators import OperatorKind, OperatorState


def naive_conv3d(x, k):
    """Seven-nested-loop same-padded cross-correlation.

    Returns (out, macs); every tap counts one multiply-accumulate,
    including taps that land on zero padding.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    co, ci, kd, kh, kw = k.shape
    _, d, h, w = x.shape
    pd, ph, pw = kd // 2, kh // 2, kw // 2
    padded = np.zeros((ci, d + 2 * pd, h + 2 * ph, w + 2 * pw))
    padded[:, pd:pd + d, ph:ph + h, pw:pw + w] = x

    out = np.zeros((co, d, h, w))
    macs = 0
    for o in range(co):
        for dz in range(d):
            for hy in range(h):
                for wx in range(w):
                    acc = 0.0
                    for i in range(ci):
                        for a in range(kd):
                            for b in range(kh):
                                for c in range(kw):
                                    acc += padded[i, dz + a, hy + b, wx + c] * k[o, i, a, b, c]
                                    macs += 1
                    out[o, dz, hy, wx] = acc
    return out, macs


def naive_slice_contract(x, mix):
    """Scalar-loop slice mixing: out[c,j,h,w] = sum_d x[c,d,h,w] * mix[d,j,c].

    Returns (out, macs) with one MAC per (c, j, d, h, w) tuple.
    """
    x = np.asarray(x, dtype=np.float64)
    mix = np.asarray(mix, dtype=np.float64)
    c, d, h, w = x.shape
    out = np.zeros_like(x)
    macs = 0
    for ch in range(c):
        for j in range(d):
            for hy in range(h):
                for wx in range(w):
                    acc = 0.0
                    for src in range(d):
                        acc += x[ch, src, hy, wx] * mix[src, j, ch]
                        macs += 1
                    out[ch, j, hy, wx] = acc
    return out, macs


def naive_axial_shift(x, splits):
    """Slice-copy shift; performs no MACs."""
    x = np.asarray(x, dtype=np.float64)
    c_up, c_down = splits
    c, d, _, _ = x.shape
    out = np.zeros_like(x)
    for ch in range(c):
        for dz in range(d):
            if ch < c_up:
                src = dz + 1
            elif ch < c_up + c_down:
                src = dz - 1
            else:
                src = dz
            if 0 <= src < d:
                out[ch, dz] = x[ch, src]
    return out


def naive_operator_forward(state: OperatorState, x):
    """Compose the naive pieces per kind.  Returns (out, macs)."""
    x = np.asarray(x, dtype=np.float64)
    kind, w = state.kind, state.weights
    if kind in (OperatorKind.NOFUSION, OperatorKind.I3D):
        return naive_conv3d(x, w["main"])
    if kind is OperatorKind.P3D:
        mid, m1 = naive_conv3d(x, w["main"])
        out, m2 = naive_conv3d(mid, w["aux"])
        return out, m1 + m2
    if kind is OperatorKind.ACS:
        parts = []
        macs = 0
        for view in ("axial", "coronal", "sagittal"):
            part, m = naive_conv3d(x, w[view])
            parts.append(part)
            macs += m
        return np.concatenate(parts, axis=0), macs
    if kind is OperatorKind.TSM:
        return naive_conv3d(naive_axial_shift(x, state.shift_splits), w["main"])
    if kind is OperatorKind.A3D:
        mixed, m1 = naive_slice_contract(x, w["mix"])
        out, m2 = naive_conv3d(mixed, w["main"])
        return out, m1 + m2
    raise ValueError(f"unhandled kind {kind!r}")
