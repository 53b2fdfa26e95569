"""Span tracing at ctfuse's module boundaries, from outside the library.

`Tracer.patch()` swaps every traced public function for a wrapper that
records a span (name, start, end, parent) and, where one is defined, the
work of the call (MACs or bytes) computed from its argument shapes.  The
swap covers every ctfuse module that holds a reference to the function,
so calls between modules (backbone -> operators -> tensor) are traced
too; leaving the `with` block restores the originals.  Spans stay in
memory until `write()`.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from oracle import conv_macs, head_macs, slice_mix_macs

TENSOR_FORWARDS = ("tensor.conv3d_forward", "tensor.slice_contract_forward",
                   "tensor.axial_shift")


def _ctf_bytes(array):
    """CTF1 file size: magic, rank byte, u32 dims, float64 payload."""
    return 5 + 4 * array.ndim + 8 * array.size


# (module, function) -> work(args, result), or None when only time is kept.
TRACED = {
    ("tensor", "conv3d_forward"): lambda a, r: conv_macs(a[1].shape, a[0].shape),
    ("tensor", "conv3d_backward"): lambda a, r: 2 * conv_macs(a[1].shape, a[0].shape),
    ("tensor", "slice_contract_forward"): lambda a, r: slice_mix_macs(a[0].shape),
    ("tensor", "slice_contract_backward"): lambda a, r: 2 * slice_mix_macs(a[0].shape),
    ("tensor", "axial_shift"): None,
    ("tensor", "axial_shift_adjoint"): None,
    ("operators", "forward"): None,
    ("operators", "backward"): None,
    ("backbone", "forward_features"): lambda a, r: head_macs(a[0].config),
    ("backbone", "backward_features"): None,
    ("backbone", "apply_sgd"): None,
    ("demo", "train"): None,
    ("ctf", "read_tensor"): lambda a, r: _ctf_bytes(r),
    ("ctf", "write_tensor"): lambda a, r: _ctf_bytes(a[1]),
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # [name, start, end, parent index or -1, work]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = self.clock()
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                record[4] = work(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Trace every TRACED function for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ctfuse" or n.startswith("ctfuse.")]
        swaps = []
        for (mod_name, fn_name), work in TRACED.items():
            original = getattr(importlib.import_module(f"ctfuse.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        swaps.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(swaps):
                setattr(module, attr, original)

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")


def summarize(spans):
    """Per root name, per span name: calls, total seconds, self seconds,
    work, and how often each name was called directly from each other name.

    Self time is a span's duration minus the time its direct children
    cover; one thread means children never overlap each other.
    """
    n = len(spans)
    child_time = [0.0] * n
    root = list(range(n))
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
    out = defaultdict(lambda: defaultdict(lambda: {
        "calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "callers": defaultdict(int)}))
    for i, (name, start, end, parent, work) in enumerate(spans):
        row = out[spans[root[i]][0]][name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["work"] += work
        row["callers"][spans[parent][0] if parent >= 0 else None] += 1
    return out


# Per-layer metrics: name -> (unit, better).  Timed-phase values are per
# op, set-up values (ctf.*) per set-up.
PER_OP_SELF = ("tensor.slice_contract_forward", "tensor.slice_contract_backward",
               "tensor.axial_shift", "tensor.axial_shift_adjoint",
               "operators.forward", "operators.backward",
               "backbone.forward_features", "backbone.backward_features",
               "backbone.apply_sgd", "demo.train")
CONVS = ("tensor.conv3d_forward", "tensor.conv3d_backward")
SETUP_LAYERS = ("ctf.read_tensor", "ctf.write_tensor")
_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "callers": {}}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, timed_s, overhead_pct):
    """Name -> (value, unit) for every per-layer metric of a traced run.

    `timed_s` is the wall time of the traced ops as the run measured it;
    `trace.accounted_share` is the part of it the layers' self times
    cover.  `overhead_pct` compares untraced with traced ops per second.
    """
    summary = summarize(spans)
    ops, setup = summary["bench.op"], summary["bench.setup"]
    n_ops = ops["bench.op"]["calls"]

    def row(name, where=ops):
        return where.get(name, _EMPTY)

    out = {}
    for name in CONVS:
        r = row(name)
        out[f"{name}.calls"] = (r["calls"] / n_ops, "count")
        out[f"{name}.self_s"] = (r["self_s"] / n_ops, "s")
        out[f"{name}.gmac_per_s"] = (_ratio(r["work"], r["self_s"]) / 1e9, "GMAC/s")
    for name in PER_OP_SELF:
        out[f"{name}.self_s"] = (row(name)["self_s"] / n_ops, "s")
    recomputed = sum(row(t)["callers"].get("operators.backward", 0) for t in TENSOR_FORWARDS)
    out["operators.backward.forward_calls"] = (
        _ratio(recomputed, row("operators.backward")["calls"]), "count")
    out["backbone.backward_features.forward_calls"] = (_ratio(
        row("operators.forward")["callers"].get("backbone.backward_features", 0),
        row("backbone.backward_features")["calls"]), "count")
    head = row("backbone.forward_features")
    out["backbone.head_gmac_per_s"] = (_ratio(head["work"], head["self_s"]) / 1e9, "GMAC/s")
    for name in SETUP_LAYERS:
        out[f"{name}.bytes"] = (row(name, setup)["work"], "B")
        out[f"{name}.self_s"] = (row(name, setup)["self_s"], "s")
    layers_s = sum(r["self_s"] for name, r in ops.items() if name != "bench.op")
    out["trace.accounted_share"] = (layers_s / timed_s, "ratio")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
