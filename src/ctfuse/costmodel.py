"""Exact parameter and multiply-accumulate accounting per operator.

Counts are exact integers derived from the layer dimensions; overhead
ratios against the no-fusion baseline are exact rationals.  The closed
forms per kind, with Ci/Co input/output channels, K the in-plane kernel
extent and D/H/W the volume dims:

    kind       params              MACs
    nofusion   Co*Ci*K^2           D*H*W*Co*Ci*K^2
    i3d        Co*Ci*K^3           D*H*W*Co*Ci*K^3
    p3d        + Co*Co*K           + D*H*W*Co*Co*K
    acs        Co*Ci*K^2           D*H*W*Co*Ci*K^2
    tsm        Co*Ci*K^2           D*H*W*Co*Ci*K^2   (shifts are copies)
    a3d        + D^2*Ci            + D^2*H*W*Ci

so the overhead ratios are 1, K, 1 + Co/(Ci*K), 1, 1, and
1 + D^2/(Co*K^2) for parameters / 1 + D/(Co*K^2) for MACs; both counts
are read off the operators' stage table (`operators.stage_shapes`).

The backbone's head (stage 0's unification folded into the Dx1x1 valid
depth collapse and applied at full resolution; each coarser stage
unified at its own resolution and their sum collapsed at stage 1's) is
counted apart, so the fusion totals and ratios stay those of the
operators alone.

MACs are the primary unit; a FLOP display doubles them (one multiply
plus one add) and leaves every ratio unchanged.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .operators import OperatorKind, stage_shapes
from .tensor import as_int


@dataclass(frozen=True)
class LayerDims:
    """One fusion layer's dimensions: channels in/out, kernel extent, volume.
    Each is stored as int; a value that is not an integer raises ValueError."""

    c_in: int
    c_out: int
    k: int
    d: int
    h: int
    w: int

    def __post_init__(self):
        for name in ("c_in", "c_out", "k", "d", "h", "w"):
            v = as_int(getattr(self, name), name)
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
            object.__setattr__(self, name, v)
        if self.k % 2 != 1:
            raise ValueError(f"kernel extent must be odd, got {self.k}")


def count_params(kind: OperatorKind, dims: LayerDims) -> int:
    """Trainable scalars of one layer; equals the operator state's size."""
    return sum(math.prod(shape) for _, shapes in stage_shapes(kind, dims.c_in, dims.c_out,
                                                              dims.k, dims.d)
               for shape in shapes.values())


def count_macs(kind: OperatorKind, dims: LayerDims) -> int:
    """Multiply-accumulates of one same-padded forward pass.

    Padding taps count (the arithmetic is performed on the zeros); pure
    slice shifts and copies count zero.
    """
    return sum(stage.macs(shapes, dims.d, dims.h * dims.w)
               for stage, shapes in stage_shapes(kind, dims.c_in, dims.c_out, dims.k, dims.d))


def overhead_params(kind: OperatorKind, dims: LayerDims) -> Fraction:
    """Exact parameter ratio versus the no-fusion layer of the same dims."""
    return Fraction(count_params(kind, dims), count_params(OperatorKind.NOFUSION, dims))


def overhead_macs(kind: OperatorKind, dims: LayerDims) -> Fraction:
    """Exact MAC ratio versus the no-fusion layer of the same dims."""
    return Fraction(count_macs(kind, dims), count_macs(OperatorKind.NOFUSION, dims))


@dataclass(frozen=True)
class LayerCost:
    dims: LayerDims
    params: int
    macs: int
    overhead_params: Fraction
    overhead_macs: Fraction


@dataclass(frozen=True)
class CostReport:
    """Per-layer and total cost of a stack of fusion layers of one kind."""

    kind: OperatorKind
    layers: tuple[LayerCost, ...]
    total_params: int
    total_macs: int
    total_overhead_params: Fraction
    total_overhead_macs: Fraction

    @property
    def gmacs(self) -> float:
        return self.total_macs / 1e9

    @property
    def gmacs_display(self) -> str:
        """Total GMACs at the two-decimal precision used for comparisons."""
        return f"{self.gmacs:.2f}"

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs


def backbone_cost(kind: OperatorKind, layers) -> CostReport:
    """Sum per-layer counts; overheads compare against no-fusion totals."""
    layers = list(layers)
    if not layers:
        raise ValueError("layer list must be nonempty")
    per_layer = []
    total_p = total_m = base_p = base_m = 0
    for dims in layers:
        p = count_params(kind, dims)
        m = count_macs(kind, dims)
        per_layer.append(LayerCost(dims, p, m,
                                   overhead_params(kind, dims), overhead_macs(kind, dims)))
        total_p += p
        total_m += m
        base_p += count_params(OperatorKind.NOFUSION, dims)
        base_m += count_macs(OperatorKind.NOFUSION, dims)
    return CostReport(kind, tuple(per_layer), total_p, total_m,
                      Fraction(total_p, base_p), Fraction(total_m, base_m))


@dataclass(frozen=True)
class HeadLayer:
    """One bias-free head product, 1x1 in-plane: c_out x c_in weights with
    `taps` depth taps, each used once per output position.  params counts
    the trainable weights it reads that no earlier head layer read."""

    name: str
    c_in: int
    c_out: int
    taps: int
    positions: int
    params: int

    @property
    def macs(self) -> int:
        return self.positions * self.c_out * self.c_in * self.taps


def head_rows(head, reports) -> list[tuple[str, str, int, int]]:
    """(part, name, params, macs) rows: each head layer, the head total,
    and each kind's whole network (fusion layers plus head; no biases)."""
    params, macs = sum(h.params for h in head), sum(h.macs for h in head)
    rows = [("head", h.name, h.params, h.macs) for h in head]
    rows.append(("head", "total", params, macs))
    rows += [("network", rep.kind.value, rep.total_params + params, rep.total_macs + macs)
             for rep in reports]
    return rows


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_table(reports, flops: bool = False) -> str:
    """Column-aligned text table over one or more kinds' cost reports."""
    unit = "flops" if flops else "macs"
    header = ["kind", "layer", "cin", "cout", "k", "d", "h", "w",
              "params", unit, "ovh_params", f"ovh_{unit}"]
    rows = [header]
    for rep in reports:
        for i, lc in enumerate(rep.layers):
            d = lc.dims
            work = 2 * lc.macs if flops else lc.macs
            rows.append([rep.kind.value, str(i), str(d.c_in), str(d.c_out), str(d.k),
                         str(d.d), str(d.h), str(d.w), str(lc.params), str(work),
                         f"{_fraction_str(lc.overhead_params)} ({float(lc.overhead_params):.4f})",
                         f"{_fraction_str(lc.overhead_macs)} ({float(lc.overhead_macs):.4f})"])
        total_work = rep.total_flops if flops else rep.total_macs
        rows.append([rep.kind.value, "total", "", "", "", "", "", "",
                     str(rep.total_params), str(total_work),
                     f"{_fraction_str(rep.total_overhead_params)} "
                     f"({float(rep.total_overhead_params):.4f})",
                     f"{_fraction_str(rep.total_overhead_macs)} "
                     f"({float(rep.total_overhead_macs):.4f})"])
    return _aligned(rows)


def _aligned(rows) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                     for r in rows)


def format_head_table(rows, flops: bool = False) -> str:
    """Text table of head_rows."""
    scale = 2 if flops else 1
    return _aligned([["part", "name", "params", "flops" if flops else "macs"]]
                    + [[part, name, str(p), str(scale * m)] for part, name, p, m in rows])


def format_head_csv(rows) -> str:
    """head_rows as lines part,name,params,macs."""
    return "\n".join(["part,name,params,macs"] + [",".join(map(str, r)) for r in rows])


def format_csv(reports) -> str:
    """Machine-readable lines: kind,layer,params,macs,overhead_params,overhead_macs.

    Overheads are exact rationals rendered as n/d (or a bare integer).
    Layer is the zero-based index, with a final `total` row per kind.
    """
    lines = ["kind,layer,params,macs,overhead_params,overhead_macs"]
    for rep in reports:
        for i, lc in enumerate(rep.layers):
            lines.append(f"{rep.kind.value},{i},{lc.params},{lc.macs},"
                         f"{_fraction_str(lc.overhead_params)},{_fraction_str(lc.overhead_macs)}")
        lines.append(f"{rep.kind.value},total,{rep.total_params},{rep.total_macs},"
                     f"{_fraction_str(rep.total_overhead_params)},"
                     f"{_fraction_str(rep.total_overhead_macs)}")
    return "\n".join(lines)
