"""Verification harness: gradient checks, axial-translation-equivariance
probes, and fast-vs-naive oracle runs.

The equivariance probe measures E = f(shift(x, s)) - shift(f(x), s)
under a signed axial shift with zero fill.  Slices whose computation
touches no filled or padded slice in either term ("interior") must come
out exactly equal for any operator that applies the same computation at
every slice index; the asymmetric per-slice mixing operator has no such
region, which is the point of it.
"""

from dataclasses import dataclass

import numpy as np

from .backbone import (BackboneConfig, Tape, backward_features, build, forward_features,
                       named_weights, with_named)
from .operators import (
    ALL_KINDS,
    STAGES,
    OperatorKind,
    OperatorState,
    backward as op_backward,
    forward as op_forward,
    inflate,
)
from .reference import naive_operator_forward
from .rng import SeededRng
from .tensor import conv3d_backward, conv3d_forward, slice_contract_backward, slice_contract_forward

GRAD_TOLERANCE = 1e-5
ORACLE_TOLERANCE = 1e-12
FD_STEP = 1e-5


def axial_radius(state: OperatorState) -> int | None:
    """How far along depth one output slice reaches: its stages' sum, None for all."""
    reaches = [stage.reach(state.k) for stage in STAGES[state.kind]]
    return None if None in reaches else sum(reaches)


def shift_volume(x: np.ndarray, s: int) -> np.ndarray:
    """Signed axial translation with zero fill: out[d] = x[d + s]."""
    out = np.zeros_like(x)
    d = x.shape[1]
    if s >= 0:
        out[:, :d - s] = x[:, s:]
    else:
        out[:, -s:] = x[:, :d + s]
    return out


@dataclass(frozen=True)
class EquivarianceReport:
    """Max-abs equivariance errors split by slice region.

    interior_slices is the (lo, hi) inclusive slice range whose receptive
    field avoids both shift fill and padding in both compared terms, or
    None when no slice qualifies.  output_norm is max|f(x)| for scaling.
    """

    kind: OperatorKind
    shift: int
    depth: int
    interior_error: float
    boundary_error: float
    global_error: float
    interior_slices: tuple[int, int] | None
    output_norm: float

    @property
    def boundary_fraction(self) -> float:
        """Fraction of output slices outside the interior region."""
        if self.interior_slices is None:
            return 1.0
        lo, hi = self.interior_slices
        return 1.0 - (hi - lo + 1) / self.depth


def _interior_range(depth: int, radius: int | None, s: int) -> tuple[int, int] | None:
    if radius is None:
        return None
    lo = radius + max(0, -s)
    hi = depth - 1 - radius - max(0, s)
    if lo > hi:
        return None
    return lo, hi


def equivariance_probe(state: OperatorState, x, s: int) -> EquivarianceReport:
    """Compare operator-then-shift against shift-then-operator."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    depth = x.shape[1]
    if abs(s) >= depth:
        raise ValueError(f"|shift| must be < depth {depth}, got {s}")
    y = op_forward(state, x)
    err = op_forward(state, shift_volume(x, s)) - shift_volume(y, s)
    per_slice = np.max(np.abs(err), axis=(0, 2, 3))
    rng_in = _interior_range(depth, axial_radius(state), s)
    if rng_in is None:
        interior = 0.0
        boundary = float(per_slice.max())
    else:
        lo, hi = rng_in
        interior = float(per_slice[lo:hi + 1].max())
        rest = np.concatenate([per_slice[:lo], per_slice[hi + 1:]])
        boundary = float(rest.max()) if rest.size else 0.0
    return EquivarianceReport(
        kind=state.kind,
        shift=s,
        depth=depth,
        interior_error=interior,
        boundary_error=boundary,
        global_error=float(per_slice.max()),
        interior_slices=rng_in,
        output_norm=float(np.max(np.abs(y))),
    )


@dataclass(frozen=True)
class GradCheckReport:
    target: str
    max_rel_error: float
    coords: int
    passed: bool


def finite_diff_check(loss, tensors: dict, analytic: dict, rng: SeededRng, *,
                      samples: int = 30, step: float = FD_STEP) -> tuple[float, int]:
    """Central differences against analytic gradients.

    loss maps a {name: array} dict to a float; analytic holds the claimed
    gradient per name.  For each tensor, `samples` coordinates are drawn
    uniformly with replacement.  Relative error is measured against
    max(|analytic|, |numeric|, 1e-12).  Non-finite values fail loudly
    with the offending coordinate.
    """
    worst = 0.0
    total = 0
    for name, arr in tensors.items():
        garr = analytic[name]
        if garr.shape != arr.shape:
            raise ValueError(f"{name}: analytic gradient shape {garr.shape} "
                             f"does not match tensor shape {arr.shape}")
        for _ in range(samples):
            idx = tuple(int(rng.uniform(0, s)) for s in arr.shape)
            bumped = dict(tensors)
            hi = arr.copy()
            hi[idx] += step
            bumped[name] = hi
            up = loss(bumped)
            lo = arr.copy()
            lo[idx] -= step
            bumped[name] = lo
            down = loss(bumped)
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError(f"non-finite loss while probing {name}{list(idx)}")
            num = (up - down) / (2 * step)
            ana = float(garr[idx])
            if not np.isfinite(ana):
                raise ValueError(f"non-finite analytic gradient at {name}{list(idx)}")
            rel = abs(num - ana) / max(abs(num), abs(ana), 1e-12)
            worst = max(worst, rel)
            total += 1
    return worst, total


def generic_state(kind: OperatorKind, rng: SeededRng, *, c_out=5, c_in=8, k=3,
                  depth=4, tsm_div=8) -> OperatorState:
    """An operator state with every weight randomized and nonzero, so no
    init-time identity structure hides a broken path."""
    w2d = rng.uniform(-1, 1, (c_out, c_in, k, k))
    st = inflate(kind, w2d, depth, rng=rng.fork(1), tsm_div=tsm_div)

    def draw(shape):
        sign = np.where(rng.uniform(0, 1, shape) < 0.5, -1.0, 1.0)
        return sign * rng.uniform(0.1, 1.0, shape)

    return st.with_named({name: draw(a.shape) for name, a in st.weight_arrays().items()})


def _operator_fd(kind: OperatorKind, rng: SeededRng, samples: int) -> tuple[float, int]:
    r = rng.fork(11)
    st = generic_state(kind, r, c_out=5, c_in=4, k=3, depth=3, tsm_div=2)
    x = r.uniform(-1, 1, (4, 3, 6, 6))
    g = r.uniform(-1, 1, (5, 3, 6, 6))

    def loss(tensors):
        weights = {n: a for n, a in tensors.items() if n != "x"}
        return float(np.sum(g * op_forward(st.with_named(weights), tensors["x"])))

    gx, grads = op_backward(st, x, g)
    tensors = {"x": x, **st.weight_arrays()}
    analytic = {"x": gx, **grads.weight_arrays()}
    return finite_diff_check(loss, tensors, analytic, r.fork(5), samples=samples)


def _kernel_fd(forward, backward, shapes, r: SeededRng, samples: int) -> tuple[float, int]:
    """Finite differences of a bilinear kernel f(x, w) under <g, f(x, w)>;
    shapes lists x, w and g in draw order."""
    x, w, g = (r.uniform(-1, 1, shape) for shape in shapes)
    gx, gw = backward(x, w, g)

    def loss(t):
        return float(np.sum(g * forward(t["x"], t["w"])))

    return finite_diff_check(loss, {"x": x, "w": w}, {"x": gx, "w": gw},
                             r.fork(5), samples=samples)


def _backbone_fd(rng: SeededRng, samples: int) -> tuple[float, int]:
    r = rng.fork(14)
    config = BackboneConfig(depth=3, stages=((4, 1),), height=8, width=8,
                            seed=int(r.uniform(0, 2 ** 31)), fusion=OperatorKind.A3D)
    bb = build(config)
    x = r.uniform(-1, 1, (1, 3, 8, 8))
    g = r.uniform(-1, 1, (4, 8, 8))

    def loss(t):
        return float(np.sum(g * forward_features(with_named(bb, t), x)))

    tape = Tape()
    forward_features(bb, x, tape)
    return finite_diff_check(loss, named_weights(bb), backward_features(tape, g), r.fork(5),
                             samples=samples)


GRAD_TARGETS = ("conv3d", "slice_contract") + tuple(k.value for k in ALL_KINDS) + ("backbone",)


def grad_check(target: str, rng: SeededRng, *, samples: int = 30) -> GradCheckReport:
    """Finite-difference check of one named backward path."""
    if target == "conv3d":
        worst, total = _kernel_fd(conv3d_forward, conv3d_backward,
                                  [(3, 4, 5, 5), (4, 3, 3, 3, 3), (4, 4, 5, 5)],
                                  rng.fork(12), samples)
    elif target == "slice_contract":
        worst, total = _kernel_fd(slice_contract_forward, slice_contract_backward,
                                  [(2, 3, 4, 4), (3, 3, 2), (2, 3, 4, 4)],
                                  rng.fork(13), samples)
    elif target == "backbone":
        worst, total = _backbone_fd(rng, samples)
    else:
        worst, total = _operator_fd(OperatorKind.from_name(target), rng, samples)
    return GradCheckReport(target, worst, total, worst <= GRAD_TOLERANCE)


@dataclass(frozen=True)
class OracleSummary:
    kind: OperatorKind
    trials: int
    max_abs_error: float
    passed: bool


def oracle_equiv(kind: OperatorKind, trials: int, rng: SeededRng) -> OracleSummary:
    """Fast forward vs the scalar-loop reference on random small instances."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worst = 0.0
    for t in range(trials):
        r = rng.fork(t)
        c_out = 3 + int(r.uniform(0, 3))
        c_in = 2 + int(r.uniform(0, 3))
        depth = 2 + int(r.uniform(0, 3))
        k = (1, 3)[int(r.uniform(0, 2))] if kind is not OperatorKind.ACS else 3
        st = generic_state(kind, r, c_out=c_out, c_in=c_in, k=k, depth=depth, tsm_div=2)
        x = r.uniform(-1, 1, (c_in, depth, 4, 4))
        fast = op_forward(st, x)
        slow, _ = naive_operator_forward(st, x)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    return OracleSummary(kind, trials, worst, worst <= ORACLE_TOLERANCE)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_check_suite(seed: int = 0, oracle_trials: int = 20) -> list[CheckResult]:
    """Everything the `check` command runs, as one flat pass/fail list."""
    root = SeededRng(seed)
    results: list[CheckResult] = []

    for i, kind in enumerate(ALL_KINDS):
        s = oracle_equiv(kind, oracle_trials, root.fork(1, i))
        results.append(CheckResult(f"oracle:{kind.value}", s.passed,
                                   f"max abs err {s.max_abs_error:.2e} over {s.trials} trials"))

    for i, target in enumerate(GRAD_TARGETS):
        rep = grad_check(target, root.fork(2, i))
        results.append(CheckResult(f"grad:{target}", rep.passed,
                                   f"max rel err {rep.max_rel_error:.2e} over {rep.coords} coords"))

    eq_rng = root.fork(3)
    x = eq_rng.uniform(-1, 1, (8, 7, 6, 6))
    symmetric = [kind for kind in ALL_KINDS if None not in (s.reach(3) for s in STAGES[kind])]
    worst_interior = 0.0
    worst_boundary_floor = np.inf
    for i, kind in enumerate(symmetric):
        st = generic_state(kind, eq_rng.fork(i), c_out=5, c_in=8, depth=7)
        for s in (1, -1, 2, -2):
            rep = equivariance_probe(st, x, s)
            worst_interior = max(worst_interior, rep.interior_error)
            if kind is not OperatorKind.NOFUSION and abs(s) == 1:
                worst_boundary_floor = min(worst_boundary_floor, rep.boundary_error)
    results.append(CheckResult("equivariance:interior", worst_interior <= 1e-12,
                               f"max interior err {worst_interior:.2e} over symmetric kinds"))
    results.append(CheckResult("equivariance:boundary", worst_boundary_floor > 0,
                               f"min boundary err {worst_boundary_floor:.2e} (must be > 0)"))

    st = generic_state(OperatorKind.A3D, eq_rng.fork(50), c_out=5, c_in=8, depth=7)
    rep = equivariance_probe(st, x, 1)
    results.append(CheckResult(
        "equivariance:a3d-global", rep.global_error > 1e-2 * rep.output_norm,
        f"global err {rep.global_error:.2e} vs 1e-2*norm {1e-2 * rep.output_norm:.2e}"))

    ie_rng = root.fork(4)
    ok = True
    for t in range(5):
        r = ie_rng.fork(t)
        w2d = r.uniform(-1, 1, (5, 3, 3, 3))
        xx = r.uniform(-1, 1, (3, 4, 5, 5))
        base = op_forward(inflate(OperatorKind.NOFUSION, w2d, 4), xx)
        p3d = op_forward(inflate(OperatorKind.P3D, w2d, 4), xx)
        a3d = op_forward(inflate(OperatorKind.A3D, w2d, 4, perturb_scale=0.0), xx)
        ok = ok and np.array_equal(base, p3d) and np.array_equal(base, a3d)
    results.append(CheckResult("init-equivalence", ok,
                               "nofusion == p3d(init) == a3d(identity mix), exact"))
    return results
