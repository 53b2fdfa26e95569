"""Tests for the gradient, oracle, and equivariance probe harness."""

import numpy as np
import pytest

from ctfuse.operators import OperatorKind, forward, inflate
from ctfuse.probes import (
    GRAD_TARGETS,
    axial_radius,
    equivariance_probe,
    finite_diff_check,
    generic_state,
    grad_check,
    oracle_equiv,
    run_check_suite,
    shift_volume,
)
from ctfuse.rng import SeededRng
from ctfuse.tensor import ShapeError

MIXING_KINDS = (OperatorKind.I3D, OperatorKind.P3D, OperatorKind.ACS, OperatorKind.TSM)


def probe_volume(seed=7, c_in=8, depth=7):
    return SeededRng(seed).uniform(-1.0, 1.0, (c_in, depth, 6, 6))


class TestShiftVolume:
    def test_positive_shift_pulls_from_above(self):
        x = np.arange(4, dtype=np.float64).reshape(1, 4, 1, 1) + 1
        out = shift_volume(x, 1)
        assert out[0, :, 0, 0].tolist() == [2.0, 3.0, 4.0, 0.0]

    def test_negative_shift_pulls_from_below(self):
        x = np.arange(4, dtype=np.float64).reshape(1, 4, 1, 1) + 1
        out = shift_volume(x, -1)
        assert out[0, :, 0, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_zero_shift_is_identity(self):
        x = probe_volume()
        assert np.array_equal(shift_volume(x, 0), x)

    def test_opposite_shifts_compose_to_crop(self):
        x = probe_volume()
        back = shift_volume(shift_volume(x, 2), -2)
        assert np.array_equal(back[:, 2:], x[:, 2:])
        assert np.all(back[:, :2] == 0.0)


class TestAxialRadius:
    def test_radius_by_kind(self):
        rng = SeededRng(0)
        expected = {
            OperatorKind.NOFUSION: 0,
            OperatorKind.I3D: 1,
            OperatorKind.P3D: 1,
            OperatorKind.ACS: 1,
            OperatorKind.TSM: 1,
            OperatorKind.A3D: None,
        }
        for i, (kind, radius) in enumerate(expected.items()):
            st = generic_state(kind, rng.fork(i), depth=5)
            assert axial_radius(st) == radius

    def test_radius_tracks_kernel_extent(self):
        rng = SeededRng(1)
        st = generic_state(OperatorKind.I3D, rng, c_out=3, c_in=2, k=5, depth=7)
        assert axial_radius(st) == 2

    def test_radius_sums_stage_reaches_at_kernel_extent_five(self):
        rng = SeededRng(4)
        for i, (kind, radius) in enumerate(((OperatorKind.P3D, 2), (OperatorKind.ACS, 2),
                                            (OperatorKind.TSM, 1))):
            st = generic_state(kind, rng.fork(i), c_out=3, c_in=2, k=5, depth=7, tsm_div=2)
            assert axial_radius(st) == radius, kind


class TestEquivarianceProbe:
    def test_nofusion_is_exactly_equivariant_everywhere(self):
        st = generic_state(OperatorKind.NOFUSION, SeededRng(2))
        for s in (-3, -1, 1, 2):
            rep = equivariance_probe(st, probe_volume(), s)
            assert rep.global_error == 0.0
            assert rep.interior_error == 0.0
            assert rep.boundary_error == 0.0

    def test_identity_mix_inherits_exact_equivariance(self):
        # Slice mixing with an identity stack is a slice-wise conv, so the
        # asymmetry of this operator comes entirely from the learned mix.
        rng = SeededRng(3)
        w2d = rng.uniform(-1, 1, (4, 2, 3, 3))
        st = inflate(OperatorKind.A3D, w2d, 6, perturb_scale=0.0)
        rep = equivariance_probe(st, rng.uniform(-1, 1, (2, 6, 5, 5)), 1)
        assert rep.global_error == 0.0

    def test_symmetric_kinds_have_zero_interior_error(self):
        x = probe_volume()
        rng = SeededRng(4)
        for i, kind in enumerate(MIXING_KINDS):
            st = generic_state(kind, rng.fork(i))
            for s in (1, -1, 2, -2):
                rep = equivariance_probe(st, x, s)
                assert rep.interior_error <= 1e-12, (kind, s)

    def test_mixing_kinds_have_positive_boundary_error(self):
        x = probe_volume()
        rng = SeededRng(5)
        for i, kind in enumerate(MIXING_KINDS):
            st = generic_state(kind, rng.fork(i))
            rep = equivariance_probe(st, x, 1)
            assert rep.boundary_error > 0.0, kind

    def test_a3d_breaks_equivariance_globally(self):
        st = generic_state(OperatorKind.A3D, SeededRng(6), depth=7)
        rep = equivariance_probe(st, probe_volume(), 1)
        assert rep.interior_slices is None
        assert rep.global_error > 1e-2 * rep.output_norm

    def test_interior_window_shrinks_with_shift(self):
        st = generic_state(OperatorKind.I3D, SeededRng(7))
        x = probe_volume()
        assert equivariance_probe(st, x, 1).interior_slices == (1, 4)
        assert equivariance_probe(st, x, -1).interior_slices == (2, 5)
        assert equivariance_probe(st, x, 2).interior_slices == (1, 3)
        assert equivariance_probe(st, x, -2).interior_slices == (3, 5)

    def test_interior_error_never_exceeds_global(self):
        rng = SeededRng(8)
        x = probe_volume()
        for i, kind in enumerate(OperatorKind):
            st = generic_state(kind, rng.fork(i), depth=7)
            rep = equivariance_probe(st, x, 2)
            assert rep.interior_error <= rep.global_error
            assert rep.boundary_error <= rep.global_error

    def test_boundary_fraction_grows_as_depth_shrinks(self):
        # The affected share of slices scales like (2r + |s|) / D, so a
        # shallower stack has proportionally more broken slices even
        # though the raw error values depend on the weights.
        rng = SeededRng(9)
        for i, kind in enumerate(MIXING_KINDS):
            fracs = []
            for depth in (7, 5, 3):
                st = generic_state(kind, rng.fork(i, depth), depth=depth)
                x = probe_volume(seed=depth, depth=depth)
                fracs.append(equivariance_probe(st, x, 1).boundary_fraction)
            assert fracs[0] < fracs[1] < fracs[2], kind

    def test_boundary_fraction_exact_values(self):
        rng = SeededRng(10)
        st7 = generic_state(OperatorKind.I3D, rng.fork(7), depth=7)
        st3 = generic_state(OperatorKind.I3D, rng.fork(3), depth=3)
        rep7 = equivariance_probe(st7, probe_volume(depth=7), 1)
        rep3 = equivariance_probe(st3, probe_volume(depth=3), 1)
        assert rep7.boundary_fraction == pytest.approx(3 / 7)
        assert rep3.interior_slices is None
        assert rep3.boundary_fraction == 1.0

    def test_boundary_error_matches_dropped_tap_formula(self):
        # For a depth kernel (k_m1, k_0, k_p1) on one channel with 1x1
        # spatial extent, the probe error on a non-filled slice d is
        # minus the sum of taps whose unshifted read d + delta falls off
        # the stack while the shifted read d + s + delta stays on it.
        rng = SeededRng(11)
        d_total = 6
        k = np.zeros((1, 1, 3, 3, 3))
        taps = rng.uniform(0.5, 1.5, (3,))
        k[0, 0, :, 1, 1] = taps
        st = inflate(OperatorKind.I3D, np.ones((1, 1, 3, 3)), d_total).with_named({"main": k})
        x = rng.uniform(-1, 1, (1, d_total, 1, 1))
        for s in (1, -2):
            err = forward(st, shift_volume(x, s)) - shift_volume(forward(st, x), s)
            for d in range(d_total):
                if not 0 <= d + s <= d_total - 1:
                    continue
                want = 0.0
                for delta in (-1, 0, 1):
                    read = d + s + delta
                    if not 0 <= d + delta <= d_total - 1 and 0 <= read <= d_total - 1:
                        want -= taps[delta + 1] * x[0, read, 0, 0]
                assert err[0, d, 0, 0] == pytest.approx(want, abs=1e-12), (s, d)

    def test_rank_one_input_is_a_shape_error(self):
        st = generic_state(OperatorKind.I3D, SeededRng(13))
        with pytest.raises(ShapeError, match="rank 4"):
            equivariance_probe(st, np.ones(7), 1)

    def test_shift_must_be_smaller_than_depth(self):
        st = generic_state(OperatorKind.I3D, SeededRng(12))
        with pytest.raises(ValueError):
            equivariance_probe(st, probe_volume(), 7)
        with pytest.raises(ValueError):
            equivariance_probe(st, probe_volume(), -9)


class TestFiniteDiffCheck:
    @staticmethod
    def quadratic_case(seed=13):
        rng = SeededRng(seed)
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (3,))

        def loss(t):
            return float(np.sum(t["a"] ** 2) + np.sum(np.sin(t["b"])))

        analytic = {"a": 2 * a, "b": np.cos(b)}
        return loss, {"a": a, "b": b}, analytic

    def test_correct_gradients_pass(self):
        loss, tensors, analytic = self.quadratic_case()
        worst, coords = finite_diff_check(loss, tensors, analytic, SeededRng(14))
        assert worst < 1e-6
        assert coords == 60

    def test_sign_flipped_gradient_is_caught(self):
        loss, tensors, analytic = self.quadratic_case()
        analytic["a"] = -analytic["a"]
        worst, _ = finite_diff_check(loss, tensors, analytic, SeededRng(15))
        assert worst > 1.0

    def test_scaled_gradient_is_caught(self):
        loss, tensors, analytic = self.quadratic_case()
        analytic["b"] = 1.01 * analytic["b"]
        worst, _ = finite_diff_check(loss, tensors, analytic, SeededRng(16))
        assert worst > 1e-3

    def test_sample_count_scales_with_request(self):
        loss, tensors, analytic = self.quadratic_case()
        _, coords = finite_diff_check(loss, tensors, analytic, SeededRng(17), samples=5)
        assert coords == 10

    def test_shape_mismatch_rejected(self):
        loss, tensors, analytic = self.quadratic_case()
        analytic["a"] = analytic["a"][:2]
        with pytest.raises(ValueError, match="shape"):
            finite_diff_check(loss, tensors, analytic, SeededRng(18))

    def test_non_finite_loss_reported_with_coordinate(self):
        def loss(t):
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(np.log(t["a"]).sum())

        a = np.zeros((2, 2))
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_check(loss, {"a": a}, {"a": a}, SeededRng(19))


class TestGradCheck:
    def test_every_target_passes(self):
        rng = SeededRng(20)
        for i, target in enumerate(GRAD_TARGETS):
            rep = grad_check(target, rng.fork(i))
            assert rep.passed, (target, rep.max_rel_error)
            assert rep.max_rel_error <= 1e-6
            assert rep.coords >= 30

    def test_target_list_covers_all_operators(self):
        for kind in OperatorKind:
            assert kind.value in GRAD_TARGETS
        assert "conv3d" in GRAD_TARGETS
        assert "slice_contract" in GRAD_TARGETS
        assert "backbone" in GRAD_TARGETS

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            grad_check("conv4d", SeededRng(21))


class TestOracleEquiv:
    def test_all_kinds_match_reference_exactly(self):
        rng = SeededRng(22)
        for i, kind in enumerate(OperatorKind):
            summary = oracle_equiv(kind, 4, rng.fork(i))
            assert summary.passed
            assert summary.max_abs_error == 0.0
            assert summary.trials == 4

    def test_trial_count_validated(self):
        with pytest.raises(ValueError, match="trials"):
            oracle_equiv(OperatorKind.I3D, 0, SeededRng(23))


class TestCheckSuite:
    def test_suite_passes_and_covers_expected_names(self):
        results = run_check_suite(0, oracle_trials=3)
        names = [r.name for r in results]
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        for kind in OperatorKind:
            assert f"oracle:{kind.value}" in names
        for target in GRAD_TARGETS:
            assert f"grad:{target}" in names
        assert "equivariance:interior" in names
        assert "equivariance:boundary" in names
        assert "equivariance:a3d-global" in names
        assert "init-equivalence" in names

    def test_details_are_informative(self):
        results = run_check_suite(1, oracle_trials=2)
        by_name = {r.name: r for r in results}
        assert "trials" in by_name["oracle:a3d"].detail
        assert "coords" in by_name["grad:backbone"].detail
