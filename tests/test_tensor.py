"""Tensor kernel tests: hand-worked cases, brute-force oracles, adjoints."""

import numpy as np
import pytest

from ctfuse.rng import SeededRng
from ctfuse.reference import naive_conv3d, naive_slice_contract
from ctfuse.tensor import (
    ShapeError,
    axial_shift,
    axial_shift_adjoint,
    conv3d_backward,
    conv3d_forward,
    identity_mix,
    slice_contract_backward,
    slice_contract_forward,
)


def central_diff(f, arr, index, step=1e-5):
    """Central finite difference of scalar f at one coordinate of arr."""
    bumped = arr.copy()
    bumped[index] += step
    hi = f(bumped)
    bumped[index] -= 2 * step
    lo = f(bumped)
    return (hi - lo) / (2 * step)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class TestConv3dForward:
    def test_all_ones_counts_taps(self):
        """Same-padded all-ones 3x3 correlation counts in-bounds taps."""
        x = np.ones((1, 1, 3, 3))
        k = np.ones((1, 1, 1, 3, 3))
        y = conv3d_forward(x, k)
        assert y.shape == (1, 1, 3, 3)
        assert y[0, 0, 1, 1] == 9.0
        assert y[0, 0, 0, 0] == 4.0
        assert y[0, 0, 0, 1] == 6.0

    def test_identity_axial_tap(self):
        """A [0,1,0] depth kernel reproduces the input."""
        x = np.arange(3.0).reshape(1, 3, 1, 1) + 1.0
        k = np.array([0.0, 1.0, 0.0]).reshape(1, 1, 3, 1, 1)
        assert np.array_equal(conv3d_forward(x, k), x)

    def test_matches_naive_loop_oracle(self):
        rng = SeededRng(100)
        x = rng.uniform(-1, 1, (2, 3, 5, 5))
        k = rng.uniform(-1, 1, (4, 2, 3, 3, 3))
        fast = conv3d_forward(x, k)
        slow, _ = naive_conv3d(x, k)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_matches_naive_on_random_shapes(self):
        rng = SeededRng(101)
        for trial in range(8):
            r = rng.fork(trial)
            ci = 1 + trial % 3
            co = 1 + (trial * 2) % 4
            kd = (1, 3, 5)[trial % 3]
            x = r.uniform(-2, 2, (ci, 4, 4, 3))
            k = r.uniform(-2, 2, (co, ci, kd, 3, 3))
            fast = conv3d_forward(x, k)
            slow, _ = naive_conv3d(x, k)
            assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_linear_in_input_and_kernel(self):
        rng = SeededRng(102)
        x1 = rng.uniform(-1, 1, (2, 3, 4, 4))
        x2 = rng.uniform(-1, 1, (2, 3, 4, 4))
        k = rng.uniform(-1, 1, (3, 2, 3, 3, 3))
        lhs = conv3d_forward(0.7 * x1 + 1.3 * x2, k)
        rhs = 0.7 * conv3d_forward(x1, k) + 1.3 * conv3d_forward(x2, k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        lhs = conv3d_forward(x1, 2.5 * k)
        assert np.max(np.abs(lhs - 2.5 * conv3d_forward(x1, k))) <= 1e-12

    def test_slicewise_kernel_never_mixes_slices(self):
        """Perturbing slice d of the input moves only output slice d under a
        1xKxK kernel."""
        rng = SeededRng(103)
        x = rng.uniform(-1, 1, (2, 5, 4, 4))
        k = rng.uniform(-1, 1, (3, 2, 1, 3, 3))
        base = conv3d_forward(x, k)
        for d in range(5):
            bumped = x.copy()
            bumped[:, d] += rng.uniform(0.5, 1.0, (2, 4, 4))
            delta = conv3d_forward(bumped, k) - base
            changed = np.max(np.abs(delta), axis=(0, 2, 3)) > 0
            assert changed[d]
            assert not np.any(np.delete(changed, d))

    def test_deterministic_bitwise(self):
        rng = SeededRng(104)
        x = rng.uniform(-1, 1, (3, 4, 6, 5))
        k = rng.uniform(-1, 1, (2, 3, 3, 3, 3))
        a = conv3d_forward(x, k)
        b = conv3d_forward(x, k)
        assert a.tobytes() == b.tobytes()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv3d_forward(np.ones((2, 3, 3, 3)), np.ones((1, 3, 1, 3, 3)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv3d_forward(np.ones((1, 3, 4, 4)), np.ones((1, 1, 1, 2, 2)))

    def test_bad_rank_rejected(self):
        with pytest.raises(ShapeError):
            conv3d_forward(np.ones((3, 3, 3)), np.ones((1, 1, 1, 3, 3)))


class TestConv3dBackward:
    def test_zero_grad_out(self):
        gx, gk = conv3d_backward(np.ones((1, 2, 3, 3)), np.ones((2, 1, 1, 3, 3)),
                                 np.zeros((2, 2, 3, 3)))
        assert not gx.any() and not gk.any()

    def test_scalar_product_rule(self):
        x = np.full((1, 1, 1, 1), 2.0)
        k = np.full((1, 1, 1, 1, 1), 3.0)
        gx, gk = conv3d_backward(x, k, np.ones((1, 1, 1, 1)))
        assert gx[0, 0, 0, 0] == 3.0
        assert gk[0, 0, 0, 0, 0] == 2.0

    def test_adjoint_identity(self):
        """<g, conv(x,k)> equals <grad_x, x> and <grad_k, k> exactly by
        bilinearity."""
        rng = SeededRng(110)
        x = rng.uniform(-1, 1, (2, 3, 4, 4))
        k = rng.uniform(-1, 1, (3, 2, 3, 3, 3))
        g = rng.uniform(-1, 1, (3, 3, 4, 4))
        lhs = np.sum(g * conv3d_forward(x, k))
        gx, gk = conv3d_backward(x, k, g)
        assert rel_err(lhs, np.sum(gx * x)) <= 1e-12
        assert rel_err(lhs, np.sum(gk * k)) <= 1e-12

    def test_finite_differences(self):
        rng = SeededRng(111)
        x = rng.uniform(-1, 1, (2, 3, 3, 3))
        k = rng.uniform(-1, 1, (2, 2, 3, 3, 3))
        g = rng.uniform(-1, 1, (2, 3, 3, 3))
        gx, gk = conv3d_backward(x, k, g)
        for _ in range(10):
            xi = tuple(int(rng.uniform(0, s)) for s in x.shape)
            num = central_diff(lambda a: np.sum(g * conv3d_forward(a, k)), x, xi)
            assert rel_err(num, gx[xi]) <= 1e-6
            ki = tuple(int(rng.uniform(0, s)) for s in k.shape)
            num = central_diff(lambda a: np.sum(g * conv3d_forward(x, a)), k, ki)
            assert rel_err(num, gk[ki]) <= 1e-6

    def test_grad_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv3d_backward(np.ones((1, 2, 3, 3)), np.ones((2, 1, 1, 3, 3)),
                            np.ones((1, 2, 3, 3)))

    @staticmethod
    def random_cases():
        """Random operands with kd in {1, 3, 5}, non-square H/W and mixed
        in-plane extents."""
        rng = SeededRng(112)
        for trial in range(6):
            r = rng.fork(trial)
            ci, co = 1 + trial % 3, 1 + (trial * 2) % 4
            kd = (1, 3, 5)[trial % 3]
            kh, kw = ((3, 3), (1, 3), (3, 5))[trial // 2]
            d, h, w = 2 + trial % 4, 3 + trial % 2, 5
            yield (r.uniform(-2, 2, (ci, d, h, w)), r.uniform(-2, 2, (co, ci, kd, kh, kw)),
                   r.uniform(-2, 2, (co, d, h, w)))

    def test_grad_x_is_flipped_transposed_conv(self):
        """The input gradient is the same-padded correlation of grad_out
        with the kernel flipped in every axis and channel-transposed."""
        for x, k, g in self.random_cases():
            gx, _ = conv3d_backward(x, k, g)
            flipped = np.ascontiguousarray(k.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1])
            assert np.max(np.abs(gx - conv3d_forward(g, flipped))) <= 1e-12

    def test_grad_k_matches_scalar_loop(self):
        for x, k, g in self.random_cases():
            _, gk = conv3d_backward(x, k, g)
            co, ci, kd, kh, kw = k.shape
            _, d, h, w = x.shape
            padded = np.zeros((ci, d + kd - 1, h + kh - 1, w + kw - 1))
            padded[:, kd // 2:kd // 2 + d, kh // 2:kh // 2 + h, kw // 2:kw // 2 + w] = x
            want = np.zeros_like(k)
            for o, i, a, b, c in np.ndindex(k.shape):
                acc = 0.0
                for z, y, v in np.ndindex(d, h, w):
                    acc += g[o, z, y, v] * padded[i, z + a, y + b, v + c]
                want[o, i, a, b, c] = acc
            assert np.max(np.abs(gk - want)) <= 1e-12

    def test_repeats_bitwise(self):
        for x, k, g in self.random_cases():
            gx1, gk1 = conv3d_backward(x, k, g)
            gx2, gk2 = conv3d_backward(x, k, g)
            assert gx1.tobytes() == gx2.tobytes()
            assert gk1.tobytes() == gk2.tobytes()


class TestSliceContract:
    def test_identity_mix_is_identity(self):
        rng = SeededRng(120)
        x = rng.uniform(-1, 1, (3, 4, 2, 2))
        assert np.array_equal(slice_contract_forward(x, identity_mix(4, 3)), x)

    def test_hand_expansion(self):
        """D=2 single pixel: out[k] = sum_d x[d] * p[d,k]."""
        x = np.array([5.0, 7.0]).reshape(1, 2, 1, 1)
        p = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        out = slice_contract_forward(x, p)
        assert out.ravel().tolist() == [26.0, 38.0]

    def test_matches_naive_loop_oracle(self):
        rng = SeededRng(121)
        x = rng.uniform(-1, 1, (3, 4, 2, 2))
        p = rng.uniform(-1, 1, (4, 4, 3))
        fast = slice_contract_forward(x, p)
        slow, _ = naive_slice_contract(x, p)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_matches_naive_loop_bitwise_on_random_shapes(self):
        """The forward adds source slices in ascending order, as the loop does."""
        rng = SeededRng(123)
        for _ in range(40):
            c, d, h, w = (1 + int(rng.uniform(0, 5)) for _ in range(4))
            x = rng.uniform(-1, 1, (c, d, h, w))
            p = rng.uniform(-1, 1, (d, d, c))
            slow, _ = naive_slice_contract(x, p)
            assert slice_contract_forward(x, p).tobytes() == slow.tobytes(), (c, d, h, w)

    def test_per_channel_mixing_is_independent(self):
        """Each channel is mixed by its own matrix only."""
        rng = SeededRng(122)
        x = rng.uniform(-1, 1, (2, 3, 2, 2))
        p = rng.uniform(-1, 1, (3, 3, 2))
        out = slice_contract_forward(x, p)
        p2 = p.copy()
        p2[:, :, 1] = rng.uniform(-1, 1, (3, 3))
        out2 = slice_contract_forward(x, p2)
        assert np.array_equal(out[0], out2[0])
        assert not np.array_equal(out[1], out2[1])

    def test_backward_identity_mix(self):
        rng = SeededRng(123)
        x = rng.uniform(-1, 1, (2, 3, 2, 2))
        g = rng.uniform(-1, 1, (2, 3, 2, 2))
        gx, _ = slice_contract_backward(x, identity_mix(3, 2), g)
        assert np.array_equal(gx, g)

    def test_backward_matches_scalar_loop_and_repeats(self):
        rng = SeededRng(124)
        for c, d, h, w in ((1, 1, 1, 1), (2, 3, 4, 5), (3, 5, 2, 3)):
            x = rng.uniform(-2, 2, (c, d, h, w))
            p = rng.uniform(-2, 2, (d, d, c))
            g = rng.uniform(-2, 2, (c, d, h, w))
            gx, gp = slice_contract_backward(x, p, g)
            want_x, want_p = np.zeros_like(x), np.zeros_like(p)
            for ch, i, j in np.ndindex(c, d, d):
                want_x[ch, i] += g[ch, j] * p[i, j, ch]
                want_p[i, j, ch] = np.sum(x[ch, i] * g[ch, j])
            assert np.max(np.abs(gx - want_x)) <= 1e-12
            assert np.max(np.abs(gp - want_p)) <= 1e-12
            gx2, gp2 = slice_contract_backward(x, p, g)
            assert gx.tobytes() == gx2.tobytes() and gp.tobytes() == gp2.tobytes()

    def test_backward_zero_input_zeroes_grad_p(self):
        g = np.ones((2, 3, 2, 2))
        _, gp = slice_contract_backward(np.zeros((2, 3, 2, 2)),
                                        np.ones((3, 3, 2)), g)
        assert not gp.any()

    def test_backward_finite_differences(self):
        rng = SeededRng(124)
        x = rng.uniform(-1, 1, (2, 3, 2, 2))
        p = rng.uniform(-1, 1, (3, 3, 2))
        g = rng.uniform(-1, 1, (2, 3, 2, 2))
        gx, gp = slice_contract_backward(x, p, g)
        for _ in range(8):
            xi = tuple(int(rng.uniform(0, s)) for s in x.shape)
            num = central_diff(lambda a: np.sum(g * slice_contract_forward(a, p)), x, xi)
            assert rel_err(num, gx[xi]) <= 1e-6
            pi = tuple(int(rng.uniform(0, s)) for s in p.shape)
            num = central_diff(lambda a: np.sum(g * slice_contract_forward(x, a)), p, pi)
            assert rel_err(num, gp[pi]) <= 1e-6

    def test_mismatched_mix_rejected(self):
        with pytest.raises(ShapeError):
            slice_contract_forward(np.ones((2, 3, 2, 2)), np.ones((4, 4, 2)))
        with pytest.raises(ShapeError):
            slice_contract_forward(np.ones((2, 3, 2, 2)), np.ones((3, 3, 5)))

    def test_non_square_mix_rejected(self):
        with pytest.raises(ShapeError):
            slice_contract_forward(np.ones((2, 3, 2, 2)), np.ones((3, 2, 2)))


class TestAxialShift:
    def test_pure_keep(self):
        rng = SeededRng(130)
        x = rng.uniform(-1, 1, (3, 4, 2, 2))
        assert np.array_equal(axial_shift(x, (0, 0)), x)

    def test_shift_up_convention(self):
        """Up means slice d reads input slice d+1; the last slice zero-fills."""
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
        assert axial_shift(x, (1, 0)).ravel().tolist() == [2.0, 3.0, 0.0]

    def test_shift_down_convention(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
        assert axial_shift(x, (0, 1)).ravel().tolist() == [0.0, 1.0, 2.0]

    def test_mixed_split(self):
        rng = SeededRng(131)
        x = rng.uniform(-1, 1, (5, 3, 2, 2))
        out = axial_shift(x, (2, 1))
        assert np.array_equal(out[0, :-1], x[0, 1:]) and not out[0, -1].any()
        assert np.array_equal(out[2, 1:], x[2, :-1]) and not out[2, 0].any()
        assert np.array_equal(out[3:], x[3:])

    def test_shift_round_trip_is_lossy_at_boundary(self):
        """Zero fill drops one boundary slice, so shifting up then down (or
        down then up) is not the identity on inputs with nonzero boundary
        slices."""
        rng = SeededRng(132)
        x = rng.uniform(0.5, 1.0, (1, 4, 2, 2))
        up_down = axial_shift(axial_shift(x, (1, 0)), (0, 1))
        assert not np.array_equal(up_down, x)
        assert not up_down[0, 0].any()
        assert np.array_equal(up_down[0, 1:], x[0, 1:])
        down_up = axial_shift(axial_shift(x, (0, 1)), (1, 0))
        assert not np.array_equal(down_up, x)
        assert not down_up[0, -1].any()
        assert np.array_equal(down_up[0, :-1], x[0, :-1])

    def test_adjoint_identity(self):
        rng = SeededRng(133)
        x = rng.uniform(-1, 1, (4, 3, 2, 2))
        g = rng.uniform(-1, 1, (4, 3, 2, 2))
        lhs = np.sum(g * axial_shift(x, (1, 2)))
        rhs = np.sum(axial_shift_adjoint(g, (1, 2)) * x)
        assert rel_err(lhs, rhs) <= 1e-12

    def test_oversized_split_rejected(self):
        with pytest.raises(ShapeError):
            axial_shift(np.ones((2, 3, 2, 2)), (2, 1))

    def test_negative_split_rejected(self):
        with pytest.raises(ShapeError):
            axial_shift(np.ones((2, 3, 2, 2)), (-1, 0))
