"""Operator construction, forward/backward, and serialization tests."""

import numpy as np
import pytest

from ctfuse import operators as operators_module
from ctfuse.operators import (
    ALL_KINDS,
    OperatorKind,
    OperatorState,
    acs_split,
    backward,
    forward,
    inflate,
    load_operator,
    p3d_aux_init,
    save_operator,
    stage_shapes,
)
from ctfuse.rng import SeededRng
from ctfuse.tensor import ShapeError, conv3d_backward, identity_mix


def make_state(kind, rng, c_out=5, c_in=4, k=3, depth=4, perturb=0.1):
    w2d = rng.uniform(-1, 1, (c_out, c_in, k, k))
    return inflate(kind, w2d, depth, rng=rng.fork(99), perturb_scale=perturb)


def generic_state(kind, rng, c_out=5, c_in=8, k=3, depth=4):
    """A state with every weight tensor randomized and nonzero, so nothing
    degenerates to the init-time special cases."""
    st = make_state(kind, rng, c_out=c_out, c_in=c_in, k=k, depth=depth)
    return st.with_named({name: rng.uniform(0.1, 1.0, arr.shape)
                          for name, arr in st.weight_arrays().items()})


class TestAcsSplit:
    def test_even(self):
        assert acs_split(3) == (1, 1, 1)

    def test_sixty_four(self):
        assert acs_split(64) == (22, 21, 21)

    def test_seven(self):
        assert acs_split(7) == (3, 2, 2)

    def test_partition_properties(self):
        for c in range(3, 200):
            a, b, s = acs_split(c)
            assert a + b + s == c
            assert min(a, b, s) >= 1
            assert a >= b >= s

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            acs_split(2)


class TestInflate:
    def test_nofusion_unsqueeze(self):
        rng = SeededRng(300)
        w2d = rng.uniform(-1, 1, (3, 2, 3, 3))
        st = inflate(OperatorKind.NOFUSION, w2d, depth=5)
        assert st.kernels[0].shape == (3, 2, 1, 3, 3)
        assert np.array_equal(st.kernels[0][:, :, 0], w2d)

    def test_i3d_repeats_scaled_kernel(self):
        """Each of the K axial taps starts as w2d / K."""
        st = inflate(OperatorKind.I3D, np.ones((2, 2, 3, 3)), depth=5)
        assert st.kernels[0].shape == (2, 2, 3, 3, 3)
        assert np.all(st.kernels[0] == 1.0 / 3.0)

    def test_i3d_sums_back_to_w2d(self):
        rng = SeededRng(301)
        w2d = rng.uniform(-1, 1, (3, 2, 5, 5))
        st = inflate(OperatorKind.I3D, w2d, depth=3)
        assert np.max(np.abs(st.kernels[0].sum(axis=2) - w2d)) <= 1e-12

    def test_p3d_aux_identity_taps(self):
        """The axial kernel starts as [0,...,1,...,0] on the channel diagonal."""
        st = inflate(OperatorKind.P3D, np.ones((4, 2, 3, 3)), depth=5)
        aux = st.aux
        assert aux.shape == (4, 4, 3, 1, 1)
        for o in range(4):
            assert aux[o, o, :, 0, 0].tolist() == [0.0, 1.0, 0.0]
        off = aux.copy()
        off[np.arange(4), np.arange(4)] = 0.0
        assert not off.any()
        assert np.array_equal(p3d_aux_init(4, 3), aux)

    def test_acs_orientations(self):
        rng = SeededRng(302)
        w2d = rng.uniform(-1, 1, (7, 2, 3, 3))
        st = inflate(OperatorKind.ACS, w2d, depth=5)
        ka, kc, ks = st.kernels
        assert acs_split(st.c_out) == (3, 2, 2)
        assert ka.shape == (3, 2, 1, 3, 3)
        assert kc.shape == (2, 2, 3, 1, 3)
        assert ks.shape == (2, 2, 3, 3, 1)
        assert np.array_equal(ka[:, :, 0], w2d[:3])
        assert np.array_equal(kc[:, :, :, 0], w2d[3:5])
        assert np.array_equal(ks[:, :, :, :, 0], w2d[5:])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_weights_share_no_memory_with_w2d(self, kind):
        """Writing to the 2D kernel after inflate leaves the operator alone."""
        w2d = SeededRng(304).uniform(-1, 1, (7, 2, 3, 3))
        st = inflate(kind, w2d, depth=5, rng=SeededRng(305))
        for name, arr in st.weight_arrays().items():
            assert not np.shares_memory(arr, w2d), name
        before = forward(st, np.ones((2, 5, 4, 4)))
        w2d[...] = 5.0
        assert np.array_equal(forward(st, np.ones((2, 5, 4, 4))), before)

    def test_tsm_split_fraction(self):
        st = inflate(OperatorKind.TSM, np.ones((2, 16, 3, 3)), depth=5)
        assert st.shift_splits == (2, 2)
        st = inflate(OperatorKind.TSM, np.ones((2, 16, 3, 3)), depth=5, tsm_div=4)
        assert st.shift_splits == (4, 4)

    def test_tsm_small_channels_degenerates_to_keep(self):
        st = inflate(OperatorKind.TSM, np.ones((2, 4, 3, 3)), depth=5)
        assert st.shift_splits == (0, 0)

    def test_a3d_perturbation_bound(self):
        """Every mixing matrix starts within 0.1 of the identity entrywise."""
        rng = SeededRng(303)
        w2d = rng.uniform(-1, 1, (3, 2, 3, 3))
        st = inflate(OperatorKind.A3D, w2d, depth=3, rng=rng.fork(1))
        dev = np.abs(st.mix - identity_mix(3, 2))
        assert np.max(dev) <= 0.1
        assert np.max(dev) > 0.0

    def test_a3d_zero_perturbation_is_exact_identity(self):
        st = inflate(OperatorKind.A3D, np.ones((3, 2, 3, 3)), depth=4, perturb_scale=0.0)
        assert np.array_equal(st.mix, identity_mix(4, 2))

    def test_a3d_without_rng_rejected(self):
        with pytest.raises(ValueError):
            inflate(OperatorKind.A3D, np.ones((3, 2, 3, 3)), depth=3)

    def test_a3d_deterministic_given_seed(self):
        w2d = np.ones((3, 2, 3, 3))
        a = inflate(OperatorKind.A3D, w2d, depth=3, rng=SeededRng(5))
        b = inflate(OperatorKind.A3D, w2d, depth=3, rng=SeededRng(5))
        assert np.array_equal(a.mix, b.mix)

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError):
            inflate(OperatorKind.NOFUSION, np.ones((2, 2, 3, 3)), depth=0)

    def test_acs_needs_three_channels(self):
        with pytest.raises(ValueError):
            inflate(OperatorKind.ACS, np.ones((2, 2, 3, 3)), depth=3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            inflate(OperatorKind.NOFUSION, np.ones((2, 2, 4, 4)), depth=3)

    def test_parameter_counts(self):
        rng = SeededRng(304)
        co, ci, k, d = 6, 4, 3, 5
        expected = {
            OperatorKind.NOFUSION: co * ci * k * k,
            OperatorKind.I3D: co * ci * k ** 3,
            OperatorKind.P3D: co * ci * k * k + co * co * k,
            OperatorKind.ACS: co * ci * k * k,
            OperatorKind.TSM: co * ci * k * k,
            OperatorKind.A3D: co * ci * k * k + d * d * ci,
        }
        for kind in ALL_KINDS:
            st = make_state(kind, rng.fork(hash(kind.value) % 1000),
                            c_out=co, c_in=ci, k=k, depth=d)
            assert sum(a.size for a in st.weight_arrays().values()) == expected[kind], kind


class TestForward:
    def test_output_channels_conserved(self):
        rng = SeededRng(310)
        x = rng.uniform(-1, 1, (4, 4, 5, 5))
        for i, kind in enumerate(ALL_KINDS):
            st = make_state(kind, rng.fork(i))
            assert forward(st, x).shape == (5, 4, 5, 5)

    def test_init_equivalence(self):
        """No fusion, p3d at init, and a3d with identity mixing are the same
        function, exactly."""
        rng = SeededRng(311)
        for trial in range(10):
            r = rng.fork(trial)
            w2d = r.uniform(-1, 1, (5, 3, 3, 3))
            x = r.uniform(-1, 1, (3, 4, 6, 6))
            base = forward(inflate(OperatorKind.NOFUSION, w2d, 4), x)
            p3d = forward(inflate(OperatorKind.P3D, w2d, 4), x)
            a3d = forward(inflate(OperatorKind.A3D, w2d, 4, perturb_scale=0.0), x)
            assert np.array_equal(base, p3d)
            assert np.array_equal(base, a3d)

    def test_i3d_on_depth_constant_input(self):
        """On input constant along depth, interior slices of i3d at init
        equal the plain 2D convolution of any one slice."""
        rng = SeededRng(312)
        w2d = rng.uniform(-1, 1, (4, 2, 3, 3))
        plane = rng.uniform(-1, 1, (2, 1, 6, 6))
        x = np.ascontiguousarray(np.repeat(plane, 5, axis=1))
        i3d = forward(inflate(OperatorKind.I3D, w2d, 5), x)
        flat = forward(inflate(OperatorKind.NOFUSION, w2d, 5), x)
        interior = np.max(np.abs(i3d[:, 1:-1] - flat[:, 1:-1]))
        assert interior <= 1e-12 * max(1.0, np.max(np.abs(flat)))
        boundary = min(np.max(np.abs(i3d[:, 0] - flat[:, 0])),
                       np.max(np.abs(i3d[:, -1] - flat[:, -1])))
        assert boundary > 1e-6

    def test_acs_concatenation_order(self):
        """Output channels stack axial, then coronal, then sagittal."""
        rng = SeededRng(313)
        st = generic_state(OperatorKind.ACS, rng, c_out=7, c_in=2)
        x = rng.uniform(-1, 1, (2, 4, 5, 5))
        out = forward(st, x)
        from ctfuse.tensor import conv3d_forward
        a, c, s = acs_split(st.c_out)
        assert np.array_equal(out[:a], conv3d_forward(x, st.kernels[0]))
        assert np.array_equal(out[a:a + c], conv3d_forward(x, st.kernels[1]))
        assert np.array_equal(out[a + c:], conv3d_forward(x, st.kernels[2]))

    def test_tsm_locality(self):
        """A shifted slice-wise conv reaches exactly one slice each way."""
        rng = SeededRng(314)
        st = generic_state(OperatorKind.TSM, rng, c_in=8)
        assert st.shift_splits == (1, 1)
        x = rng.uniform(-1, 1, (8, 6, 4, 4))
        base = forward(st, x)
        for d in range(6):
            bumped = x.copy()
            bumped[:, d] += 1.0
            delta = np.max(np.abs(forward(st, bumped) - base), axis=(0, 2, 3))
            touched = set(np.nonzero(delta > 0)[0].tolist())
            assert touched == {dd for dd in (d - 1, d, d + 1) if 0 <= dd < 6}

    def test_a3d_globality(self):
        """With a fully dense mixing stack, every input slice reaches every
        output slice."""
        rng = SeededRng(315)
        st = generic_state(OperatorKind.A3D, rng, c_in=3, depth=5)
        assert np.all(st.mix != 0.0)
        x = rng.uniform(-1, 1, (3, 5, 4, 4))
        base = forward(st, x)
        for d in range(5):
            bumped = x.copy()
            bumped[:, d] += 1.0
            delta = np.max(np.abs(forward(st, bumped) - base), axis=(0, 2, 3))
            assert np.all(delta > 0)

    def test_channel_mismatch_rejected(self):
        rng = SeededRng(316)
        st = make_state(OperatorKind.NOFUSION, rng)
        with pytest.raises(ShapeError):
            forward(st, np.ones((3, 4, 5, 5)))

    def test_a3d_depth_mismatch_rejected(self):
        rng = SeededRng(317)
        st = make_state(OperatorKind.A3D, rng, depth=4)
        with pytest.raises(ShapeError):
            forward(st, np.ones((4, 5, 5, 5)))


class TestBackward:
    def test_zero_grad_out(self):
        rng = SeededRng(320)
        x = rng.uniform(-1, 1, (4, 4, 4, 4))
        for i, kind in enumerate(ALL_KINDS):
            st = make_state(kind, rng.fork(i))
            gx, grads = backward(st, x, np.zeros((5, 4, 4, 4)))
            assert not gx.any()
            for arr in grads.weight_arrays().values():
                assert not arr.any()

    def test_adjoint_identity_all_kinds(self):
        """<g, f(x)> == <grad_x, x> for every kind (f linear in x)."""
        rng = SeededRng(321)
        x = rng.uniform(-1, 1, (4, 4, 4, 4))
        g = rng.uniform(-1, 1, (5, 4, 4, 4))
        for i, kind in enumerate(ALL_KINDS):
            st = generic_state(kind, rng.fork(i), c_in=4)
            lhs = np.sum(g * forward(st, x))
            gx, _ = backward(st, x, g)
            rhs = np.sum(gx * x)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), kind

    def test_grad_layout_mirrors_state(self):
        rng = SeededRng(322)
        x = rng.uniform(-1, 1, (4, 4, 4, 4))
        g = rng.uniform(-1, 1, (5, 4, 4, 4))
        for i, kind in enumerate(ALL_KINDS):
            st = make_state(kind, rng.fork(i))
            _, grads = backward(st, x, g)
            weights = st.weight_arrays()
            gw = grads.weight_arrays()
            assert list(weights) == list(gw)
            for name in weights:
                assert weights[name].shape == gw[name].shape

    def test_finite_differences_all_kinds(self):
        """Weight and input gradients match central differences for all six."""
        rng = SeededRng(323)
        step = 1e-5
        for i, kind in enumerate(ALL_KINDS):
            r = rng.fork(i)
            st = generic_state(kind, r, c_out=4, c_in=8, depth=3)
            x = r.uniform(-1, 1, (8, 3, 4, 4))
            g = r.uniform(-1, 1, (4, 3, 4, 4))
            gx, grads = backward(st, x, g)

            def loss(state, xv):
                return np.sum(g * forward(state, xv))

            for _ in range(6):
                xi = tuple(int(r.uniform(0, s)) for s in x.shape)
                xp, xm = x.copy(), x.copy()
                xp[xi] += step
                xm[xi] -= step
                num = (loss(st, xp) - loss(st, xm)) / (2 * step)
                assert abs(num - gx[xi]) <= 1e-6 * max(abs(num), abs(gx[xi]), 1e-12), kind

            for name, warr in st.weight_arrays().items():
                ganalytic = grads.weight_arrays()[name]
                for _ in range(6):
                    wi = tuple(int(r.uniform(0, s)) for s in warr.shape)
                    wp, wm = warr.copy(), warr.copy()
                    wp[wi] += step
                    wm[wi] -= step
                    stp = st.with_named({name: wp})
                    stm = st.with_named({name: wm})
                    num = (loss(stp, x) - loss(stm, x)) / (2 * step)
                    ana = ganalytic[wi]
                    assert abs(num - ana) <= 1e-6 * max(abs(num), abs(ana), 1e-12), (kind, name)

    def test_acs_views_are_independent_convs(self):
        """Per-view gradients equal those of three standalone convolutions."""
        rng = SeededRng(324)
        st = generic_state(OperatorKind.ACS, rng, c_out=7, c_in=3)
        x = rng.uniform(-1, 1, (3, 4, 5, 5))
        g = rng.uniform(-1, 1, (7, 4, 5, 5))
        gx, grads = backward(st, x, g)
        a, c, _ = acs_split(st.c_out)
        pieces = (g[:a], g[a:a + c], g[a + c:])
        gx_sum = np.zeros_like(x)
        for kern, piece, got in zip(st.kernels, pieces, grads.kernels):
            ex_gx, ex_gk = conv3d_backward(x, kern, np.ascontiguousarray(piece))
            assert np.array_equal(ex_gk, got)
            gx_sum += ex_gx
        assert np.max(np.abs(gx_sum - gx)) <= 1e-12

    def test_grad_shape_mismatch_rejected(self):
        rng = SeededRng(325)
        st = make_state(OperatorKind.I3D, rng)
        with pytest.raises(ShapeError):
            backward(st, np.ones((4, 4, 5, 5)), np.ones((5, 4, 5, 4)))

    def test_inner_tensor_from_forward_gives_the_same_bits(self, monkeypatch):
        """backward given forward's inner tensor equals backward that
        recomputes it, bit for bit, and runs no tensor forward."""
        rng = SeededRng(326)
        x = rng.uniform(-1, 1, (8, 4, 5, 6))
        g = rng.uniform(-1, 1, (5, 4, 5, 6))
        states = [generic_state(kind, rng.fork(i)) for i, kind in enumerate(ALL_KINDS)]
        runs = []
        for st in states:
            y, inner = forward(st, x, return_inner=True)
            assert y.tobytes() == forward(st, x).tobytes()
            single_stage = st.kind in (OperatorKind.NOFUSION, OperatorKind.I3D, OperatorKind.ACS)
            assert (inner is None) == single_stage, st.kind
            runs.append((st, inner, backward(st, x, g)))

        def no_forward(*args):
            raise AssertionError("backward recomputed a forward")
        for name in ("conv3d_forward", "axial_shift", "slice_contract_forward"):
            monkeypatch.setattr(operators_module, name, no_forward)
        for st, inner, (want_gx, want_grads) in runs:
            if inner is None:
                continue
            gx, grads = backward(st, x, g, inner)
            assert gx.tobytes() == want_gx.tobytes(), st.kind
            want = want_grads.weight_arrays()
            assert list(grads.weight_arrays()) == list(want)
            for name, arr in grads.weight_arrays().items():
                assert arr.tobytes() == want[name].tobytes(), (st.kind, name)


class TestStateValidation:
    def test_missing_aux_rejected(self):
        with pytest.raises(ShapeError):
            OperatorState(OperatorKind.P3D, (np.ones((2, 2, 1, 3, 3)),))

    def test_foreign_field_rejected(self):
        with pytest.raises(ShapeError):
            OperatorState(OperatorKind.NOFUSION, (np.ones((2, 2, 1, 3, 3)),),
                          mix=np.ones((3, 3, 2)))

    def test_i3d_depth_extent_enforced(self):
        with pytest.raises(ShapeError):
            OperatorState(OperatorKind.I3D, (np.ones((2, 2, 1, 3, 3)),))

    def test_acs_split_kernel_mismatch_rejected(self):
        """View kernels split other than acs_split gives are rejected."""
        planes = np.ones((7, 2, 3, 3))

        def views(a, c):
            return planes[:a][:, :, None], planes[a:a + c][:, :, :, None], \
                planes[a + c:][:, :, :, :, None]
        assert OperatorState(OperatorKind.ACS, views(3, 2)).c_out == 7
        for a, c in ((2, 3), (2, 2), (3, 3), (5, 1)):
            with pytest.raises(ShapeError):
                OperatorState(OperatorKind.ACS, views(a, c))

    def test_mix_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            OperatorState(OperatorKind.A3D, (np.ones((2, 3, 1, 3, 3)),),
                          mix=np.ones((4, 4, 2)))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_with_named_rejects_unknown_names(self, kind):
        """A misspelt name, or another kind's weight name, raises KeyError
        instead of leaving the old weight in place."""
        st = make_state(kind, SeededRng(342))
        foreign = next(n for n in ("main", "aux", "mix") if n not in st.weight_arrays())
        for name in ("mian", foreign):
            with pytest.raises(KeyError, match=name):
                st.with_named({name: np.ones((5, 4, 1, 3, 3))})


WEIGHT_NAMES = {
    OperatorKind.NOFUSION: ("main",),
    OperatorKind.I3D: ("main",),
    OperatorKind.P3D: ("main", "aux"),
    OperatorKind.ACS: ("axial", "coronal", "sagittal"),
    OperatorKind.TSM: ("main",),
    OperatorKind.A3D: ("main", "mix"),
}


class TestStageTable:
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_table_shapes_equal_inflated_shapes(self, kind, k):
        st = make_state(kind, SeededRng(340), c_out=7, c_in=16, k=k, depth=6)
        table = {name: shape for _, shapes in stage_shapes(kind, 16, 7, k, 6)
                 for name, shape in shapes.items()}
        assert list(st.weight_arrays()) == list(WEIGHT_NAMES[kind])
        assert table == {name: arr.shape for name, arr in st.weight_arrays().items()}

    @pytest.mark.parametrize("direction", ["wide", "deep"])
    @pytest.mark.parametrize("kind,name", [(kind, name) for kind in ALL_KINDS
                                           for name in WEIGHT_NAMES[kind]],
                             ids=lambda v: getattr(v, "value", v))
    def test_weight_one_entry_off_rejected(self, kind, name, direction):
        """One entry too many along the last axis (wide) or the depth axis
        (deep: Kd of a kernel, the first D of the mixing stack)."""
        st = make_state(kind, SeededRng(341), c_out=7, c_in=8, depth=5)
        shape = list(st.weight_arrays()[name].shape)
        shape[-1 if direction == "wide" else (0 if name == "mix" else 2)] += 1
        with pytest.raises(ShapeError):
            st.with_named({name: np.ones(shape)})


class TestSerialization:
    def test_round_trip_all_kinds(self, tmp_path):
        """Saved and reloaded operators compute the same function, bitwise."""
        rng = SeededRng(330)
        x = rng.uniform(-1, 1, (4, 4, 5, 5))
        for i, kind in enumerate(ALL_KINDS):
            st = generic_state(kind, rng.fork(i), c_in=4)
            d = tmp_path / kind.value
            save_operator(st, d)
            back = load_operator(d)
            assert back.kind == st.kind
            assert forward(back, x).tobytes() == forward(st, x).tobytes()
            for name, arr in st.weight_arrays().items():
                assert np.array_equal(back.weight_arrays()[name], arr), (kind, name)

    def test_expected_files(self, tmp_path):
        rng = SeededRng(331)
        st = make_state(OperatorKind.A3D, rng)
        save_operator(st, tmp_path / "op")
        names = sorted(p.name for p in (tmp_path / "op").iterdir())
        assert names == ["main.ctf", "operator.txt", "p.ctf"]

    def test_manifest_contents(self, tmp_path):
        rng = SeededRng(332)
        st = make_state(OperatorKind.TSM, rng, c_in=16)
        save_operator(st, tmp_path / "op")
        from ctfuse.ctf import read_manifest
        m = read_manifest(tmp_path / "op" / "operator.txt")
        assert m["kind"] == "tsm"
        assert (int(m["shift_up"]), int(m["shift_down"])) == st.shift_splits
        assert int(m["c_out"]) == 5 and int(m["c_in"]) == 16

    def test_acs_round_trip_preserves_orientations(self, tmp_path):
        rng = SeededRng(333)
        st = generic_state(OperatorKind.ACS, rng, c_out=8, c_in=3)
        save_operator(st, tmp_path / "op")
        back = load_operator(tmp_path / "op")
        for got, want in zip(back.kernels, st.kernels):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("planes", [1, 2])
    def test_acs_with_too_few_planes_is_a_shape_error(self, tmp_path, planes):
        save_operator(generic_state(OperatorKind.ACS, SeededRng(334), c_out=3, c_in=2),
                      tmp_path / "op")
        from ctfuse.ctf import write_tensor
        write_tensor(tmp_path / "op" / "main.ctf", np.ones((planes, 2, 3, 3)))
        with pytest.raises(ShapeError, match="c_out >= 3"):
            load_operator(tmp_path / "op")

    def test_seed_recorded(self, tmp_path):
        st = inflate(OperatorKind.A3D, np.ones((3, 2, 3, 3)), 3, rng=SeededRng(77))
        assert st.seed == 77
        save_operator(st, tmp_path / "op")
        assert load_operator(tmp_path / "op").seed == 77
