"""Backbone construction, forward/backward, and checkpoint tests."""

import numpy as np
import pytest

from ctfuse.backbone import (
    KERNEL_SIZE,
    BackboneConfig,
    Tape,
    _upsample_adjoint,
    apply_sgd,
    backward_features,
    build,
    forward_features,
    layer_dims,
    load_checkpoint,
    named_weights,
    parse_stages,
    save_checkpoint,
    with_named,
)
from ctfuse.costmodel import count_params
from ctfuse.operators import ALL_KINDS, OperatorKind
from ctfuse.rng import SeededRng
from ctfuse.tensor import ShapeError

TINY = dict(depth=3, stages=((4, 1),), height=8, width=8, seed=11)
TWO_STAGE = dict(depth=3, stages=((4, 1), (6, 1)), height=8, width=8, seed=12)


def rand_input(config, seed=5):
    rng = SeededRng(seed)
    return rng.uniform(-1, 1, (1, config.depth, config.height, config.width))


def taped_backward(bb, x, g):
    """backward_features from a tape that forward_features(bb, x) filled."""
    tape = Tape()
    forward_features(bb, x, tape)
    return backward_features(tape, g)


class TestConfig:
    def test_defaults_valid(self):
        c = BackboneConfig()
        assert c.feature_channels == 512
        assert c.pool_factor == 4

    def test_nonincreasing_channels_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(stages=((8, 1), (4, 1)))

    def test_indivisible_spatial_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(stages=((4, 1), (8, 1)), height=9, width=8)

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(stages=())

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(stages=((4, 0),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_bad_a3d_perturb_rejected(self, bad):
        with pytest.raises(ValueError, match="a3d_perturb"):
            BackboneConfig(a3d_perturb=bad)

    def test_parse_stages(self):
        assert parse_stages("64x1,256x2") == ((64, 1), (256, 2))
        assert parse_stages("8") == ((8, 1),)

    def test_layer_dims_roster(self):
        c = BackboneConfig(**TWO_STAGE)
        dims = layer_dims(c)
        assert len(dims) == 2
        assert (dims[0].c_in, dims[0].c_out, dims[0].h) == (1, 4, 8)
        assert (dims[1].c_in, dims[1].c_out, dims[1].h) == (4, 6, 4)
        assert all(d.k == KERNEL_SIZE and d.d == 3 for d in dims)


class TestBuild:
    def test_deterministic(self):
        """Same config and seed give bit-identical weights."""
        a = build(BackboneConfig(**TINY, fusion=OperatorKind.A3D))
        b = build(BackboneConfig(**TINY, fusion=OperatorKind.A3D))
        assert a.fusion_layers[0][0].kernels[0].tobytes() == \
            b.fusion_layers[0][0].kernels[0].tobytes()
        assert a.fusion_layers[0][0].mix.tobytes() == b.fusion_layers[0][0].mix.tobytes()
        assert a.collapse.tobytes() == b.collapse.tobytes()

    def test_seed_changes_weights(self):
        a = build(BackboneConfig(**TINY))
        b = build(BackboneConfig(**{**TINY, "seed": 99}))
        assert not np.array_equal(a.collapse, b.collapse)

    def test_kernels_shared_across_fusion_kinds(self):
        """The 2D source kernels do not depend on the fusion choice."""
        base = build(BackboneConfig(**TINY, fusion=OperatorKind.NOFUSION))
        a3d = build(BackboneConfig(**TINY, fusion=OperatorKind.A3D))
        i3d = build(BackboneConfig(**TINY, fusion=OperatorKind.I3D))
        w_base = base.fusion_layers[0][0].kernels[0][:, :, 0]
        assert np.array_equal(a3d.fusion_layers[0][0].kernels[0][:, :, 0], w_base)
        assert np.max(np.abs(i3d.fusion_layers[0][0].kernels[0].sum(axis=2) - w_base)) <= 1e-12
        assert np.array_equal(a3d.collapse, base.collapse)

    def test_parameter_accounting(self):
        """Total = fusion params + biases + unification + collapse."""
        c = BackboneConfig(**TINY, fusion=OperatorKind.NOFUSION)
        bb = build(c)
        dims = layer_dims(c)[0]
        want = count_params(OperatorKind.NOFUSION, dims)
        want += 4           # bias
        want += 4 * 4       # unification 1x1x1
        want += 4 * 4 * 3   # collapse Dx1x1
        assert sum(a.size for a in named_weights(bb).values()) == want

    def test_a3d_mix_near_identity_at_build(self):
        bb = build(BackboneConfig(**TINY, fusion=OperatorKind.A3D))
        mix = bb.fusion_layers[0][0].mix
        eye = np.zeros_like(mix)
        eye[np.arange(3), np.arange(3), :] = 1.0
        assert np.max(np.abs(mix - eye)) <= 0.1

    def test_biases_start_zero(self):
        bb = build(BackboneConfig(**TWO_STAGE))
        assert all(not bias.any() for _, bias in bb.fusion_layers)


class TestForward:
    def test_output_is_rank3(self):
        c = BackboneConfig(**TWO_STAGE)
        bb = build(c)
        feat = forward_features(bb, rand_input(c))
        assert feat.shape == (6, 8, 8)

    def test_zero_input_zero_map(self):
        c = BackboneConfig(**TWO_STAGE)
        bb = build(c)
        feat = forward_features(bb, np.zeros((1, 3, 8, 8)))
        assert not feat.any()

    def test_full_init_equivalence(self):
        """With the a3d perturbation disabled, the a3d, p3d, and no-fusion
        backbones are the same function end to end."""
        cfgs = {
            kind: BackboneConfig(**TWO_STAGE, fusion=kind, a3d_perturb=0.0)
            for kind in (OperatorKind.NOFUSION, OperatorKind.P3D, OperatorKind.A3D)
        }
        x = rand_input(cfgs[OperatorKind.NOFUSION])
        feats = {kind: forward_features(build(c), x) for kind, c in cfgs.items()}
        base = feats[OperatorKind.NOFUSION]
        assert np.array_equal(feats[OperatorKind.P3D], base)
        assert np.array_equal(feats[OperatorKind.A3D], base)

    def test_hand_set_collapse_weights(self):
        """With identity unification and hand-set collapse taps, the map is
        the depth-weighted sum of the stage output's slices."""
        c = BackboneConfig(**TINY)
        bb = build(c)
        bb.unify_kernels[0] = np.eye(4).reshape(4, 4, 1, 1, 1)
        w = np.array([0.25, -1.0, 0.5])
        collapse = np.zeros((4, 4, 3, 1, 1))
        for f in range(4):
            collapse[f, f, :, 0, 0] = w
        bb.collapse = collapse
        x = rand_input(c)
        feat = forward_features(bb, x)
        state, bias = bb.fusion_layers[0]
        from ctfuse.operators import forward as op_forward
        stage = np.maximum(op_forward(state, x) + bias[:, None, None, None], 0.0)
        want = np.einsum("cdhw,d->chw", stage, w)
        assert np.max(np.abs(feat - want)) <= 1e-12

    def test_matches_full_resolution_unify(self):
        """Unifying each stage before upsampling it equals the textbook
        order: upsample every stage to full resolution, then unify."""
        from ctfuse.operators import forward as op_forward
        c = BackboneConfig(depth=3, stages=((4, 1), (6, 2), (8, 1)), height=8, width=12,
                           fusion=OperatorKind.A3D, seed=13)
        bb = build(c)
        x = rand_input(c)
        cur, summed, li = x, 0.0, 0
        for s, (_, blocks) in enumerate(c.stages):
            if s > 0:
                ch, d, h, w = cur.shape
                cur = cur.reshape(ch, d, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
            for _ in range(blocks):
                state, bias = bb.fusion_layers[li]
                cur = np.maximum(op_forward(state, cur) + bias[:, None, None, None], 0.0)
                li += 1
            up = np.repeat(np.repeat(cur, 2 ** s, axis=2), 2 ** s, axis=3)
            summed = summed + np.einsum("cdhw,fc->fdhw", up, bb.unify_kernels[s][:, :, 0, 0, 0])
        want = np.einsum("cdhw,fcd->fhw", summed, bb.collapse[:, :, :, 0, 0])
        assert np.max(np.abs(forward_features(bb, x) - want)) <= 1e-12

    def test_wrong_depth_rejected(self):
        c = BackboneConfig(**TINY)
        bb = build(c)
        with pytest.raises(ShapeError):
            forward_features(bb, np.zeros((1, 4, 8, 8)))

    def test_wrong_channels_rejected(self):
        c = BackboneConfig(**TINY)
        bb = build(c)
        with pytest.raises(ShapeError):
            forward_features(bb, np.zeros((2, 3, 8, 8)))


class TestAxialSensitivity:
    """Perturbing an off-center input slice must reach the feature map for
    every depth-mixing fusion kind, and must not for no-fusion once the
    collapse is restricted to the center slice."""

    @staticmethod
    def _probe(kind, nudge_weights):
        c = BackboneConfig(depth=5, stages=((8, 1), (8, 1)), height=8, width=8,
                           seed=21, fusion=kind, tsm_div=4)
        bb = build(c)
        for f in range(8):
            taps = np.zeros(5)
            taps[2] = 1.0
            bb.collapse[f, :, :, 0, 0] = 0.0
            bb.collapse[f, f, :, 0, 0] = taps
        if nudge_weights:
            rng = SeededRng(500)
            bb = with_named(bb, {n: a + rng.uniform(0.05, 0.1, a.shape)
                                 for n, a in named_weights(bb).items() if n.endswith(".aux")})
        x = rand_input(c, seed=33)
        base = forward_features(bb, x)
        bumped = x.copy()
        bumped[0, 3] += 1.0
        return np.max(np.abs(forward_features(bb, bumped) - base))

    def test_mixing_kinds_reach_the_map(self):
        for kind in (OperatorKind.I3D, OperatorKind.P3D, OperatorKind.ACS,
                     OperatorKind.TSM, OperatorKind.A3D):
            assert self._probe(kind, nudge_weights=kind is OperatorKind.P3D) > 0, kind

    def test_nofusion_sees_center_slice_only(self):
        assert self._probe(OperatorKind.NOFUSION, nudge_weights=False) == 0.0


class TestBackward:
    def test_zero_grad_map(self):
        c = BackboneConfig(**TWO_STAGE)
        bb = build(c)
        grads = taped_backward(bb, rand_input(c), np.zeros((6, 8, 8)))
        assert list(grads) == list(named_weights(bb))
        for name, g in grads.items():
            assert not g.any(), name

    def test_finite_differences_tiny_config(self):
        """Full-pipeline check on (D=3, H=W=8, one stage, 4 channels): 30
        random weight coordinates per tensor at 1e-5 relative error."""
        c = BackboneConfig(**TINY, fusion=OperatorKind.A3D)
        bb = build(c)
        rng = SeededRng(600)
        x = rand_input(c, seed=7)
        g = rng.uniform(-1, 1, (4, 8, 8))

        def loss(b):
            return np.sum(g * forward_features(b, x))

        grads = taped_backward(bb, x, g)
        step = 1e-5
        checked = 0
        assert list(grads) == ["layer0.main", "layer0.mix", "layer0.bias", "unify0", "collapse"]
        for name, arr in named_weights(bb).items():
            for _ in range(30):
                idx = tuple(int(rng.uniform(0, s)) for s in arr.shape)
                hi, lo = arr.copy(), arr.copy()
                hi[idx] += step
                lo[idx] -= step
                up, down = (loss(with_named(bb, {name: a})) for a in (hi, lo))
                num = (up - down) / (2 * step)
                ana = grads[name][idx]
                assert abs(num - ana) <= 1e-5 * max(abs(num), abs(ana), 1e-12), name
                checked += 1
        assert checked == 150

    def test_detached_last_stage(self):
        """Zeroing the last stage's unification kernel kills the only path
        from its blocks to the output, so their gradients vanish."""
        c = BackboneConfig(**TWO_STAGE)
        bb = build(c)
        bb.unify_kernels[1] = np.zeros_like(bb.unify_kernels[1])
        rng = SeededRng(601)
        grads = taped_backward(bb, rand_input(c), rng.uniform(-1, 1, (6, 8, 8)))
        assert not any(g.any() for n, g in grads.items() if n.startswith("layer1."))
        assert any(g.any() for n, g in grads.items()
                   if n.startswith("layer0.") and n != "layer0.bias")

    def test_grad_map_shape_rejected(self):
        c = BackboneConfig(**TINY)
        bb = build(c)
        with pytest.raises(ShapeError):
            taped_backward(bb, rand_input(c), np.zeros((4, 8, 7)))


def grad_bytes(grads):
    return [(name, a.tobytes()) for name, a in grads.items()]


NAMES = {
    OperatorKind.NOFUSION: ("main",),
    OperatorKind.I3D: ("main",),
    OperatorKind.P3D: ("main", "aux"),
    OperatorKind.ACS: ("axial", "coronal", "sagittal"),
    OperatorKind.TSM: ("main",),
    OperatorKind.A3D: ("main", "mix"),
}


class TestNamedWeights:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_names_in_order(self, kind):
        bb = build(BackboneConfig(**TWO_STAGE, fusion=kind))
        want = [f"layer{i}.{n}" for i in range(2) for n in NAMES[kind] + ("bias",)]
        assert list(named_weights(bb)) == want + ["unify0", "unify1", "collapse"]

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_gradients_have_the_same_names_and_shapes(self, kind):
        c = BackboneConfig(**TWO_STAGE, fusion=kind)
        bb = build(c)
        grads = taped_backward(bb, rand_input(c), SeededRng(630).uniform(-1, 1, (6, 8, 8)))
        assert [(n, g.shape) for n, g in grads.items()] == \
            [(n, a.shape) for n, a in named_weights(bb).items()]

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_rebuild_from_the_view_is_bitwise(self, kind):
        c = BackboneConfig(**TWO_STAGE, fusion=kind)
        bb = build(c)
        x = rand_input(c)
        again = with_named(bb, named_weights(bb))
        assert forward_features(again, x).tobytes() == forward_features(bb, x).tobytes()

    def test_with_named_swaps_only_the_named_weights(self):
        bb = build(BackboneConfig(**TWO_STAGE, fusion=OperatorKind.ACS))
        coronal = np.ones_like(named_weights(bb)["layer1.coronal"])
        nb = with_named(bb, {"layer1.coronal": coronal})
        for name, arr in named_weights(nb).items():
            assert arr is (coronal if name == "layer1.coronal" else named_weights(bb)[name])
        with pytest.raises(KeyError, match="layer1.mian"):
            with_named(bb, {"layer1.mian": coronal})


class TestTape:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_taped_backward_gives_the_same_bits(self, kind):
        """Recording changes no forward bit, and backward leaves the tape
        as it found it: a second read gives the bits of a fresh tape."""
        c = BackboneConfig(**TWO_STAGE, fusion=kind)
        bb = build(c)
        x = rand_input(c)
        g = SeededRng(610).uniform(-1, 1, (6, 8, 8))
        tape = Tape()
        assert forward_features(bb, x, tape).tobytes() == forward_features(bb, x).tobytes()
        first = grad_bytes(backward_features(tape, g))
        assert first == grad_bytes(backward_features(tape, g))
        assert first == grad_bytes(taped_backward(bb, x.copy(), g))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_input_written_after_the_forward_does_not_reach_the_tape(self, kind):
        c = BackboneConfig(**TWO_STAGE, fusion=kind)
        bb = build(c)
        x = rand_input(c)
        g = SeededRng(611).uniform(-1, 1, (6, 8, 8))
        tape = Tape()
        forward_features(bb, x, tape)
        x[0, 1, 2, 3] += 1.0
        x[0, 0] = 0.0
        assert grad_bytes(backward_features(tape, g)) == grad_bytes(
            taped_backward(bb, rand_input(c), g))

    def test_unfilled_tape_rejected(self):
        with pytest.raises(ValueError, match="tape"):
            backward_features(Tape(), np.zeros((4, 8, 8)))

    def test_refilled_tape_reads_the_second_forward(self):
        c = BackboneConfig(**TWO_STAGE, fusion=OperatorKind.A3D)
        bb = build(c)
        x, x2 = rand_input(c), rand_input(c, seed=6)
        g = SeededRng(612).uniform(-1, 1, (6, 8, 8))
        tape = Tape()
        forward_features(bb, x, tape)
        stepped = apply_sgd(bb, backward_features(tape, g), 0.1)
        forward_features(stepped, x2, tape)
        assert tape.backbone is stepped
        got = grad_bytes(backward_features(tape, g))
        assert got == grad_bytes(taped_backward(stepped, x2, g))
        assert got != grad_bytes(taped_backward(bb, x, g))

    @pytest.mark.parametrize("f", [1, 2, 4])
    def test_upsample_adjoint_is_the_block_sum(self, f):
        """Bit for bit the block sum it replaced while a row holds at least
        two blocks; to rounding when W = f, where numpy's sum adds the
        block's f*f pixels in one flat run."""
        rng = SeededRng(620 + f)
        for trial in range(40):
            c, d, hb = (1 + int(rng.uniform(0, 4)) for _ in range(3))
            wb = 1 if trial % 4 == 0 else 2 + int(rng.uniform(0, 4))
            shape = (c, d, hb * f, wb * f)
            g = rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(-3, 3, shape)
            want = g.reshape(c, d, hb, f, wb, f).sum(axis=(3, 5))
            got = _upsample_adjoint(g, f)
            if wb > 1:
                assert got.tobytes() == want.tobytes(), shape
            else:
                assert np.max(np.abs(got - want)) <= 4e-16 * f * f * np.max(np.abs(g)), shape


class TestTraining:
    def test_sgd_step_moves_weights(self):
        c = BackboneConfig(**TINY, fusion=OperatorKind.A3D)
        bb = build(c)
        rng = SeededRng(602)
        x = rand_input(c)
        grads = taped_backward(bb, x, rng.uniform(-1, 1, (4, 8, 8)))
        nb = apply_sgd(bb, grads, lr=0.1)
        assert not np.array_equal(nb.fusion_layers[0][0].kernels[0],
                                  bb.fusion_layers[0][0].kernels[0])
        want = bb.collapse - 0.1 * grads["collapse"]
        assert np.array_equal(nb.collapse, want)

    def test_sgd_zero_lr_identity(self):
        c = BackboneConfig(**TINY)
        bb = build(c)
        rng = SeededRng(603)
        grads = taped_backward(bb, rand_input(c), rng.uniform(-1, 1, (4, 8, 8)))
        nb = apply_sgd(bb, grads, lr=0.0)
        assert np.array_equal(nb.collapse, bb.collapse)
        assert np.array_equal(nb.fusion_layers[0][0].kernels[0],
                              bb.fusion_layers[0][0].kernels[0])


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        for kind in (OperatorKind.ACS, OperatorKind.A3D, OperatorKind.TSM):
            c = BackboneConfig(**TWO_STAGE, fusion=kind)
            bb = build(c)
            d = tmp_path / kind.value
            save_checkpoint(bb, d)
            back = load_checkpoint(d)
            assert back.config == c
            x = rand_input(c)
            assert forward_features(back, x).tobytes() == forward_features(bb, x).tobytes()

    def test_round_trip_after_training_step(self, tmp_path):
        c = BackboneConfig(**TINY, fusion=OperatorKind.P3D)
        bb = build(c)
        rng = SeededRng(604)
        x = rand_input(c)
        grads = taped_backward(bb, x, rng.uniform(-1, 1, (4, 8, 8)))
        bb = apply_sgd(bb, grads, 0.05)
        save_checkpoint(bb, tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck")
        assert np.array_equal(forward_features(back, x), forward_features(bb, x))
