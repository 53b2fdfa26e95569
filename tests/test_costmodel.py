"""Cost model tests: closed forms, instrumented oracles, report assembly."""

from fractions import Fraction

import numpy as np
import pytest

from ctfuse.backbone import BackboneConfig, build, head_layers, layer_dims
from ctfuse.costmodel import (
    LayerDims,
    backbone_cost,
    count_macs,
    count_params,
    format_csv,
    format_head_csv,
    format_head_table,
    format_table,
    head_rows,
    overhead_macs,
    overhead_params,
)
from ctfuse.demo import DEMO_STAGES
from ctfuse.operators import ALL_KINDS, OperatorKind, inflate
from ctfuse.reference import naive_operator_forward
from ctfuse.rng import SeededRng


def closed_form_overheads(kind, dims):
    """The published ratios, written independently of the counters."""
    ci, co, k, d = dims.c_in, dims.c_out, dims.k, dims.d
    if kind is OperatorKind.I3D:
        return Fraction(k), Fraction(k)
    if kind is OperatorKind.P3D:
        r = 1 + Fraction(co, ci * k)
        return r, r
    if kind is OperatorKind.A3D:
        return 1 + Fraction(d * d, co * k * k), 1 + Fraction(d, co * k * k)
    return Fraction(1), Fraction(1)


def random_dims(rng, acs_safe=False):
    lo = 3 if acs_safe else 1
    return LayerDims(
        c_in=lo + int(rng.uniform(0, 97)),
        c_out=lo + int(rng.uniform(0, 97)),
        k=(1, 3, 5, 7)[int(rng.uniform(0, 4))],
        d=1 + int(rng.uniform(0, 12)),
        h=1 + int(rng.uniform(0, 30)),
        w=1 + int(rng.uniform(0, 30)),
    )


class TestCounts:
    def test_nofusion_params_example(self):
        dims = LayerDims(64, 64, 3, 7, 8, 8)
        assert count_params(OperatorKind.NOFUSION, dims) == 36864

    def test_nofusion_macs_example(self):
        """Tiny case: 2*4*4 positions x 1x1 channels x 9 taps = 288."""
        dims = LayerDims(1, 1, 3, 2, 4, 4)
        assert count_macs(OperatorKind.NOFUSION, dims) == 288

    def test_i3d_ratio_is_k(self):
        dims = LayerDims(16, 32, 3, 5, 6, 6)
        assert overhead_params(OperatorKind.I3D, dims) == 3
        assert overhead_macs(OperatorKind.I3D, dims) == 3

    def test_a3d_params_example(self):
        dims = LayerDims(64, 64, 3, 7, 4, 4)
        assert overhead_params(OperatorKind.A3D, dims) == 1 + Fraction(49, 576)

    def test_a3d_macs_ratio(self):
        dims = LayerDims(48, 64, 3, 7, 12, 10)
        assert overhead_macs(OperatorKind.A3D, dims) == 1 + Fraction(7, 64 * 9)

    def test_p3d_ratio(self):
        dims = LayerDims(24, 36, 3, 5, 4, 4)
        want = 1 + Fraction(36, 24 * 3)
        assert overhead_params(OperatorKind.P3D, dims) == want
        assert overhead_macs(OperatorKind.P3D, dims) == want

    def test_a3d_degenerate_ratio_three(self):
        dims = LayerDims(1, 1, 1, 2, 1, 1)
        assert overhead_macs(OperatorKind.A3D, dims) == 3

    def test_closed_forms_random_dims(self):
        """Counter ratios equal the closed forms exactly, 100 random dims
        per kind."""
        rng = SeededRng(400)
        for i, kind in enumerate(ALL_KINDS):
            r = rng.fork(i)
            for _ in range(100):
                dims = random_dims(r, acs_safe=kind is OperatorKind.ACS)
                want_p, want_m = closed_form_overheads(kind, dims)
                assert overhead_params(kind, dims) == want_p, (kind, dims)
                assert overhead_macs(kind, dims) == want_m, (kind, dims)

    def test_default_and_demo_backbone_macs_match_the_benchmark_table(self):
        """Per-layer MACs of the default backbone and the demo backbone's
        fusion total, as bench/README.md's MAC table lists them."""
        table = {
            OperatorKind.NOFUSION: ((4_128_768, 264_241_152, 528_482_304), 460_800),
            OperatorKind.I3D: ((12_386_304, 792_723_456, 1_585_446_912), 1_382_400),
            OperatorKind.P3D: ((92_209_152, 616_562_688, 880_803_840), 952_320),
            OperatorKind.ACS: ((4_128_768, 264_241_152, 528_482_304), 460_800),
            OperatorKind.TSM: ((4_128_768, 264_241_152, 528_482_304), 460_800),
            OperatorKind.A3D: ((4_178_944, 265_043_968, 529_285_120), 480_000),
        }
        default = layer_dims(BackboneConfig())
        demo = layer_dims(BackboneConfig(depth=5, stages=DEMO_STAGES, height=16, width=16))
        for kind, (layers, demo_total) in table.items():
            assert tuple(count_macs(kind, dims) for dims in default) == layers, kind
            assert sum(count_macs(kind, dims) for dims in demo) == demo_total, kind


class TestAgainstImplementation:
    def test_params_match_state_enumeration(self):
        """count_params equals the actual number of scalars inflate builds."""
        rng = SeededRng(401)
        for i, kind in enumerate(ALL_KINDS):
            r = rng.fork(i)
            for trial in range(5):
                dims = LayerDims(c_in=1 + trial, c_out=3 + trial * 2, k=(1, 3, 5)[trial % 3],
                                 d=2 + trial, h=4, w=4)
                w2d = r.uniform(-1, 1, (dims.c_out, dims.c_in, dims.k, dims.k))
                st = inflate(kind, w2d, dims.d, rng=r.fork(trial))
                params = sum(a.size for a in st.weights.values())
                assert params == count_params(kind, dims), (kind, dims)

    def test_macs_match_instrumented_oracle(self):
        """count_macs equals the MACs the brute-force forward actually does."""
        rng = SeededRng(402)
        for i, kind in enumerate(ALL_KINDS):
            r = rng.fork(i)
            dims = LayerDims(c_in=3, c_out=4, k=3, d=3, h=4, w=3)
            w2d = r.uniform(-1, 1, (dims.c_out, dims.c_in, dims.k, dims.k))
            st = inflate(kind, w2d, dims.d, rng=r.fork(7))
            x = r.uniform(-1, 1, (dims.c_in, dims.d, dims.h, dims.w))
            _, macs = naive_operator_forward(st, x)
            assert macs == count_macs(kind, dims), kind


class TestReport:
    def test_totals_sum_layers(self):
        layers = [LayerDims(4, 8, 3, 5, 8, 8), LayerDims(8, 16, 3, 5, 4, 4)]
        rep = backbone_cost(OperatorKind.P3D, layers)
        assert rep.total_params == sum(lc.params for lc in rep.layers)
        assert rep.total_macs == sum(lc.macs for lc in rep.layers)

    def test_overheads_at_least_one(self):
        layers = [LayerDims(4, 8, 3, 5, 8, 8)]
        for kind in ALL_KINDS:
            rep = backbone_cost(kind, layers)
            assert rep.total_overhead_params >= 1
            assert rep.total_overhead_macs >= 1

    def test_nofusion_overheads_exactly_one(self):
        rep = backbone_cost(OperatorKind.NOFUSION, [LayerDims(4, 8, 3, 5, 8, 8)])
        assert rep.total_overhead_params == 1
        assert rep.total_overhead_macs == 1

    def test_zero_cost_kinds_share_totals(self):
        """Copy-only context tricks cost the same MACs as no fusion."""
        layers = [LayerDims(4, 8, 3, 5, 8, 8), LayerDims(8, 16, 3, 5, 4, 4)]
        base = backbone_cost(OperatorKind.NOFUSION, layers).total_macs
        for kind in (OperatorKind.ACS, OperatorKind.TSM):
            assert backbone_cost(kind, layers).total_macs == base

    def test_flops_double_macs(self):
        rep = backbone_cost(OperatorKind.I3D, [LayerDims(2, 4, 3, 3, 4, 4)])
        assert rep.total_flops == 2 * rep.total_macs

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            backbone_cost(OperatorKind.NOFUSION, [])

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            LayerDims(0, 4, 3, 3, 4, 4)
        with pytest.raises(ValueError):
            LayerDims(4, 4, 2, 3, 4, 4)

    @pytest.mark.parametrize("name, value, match", [
        ("c_in", True, "c_in must be an integer"),
        ("c_out", 4.0, "c_out must be an integer"),
        ("d", "3", "d must be an integer"),
        ("h", np.int64(0), "h must be >= 1"),
        ("k", np.int32(2), "kernel extent must be odd"),
    ])
    def test_non_integer_dims_rejected_by_name(self, name, value, match):
        fields = {"c_in": 4, "c_out": 4, "k": 3, "d": 3, "h": 4, "w": 4, name: value}
        with pytest.raises(ValueError, match=match):
            LayerDims(**fields)

    def test_numpy_integer_dims_stored_as_int(self):
        dims = LayerDims(c_in=np.int64(3), c_out=4, k=np.int32(3), d=3, h=4, w=4)
        assert (dims.c_in, dims.k) == (3, 3) and type(dims.c_in) is int and type(dims.k) is int

    def test_acs_needs_three_out_channels(self):
        with pytest.raises(ValueError):
            count_params(OperatorKind.ACS, LayerDims(4, 2, 3, 3, 4, 4))


class TestHead:
    def test_default_nofusion_head_and_network(self):
        """Fold, the fold at full resolution, unify1 and unify2 at their own
        resolutions, and the collapse at stage 1's."""
        config = BackboneConfig()
        head = head_layers(config)
        assert [h.name for h in head] == ["fold", "apply_fold", "unify1", "unify2", "collapse"]
        assert [h.macs for h in head] == [117_440_512, 234_881_024, 234_881_024, 117_440_512,
                                          469_762_048]
        fusion = backbone_cost(OperatorKind.NOFUSION, layer_dims(config))
        assert fusion.total_macs == 796_852_224
        rows = head_rows(head, [fusion])
        assert rows[-2] == ("head", "total", 2_260_992, 1_174_405_120)
        assert rows[-1] == ("network", "nofusion", fusion.total_params + 2_260_992,
                            796_852_224 + 1_174_405_120)

    @pytest.mark.parametrize("stages", [((4, 1),), ((4, 1), (6, 2)), ((4, 1), (6, 2), (8, 1))],
                             ids=["1stage", "2stage", "3stage"])
    def test_head_macs_count_the_folded_head(self, stages):
        """MACs of each product forward_features runs, counted here from
        the config: W0[d] = C[:, :, d] @ U0 for every slice, W0 applied to
        stage 0 at full resolution, and with coarser stages their unify
        at their own resolution and the collapse at stage 1's."""
        config = BackboneConfig(depth=3, stages=stages, height=8, width=16)
        d, h, w, cf = 3, 8, 16, stages[-1][0]
        c0 = stages[0][0]
        want = d * cf * cf * c0 + cf * c0 * d * h * w
        if len(stages) > 1:
            want += sum(cf * c * d * (h >> s) * (w >> s) for s, (c, _) in enumerate(stages)
                        if s > 0)
            want += cf * cf * d * (h // 2) * (w // 2)
        assert sum(layer.macs for layer in head_layers(config)) == want

    def test_head_params_match_built_weights(self):
        config = BackboneConfig(depth=3, stages=((4, 1), (6, 2)), height=8, width=8)
        bb = build(config)
        unify0, unify1 = (k.size for k in bb.unify_kernels)
        assert [h.params for h in head_layers(config)] == [unify0 + bb.collapse.size, 0,
                                                           unify1, 0]

    def test_head_csv_and_table(self):
        config = BackboneConfig(depth=3, stages=((4, 1), (6, 1)), height=8, width=8)
        reports = [backbone_cost(k, layer_dims(config)) for k in ALL_KINDS]
        rows = head_rows(head_layers(config), reports)
        assert len(rows) == 4 + 1 + len(ALL_KINDS)
        lines = format_head_csv(rows).splitlines()
        assert lines[0] == "part,name,params,macs"
        assert lines[1:] == [f"{a},{b},{c},{d}" for a, b, c, d in rows]
        table = format_head_table(rows, flops=True).splitlines()
        assert "flops" in table[0]
        assert table[-1].split() == ["network", "a3d", str(rows[-1][2]), str(2 * rows[-1][3])]


class TestFormatting:
    def test_csv_shape_and_exactness(self):
        layers = [LayerDims(4, 8, 3, 5, 8, 8), LayerDims(8, 16, 3, 5, 4, 4)]
        rep = backbone_cost(OperatorKind.A3D, layers)
        text = format_csv([rep])
        lines = text.splitlines()
        assert lines[0] == "kind,layer,params,macs,overhead_params,overhead_macs"
        assert len(lines) == 4
        kind, layer, params, macs, op, om = lines[1].split(",")
        assert kind == "a3d" and layer == "0"
        assert int(params) == count_params(OperatorKind.A3D, layers[0])
        assert Fraction(op) == overhead_params(OperatorKind.A3D, layers[0])
        assert Fraction(om) == overhead_macs(OperatorKind.A3D, layers[0])
        assert lines[3].split(",")[1] == "total"

    def test_table_aligned_and_complete(self):
        layers = [LayerDims(4, 8, 3, 5, 8, 8)]
        reports = [backbone_cost(k, layers) for k in ALL_KINDS]
        text = format_table(reports)
        lines = text.splitlines()
        assert len(lines) == 1 + 2 * len(ALL_KINDS)
        for kind in ALL_KINDS:
            assert any(line.startswith(kind.value) for line in lines[1:])

    def test_flops_table_doubles(self):
        layers = [LayerDims(2, 4, 3, 3, 4, 4)]
        rep = backbone_cost(OperatorKind.NOFUSION, layers)
        t = format_table([rep], flops=True)
        assert "flops" in t.splitlines()[0]
        assert str(2 * rep.total_macs) in t
