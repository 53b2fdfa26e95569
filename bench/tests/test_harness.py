"""Tests of the benchmark itself: tiny-size workloads, the tracer, and
that the output checks catch a wrong result.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from ctfuse import backbone, operators  # noqa: E402
from ctfuse.backbone import BackboneConfig  # noqa: E402
from ctfuse.costmodel import LayerDims, count_macs  # noqa: E402
from ctfuse.demo import DemoMetrics, SyntheticTaskConfig, TrainConfig  # noqa: E402
from ctfuse.operators import ALL_KINDS, OperatorKind  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer, per_layer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    InferSpec, Stopwatch, SweepSpec, TrainSpec, check_metrics, make_task, measure,
)

TINY = {
    "infer-default": (workloads.setup_infer, InferSpec(BackboneConfig(
        depth=3, stages=((8, 1), (16, 1)), height=8, width=8))),
    "operator-sweep": (workloads.setup_sweep, SweepSpec(
        c_in=8, c_out=6, depth=4, height=5, width=5)),
    "train-demo": (workloads.setup_train, TrainSpec(
        task=SyntheticTaskConfig(volumes=8), train=TrainConfig(epochs=1), auc_range={})),
}


def tiny_round(name, tmp_path, seed=3):
    setup, spec = TINY[name]
    return setup(seed, spec, Stopwatch(), tmp_path / "ckpt")


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_passes_its_checks(name, tmp_path):
    rnd = tiny_round(name, tmp_path)
    assert rnd.problems == []
    durations, failed, problems = measure(rnd.ops, 0.0)
    assert (failed, problems) == (0, [])
    assert len(durations) == len(rnd.ops)
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_tiny_workload_reports_every_layer_metric(name, tmp_path):
    tracer = Tracer()
    with tracer.patch(), tracer.span("bench.setup"):
        rnd = tiny_round(name, tmp_path)
    with tracer.patch():
        durations, failed, _ = measure(rnd.ops, 0.0, tracer)
    assert failed == 0
    metrics = per_layer(tracer.spans, sum(durations), 0.0)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    assert 0.5 < metrics["trace.accounted_share"][0] <= 1.0
    # patching is undone on exit
    assert operators.conv3d_forward is sys.modules["ctfuse.tensor"].conv3d_forward
    assert backbone.op_forward is operators.forward


def test_layer_counts_match_the_code_paths(tmp_path):
    tracer = Tracer()
    with tracer.patch(), tracer.span("bench.setup"):
        rnd = tiny_round("operator-sweep", tmp_path)
    with tracer.patch():
        durations, _, _ = measure(rnd.ops, 0.0, tracer)
    m = per_layer(tracer.spans, sum(durations), 0.0)
    # p3d, tsm and a3d recompute one tensor forward inside backward
    assert m["operators.backward.forward_calls"][0] == 3 / 6
    # nofusion, i3d, p3d (+ the recomputed mid), acs views, tsm, a3d
    assert m["tensor.conv3d_forward.calls"][0] == (1 + 1 + (2 + 1) + 3 + 1 + 1) / 6
    assert m["tensor.conv3d_backward.calls"][0] == (1 + 1 + 2 + 3 + 1 + 1) / 6
    spec = TINY["operator-sweep"][1]
    dims = LayerDims(c_in=spec.c_in, c_out=spec.c_out, k=spec.k, d=spec.depth,
                     h=spec.height, w=spec.width)
    shape = (spec.c_in, spec.depth, spec.height, spec.width)
    recomputed_mid = spec.c_out * spec.c_in * spec.k ** 2 * spec.depth * spec.height * spec.width
    rows = summarize(tracer.spans)["bench.op"]
    forward_macs = (rows["tensor.conv3d_forward"]["work"]
                    + rows["tensor.slice_contract_forward"]["work"])
    assert forward_macs == (sum(count_macs(k, dims) for k in ALL_KINDS)
                            + recomputed_mid + oracle.slice_mix_macs(shape))


def test_self_time_is_span_time_minus_children():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()
    middle = tracer.wrap("middle", middle)
    top = tracer.wrap("top", lambda: (middle(), leaf()))
    top()
    # clock reads: top 0, middle 1, leaf 2-3, leaf 4-5, middle 6, leaf 7-8, top 9
    rows = summarize(tracer.spans)["top"]
    assert rows["top"]["total_s"] == 9 and rows["top"]["self_s"] == 9 - 5 - 1
    assert rows["middle"]["total_s"] == 5 and rows["middle"]["self_s"] == 5 - 2
    assert rows["leaf"]["calls"] == 3 and rows["leaf"]["self_s"] == 3
    assert rows["leaf"]["callers"] == {"middle": 2, "top": 1}
    assert sum(r["self_s"] for r in rows.values()) == rows["top"]["total_s"]


def test_tracer_writes_spans(tmp_path):
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.write(tmp_path / "t.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [(r["name"], r["parent"]) for r in rows] == [("outer", -1), ("inner", 0)]
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] <= rows[0]["end"]


def test_every_traced_function_exists():
    for mod, fn in TRACED:
        assert callable(getattr(sys.modules[f"ctfuse.{mod}"], fn))


def test_wrong_operator_forward_is_caught(tmp_path, monkeypatch):
    rnd = tiny_round("operator-sweep", tmp_path)
    real = operators.forward

    def off_by_a_little(state, x):
        y = real(state, x)
        y.flat[7] *= 1 + 1e-7
        return y
    monkeypatch.setattr(operators, "forward", off_by_a_little)
    _, failed, problems = measure(rnd.ops, 0.0)
    assert failed == len(rnd.ops)
    assert all("forward off the reference" in p for p in problems)


@pytest.mark.parametrize("which", ["x", "kernels"])
def test_wrong_operator_backward_is_caught(which, tmp_path, monkeypatch):
    rnd = tiny_round("operator-sweep", tmp_path)
    real = operators.backward

    def scaled(state, x, g):
        grad_x, grads = real(state, x, g)
        if which == "x":
            grad_x = grad_x * (1 + 1e-8)
        else:
            grads = operators.OperatorGrads(tuple(k * (1 + 1e-8) for k in grads.kernels),
                                            aux=grads.aux, mix=grads.mix)
        return grad_x, grads
    monkeypatch.setattr(operators, "backward", scaled)
    _, failed, problems = measure(rnd.ops, 0.0)
    assert failed == len(rnd.ops)
    assert all(f"<d{which}, {which}>" in p for p in problems)


def test_wrong_backbone_output_is_caught(tmp_path, monkeypatch):
    rnd = tiny_round("infer-default", tmp_path)
    real = backbone.forward_features
    monkeypatch.setattr(backbone, "forward_features", lambda bb, x: real(bb, x) * (1 + 1e-8))
    _, failed, _ = measure(rnd.ops, 0.0)
    assert failed == len(rnd.ops)


def test_demo_checks_catch_bad_metrics():
    spec = TrainSpec(train=TrainConfig(epochs=2))
    good = DemoMetrics(OperatorKind.A3D, (0.5, 0.4), (0.5, 0.4), (0.8, 0.95))
    seen = {}
    assert check_metrics(OperatorKind.A3D, good, spec, seen) is None
    low = DemoMetrics(OperatorKind.A3D, (0.5, 0.4), (0.5, 0.4), (0.8, 0.85))
    assert "val_auc" in check_metrics(OperatorKind.A3D, low, spec, {})
    high = DemoMetrics(OperatorKind.NOFUSION, (0.5, 0.4), (0.5, 0.4), (0.5, 0.7))
    assert "val_auc" in check_metrics(OperatorKind.NOFUSION, high, spec, {})
    nan = DemoMetrics(OperatorKind.A3D, (0.5, float("nan")), (0.5, 0.4), (0.8, 0.95))
    assert "non-finite" in check_metrics(OperatorKind.A3D, nan, spec, {})
    moved = DemoMetrics(OperatorKind.A3D, (0.5, 0.41), (0.5, 0.4), (0.8, 0.95))
    assert "CSV differs" in check_metrics(OperatorKind.A3D, moved, spec, seen)


def test_demo_task_draw_has_the_demo_structure():
    # seed 409 is one where demo.generate_task gives up placing the blobs
    data = make_task(SyntheticTaskConfig(seed=409))
    assert data.volumes.shape == (80, 1, 5, 16, 16) and data.key_slice == 2
    assert not np.any(data.masks & data.distractor_masks)
    assert np.all(data.masks.sum(axis=(1, 2)) == data.distractor_masks.sum(axis=(1, 2)))
    signs = []
    for vol, pos, dist in zip(data.volumes[:, 0], data.masks, data.distractor_masks):
        p = vol[1:4, pos].mean(axis=1)
        d = vol[1:4, dist].mean(axis=1)
        assert np.all(np.sign(p) == np.sign(p[0]) * np.array([1, -1, 1]))
        assert np.all(np.sign(d) == np.sign(d[0]))
        assert np.sign(p[0]) == np.sign(d[0])
        signs.append(np.sign(d[0]))
    assert all(a == -b for a, b in zip(signs[0::2], signs[1::2]))
    again = make_task(SyntheticTaskConfig(seed=409))
    assert again.volumes.tobytes() == data.volumes.tobytes()


def test_reference_conv_matches_a_direct_sum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4, 5))
    k = rng.normal(size=(3, 2, 3, 1, 3))
    padded = np.pad(x, ((0, 0), (1, 1), (0, 0), (1, 1)))
    want = np.zeros((3, 3, 4, 5))
    for o in range(3):
        for d in range(3):
            for h in range(4):
                for w in range(5):
                    want[o, d, h, w] = np.sum(padded[:, d:d + 3, h:h + 1, w:w + 3] * k[o])
    assert oracle.rel_error(oracle.conv3d(x, k), want) < 1e-14


def test_default_backbone_mac_counts():
    config = BackboneConfig()
    assert oracle.head_macs(config) == 3_053_453_312 + 1_879_048_192
    rnd_macs = [oracle.fusion_macs(s, shape) for (s, _), shape in
                zip(backbone.build(config).fusion_layers, oracle.layer_inputs(config))]
    assert sum(rnd_macs) == 796_852_224


def test_refuses_to_run_without_the_library(tmp_path):
    copy = tmp_path / "bench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "operator-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_declared_metrics_last(trace, section):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([*declared["command"], "--workload", "operator-sweep", "--seed", "5",
                           "--seconds", "0.1", "--trace", str(trace)],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == (12 if trace else 6)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[section]}
