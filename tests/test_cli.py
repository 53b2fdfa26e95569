"""Tests for the command-line interface."""

import numpy as np
import pytest

from ctfuse import cli, ctf
from ctfuse.backbone import BackboneConfig, build, forward_features, save_checkpoint
from ctfuse.cli import main
from ctfuse.operators import OperatorKind, forward, load_operator
from ctfuse.rng import SeededRng


class TestParsing:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cost", "--frobnicate"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2

    def test_forward_requires_exactly_one_source(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["forward", "--operator", "a", "--backbone", "b",
                  "--input", "x", "--out", "y"])
        assert excinfo.value.code == 2


class TestCost:
    def test_depth_seven_slice_mixing_overheads(self, capsys):
        assert main(["cost", "--fusion", "a3d", "--d", "7"]) == 0
        out = capsys.readouterr().out
        # per-layer MAC overhead 1 + 7/(Cout*9) for Cout = 64, 256, 512
        for frac in ("583/576", "2311/2304", "4615/4608"):
            assert frac in out

    def test_all_kinds_by_default(self, capsys):
        assert main(["cost", "--d", "3"]) == 0
        out = capsys.readouterr().out
        for kind in OperatorKind:
            assert f"\n{kind.value}" in out or out.startswith(kind.value)

    def test_csv_block_present_and_parsable(self, capsys):
        assert main(["cost", "--fusion", "tsm", "--stages", "8x2",
                     "--height", "16", "--width", "16"]) == 0
        out = capsys.readouterr().out
        lines = out[out.index("kind,layer"):].strip().splitlines()
        assert lines[0] == "kind,layer,params,macs,overhead_params,overhead_macs"
        assert len(lines) == 4  # two layers plus a total row
        assert lines[1].split(",")[0] == "tsm"

    def test_flops_column_is_opt_in(self, capsys):
        main(["cost", "--fusion", "i3d"])
        plain = capsys.readouterr().out
        main(["cost", "--fusion", "i3d", "--flops"])
        with_flops = capsys.readouterr().out
        assert "flops" not in plain
        assert "flops" in with_flops

    def test_head_rows_and_network_total(self, capsys):
        assert main(["cost", "--fusion", "nofusion"]) == 0
        out = capsys.readouterr().out
        assert "head,unify0,32768,234881024" in out
        assert "head,collapse,1835008,1879048192" in out
        assert "head,total,2260992,2466250752" in out
        assert "network,nofusion,3588672,3263102976" in out

    def test_invalid_stage_string_error_is_clean(self, capsys):
        assert main(["cost", "--stages", "64xx1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("stages,piece", [("abc", "'abc'"), ("64x1,,256", "''"),
                                              ("64x1,256x1x2", "'256x1x2'")])
    def test_invalid_stage_error_names_the_piece_and_form(self, capsys, stages, piece):
        assert main(["cost", "--stages", stages]) == 1
        assert_clean_failure(capsys, f"stage {piece} in {stages!r}", "CxB")


class TestCheck:
    def test_reports_passes_and_exits_zero(self, capsys):
        assert main(["check", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "0 failed" in out
        assert "oracle:a3d" in out
        assert "grad:backbone" in out


class TestDemo:
    def test_identical_invocations_write_identical_bytes(self, tmp_path):
        args = ["demo", "--fusion", "i3d", "--epochs", "2", "--volumes", "12",
                "--seed", "4"]
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_auc"
        assert len(lines) == 3

    def test_slice_mixing_beats_slice_wise_on_validation_loss(self, tmp_path):
        runs = {}
        for kind in ("a3d", "nofusion"):
            out = tmp_path / f"{kind}.csv"
            assert main(["demo", "--fusion", kind, "--epochs", "20",
                         "--volumes", "24", "--seed", "0", "--out", str(out)]) == 0
            last = out.read_text().splitlines()[-1].split(",")
            runs[kind] = (float(last[2]), float(last[3]))
        assert runs["a3d"][0] < runs["nofusion"][0]
        assert runs["a3d"][1] > runs["nofusion"][1]

    def test_config_file_overrides_task_and_training(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("# small run\nvolumes=12\nepochs=2\nlearning_rate=0.05\n")
        out = tmp_path / "m.csv"
        assert main(["demo", "--config", str(cfg), "--out", str(out)]) == 0
        assert "volumes=12" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 3

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("volumes=12\nepochs=5\n")
        out = tmp_path / "m.csv"
        assert main(["demo", "--config", str(cfg), "--epochs", "1",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("volumes=12\nmomentum=0.9\n")
        assert main(["demo", "--config", str(cfg)]) == 1
        assert "momentum" in capsys.readouterr().err

    def test_non_integer_config_value_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("volumes=nan\n")
        assert main(["demo", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 1
        assert_clean_failure(capsys, "demo.cfg", "volumes='nan'")

    def test_non_finite_learning_rate_fails_before_training(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_training(*args):
            raise AssertionError("training started")
        monkeypatch.setattr(cli, "train", no_training)
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("volumes=12\nlearning_rate=nan\n")
        out = tmp_path / "m.csv"
        assert main(["demo", "--config", str(cfg), "--out", str(out)]) == 1
        assert_clean_failure(capsys, "learning_rate must be finite")
        assert not out.exists()


class TestInflateForward:
    def test_operator_round_trip_matches_library(self, tmp_path):
        rng = SeededRng(9)
        w2d = rng.uniform(-1, 1, (4, 2, 3, 3))
        x = rng.uniform(-1, 1, (2, 5, 6, 6))
        ctf.write_tensor(tmp_path / "w2d.ctf", w2d)
        ctf.write_tensor(tmp_path / "vol.ctf", x)
        op_dir = tmp_path / "op"
        assert main(["inflate", "--kernel", str(tmp_path / "w2d.ctf"),
                     "--fusion", "a3d", "--depth", "5", "--seed", "3",
                     "--out", str(op_dir)]) == 0
        assert main(["forward", "--operator", str(op_dir),
                     "--input", str(tmp_path / "vol.ctf"),
                     "--out", str(tmp_path / "y.ctf")]) == 0
        state = load_operator(op_dir)
        got = ctf.read_tensor(tmp_path / "y.ctf")
        assert np.array_equal(got, forward(state, x))

    def test_every_kind_inflates_from_the_cli(self, tmp_path):
        ctf.write_tensor(tmp_path / "w.ctf",
                         SeededRng(1).uniform(-1, 1, (3, 2, 3, 3)))
        for kind in OperatorKind:
            out = tmp_path / kind.value
            assert main(["inflate", "--kernel", str(tmp_path / "w.ctf"),
                         "--fusion", kind.value, "--depth", "4",
                         "--out", str(out)]) == 0
            assert load_operator(out).kind is kind

    def test_backbone_forward_matches_library(self, tmp_path):
        config = BackboneConfig(depth=3, stages=((4, 1),), height=8, width=8,
                                fusion=OperatorKind.TSM, seed=5)
        bb = build(config)
        save_checkpoint(bb, tmp_path / "ckpt")
        x = SeededRng(2).uniform(-1, 1, (1, 3, 8, 8))
        ctf.write_tensor(tmp_path / "vol.ctf", x)
        assert main(["forward", "--backbone", str(tmp_path / "ckpt"),
                     "--input", str(tmp_path / "vol.ctf"),
                     "--out", str(tmp_path / "map.ctf")]) == 0
        got = ctf.read_tensor(tmp_path / "map.ctf")
        assert np.array_equal(got, forward_features(bb, x))

    def test_missing_operator_directory_is_reported(self, tmp_path, capsys):
        ctf.write_tensor(tmp_path / "vol.ctf", np.zeros((1, 3, 4, 4)))
        assert main(["forward", "--operator", str(tmp_path / "nope"),
                     "--input", str(tmp_path / "vol.ctf"),
                     "--out", str(tmp_path / "y.ctf")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_input_rank_is_reported(self, tmp_path, capsys):
        ctf.write_tensor(tmp_path / "w.ctf", np.ones((2, 2, 3, 3)))
        op_dir = tmp_path / "op"
        main(["inflate", "--kernel", str(tmp_path / "w.ctf"), "--fusion",
              "i3d", "--depth", "3", "--out", str(op_dir)])
        ctf.write_tensor(tmp_path / "bad.ctf", np.ones((5, 5)))
        assert main(["forward", "--operator", str(op_dir),
                     "--input", str(tmp_path / "bad.ctf"),
                     "--out", str(tmp_path / "y.ctf")]) == 1
        assert "error:" in capsys.readouterr().err


def assert_clean_failure(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


class TestBadInputs:
    def _operator(self, tmp_path, fusion="tsm", c_out=2):
        ctf.write_tensor(tmp_path / "w.ctf", np.ones((c_out, 2, 3, 3)))
        op_dir = tmp_path / "op"
        assert main(["inflate", "--kernel", str(tmp_path / "w.ctf"), "--fusion",
                     fusion, "--depth", "3", "--out", str(op_dir)]) == 0
        ctf.write_tensor(tmp_path / "vol.ctf", np.ones((2, 3, 4, 4)))
        return op_dir

    def _checkpoint(self, tmp_path):
        bb = build(BackboneConfig(depth=3, stages=((4, 1),), height=8, width=8,
                                  fusion=OperatorKind.A3D))
        save_checkpoint(bb, tmp_path / "ckpt")
        ctf.write_tensor(tmp_path / "vol.ctf", np.ones((1, 3, 8, 8)))
        return tmp_path / "ckpt"

    def _forward(self, flag, path, tmp_path):
        return main(["forward", flag, str(path), "--input", str(tmp_path / "vol.ctf"),
                     "--out", str(tmp_path / "y.ctf")])

    def test_operator_manifest_missing_key(self, tmp_path, capsys):
        op_dir = self._operator(tmp_path)
        manifest = op_dir / "operator.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(ln for ln in lines if not ln.startswith("shift_up=")))
        assert self._forward("--operator", op_dir, tmp_path) == 1
        assert_clean_failure(capsys, "operator.txt", "'shift_up'")

    def test_backbone_manifest_missing_key(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        manifest = ckpt / "backbone.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(ln for ln in lines if not ln.startswith("stages=")))
        assert self._forward("--backbone", ckpt, tmp_path) == 1
        assert_clean_failure(capsys, "backbone.txt", "'stages'")

    @staticmethod
    def _doctor(manifest, key, value):
        lines = manifest.read_text().splitlines(keepends=True)
        assert any(ln.startswith(f"{key}=") for ln in lines)
        manifest.write_text("".join(f"{key}={value}\n" if ln.startswith(f"{key}=") else ln
                                    for ln in lines))

    @pytest.mark.parametrize("fusion,key,value", [
        ("tsm", "c_out", "3"), ("tsm", "c_in", "1"), ("tsm", "k", "5"), ("a3d", "depth", "4"),
        ("acs", "acs_axial", "2")])
    def test_operator_manifest_contradicts_tensors(self, tmp_path, capsys, fusion, key, value):
        op_dir = self._operator(tmp_path, fusion, c_out=3 if fusion == "acs" else 2)
        self._doctor(op_dir / "operator.txt", key, value)
        assert self._forward("--operator", op_dir, tmp_path) == 1
        assert_clean_failure(capsys, "operator.txt", f"{key}={value}")

    @pytest.mark.parametrize("key,value", [("stages", "5x1"), ("fusion", "p3d")])
    def test_backbone_manifest_contradicts_layers(self, tmp_path, capsys, key, value):
        ckpt = self._checkpoint(tmp_path)
        self._doctor(ckpt / "backbone.txt", key, value)
        assert self._forward("--backbone", ckpt, tmp_path) == 1
        assert_clean_failure(capsys, "backbone.txt", f"{key}={value}")

    def test_operator_manifest_non_integer(self, tmp_path, capsys):
        op_dir = self._operator(tmp_path)
        self._doctor(op_dir / "operator.txt", "depth", "four")
        assert self._forward("--operator", op_dir, tmp_path) == 1
        assert_clean_failure(capsys, "operator.txt", "depth='four'")

    def test_backbone_manifest_non_integer(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        self._doctor(ckpt / "backbone.txt", "height", "nan")
        assert self._forward("--backbone", ckpt, tmp_path) == 1
        assert_clean_failure(capsys, "backbone.txt", "height='nan'")

    def test_acs_planes_of_the_wrong_rank(self, tmp_path, capsys):
        op_dir = self._operator(tmp_path, "acs", c_out=3)
        ctf.write_tensor(op_dir / "main.ctf", np.ones(6))
        assert self._forward("--operator", op_dir, tmp_path) == 1
        assert_clean_failure(capsys, "main.ctf", "rank 4")

    def test_non_finite_a3d_perturb(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        manifest = ckpt / "backbone.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join("a3d_perturb=nan\n" if ln.startswith("a3d_perturb=")
                                    else ln for ln in lines))
        assert self._forward("--backbone", ckpt, tmp_path) == 1
        assert_clean_failure(capsys, "a3d_perturb")

    def test_non_finite_input_volume(self, tmp_path, capsys):
        op_dir = self._operator(tmp_path)
        x = np.ones((2, 3, 4, 4))
        x[1, 2, 3, 0] = np.nan
        ctf.write_tensor(tmp_path / "vol.ctf", x)
        assert self._forward("--operator", op_dir, tmp_path) == 1
        assert_clean_failure(capsys, "vol.ctf", "non-finite")
        assert not (tmp_path / "y.ctf").exists()
