"""tools/snapshot.py's compare: exact agreement, or the entries that differ."""

import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "snapshot", Path(__file__).resolve().parents[1] / "tools" / "snapshot.py")
snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot)


def record():
    return {"cli/check": np.frombuffer(b"PASS  oracle\n", np.uint8),
            "operator/a3d/step0/y": np.linspace(-1.0, 1.0, 12).reshape(3, 4),
            "operator/a3d/step0/grad_mix": np.full((2, 2, 1), 0.25)}


def test_identical_records_are_the_same(capsys):
    assert snapshot.compare(record(), record()) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == [f"{name}: same" for name in record()]
    assert out[-1] == "3 entries, 0 differ"


def test_one_ulp_is_a_difference_named_by_entry(capsys):
    nudged = record()
    y = nudged["operator/a3d/step0/y"]
    y[1, 2] = np.nextafter(y[1, 2], np.inf)
    assert snapshot.compare(record(), nudged) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "cli/check: same"
    assert out[1].startswith("operator/a3d/step0/y: max abs diff ")
    assert out[2] == "operator/a3d/step0/grad_mix: same"
    assert out[-1] == "3 entries, 1 differ"


def test_missing_and_reshaped_entries_differ(capsys):
    other = record()
    del other["cli/check"]
    other["operator/a3d/step0/grad_mix"] = np.full((2, 2), 0.25)
    assert snapshot.compare(record(), other) == 1
    out = capsys.readouterr().out
    assert "cli/check: only in A" in out
    assert "operator/a3d/step0/grad_mix: float64[2, 2, 1] vs float64[2, 2]" in out


def test_text_entries_differ_by_their_first_differing_line(capsys):
    other = record()
    other["cli/check"] = np.frombuffer(b"PASS  oracle\nFAIL  fd\n", np.uint8)
    other["demo/a3d.csv"] = np.frombuffer(b"epoch,loss\n1,0.25\n2,0.125\n", np.uint8)
    mine = {**record(), "demo/a3d.csv": np.frombuffer(b"epoch,loss\n1,0.5\n", np.uint8)}
    assert snapshot.compare(mine, other) == 1
    out = capsys.readouterr().out
    assert "cli/check: line 2: '' vs 'FAIL  fd\\n'" in out
    assert "demo/a3d.csv: line 2: '1,0.5\\n' vs '1,0.25\\n'" in out
