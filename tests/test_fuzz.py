"""Corruption fuzz over saved operators and checkpoints.

A fixed-seed SeededRng draws a bounded set of damaged directories: CTF1
files truncated, with a bad magic or rank byte, rewritten at the wrong
rank or with one dimension off, and manifests with a required key
missing, a key contradicting the tensors, or a non-integer value.
Loading and running each one must fail with ContainerError or
ShapeError, never IndexError, KeyError or struct.error, and `ctfuse
forward` on a sample of them must exit 1 without a traceback.  A NaN or
an infinity written into any weight file must fail to load with
ContainerError naming the file.  Each source's list of keys to damage
must equal its saved manifest's keys, so the fuzz follows the formats.
"""

import re
import shutil
import struct

import pytest

from ctfuse import ctf
from ctfuse.backbone import (BackboneConfig, build, forward_features, load_checkpoint,
                             save_checkpoint)
from ctfuse.cli import main
from ctfuse.operators import ALL_KINDS, forward, inflate, load_operator, save_operator
from ctfuse.rng import SeededRng
from ctfuse.tensor import ShapeError

SEED = 20260
CASES = 160
CLI_EVERY = 8
NON_INTEGERS = ("nan", "four", "1.5", "", "1e3", "0x10")
OPERATOR_KEYS = {"nofusion": (), "i3d": (), "p3d": (), "a3d": ("depth",),
                 "tsm": ("shift_up", "shift_down"),
                 "acs": ("acs_axial", "acs_coronal", "acs_sagittal")}


def _pick(r: SeededRng, items):
    items = list(items)
    return items[int(r.uniform(0, len(items)))]


def _sources(root):
    """One operator directory per kind and one backbone checkpoint, each
    with a volume it runs on."""
    r = SeededRng(SEED).fork(0)
    sources = []
    for i, kind in enumerate(ALL_KINDS):
        path = root / f"op_{kind.value}"
        state = inflate(kind, r.fork(i).uniform(-1, 1, (4, 3, 3, 3)), 4, rng=r.fork(i, 1))
        save_operator(state, path)
        ctf.write_tensor(root / f"vol_{kind.value}.ctf", r.fork(i, 2).uniform(-1, 1, (3, 4, 5, 5)))
        keys = ("kind", "c_out", "c_in", "k") + OPERATOR_KEYS[kind.value]
        assert tuple(ctf.read_manifest(path / "operator.txt")) == keys
        tensor_keys = ("c_out", "c_in", "k") + (("depth",) if kind.value == "a3d" else ())
        sources.append(("--operator", path, root / f"vol_{kind.value}.ctf", keys, tensor_keys))
    for kind in ALL_KINDS:
        path = root / f"bb_{kind.value}"
        config = BackboneConfig(depth=3, stages=((4, 1), (6, 1)), height=8, width=8,
                                fusion=kind, seed=3)
        save_checkpoint(build(config), path)
        ctf.write_tensor(root / f"vol_bb_{kind.value}.ctf", r.fork(9).uniform(-1, 1, (1, 3, 8, 8)))
        keys = ("depth", "stages", "fusion", "seed", "height", "width", "a3d_perturb")
        assert tuple(ctf.read_manifest(path / "backbone.txt")) == keys
        sources.append(("--backbone", path, root / f"vol_bb_{kind.value}.ctf", keys,
                        ("depth", "stages", "fusion")))
    return sources


def _damage_tensor(r: SeededRng, path, case: str) -> None:
    raw = path.read_bytes()
    if case == "truncation":
        path.write_bytes(raw[:int(r.uniform(0, len(raw)))])
    elif case == "bad magic":
        path.write_bytes(bytes(int(r.uniform(0, 256)) for _ in range(4)).replace(b"C", b"X")
                         + raw[4:])
    elif case == "bad rank":
        rank = _pick(r, (0, 9, 17, 255))
        path.write_bytes(raw[:4] + struct.pack("<B", rank) + raw[5:])
    else:
        arr = ctf.read_tensor(path)
        if case == "wrong rank":
            shape = _pick(r, [s for s in ((arr.size,), arr.shape + (1,), (1,) + arr.shape)
                              if s != arr.shape])
        else:  # wrong dims: one axis one longer, or one shorter when it can be
            shape = list(arr.shape)
            axis = int(r.uniform(0, len(shape)))
            shape[axis] += 1 if shape[axis] == 1 or r.uniform(0, 1) < 0.5 else -1
        ctf.write_tensor(path, r.uniform(-1, 1, tuple(shape)))


def _damage_manifest(r: SeededRng, path, case: str, keys, tensor_keys) -> str:
    entries = ctf.read_manifest(path)
    if case == "missing key":
        key = _pick(r, keys)
        del entries[key]
    elif case == "non-integer value":
        key = _pick(r, [k for k in entries if k not in ("kind", "fusion", "stages", "a3d_perturb")])
        entries[key] = _pick(r, NON_INTEGERS)
    else:  # contradictory key
        key = _pick(r, tensor_keys)
        if key == "fusion":
            entries[key] = _pick(r, [k.value for k in ALL_KINDS if k.value != entries[key]])
        elif key == "stages":
            entries[key] = "4x1,7x1"
        else:
            entries[key] = str(int(entries[key]) + _pick(r, (1, 2, -1)))
    ctf.write_manifest(path, entries)
    return key


TENSOR_CASES = ("truncation", "bad magic", "bad rank", "wrong rank", "wrong dims")
MANIFEST_CASES = ("missing key", "contradictory key", "non-integer value")


def _cases():
    r = SeededRng(SEED).fork(1)
    for i in range(CASES):
        yield i, _pick(r, TENSOR_CASES + MANIFEST_CASES), r.fork(i)


def _load_and_run(flag, path, volume):
    x = ctf.read_tensor(volume)
    if flag == "--operator":
        return forward(load_operator(path), x)
    return forward_features(load_checkpoint(path), x)


def test_every_corruption_fails_with_a_typed_error(tmp_path, capsys):
    sources = _sources(tmp_path / "src")
    for flag, path, volume, _, _ in sources:
        _load_and_run(flag, path, volume)  # the undamaged sources load and run
    seen = set()
    for i, case, r in _cases():
        flag, source, volume, keys, tensor_keys = _pick(r, sources)
        work = tmp_path / f"case{i}"
        shutil.copytree(source, work)
        if case in TENSOR_CASES:
            target = _pick(r, sorted(work.rglob("*.ctf")))
            _damage_tensor(r, target, case)
            what = target.relative_to(work)
        else:
            manifest = work / ("operator.txt" if flag == "--operator" else "backbone.txt")
            what = _damage_manifest(r, manifest, case, keys, tensor_keys)
        where = f"case {i}: {case} in {source.name} ({what})"
        try:
            _load_and_run(flag, work, volume)
        except (ctf.ContainerError, ShapeError):
            pass
        except Exception as exc:
            raise AssertionError(f"{where} raised {type(exc).__name__}") from exc
        else:
            pytest.fail(f"{where} loaded and ran")
        if i % CLI_EVERY == 0:
            code = main(["forward", flag, str(work), "--input", str(volume),
                         "--out", str(tmp_path / "y.ctf")])
            err = capsys.readouterr().err
            assert code == 1 and err.startswith("error:") and "Traceback" not in err, \
                (where, err)
        seen.add(case)
    assert seen == set(TENSOR_CASES + MANIFEST_CASES)


PAYLOADS = (float("nan"), float("inf"), float("-inf"))


def test_every_non_finite_weight_is_rejected(tmp_path, capsys):
    sources = _sources(tmp_path / "src")
    r = SeededRng(SEED).fork(2)
    case = 0
    files = set()
    for flag, source, volume, _, _ in sources:
        for target in sorted(source.rglob("*.ctf")):
            files.add(target.name)
            for payload in PAYLOADS:
                work = tmp_path / f"nonfinite{case}"
                shutil.copytree(source, work)
                path = work / target.relative_to(source)
                arr = ctf.read_tensor(path)
                arr.flat[int(r.uniform(0, arr.size))] = payload
                ctf.write_tensor(path, arr)
                with pytest.raises(ctf.ContainerError, match=re.escape(str(path))):
                    _load_and_run(flag, work, volume)
                if case % CLI_EVERY == 0:
                    code = main(["forward", flag, str(work), "--input", str(volume),
                                 "--out", str(tmp_path / "y.ctf")])
                    err = capsys.readouterr().err
                    assert code == 1 and err.startswith("error:") and "Traceback" not in err, \
                        (payload, path, err)
                case += 1
    assert files == {"main.ctf", "aux.ctf", "p.ctf", "layer0_bias.ctf", "layer1_bias.ctf",
                     "unify0.ctf", "unify1.ctf", "collapse.ctf"}
