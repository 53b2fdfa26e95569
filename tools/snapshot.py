"""Record what ctfuse computes, and compare two such records entry by entry.

    PYTHONPATH=src python tools/snapshot.py write OUT.npz
    python tools/snapshot.py compare A.npz B.npz

`write` imports the ctfuse on PYTHONPATH and records, one named array
per entry: the stdout of `ctfuse check` and `ctfuse cost`; the CSV of a
4-epoch `ctfuse demo --seed 7` per fusion kind; the forward outputs,
input gradients and weight gradients of one operator per kind over three
SGD steps; the untaped and taped feature maps and the gradient dict of
2- and 3-stage backbones per kind over three SGD steps; and the bytes of
every file of a saved operator per kind at c_out 3 and 7 and of each
trained backbone's checkpoint.  Text and file bytes are stored as uint8.

`compare` prints, for each entry, `same` when both records hold it
bit for bit; else, for text (uint8 that is UTF-8 on both sides), the
first differing line of each side, and for numbers the largest absolute
and relative difference.  It exits 1 if any entry differs or is missing
from one side.  Running `write` against two source trees and comparing
shows whether a change kept every output.  Only numpy and ctfuse are used; BLAS is pinned to one
thread, as in bench/run.py, so records from one machine compare exactly.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

SGD_STEPS = 3
LR = 0.05


def _text(s: str) -> np.ndarray:
    return np.frombuffer(s.encode(), dtype=np.uint8)


def _files(root: Path, prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}/{p.relative_to(root).as_posix()}": np.frombuffer(p.read_bytes(), np.uint8)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _cli_entries(tmp: Path) -> dict[str, np.ndarray]:
    from ctfuse import ALL_KINDS
    from ctfuse.cli import main

    def stdout(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(argv) != 0:
                raise RuntimeError(f"ctfuse {' '.join(argv)} failed")
        return buf.getvalue()

    out = {"cli/check": _text(stdout(["check"])), "cli/cost": _text(stdout(["cost"]))}
    for kind in ALL_KINDS:
        csv = tmp / f"{kind.value}.csv"
        stdout(["demo", "--fusion", kind.value, "--epochs", "4", "--seed", "7", "--out", str(csv)])
        out[f"demo/{kind.value}.csv"] = _text(csv.read_text())
    return out


def _operator_entries(tmp: Path) -> dict[str, np.ndarray]:
    from ctfuse import ALL_KINDS, SeededRng, backward, forward, inflate, save_operator
    from ctfuse.probes import generic_state

    out = {}
    for i, kind in enumerate(ALL_KINDS):
        rng = SeededRng(1300 + i)
        st = generic_state(kind, rng, c_out=5, c_in=4, depth=5, tsm_div=2)
        x = rng.uniform(-1, 1, (4, 5, 6, 6))
        for step in range(SGD_STEPS):
            g = rng.uniform(-1, 1, (5, 5, 6, 6))
            key = f"operator/{kind.value}/step{step}"
            out[f"{key}/y"] = forward(st, x)
            gx, grads = backward(st, x, g)
            flat = [*grads.kernels, *(a for a in (grads.aux, grads.mix) if a is not None)]
            out[f"{key}/grad_x"] = gx
            out.update((f"{key}/grad_{n}", a) for n, a in zip(st.weights, flat, strict=True))
            st = st.with_named({n: w - LR * a
                                for (n, w), a in zip(st.weights.items(), flat, strict=True)})
        for c_out in (3, 7):
            w2d = rng.uniform(-1, 1, (c_out, 4, 3, 3))
            path = tmp / f"{kind.value}{c_out}"
            save_operator(inflate(kind, w2d, 5, rng=rng.fork(c_out)), path)
            out.update(_files(path, f"saved/{kind.value}/c_out{c_out}"))
    return out


def _backbone_entries(tmp: Path) -> dict[str, np.ndarray]:
    from ctfuse import ALL_KINDS, SeededRng
    from ctfuse.backbone import (BackboneConfig, Tape, apply_sgd, backward_features, build,
                                 forward_features, save_checkpoint)

    out = {}
    for stages in (((3, 1), (4, 1)), ((3, 1), (4, 2), (5, 1))):
        for kind in ALL_KINDS:
            config = BackboneConfig(depth=5, stages=stages, fusion=kind, height=8, width=8,
                                    seed=len(stages))
            bb, rng = build(config), SeededRng(1400 + len(stages))
            x = rng.uniform(-1, 1, (1, 5, 8, 8))
            name = f"backbone/{len(stages)}stage/{kind.value}"
            for step in range(SGD_STEPS):
                key = f"{name}/step{step}"
                out[f"{key}/untaped"] = forward_features(bb, x)
                tape = Tape()
                out[f"{key}/features"] = y = forward_features(bb, x, tape)
                grads = backward_features(tape, rng.uniform(-1, 1, y.shape))
                out.update((f"{key}/grad/{n}", a) for n, a in grads.items())
                bb = apply_sgd(bb, grads, LR)
            save_checkpoint(bb, tmp / name)
            out.update(_files(tmp / name, f"checkpoint/{len(stages)}stage/{kind.value}"))
    return out


def write(path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        entries = {}
        for collect in (_cli_entries, _operator_entries, _backbone_entries):
            entries.update(collect(Path(tmp)))
    np.savez(path, **entries)


def _lines(x: np.ndarray) -> list[str] | None:
    """A uint8 entry's text as lines with their line ends, then one "" so
    that two texts that differ always differ at some line (a shorter one
    at its end); None for other entries and bytes that are not UTF-8."""
    if x.dtype != np.uint8:
        return None
    try:
        return x.tobytes().decode().splitlines(keepends=True) + [""]
    except UnicodeDecodeError:
        return None


def compare(a: dict, b: dict) -> int:
    """Print one line per entry of a and b; 0 if every entry is the same
    in both bit for bit, else 1."""
    differ = 0
    for name in list(a) + [n for n in b if n not in a]:
        if name not in a or name not in b:
            line = f"only in {'B' if name in b else 'A'}"
        else:
            x, y = np.asarray(a[name]), np.asarray(b[name])
            if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes():
                print(f"{name}: same")
                continue
            text = _lines(x), _lines(y)
            if None not in text:
                i = next(i for i, (p, q) in enumerate(zip(*text)) if p != q)
                line = f"line {i + 1}: {text[0][i]!r} vs {text[1][i]!r}"
            elif (x.dtype, x.shape) != (y.dtype, y.shape):
                line = f"{x.dtype}{list(x.shape)} vs {y.dtype}{list(y.shape)}"
            else:
                x, y = x.astype(np.float64), y.astype(np.float64)
                diff = np.abs(x - y)
                rel = diff / np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-300)
                line = (f"max abs diff {diff.max(initial=0.0):.3e}, "
                        f"max rel diff {rel.max(initial=0.0):.3e}")
        print(f"{name}: {line}")
        differ += 1
    print(f"{len(set(a) | set(b))} entries, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write", help="record the ctfuse on PYTHONPATH").add_argument("out")
    cmp = sub.add_parser("compare", help="compare two records entry by entry")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out)
        return 0
    with np.load(args.a) as a, np.load(args.b) as b:
        return compare(dict(a), dict(b))


if __name__ == "__main__":
    sys.exit(main())
