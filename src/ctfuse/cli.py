"""Command-line interface.

Subcommands: cost (parameter/MAC tables), check (verification suite),
demo (synthetic training run), inflate (2D kernel file to operator
directory), forward (apply a saved operator or backbone to a volume).
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import ctf
from .backbone import (BackboneConfig, forward_features, head_layers, layer_dims,
                       load_checkpoint, parse_stages)
from .costmodel import (backbone_cost, format_csv, format_head_csv, format_head_table,
                        format_table, head_rows)
from .demo import SyntheticTaskConfig, TrainConfig, generate_task, train
from .operators import ALL_KINDS, OperatorKind, forward as op_forward, inflate, load_operator, save_operator
from .probes import run_check_suite
from .rng import SeededRng

KIND_NAMES = [k.value for k in ALL_KINDS]

# A demo config file may set the int and float fields of both configs but seed.
CONFIG_FIELDS = {cls: {f.name: f.type for f in dataclasses.fields(cls)
                       if f.type in (int, float) and f.name != "seed"}
                 for cls in (SyntheticTaskConfig, TrainConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctfuse",
                                     description="3D context fusion operators")
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="print parameter and MAC cost tables")
    cost.add_argument("--fusion", choices=KIND_NAMES,
                      help="one operator (default: all of them)")
    cost.add_argument("--d", type=int, default=7, help="input depth in slices")
    cost.add_argument("--height", type=int, default=32)
    cost.add_argument("--width", type=int, default=32)
    cost.add_argument("--stages", default="64x1,256x1,512x1",
                      help="stage list as channelsxblocks, e.g. 64x1,256x1,512x1")
    cost.add_argument("--flops", action="store_true",
                      help="also show FLOPs (2 x MACs)")

    check = sub.add_parser("check", help="run the verification suite")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=20,
                       help="reference-oracle trials per operator")

    demo = sub.add_parser("demo", help="train on the synthetic cross-slice task")
    demo.add_argument("--fusion", choices=KIND_NAMES, default="a3d")
    demo.add_argument("--epochs", type=int)
    demo.add_argument("--volumes", type=int)
    demo.add_argument("--seed", type=int, default=0,
                      help="seeds both the task and the training run")
    demo.add_argument("--out", default="metrics.csv", help="metrics CSV path")
    demo.add_argument("--config",
                      help="key=value file overriding task/training fields")

    infl = sub.add_parser("inflate", help="turn a 2D kernel file into an operator")
    infl.add_argument("--kernel", required=True,
                      help="CTF1 file holding a (Cout, Cin, K, K) kernel")
    infl.add_argument("--fusion", choices=KIND_NAMES, required=True)
    infl.add_argument("--depth", type=int, required=True)
    infl.add_argument("--seed", type=int, default=0)
    infl.add_argument("--out", required=True, help="operator directory to create")

    fwd = sub.add_parser("forward", help="apply a saved operator or backbone")
    src = fwd.add_mutually_exclusive_group(required=True)
    src.add_argument("--operator", help="operator directory")
    src.add_argument("--backbone", help="backbone checkpoint directory")
    fwd.add_argument("--input", required=True, help="CTF1 volume file")
    fwd.add_argument("--out", required=True, help="CTF1 output file")
    return parser


def _cmd_cost(args) -> int:
    stages = parse_stages(args.stages)
    config = BackboneConfig(depth=args.d, stages=stages,
                            height=args.height, width=args.width)
    dims = layer_dims(config)
    kinds = [OperatorKind.from_name(args.fusion)] if args.fusion else list(ALL_KINDS)
    reports = [backbone_cost(kind, dims) for kind in kinds]
    rows = head_rows(head_layers(config), reports)
    print("\n\n".join([format_table(reports, flops=args.flops),
                       format_head_table(rows, flops=args.flops),
                       format_head_csv(rows), format_csv(reports)]), end="")
    return 0


def _cmd_check(args) -> int:
    results = run_check_suite(args.seed, oracle_trials=args.trials)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


def _read_config_file(path: str) -> ctf.Manifest:
    entries = ctf.read_manifest(Path(path))
    known = set().union(*CONFIG_FIELDS.values())
    for key in entries:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}; expected one of "
                             + ", ".join(sorted(known)))
    return entries


def _cmd_demo(args) -> int:
    overrides = _read_config_file(args.config) if args.config else {}
    task_kw, train_kw = ({name: overrides.parse(name, conv)
                          for name, conv in fields.items() if name in overrides}
                         for fields in CONFIG_FIELDS.values())
    if args.volumes is not None:
        task_kw["volumes"] = args.volumes
    if args.epochs is not None:
        train_kw["epochs"] = args.epochs
    task_cfg = SyntheticTaskConfig(seed=args.seed, **task_kw)
    train_cfg = TrainConfig(fusion=OperatorKind.from_name(args.fusion),
                            seed=args.seed, **train_kw)
    data = generate_task(task_cfg)
    metrics = train(data, train_cfg)
    Path(args.out).write_text(metrics.to_csv())
    last = len(metrics.train_loss)
    print(f"fusion={args.fusion} epochs={last} volumes={task_cfg.volumes} seed={args.seed}")
    print(f"final train_loss={metrics.train_loss[-1]:.6f} "
          f"val_loss={metrics.val_loss[-1]:.6f} val_auc={metrics.final_val_auc:.6f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_inflate(args) -> int:
    w2d = ctf.read_weight(Path(args.kernel))
    kind = OperatorKind.from_name(args.fusion)
    state = inflate(kind, w2d, args.depth, rng=SeededRng(args.seed))
    save_operator(state, Path(args.out))
    print(f"wrote {kind.value} operator ({state.c_out}x{state.c_in}, k={state.k}, "
          f"depth={args.depth}) to {args.out}")
    return 0


def _cmd_forward(args) -> int:
    x = ctf.read_tensor(Path(args.input))
    if not np.all(np.isfinite(x)):
        raise ctf.ContainerError(f"{args.input}: input volume holds non-finite values")
    if args.operator:
        state = load_operator(Path(args.operator))
        out = op_forward(state, x)
    else:
        bb = load_checkpoint(Path(args.backbone))
        out = forward_features(bb, x)
    ctf.write_tensor(Path(args.out), out)
    print(f"wrote {'x'.join(str(s) for s in out.shape)} tensor to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"cost": _cmd_cost, "check": _cmd_check, "demo": _cmd_demo,
                "inflate": _cmd_inflate, "forward": _cmd_forward}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
