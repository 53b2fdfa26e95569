"""Benchmark for ctfuse: three closed-loop workloads through the public API.

    python3 bench/run.py --workload infer-default --seed 1 --seconds 40 --trace 0

One process, one client: each op starts when the previous one and its
output check have finished.  Ops run in whole rounds, as many as fit in
--seconds of op time (at least one).  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 the
run is split into an untraced half and a traced half, and the JSON holds
the per-layer metrics from the traced half plus the tracing overhead.
Without --workload every workload runs, each in a fresh process.

Run it from the repository root or anywhere else: it imports ctfuse from
the `src/` next to this directory and nothing else of the repository.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS reads its thread count once, when numpy loads it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("infer-default", "train-demo", "operator-sweep")


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0))}


def import_seconds():
    """Median wall time of a fresh interpreter that imports ctfuse."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctfuse"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rate(durations):
    return len(durations) / sum(durations)


def end_to_end(durations, failed, setup_s):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((len(durations) - failed) / sum(durations), "1/s"),
        "op_s_p50": (statistics.median(durations), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def run_workload(name, seed, seconds, trace):
    from tracer import Tracer, per_layer
    from workloads import WORKLOADS, Stopwatch, measure
    setup, spec = WORKLOADS[name]
    workdir = OUT / f"ckpt-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment()}
    print("env " + json.dumps(record["env"]), flush=True)

    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            rnd = None  # free the previous set-up's networks first
            watch = Stopwatch()
            rnd = setup(seed, spec, watch, workdir)
            setup_times.append(watch.stop())
        import_s = import_seconds()
        durations, failed, problems = measure(rnd.ops, seconds)
        metrics = end_to_end(durations, failed, import_s + statistics.median(setup_times))
        record.update(import_s=import_s, setup_times=setup_times)
    else:
        tracer = Tracer()
        with tracer.patch(), tracer.span("bench.setup"):
            rnd = setup(seed, spec, Stopwatch(), workdir)
        plain, failed, problems = measure(rnd.ops, seconds / 2)
        with tracer.patch():
            traced, traced_failed, traced_problems = measure(rnd.ops, seconds / 2, tracer)
        failed += traced_failed
        problems += traced_problems
        overhead_pct = (rate(plain) / rate(traced) - 1.0) * 100.0
        metrics = per_layer(tracer.spans, sum(traced), overhead_pct)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        record["traced_durations"] = traced
        durations = plain + traced

    problems = rnd.problems + problems
    record.update(durations=durations, failed=failed, problems=problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"FAILED {problem}", flush=True)
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:14.6g} {unit}")
    print(f"attempted {len(durations)} failed {failed}")
    return {"correct": not rnd.problems, "attempted": len(durations), "failed": failed,
            "metrics": record["metrics"]}


def run_all(args):
    """Every workload in its own fresh process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: each in turn, in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if not (SRC / "ctfuse" / "__init__.py").is_file():
        print(f"error: no ctfuse sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ctfuse
    if Path(ctfuse.__file__).resolve().parent != SRC / "ctfuse":
        print(f"error: imported ctfuse from {ctfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
