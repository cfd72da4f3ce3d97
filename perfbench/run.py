"""Run one synmatch benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train_tier1 --seed 1 --seconds 35 --trace 0

Workloads: train_tier1, train_paper, serve_rank (see workloads.py).  With
--trace 0 the run measures the end-to-end metrics with no tracing; times
are rescaled by a reference computation measured alongside them (see
workloads.run_untraced), and the unscaled figures are printed as raw_*.
With --trace 1 it runs a separate traced session and reports the per-layer
metrics instead, so tracing never touches the end-to-end numbers.

Standard output holds a readable metric table, a run record (versions,
threads, memory, seed, configs) as one JSON line, and last the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
Scratch files go under .perfbench_out/ in the repository root and are removed
at exit.  What stays there: the seconds of every operation of an untraced run
(samples-<workload>-seed<n>.json) and the spans of a traced run, one JSON line
per span (spans-<workload>-seed<n>.jsonl).

The library is imported from src/ of the checkout and nowhere else; without
it the run exits with an error before measuring anything.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc():
    return len(os.sched_getaffinity(0))


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import synmatch
    except ImportError as err:
        sys.exit(f"perfbench: cannot import synmatch from {src}: {err}")
    if not os.path.abspath(synmatch.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: synmatch was imported from {synmatch.__file__}, "
                 f"not from {src}")


def _blas_info(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def run_record(np, workloads, workload, seed, seconds, trace):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": _nproc(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "data": dict(workload.data, seed=seed),
        "split": {"valid_frac": workloads.VALID_FRAC, "test_frac": workloads.TEST_FRAC},
        "train_config": workload.config(seed).to_dict(),
        "loop": "discover queries" if workload.serve else "train calls",
        "trace_ops": workload.trace_ops,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS reads its thread count when numpy loads, so set it first.  One
    # thread: on a 2-vCPU machine an idle-spinning second BLAS thread slowed
    # even pure-Python steps by up to 1.7x, and by a different amount each run.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _import_library()
    import numpy as np
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        if args.trace:
            session, values, profile = workloads.run_traced(workload, args.seed, workdir)
            units = layers.units()
            spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
            session.tracer.write(spans_path)
            print("self-time share of the traced session:")
            for name, share in list(profile.shares().items())[:16]:
                print(f"  {share:7.2%}  {name}")
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
            extras = {}
        else:
            session, values, extras, samples = workloads.run_untraced(
                workload, args.seed, args.seconds, workdir)
            units = workloads.END_TO_END_UNITS
            samples_path = os.path.join(
                OUT_DIR, f"samples-{workload.name}-seed{args.seed}.json")
            with open(samples_path, "w", encoding="utf-8") as fh:
                json.dump(samples, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    moves = layers.moves() if args.trace else {}
    for name, entry in metrics.items():
        note = f"  moves {moves[name]}" if name in moves else ""
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}{note}")
    for name, (value, unit) in extras.items():
        print(f"{name:32s} {value:.6g} {unit}  (printed only, not in BENCHMARK.json)")
    print("run record: " + json.dumps(run_record(np, workloads, workload, args.seed, args.seconds,
                                                 args.trace), sort_keys=True))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
