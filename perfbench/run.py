"""Benchmark entry point: one workload per process, one JSON result line.

Run from the repository root (the package is imported from ``./src``)::

    python3 perfbench/run.py --workload paper_train --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the public API of every bcfusion module is wrapped by the
tracer and the line carries the per-layer metrics instead.  The line before
it records the environment.  Exit codes: 0 when every check passed, 1 when
an operation or an output check failed, 2 when the package cannot be
imported from ``./src``.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread: every timed call then runs on one CPU, as the host-speed
# calibration job does (see hostspeed.py).  With two threads on a 2-vCPU box,
# GEMM time followed whatever else ran on the second CPU, and the job did not
# track it.
MAX_BLAS_THREADS = 1
# Named here rather than taken from workloads.py, which imports numpy: that
# import has to wait until the BLAS thread count is set.
WORKLOAD_NAMES = ("paper_train", "toy_sweep", "corpus_eval")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package(root: Path):
    """The bcfusion modules from ``root/src``, or None if they are not there."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import bcfusion
        import bcfusion.config
        import bcfusion.data
        import bcfusion.layers
        import bcfusion.models
        import bcfusion.tensor
        import bcfusion.training
    except ImportError as exc:
        print(f"error: cannot import bcfusion from {src}: {exc}", file=sys.stderr)
        return None
    if Path(bcfusion.__file__).resolve().parent.parent != src:
        print(f"error: bcfusion was imported from {bcfusion.__file__}, not {src}", file=sys.stderr)
        return None
    return SimpleNamespace(config=bcfusion.config, data=bcfusion.data, layers=bcfusion.layers,
                           models=bcfusion.models, tensor=bcfusion.tensor,
                           training=bcfusion.training)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": nproc, "cpu": cpu,
            "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def throughput(rounds, seconds) -> dict:
    """Samples per second, with each call's Timing read as ``seconds(timing)``.

    Each timed call enters as its median over the rounds, so one slow round counts once.
    """
    call_s = {k: median(seconds(r.times[k]) for r in rounds if k in r.times)
              for k in sorted({k for r in rounds for k in r.times})}
    eval_keys = [k for k in call_s if k.startswith("eval:")]
    eval_n = sum(median(r.samples[k] for r in rounds if k in r.samples) for k in eval_keys)
    eval_s = sum(call_s[k] for k in eval_keys)
    work_s = median(seconds(r.load) for r in rounds) + sum(call_s.values())
    return {
        "samples_per_s": (median(r.work_samples for r in rounds) / work_s if work_s else 0.0, "1/s"),
        "eval_samples_per_s": (eval_n / eval_s if eval_s else 0.0, "1/s"),
    }


def end_to_end_metrics(setup_times, rounds, outcome, clock) -> dict:
    """Wall-clock set-up time, throughput at the nominal host speed (see hostspeed.py),
    peak RSS and the share of operations that passed."""
    return {
        "setup_s": (median(setup_times), "s"),
        **throughput(rounds, clock.normalised),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_fraction": (1.0 - outcome.failed / max(outcome.attempted, 1), "fraction"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(nproc, MAX_BLAS_THREADS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # read by BLAS when numpy is first imported, just below
    bc = import_package(root)
    if bc is None:
        return 2

    import tracing
    import workloads

    env = environment(nproc)
    outcome = workloads.Outcome()
    outcome.check(env["blas_threads"] is None or env["blas_threads"] <= nproc,
                  f"BLAS uses {env['blas_threads']} threads on {nproc} CPUs")
    tracer = tracing.Tracer(workloads.TOPOLOGIES) if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install(bc)
    work_dir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](bc, args.seed, work_dir, tracer, outcome)
    try:
        setup_times, rounds = workload.run(args.seconds)
    finally:
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics = tracer.per_layer_metrics(len(rounds), workload.samples_written)
        e2e = end_to_end_metrics(setup_times, rounds, outcome, workload.clock)
        metrics["trace.samples_per_s"] = e2e["samples_per_s"]
        table = tracer.topology_table(metrics)
        if table:
            print(f"{'topology':<16} {'fwd ms':>9} {'bwd ms':>9} {'records':>8} {'tape MiB':>9}"
                  "   (per training sample; tape per step)", file=sys.stderr)
            for row in table:
                print("%-16s %9.2f %9.2f %8.1f %9.1f" % row, file=sys.stderr)
    else:
        metrics = end_to_end_metrics(setup_times, rounds, outcome, workload.clock)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:14.6g} {unit}", file=sys.stderr)
    wall = {k: v for k, (v, _) in throughput(rounds, lambda t: t.wall).items()}
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "wall_clock": wall}))
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
