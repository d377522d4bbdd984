#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload scaling|grid|daemon \\
        [--seed N] [--seconds S] [--trace 0|1] [--toy] [--expect-digest HEX]

Run from the repository root; repro runs from ``src/`` (no install
needed).  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` wraps repro's layers in spans
(``tracing.py``) and prints every per-layer metric instead.  Each run
checks its outputs: every cell and job ends ``ok`` with every replica
stopped, warm passes equal cold ones, traced results equal untraced
ones, a daemon job equals the same spec run in-process, and, for the
default seed, the results digest matches ``expected.json``.

Stdout ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``, where ``attempted``/``failed`` count cells or jobs plus
checks (``failed / attempted`` is the error rate).  The lines before it
give each metric with its unit and the box the run measured on.  Scratch
files go to ``.perfbench_work/`` (removed at exit) and trace files to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import workloads

BENCHMARK_JSON = os.path.join(workloads.ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    parser.add_argument("--expect-digest", default=None, metavar="HEX",
                        help="results digest to check against, for any seed")
    return parser.parse_args(argv)


def box(args) -> dict:
    """Where and on what the run measured (the honest-bench block)."""
    import numpy

    from repro.engine.kernels.numba_support import HAVE_NUMBA, kernel_mode

    commit = "unknown"
    if os.path.isdir(os.path.join(workloads.ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "cpu_count": os.cpu_count(),
        "kernels": {"mode": kernel_mode(), "numba_available": HAVE_NUMBA},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {workloads.SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, workloads.SRC)

    work_dir = os.path.join(workloads.ROOT, ".perfbench_work", f"run-{os.getpid()}")
    out_dir = os.path.join(workloads.ROOT, ".perfbench_out")
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)
    run = workloads.Run(args, work_dir, out_dir)
    try:
        e2e, layers = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run is using it
    measured = dict(layers if args.trace else e2e)
    measured["error_rate"] = run.failed / run.attempted
    if args.trace:
        run.tracer.dump(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json"
        ))

    metrics = {}
    for metric in wanted:
        value = measured[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload:8s} {metric['name']:32s} {value:>16.6g} {metric['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    provenance = box(args)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump({**result, "box": provenance, "digest": run.digest,
                   "checks": run.checks, "samples": run.samples}, handle, indent=1)
    print("box " + json.dumps(provenance, sort_keys=True))
    print(f"digest {run.digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
