#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload scan_dense --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library and the benchmark host
into .bench_build/perfbench on first use, runs one workload, checks its
outputs and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The line before
it ("perfbench detail: {...}") carries the host fingerprint, the reference
kernel's reading and the unnormalised figures.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing next to the sources

import benchlib  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HOST = BUILD / "perfbench_host"
WORKLOADS = ("scan_dense", "scan_sparse_faulted", "linksim_per")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the host; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found at %s; run from a repository checkout"
             % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_host"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def load_config():
    with open(HERE / "config.json") as f:
        return json.load(f)


def run_host(args):
    cmd = [str(HOST), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=max(60.0, 3.0 * args.seconds + 60.0))
    if proc.returncode != 0:
        fail("perfbench_host exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    nominal = float(load_config()["ref_nominal_s"])
    raw = run_host(args)

    checks = raw["checks"]
    e2e, sample_counts = benchlib.end_to_end(raw, nominal)
    if args.trace:
        values = benchlib.per_layer(raw, nominal)
        units = benchlib.PER_LAYER_UNITS
    else:
        values = e2e
        units = benchlib.END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": raw["fingerprint"],
        "ref_nominal_s": nominal,
        "raw": benchlib.raw_figures(raw, nominal),
        "samples": sample_counts,
        "check_notes": checks["notes"],
    }
    print("perfbench detail: " + json.dumps(detail))
    failed = int(checks["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(checks["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
