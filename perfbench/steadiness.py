#!/usr/bin/env python3
"""Steadiness report: run each workload k times (seeds 1..k) through run.py
and print, for every end-to-end metric, its median and its spread
(IQR / median, statistics.quantiles quartiles) — normalised to
reference-core time and raw — plus the spread of the reference reading.

    python3 perfbench/steadiness.py --runs 10 --seconds 25
    python3 perfbench/steadiness.py --workloads scan_dense --runs 5
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing next to the sources

import benchlib  # noqa: E402

DETAIL = "perfbench detail: "


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    detail = next(json.loads(l[len(DETAIL):]) for l in lines if l.startswith(DETAIL))
    result = json.loads(lines[-1])
    return result, detail


def spread(values):
    return benchlib.quartile_spread(values) if len(values) >= 2 else float("nan")


def report(workload, runs):
    print("\n%s  (%d runs)" % (workload, len(runs)))
    failed = sum(r["failed"] for r, _ in runs)
    print("  output checks: %s (%d failed of %d attempted)" % (
        "pass" if all(r["correct"] for r, _ in runs) else "FAIL", failed,
        sum(r["attempted"] for r, _ in runs)))
    print("  %-16s %14s %10s %14s %10s" % ("metric", "median", "IQR/med", "raw median",
                                           "raw IQR/med"))
    for name in benchlib.END_TO_END_UNITS:
        norm = [r["metrics"][name]["value"] for r, _ in runs]
        raw_vals = [d["raw"][name] for _, d in runs if name in d["raw"]]
        line = "  %-16s %14.6g %10.4f" % (name, benchlib.median(norm), spread(norm))
        if raw_vals:
            line += " %14.6g %10.4f" % (benchlib.median(raw_vals), spread(raw_vals))
        print(line)
    refs = [d["raw"]["ref_measured_s"] for _, d in runs]
    print("  reference kernel: median %.6g s, IQR/med %.4f" % (benchlib.median(refs),
                                                              spread(refs)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["scan_dense", "scan_sparse_faulted", "linksim_per"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()
    for w in args.workloads:
        runs = []
        for s in range(1, args.runs + 1):
            runs.append(run_once(w, s, args.seconds))
            print("  %s seed %d: %s" % (w, s, json.dumps(
                {k: round(v["value"], 6) for k, v in runs[-1][0]["metrics"].items()})),
                flush=True)
        report(w, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
