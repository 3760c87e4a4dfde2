"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workload counts_deep ...] [--trace 0]
        [--record LABEL]

For every workload and end-to-end metric this prints the median of the
per-seed values, their quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, against the metric's bound in ``BENCHMARK.json``.  ``--record``
appends the medians and quartiles (for a single seed, the value alone),
the commit (``git rev-parse --short HEAD``) and the machine they were
measured on, as one entry of the trajectory in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BASELINE = os.path.join(BENCH_DIR, "baseline.json")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def machine() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in f
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor()
    for level, index in (("L2", 2), ("L3", 3)):
        path = f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        try:
            with open(path) as f:
                info[f"{level}_cache"] = f.read().strip()
        except OSError:
            pass
    return info


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        help="default: the workloads listed in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    entry = {"label": args.record, "commit": commit(),
             "date": time.strftime("%Y-%m-%d", time.gmtime()),
             "machine": machine(), "seeds": args.seeds, "trace": args.trace,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"{workload}: {len(seeds)} runs, {attempted} checks, {failed} failed")
        for name, vals in values.items():
            if len(vals) == 1:
                rows[name] = vals[0]
                print(f"  {name:45s} {vals[0]:.6g}")
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            limit = f" bound {bound}" if bound is not None else ""
            print(f"  {name:45s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f}{limit}")
            if bound is not None:
                print("    " + " ".join(f"{v:.4g}" for v in vals))
        entry["workloads"][workload] = rows
    if args.record:
        trajectory = []
        if os.path.exists(BASELINE):
            with open(BASELINE) as f:
                trajectory = json.load(f)["trajectory"]
        trajectory.append(entry)
        with open(BASELINE, "w") as f:
            json.dump({"trajectory": trajectory}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
