"""Benchmark of patavoid: one workload per run, every output checked.

    python3 bench/run.py --workload routes_small_n --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process and one thread drive the package through its public
functions in a closed loop: each operation starts when the previous one
returns.  Passes over the workload repeat while one more fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics: ``pass_ref`` (the time of
one pass in multiples of a fixed reference kernel's time, see below),
``setup_s`` (fresh interpreters importing patavoid and making the inputs,
median of several, at reference speed) and ``peak_rss_mb`` (peak resident
memory of the measuring process).  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics (medians over the
traced passes; ``pass.wall_s`` is the untraced pass's wall time and
``trace.overhead_ratio`` compares the two kinds).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Why ``pass_ref`` and not wall time: on a shared 2-vCPU VM, other tenants
slow every Python operation by up to about 2x, in phases that last from
seconds to minutes; CPU time (``time.process_time``) rises with wall time,
so it does not help.  A run of 35 s cannot outlast such a phase, but a
small fixed pure-Python kernel slows by the same factor.  ``SpeedProbe``
times that kernel a few times before and after every operation and, from
a timer signal, every 50 ms while it runs; the operation's wall time, less
the kernel runs inside it, divided by the mean kernel time of those runs,
is its time in references.  ``pass_ref`` is the sum over operations of
the median of that ratio across the run's passes.  A pass whose code runs
in half the time reads half as many references, on a quiet host or a
loaded one.  The median does not drift with the number of passes, so
faster code is not favoured by being sampled more often.  ``setup_s`` is
normalised the same way, then scaled by a fixed ``REFERENCE_S`` so that it
reads in seconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 20
# setup_s is given in seconds on a host where the reference kernel takes
# this long, about its median time on the machine of the seed baseline.
REFERENCE_S = 0.0004

# Runs in a fresh interpreter: argv = src dir, bench dir, workload, seed.
# Prints the set-up time in multiples of the reference kernel's time,
# timed after the set-up so that it imports nothing the set-up imports.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import patavoid
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - t0
import statistics
import run
run.reference_kernel()
print(elapsed / statistics.median(run.time_reference() for _ in range(25)))
"""

# The probe times the reference kernel this often while an operation runs,
# and this many times before the first operation and after each one.
SAMPLE_INTERVAL_S = 0.05
BRACKET_SAMPLES = 5


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, at reference speed.

    Each fresh interpreter imports patavoid and makes the inputs, then
    times the reference kernel; the set-up's share of the kernel's time,
    scaled by ``REFERENCE_S``, is read in seconds whatever the load of
    other tenants at that moment.
    """
    refs = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, BENCH_DIR, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        refs.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(refs) * REFERENCE_S


# Triples of values whose left-to-right order the reference kernel tests.
REFERENCE_TRIPLES = ((0, 1, 2), (1, 3, 4), (2, 0, 4))


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds patavoid does, under a millisecond.

    Big-integer convolution (Catalan numbers), a sum of Fractions, and the
    permutations of S_5 scanned for three-letter patterns through dicts.
    It touches no patavoid code, so a change to the package cannot move it.
    """
    c = [1]
    for n in range(40):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    s = Fraction(0)
    for k in range(1, 30):
        s += Fraction(1, k * k)
    avoiding = 0
    for p in itertools.permutations(range(5)):
        pos = {v: i for i, v in enumerate(p)}
        if not any(pos[a] < pos[b] < pos[d] for a, b, d in REFERENCE_TRIPLES):
            avoiding += 1
    return avoiding + c[-1] % 7 + s.denominator % 7


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel around and, from a timer signal, during
    operations, so that each is measured against the host's speed while it
    ran."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        self.samples.append(time_reference())

    def bracket(self) -> None:
        for _ in range(BRACKET_SAMPLES):
            self.sample()

    def run(self, op) -> float:
        """Run ``op``; return its time in multiples of the kernel's time.

        The kernel runs made inside the operation are taken out of its wall
        time, and the divisor is the mean of those runs and of the bracket
        runs just before and just after it.
        """
        first = len(self.samples) - BRACKET_SAMPLES
        inside = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            op.run()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.samples[inside:])
        self.bracket()
        return wall / statistics.fmean(self.samples[first:])


def run_pass(ops, tracer=None) -> list[float]:
    """Run every operation once, in order; return each one's wall time."""
    clock = time.perf_counter
    times = []
    for op in ops:
        t0 = clock()
        if tracer is not None and op.span:
            with tracer.span(op.span):
                op.run()
        else:
            op.run()
        times.append(clock() - t0)
    return times


def run_pass_in_references(ops) -> tuple[list[float], float]:
    """Run every operation once, in order, under a ``SpeedProbe``.

    Returns each operation's time in multiples of the reference kernel's
    time, and the median kernel time of the pass.
    """
    probe = SpeedProbe()
    probe.bracket()
    ratios = [probe.run(op) for op in ops]
    return ratios, statistics.median(probe.samples)


def in_time(start: float, walls: list[float], seconds: float) -> bool:
    """Whether one more pass of median length ends within the time box."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def least(passes: list[list[float]]) -> float:
    """Sum over operations of each one's fastest time across the passes."""
    return sum(min(times) for times in zip(*passes))


def end_to_end(workload, inputs, ops, seconds, reference, tracing):
    walls, ratios, refs_ms = [], [], []
    start = time.perf_counter()
    while not walls or in_time(start, walls, seconds):
        tracing.assert_unwrapped(reference)
        t0 = time.perf_counter()
        pass_ratios, ref = run_pass_in_references(ops)
        walls.append(time.perf_counter() - t0)
        ratios.append(pass_ratios)
        refs_ms.append(1e3 * ref)
    pass_ref = sum(statistics.median(r) for r in zip(*ratios))
    print(f"passes: {len(walls)}; pass wall s: " + " ".join(f"{w:.3f}" for w in walls)
          + "; reference kernel ms: " + " ".join(f"{r:.3f}" for r in refs_ms)
          + "; pass in references: " + " ".join(f"{sum(r):.0f}" for r in ratios)
          + f"; pass_ref {pass_ref:.0f}")
    return {
        "pass_ref": (pass_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (measure_setup(workload, inputs.seed), "s"),
    }


def per_layer(inputs, ops, seconds, reference, tracing, check):
    """Untraced and traced passes in turn; per-layer medians of the traced."""
    start = time.perf_counter()
    plain, traced, cpu, samples = [], [], [], []
    while not samples or in_time(start, [sum(a) + sum(b) for a, b in zip(plain, traced)],
                                 seconds):
        tracing.assert_unwrapped(reference)
        cpu0 = time.process_time()
        plain.append(run_pass(ops))
        cpu.append(time.process_time() - cpu0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(ops, tracer))
        finally:
            tracer.uninstall()
        tracing.assert_unwrapped(reference)
        samples.append(tracer.metrics(sum(traced[-1])))
    print(f"untraced and traced pass pairs: {len(samples)}")
    out = {name: (statistics.median(s[name] for s in samples), unit_of(name))
           for name in samples[0]}
    out["pass.wall_s"] = (statistics.median(sum(p) for p in plain), "s")
    out["process.cpu_s"] = (statistics.median(cpu), "s")
    out["trace.overhead_ratio"] = (least(traced) / least(plain), "ratio")
    passes = 2 * len(samples)
    out["bench.ops_attempted"] = (check.attempted // passes, "count")
    out["bench.error_rate"] = (check.failed / max(1, check.attempted), "ratio")
    out["adhoc.sets"] = (len(inputs.adhoc), "count")
    out["adhoc.checks"] = (check.adhoc_checks // passes, "count")
    out["adhoc.tree_mismatches"] = (check.adhoc_mismatches // passes, "count")
    return out


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_call"):
        return "ns"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "patavoid", "__init__.py")):
        print(f"bench: no patavoid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import patavoid
    if not os.path.abspath(patavoid.__file__).startswith(SRC + os.sep):
        print(f"bench: imported patavoid from {patavoid.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    inputs = workloads.make_inputs(args.workload, args.seed)
    check = workloads.Checker()
    ops = workloads.build_ops(inputs, check)
    reference = tracing.bindings()
    print(f"workload {args.workload}, seed {args.seed}, python {sys.version.split()[0]}")
    print("class order: " + " ".join(inputs.class_ids))
    if inputs.adhoc:
        print("ad-hoc pattern sets: " + " | ".join(inputs.adhoc))

    if args.trace:
        metrics = per_layer(inputs, ops, args.seconds, reference, tracing, check)
    else:
        metrics = end_to_end(args.workload, inputs, ops, args.seconds, reference, tracing)
    if check.adhoc_first:
        print(f"ad-hoc tree undercount (set not closed under last-entry deletion): "
              f"{check.adhoc_first}")
    if check.first:
        print(f"FIRST DISAGREEMENT: {check.first}")
    print(f"checks: {check.attempted} attempted, {check.failed} failed")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
