"""Tests of the benchmark's own tracing and inputs.

    python3 -m pytest -q bench/test_tracing.py
"""

import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import patavoid  # noqa: E402
from patavoid import closed_forms, patterns, rules, series  # noqa: E402
from patavoid import enumerate as enumeration  # noqa: E402

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

C3 = rules.REGISTRY["C3"]


def test_install_rebinds_every_caller_and_uninstall_restores():
    reference = tracing.bindings()
    avoids = patterns.avoids
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (patavoid, patterns, enumeration, rules):
            assert module.avoids is not avoids
            assert module.avoids.__wrapped__ is avoids
        assert rules.iter_tree_levels is enumeration.iter_tree_levels
        assert hasattr(rules.iter_tree_levels, "__wrapped__")
        assert hasattr(closed_forms.divide_cancel, "__wrapped__")
        assert hasattr(series.TruncatedSeries.inverse, "__wrapped__")
        assert hasattr(series.Poly.__mul__, "__wrapped__")
        with pytest.raises(RuntimeError):
            tracing.assert_unwrapped(reference)
    finally:
        tracer.uninstall()
    tracing.assert_unwrapped(reference)
    assert rules.avoids is avoids


def test_timed_pass_runs_the_original_functions():
    reference = tracing.bindings()
    original = reference[(rules, "avoids")]
    seen = []

    def op():
        seen.append(rules.avoids is original)
        rules.verify_rule(C3, 5)

    ops = [workloads.Op(op, span="class.C3")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    traced_calls = tracer.stats["patterns.avoids"][tracing.CALLS]
    assert traced_calls > 0
    assert tracer.stats["class.C3"][tracing.CALLS] == 1
    run.run_pass(ops)
    assert seen == [False, True]
    assert tracer.stats["patterns.avoids"][tracing.CALLS] == traced_calls


def test_counters_and_self_time():
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        levels = enumeration.count_tree(C3.patterns, 6)
        closed_forms.closed_form("K1", 6)          # falls back to the rules
        closed_forms.closed_form("J", 20)          # Newton iteration
        enumeration.count_brute(C3.patterns, 5)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    m = tracer.metrics(wall)
    assert m["enumerate.tree.nodes"] == sum(levels)
    assert m["enumerate.tree.children_tried"] == sum(
        levels[n - 2] * n for n in range(2, 7))
    assert m["enumerate.tree.keep_ratio"] == sum(levels[1:]) / m["enumerate.tree.children_tried"]
    assert m["closed_forms.rule_fallbacks"] == 1
    assert m["series.newton_steps"] > 0
    assert m["enumerate.brute.perms_per_s"] * m["enumerate.count_brute.busy_s"] == \
        pytest.approx(120)
    st = tracer.stats["enumerate.count_tree"]
    assert 0 < st[tracing.SELF] < st[tracing.BUSY]
    assert 0 < m["trace.uncovered_share"] < 0.5


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.make_inputs(name, 7)
        assert a == workloads.make_inputs(name, 7)
        assert sorted(a.class_ids) == sorted(rules.CLASS_IDS)
    sets = {tuple(workloads.make_inputs("routes_small_n", s).adhoc) for s in range(5)}
    assert len(sets) == 5


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    inputs = workloads.make_inputs("routes_small_n", 1)
    check = workloads.Checker()

    def op():
        check.compare("class C3", "n<=4", {"tree": enumeration.count_tree(C3.patterns, 4),
                                           "expected": [1, 2, 5, 13]})

    ops = [workloads.Op(op, span="class.C3")]
    reference = tracing.bindings()
    layer = run.per_layer(inputs, ops, 0.01, reference, tracing, check)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in spec["per_layer"])
    e2e = run.end_to_end("routes_small_n", inputs, ops, 0.01, reference, tracing)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    assert check.failed == 0


def test_reference_kernel_runs_no_package_code():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        value = run.reference_kernel()
    finally:
        tracer.uninstall()
    assert value == run.reference_kernel()
    assert all(st[tracing.CALLS] == 0 for st in tracer.stats.values())
    assert not any(tracer.counters.values())


def test_probe_samples_the_reference_around_and_during_an_operation():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    probe.bracket()
    ratio = probe.run(workloads.Op(busy))
    assert signal.getsignal(signal.SIGALRM) is handler
    inside = len(probe.samples) - 2 * run.BRACKET_SAMPLES
    assert inside >= 3
    kernel = statistics.fmean(probe.samples)
    assert ratio * kernel == pytest.approx(0.3 - inside * kernel, rel=0.2)
