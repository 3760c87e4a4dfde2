"""Succession rules: registry consistency, dynamic program, tree replay."""

import dataclasses
import time

import pytest

from patavoid import enumerate as enumeration, rules
from patavoid.closed_forms import formula_value, gf_counts
from patavoid.enumerate import count_tree, iter_tree_levels
from patavoid.patterns import avoids
from patavoid.rules import (CLASS_IDS, REGISTRY, count_by_rule,
                            refined_by_rule, verify_rule)
from patavoid.series import Poly


def test_registry_shape():
    assert len(CLASS_IDS) == 12
    for spec in REGISTRY.values():
        assert len(spec.label_stats) == len(spec.root_label)
        assert spec.label_of((1,)) == spec.root_label


def test_rule_children_examples():
    assert REGISTRY["C1"].children((3,), 3) == [(1,), (2,), (4,)]
    assert REGISTRY["C2"].children((3,), 3) == [(2,), (4,)]
    assert REGISTRY["C2e"].children((3,), 3) == [(1,), (3,), (4,)]
    assert REGISTRY["C3"].children((1,), 1) == [(1,), (2,)]
    assert REGISTRY["C5"].children((0, 1), 1) == [(1, 1), (0, 2)]
    assert REGISTRY["C9"].children((1,), 1) == [(1,), (2,)]


def test_counts_match_known_sequences():
    expected = {
        "C1": [1, 1, 2, 4, 9, 21, 51, 127],
        "C2": [1, 1, 2, 3, 7, 12, 30, 55],
        "C2e": [1, 2, 4, 9, 22, 56, 147, 396],
        "C3": [1, 2, 5, 13, 35, 96, 267, 750],
        "C4": [1, 2, 4, 9, 21, 51, 127, 323],
        "C5": [1, 2, 4, 8, 16, 32, 64, 128],
        "C6": [1, 2, 5, 13, 33, 81, 193, 449],
        "C7": [1, 2, 5, 13, 34, 89, 233, 610],
        "C8": [1, 2, 5, 13, 35, 97, 275, 794],
        "C9": [1, 2, 4, 9, 23, 65, 199, 654],
        "C10": [1, 2, 4, 8, 19, 47, 125, 355],
        "C11": [1, 2, 5, 14, 42, 138, 492, 1896],
    }
    for cid, seq in expected.items():
        assert count_by_rule(REGISTRY[cid], 8) == seq, cid


def test_counts_match_formulas():
    for n in range(1, 13):
        assert count_by_rule(REGISTRY["C1"], n)[-1] == formula_value("motzkin", n - 1)
        assert count_by_rule(REGISTRY["C2"], n)[-1] == formula_value("cat3", n)
        assert count_by_rule(REGISTRY["C2e"], n)[-1] == formula_value("even_formula", n)
        assert count_by_rule(REGISTRY["C5"], n)[-1] == formula_value("pow2", n)
        assert count_by_rule(REGISTRY["C6"], n)[-1] == formula_value("west", n)
        assert count_by_rule(REGISTRY["C7"], n)[-1] == formula_value("fib_odd", n)
        assert count_by_rule(REGISTRY["C9"], n)[-1] == formula_value("b_rec", n)


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_span_sweep_matches_plain_expansion(cid):
    # A reference DP that adds every child label one at a time; the label
    # DP adds each span as a range, step-2 spans (C2, C2e) and the diagonal
    # span of C5 included.
    spec = REGISTRY[cid]
    level = {spec.root_label: 1}
    expected = []
    for n in range(1, 41):
        terms = {}
        for label, mult in level.items():
            key = label if len(label) == 2 else (label[0], 0)
            terms[key] = terms.get(key, 0) + mult
        expected.append((n, Poly(terms)))
        nxt = {}
        for label, mult in level.items():
            for child in spec.children(label, n):
                nxt[child] = nxt.get(child, 0) + mult
        level = nxt
    assert [(rc.n, rc.poly) for rc in refined_by_rule(spec, 40)] == expected


def test_deep_counts_within_a_time_gate():
    # Two-label rules give O(n) children per node; the DP adds them as
    # ranges, so n = 100 is reached in seconds.
    start = time.perf_counter()
    deep = {cid: count_by_rule(REGISTRY[cid], 100) for cid in ("C5", "C10", "C11")}
    elapsed = time.perf_counter() - start
    for cid, counts in deep.items():
        assert counts == gf_counts(cid, 100), cid
    assert elapsed < 5, f"count_by_rule to n=100 took {elapsed:.1f}s"


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_rule_replays_tree(cid):
    report = verify_rule(REGISTRY[cid], 7)
    assert report.ok, str(report)
    assert report.labels_seen


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_refined_rule_matches_tree_statistics(cid):
    # Tally the labels of the tree's permutations, a one-component label
    # (a,) read as u^a v^0, and compare with the label DP level by level.
    spec = REGISTRY[cid]
    direct = []
    for n, level in enumerate(iter_tree_levels(spec.patterns, 7), start=1):
        terms = {}
        for perm in level:
            label = spec.label_of(perm)
            key = label if len(label) == 2 else (label[0], 0)
            terms[key] = terms.get(key, 0) + 1
        direct.append((n, Poly(terms)))
    assert [(rc.n, rc.poly) for rc in refined_by_rule(spec, 7)] == direct


def test_derived_even_rule_against_brute():
    # The even-mode class has no published rule; its derived rule must
    # reproduce the brute-force refined statistics exactly.
    from patavoid.enumerate import count_brute
    spec = REGISTRY["C2e"]
    assert [count_brute(spec.patterns, n) for n in range(1, 8)] \
        == count_by_rule(spec, 7)


def test_rule_report_str():
    report = verify_rule(REGISTRY["C1"], 5)
    text = str(report)
    assert "C1" in text and "n=5" in text


@pytest.mark.parametrize("nmax", [0, -3])
def test_no_levels_below_one(nmax):
    # levels 1..nmax are none when nmax < 1, on every route that reads them
    spec = REGISTRY["C1"]
    assert count_tree(spec.patterns, nmax) == []
    assert count_by_rule(spec, nmax) == []
    assert refined_by_rule(spec, nmax) == []
    report = verify_rule(spec, nmax)
    assert report.ok and report.labels_seen == frozenset()
    assert "(0 distinct labels)" in str(report)


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_verify_rule_grows_the_tree_once(cid, monkeypatch):
    # verify_rule reads the levels iter_tree_levels grows: it tests no
    # permutation that count_tree does not.
    calls = []

    def counted(perm, pats):
        calls.append(perm)
        return avoids(perm, pats)
    monkeypatch.setattr(enumeration, "avoids", counted)
    monkeypatch.setattr(rules, "avoids", counted)
    spec = REGISTRY[cid]
    count_tree(spec.patterns, 8)
    tree_calls = len(calls)
    calls.clear()
    verify_rule(spec, 8)
    assert len(calls) == tree_calls


def test_verify_rule_reports_the_first_mismatch():
    c1_with_c2 = dataclasses.replace(REGISTRY["C1"], rule=REGISTRY["C2"].rule)
    report = verify_rule(c1_with_c2, 5)
    assert not report.ok
    assert report.counterexample == ((1, 2, 3), ((2,), (4,)), ((1,), (2,), (4,)))
    assert len(report.labels_seen) == 3
    assert "MISMATCH" in str(report)
    c4_with_c8 = dataclasses.replace(REGISTRY["C4"], rule=REGISTRY["C8"].rule)
    assert verify_rule(c4_with_c8, 6).counterexample \
        == ((1, 2), ((2, 3), (3, 1), (3, 2)), ((3, 1), (3, 2)))
    wrong_root = dataclasses.replace(REGISTRY["C4"], root_label=(1, 1))
    assert verify_rule(wrong_root, 6).counterexample == ((1,), ((1, 1),), ((2, 1),))
