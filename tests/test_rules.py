"""Succession rules: registry consistency, dynamic program, tree replay."""

import dataclasses
import hashlib
import io
import json
import time
import tokenize
from pathlib import Path

import pytest

from patavoid import enumerate as enumeration, level_kernel, rules
from patavoid.closed_forms import formula_value, gf_counts
from patavoid.enumerate import count_tree, iter_tree_levels
from patavoid.patterns import avoids
from patavoid.rules import (CLASS_IDS, REGISTRY, A, B, N, case, count_by_rule,
                            point, refined_by_rule, span, verify_rule)
from patavoid.series import Poly

# Digests of every level 1..120 of the label DP, written by the per-label
# dictionary DP that the row DP replaced.
_PINNED_LEVELS = json.loads(
    (Path(__file__).parent / "data" / "dp_levels_n120.json").read_text())


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
    assert REGISTRY["C6"].children((1, 3), 4) == [(2, 1), (1, 2), (3, 4)]
    assert REGISTRY["C6"].children((3, 1), 4) == [(4, 2)]
    assert REGISTRY["C6"].children((2, 2), 4) == []
    assert REGISTRY["C11"].children((0, 1), 3) == [(1, 2), (1, 3), (1, 4), (0, 1)]


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


def test_deep_rule_counts_within_a_time_gate():
    # The row DP moves whole rows: C6's one-child chain is one slice per
    # row, and the C10/C11 spans are difference-list updates per row.
    deep = {"C6": 240, "C10": 200, "C11": 200}
    start = time.perf_counter()
    counts = {cid: count_by_rule(REGISTRY[cid], n) for cid, n in deep.items()}
    elapsed = time.perf_counter() - start
    for cid, n in deep.items():
        assert counts[cid] == gf_counts(cid, n), cid
    assert elapsed < 2, f"count_by_rule for C6, C10, C11 took {elapsed:.1f}s"


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_dp_levels_match_the_pinned_levels(cid):
    spec = REGISTRY[cid]
    digests = []
    for rows in rules._dp_levels(spec, _PINNED_LEVELS["nmax"]):
        cells = sorted(rules._cells(spec, rows))
        text = ";".join(",".join(map(str, label)) + f":{mult}" for label, mult in cells)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == _PINNED_LEVELS["classes"][cid]


def test_a_kernel_follows_its_rule_table():
    # The level kernel belongs to the table, not to the class id: C1's id
    # on C2's table, run after C1, counts C2.
    c1 = REGISTRY["C1"]
    c1_with_c2 = dataclasses.replace(c1, rule=REGISTRY["C2"].rule)
    count_by_rule(c1, 30)
    assert count_by_rule(c1_with_c2, 30) == count_by_rule(REGISTRY["C2"], 30)
    refined_by_rule(c1, 30)
    assert refined_by_rule(c1_with_c2, 30) == refined_by_rule(REGISTRY["C2"], 30)


def test_kernel_sources_hold_no_text():
    # A generated level kernel is made of the table's integers and fixed
    # names and operators; the class id is an argument, not a literal.
    for cid in CLASS_IDS:
        source = level_kernel.kernel_source(REGISTRY[cid].rule)
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert not [t for t in tokens if t.type == tokenize.STRING], cid
        assert all(t.string.isdigit() for t in tokens if t.type == tokenize.NUMBER), cid


@pytest.mark.parametrize("spec", [
    rules._spec("X1", "2-1-3", ("r",), (1,), case(point(B - 2))),
    rules._spec("X3", "2-1-3", ("l", "r"), (2, 1), case(point(1, row=A - 3))),
    rules._spec("X5", "2-1-3", ("l", "r"), (2, 1), case(point(B, diag=-5))),
    rules._spec("X6", "2-1-3", ("l", "r"), (2, 1), case(span(1, B, diag=-3))),
    rules._spec("X7", "2-1-3", ("l", "r"), (2, 1), case(point(1, diag=-3))),
    rules._spec("X8", "2-1-3", ("l", "r"), (2, 1), case(span(A - 3, B, row=A))),
], ids=lambda spec: spec.id)
def test_a_negative_component_is_refused(spec):
    # A point, a row, a diagonal's cells, a diagonal span, a diagonal's
    # single child and a span start, each negative from the root on.
    with pytest.raises(ValueError, match=f"^the rule of {spec.id} gives a negative component$"):
        count_by_rule(spec, 6)


def _matching_cases(spec, label, n):
    a, b = label if len(label) == 2 else (0, label[0])
    return [c for c in spec.rule if c.holds(a, b, n)]


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_cases_are_disjoint_on_the_labels_that_occur(cid):
    spec = REGISTRY[cid]
    for n, rows in enumerate(rules._dp_levels(spec, 40), start=1):
        for label, _ in rules._cells(spec, rows):
            assert len(_matching_cases(spec, label, n)) <= 1, (label, n)
    for n, level in enumerate(iter_tree_levels(spec.patterns, 8), start=1):
        for label in {spec.label_of(perm) for perm in level}:
            assert len(_matching_cases(spec, label, n)) <= 1, (label, n)


def test_table_builder_refuses_other_shapes():
    assert 2 * A - B + N + 1 == rules.Affine(c=1, a=2, b=-1, n=1)
    assert (A + 2 * B - 1)(3, 4, 0) == 10
    # A span's row may not depend on B; (j, j + c) is written as a diagonal.
    with pytest.raises(ValueError, match="diagonal"):
        span(1, B, row=B + 1)
    assert span(1, B, diag=1).diag == 1
    # A bound's coefficient of B is 0 or 1.
    with pytest.raises(ValueError, match="coefficient of B"):
        span(1, 2 * B, row=A)
    with pytest.raises(ValueError, match="coefficient of B"):
        point(2 * B + 1, row=A)
    # The guard of a is affine in n only, and that of b in a and n only.
    with pytest.raises(ValueError):
        case(point(1, row=A), a=(B, None))
    with pytest.raises(ValueError):
        case(point(1, row=A), b=(None, 2 * B))
    # A step-2 span must end on a step on every guarded label.
    with pytest.raises(ValueError, match="step"):
        case(span(1, B, step=2))
    assert case(span(1, B, step=2), parity=1).parity == 1
    # A parity is the int 0 or 1, as a step is an int: a bool is refused.
    for flag in (True, False):
        with pytest.raises(ValueError, match="parity"):
            case(span(1, B, step=2), parity=flag)
    with pytest.raises(ValueError, match="step"):
        span(1, B, step=0)
    with pytest.raises(ValueError):
        span(1, "B")
    with pytest.raises(ValueError, match="component A"):
        rules._spec("X", "2-1-3", ("r",), (1,), case(span(1, A + B)))
    with pytest.raises(ValueError, match="row or a diagonal"):
        rules._spec("X", "2-1-3", ("l", "r"), (2, 1), case(span(1, B)))


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
