"""Succession rules: registry consistency, dynamic program, tree replay."""

import dataclasses
import hashlib
import io
import json
import random
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


def _expanded(spec, nmax):
    """Levels 1..nmax as {label: multiplicity}, from a reference DP that adds
    every child label of ``spec.children`` one at a time."""
    level = {spec.root_label: 1}
    levels = [level]
    for n in range(1, nmax):
        nxt = {}
        for label, mult in level.items():
            for child in spec.children(label, n):
                nxt[child] = nxt.get(child, 0) + mult
        level = nxt
        levels.append(level)
    return levels


def _as_refined(spec, levels):
    pad = (0,) * (2 - len(spec.root_label))
    return [(n, Poly({label + pad: mult for label, mult in level.items()}))
            for n, level in enumerate(levels, start=1)]


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_span_sweep_matches_plain_expansion(cid):
    # The label DP adds each span as a range, step-2 spans (C2, C2e) and
    # the diagonal span of C5 included.
    spec = REGISTRY[cid]
    expected = _as_refined(spec, _expanded(spec, 40))
    assert [(rc.n, rc.poly) for rc in refined_by_rule(spec, 40)] == expected


def _random_table(rng, width):
    """A table of one to three cases, each of one to three spans drawn from
    every shape the builder takes, under random guards."""
    two = width == 2
    starts = [0, 1, 2] + ([A, A + 1] if two else [N])

    def target():
        if not two:
            return {}
        if rng.random() < 0.5:
            return {"row": rng.choice([A, A + 1, A - 1, 0, 1, N - 1])}
        return {"diag": rng.choice([-2, -1, 0, 1, 2])}

    cases = []
    for _ in range(rng.randint(1, 3)):
        parity = rng.choice([None, None, 0, 1])
        body = []
        for _ in range(rng.randint(1, 3)):
            shape = rng.randrange(4)
            if shape == 0:  # bounds that do not read B, in steps of 1 or 2
                step, lo = rng.choice([1, 2]), rng.choice(starts)
                length = rng.choice([1, 2, N - 1] + ([A, A - 2] if two else []))
                body.append(span(lo, rules.Affine() + lo + step * length, step=step,
                                 **target()))
            elif shape == 1:  # a tail: hi = B + h, stepping as the cells do
                h = rng.choice([-2, -1, 0, 1, 2])
                if parity is None:
                    body.append(span(rng.choice(starts), B + h, **target()))
                else:  # hi - lo = b + h - lo is even for b of the parity
                    lo = rng.choice([x for x in range(4) if (x - h - parity) % 2 == 0])
                    body.append(span(lo, B + h, step=2, **target()))
            elif shape == 2:
                body.append(point(B + rng.choice([-1, 0, 1, 2]), **target()))
            else:
                body.append(point(rng.choice(starts + ([A - 1] if two else [N + 1])),
                                  **target()))
        guard = {"parity": parity,
                 "b": rng.choice([None, None, (1, None), 2, (None, 3), (N - 2, None)]
                                 + ([(None, A), (A + 1, None), (A - 1, None)] if two else []))}
        if two:
            guard["a"] = rng.choice([None, None, 0, (1, None), (None, N), (2, 3)])
        cases.append(case(*body, **guard))
    root = (rng.randint(0, 2), rng.randint(0, 2)) if two else (rng.randint(0, 2),)
    return rules._spec("T", "2-1-3", ("l", "r") if two else ("r",), root, *cases)


def test_random_tables_match_plain_expansion():
    # Small tables of every shape the builder takes, most of which no class
    # uses: the kernel must give the label-by-label levels, or refuse the
    # table exactly where that reading meets a negative component.
    rng = random.Random(2002)
    refused = 0
    for i in range(500):
        spec = _random_table(rng, 1 + i % 2)
        levels = _expanded(spec, 7)
        if any(min(label) < 0 for level in levels for label in level):
            refused += 1
            with pytest.raises(ValueError, match="^the rule of T gives a negative component$"):
                refined_by_rule(spec, 7)
        else:
            assert [(rc.n, rc.poly) for rc in refined_by_rule(spec, 7)] \
                == _as_refined(spec, levels), spec.rule
    assert 0 < refused < 250


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
    # row, and a C10/C11 span onto row A is one running sum of the row.
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
    # Only a one-point span's lo reads B.
    for lo, hi in ((B, B + 2), (B - 1, A), (B, N)):
        with pytest.raises(ValueError, match="one-point"):
            span(lo, hi, row=A)
    with pytest.raises(ValueError, match="one-point"):
        span(B + 1, B + 3, diag=0, step=2)
    assert point(B - 1, row=A).lo == B - 1
    # A span whose hi reads B steps as the cells do: by 1, or by 2 under a
    # parity guard.
    for body in (span(1, B, row=A), span(2, B + 1, diag=-1)):
        with pytest.raises(ValueError, match="parity guard"):
            case(body, parity=1)
        assert case(body).parity is None
    assert case(span(1, A, row=A + 1), parity=0).parity == 0


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
