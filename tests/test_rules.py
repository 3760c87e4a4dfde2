"""Succession rules: registry consistency, dynamic program, tree replay."""

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import random
import re
import time
import tokenize
import weakref
from pathlib import Path

import pytest

from patavoid import enumerate as enumeration, level_kernel, rules
from patavoid.closed_forms import formula_value, gf_counts
from patavoid.enumerate import count_tree, iter_tree_levels
from patavoid.patterns import avoids, parse_pattern_set
from patavoid.rules import (CLASS_IDS, REGISTRY, A, B, N, case, count_by_rule,
                            point, refined_by_rule, span, verify_rule)
from patavoid.series import Poly

# Digests of every level 1..120 of the label DP, written by the per-label
# dictionary DP that the row DP replaced.
_PINNED_LEVELS = json.loads(
    (Path(__file__).parent / "data" / "dp_levels_n120.json").read_text())


def _cells(spec, rows):
    """The (label, multiplicity) pairs of one DP level with a nonzero multiplicity."""
    two = len(spec.root_label) == 2
    for a, row in rows.items():
        for b, mult in enumerate(row):
            if mult:
                yield ((a, b) if two else (b,)), mult


# The oracle of the level kernel: a rule table read one label at a time.  A
# node's children are the spans of each case whose guard its label meets,
# in the table's order.

def _value(x, a, b, n):
    """The affine form ``x`` at the label (a, b), or (b,) with a = 0, and the length n."""
    return x.c + x.a * a + x.b * b + x.n * n


def _holds(c, a, b, n):
    return ((c.a_lo is None or _value(c.a_lo, a, b, n) <= a)
            and (c.a_hi is None or a <= _value(c.a_hi, a, b, n))
            and (c.b_lo is None or _value(c.b_lo, a, b, n) <= b)
            and (c.b_hi is None or b <= _value(c.b_hi, a, b, n))
            and (c.parity is None or b % 2 == c.parity))


def _span_labels(s, a, b, n, width):
    js = range(_value(s.lo, a, b, n), _value(s.hi, a, b, n) + 1, s.step)
    if s.diag is not None:
        return [(j, j + s.diag) for j in js]
    if width == 1:
        return [(j,) for j in js]
    t = _value(s.row, a, b, n)
    return [(t, j) for j in js]


def _matching_cases(spec, label, n):
    a, b = label if len(label) == 2 else (0, label[0])
    return [c for c in spec.rule if _holds(c, a, b, n)]


def _table_children(spec, label, n):
    """The child labels of a length-n node, read from the table label by label."""
    a, b = label if len(label) == 2 else (0, label[0])
    return [child for c in _matching_cases(spec, label, n)
            for s in c.body for child in _span_labels(s, a, b, n, len(label))]


def _labels_met(spec):
    """Each (label, n) of a node of the tree to n = 8 or of the DP to n = 40."""
    met = {(label, n) for n, rows in enumerate(rules._dp_levels(spec, 40), start=1)
           for label, _ in _cells(spec, rows)}
    met.update((label, n) for n, level in enumerate(iter_tree_levels(spec.patterns, 8), start=1)
               for label in spec.labels_of(level))
    return met


def test_registry_shape():
    assert len(CLASS_IDS) == 12
    for spec in REGISTRY.values():
        assert len(spec.label_stats) == len(spec.root_label)
        assert spec.labels_of([(1,)]) == [spec.root_label]


def test_rule_children_examples():
    assert _table_children(REGISTRY["C1"], (3,), 3) == [(1,), (2,), (4,)]
    assert _table_children(REGISTRY["C2"], (3,), 3) == [(2,), (4,)]
    assert _table_children(REGISTRY["C2e"], (3,), 3) == [(1,), (3,), (4,)]
    assert _table_children(REGISTRY["C3"], (1,), 1) == [(1,), (2,)]
    assert _table_children(REGISTRY["C5"], (0, 1), 1) == [(1, 1), (0, 2)]
    assert _table_children(REGISTRY["C9"], (1,), 1) == [(1,), (2,)]
    assert _table_children(REGISTRY["C6"], (1, 3), 4) == [(2, 1), (1, 2), (3, 4)]
    assert _table_children(REGISTRY["C6"], (3, 1), 4) == [(4, 2)]
    assert _table_children(REGISTRY["C6"], (2, 2), 4) == []
    assert _table_children(REGISTRY["C11"], (0, 1), 3) == [(1, 2), (1, 3), (1, 4), (0, 1)]


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_kernel_steps_match_the_table_label_by_label(cid):
    # verify_rule's prediction, one kernel step from the level that holds a
    # label alone, is the table's reading of that label, sorted.
    spec = REGISTRY[cid]
    for label, n in _labels_met(spec):
        assert rules._children(spec, label, n) \
            == sorted(_table_children(spec, label, n)), (label, n)


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
    every child label of ``_table_children`` one at a time."""
    level = {spec.root_label: 1}
    levels = [level]
    for n in range(1, nmax):
        nxt = {}
        for label, mult in level.items():
            for child in _table_children(spec, label, n):
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
        cells = sorted(_cells(spec, rows))
        text = ";".join(",".join(map(str, label)) + f":{mult}" for label, mult in cells)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == _PINNED_LEVELS["classes"][cid]


def test_a_kernel_follows_its_rule_table():
    # A spec compiles its kernel from its own table, whatever its class id:
    # C1's id on C2's table, run after C1, counts C2.
    c1 = REGISTRY["C1"]
    c1_with_c2 = dataclasses.replace(c1, rule=REGISTRY["C2"].rule)
    count_by_rule(c1, 30)
    assert count_by_rule(c1_with_c2, 30) == count_by_rule(REGISTRY["C2"], 30)
    refined_by_rule(c1, 30)
    assert refined_by_rule(c1_with_c2, 30) == refined_by_rule(REGISTRY["C2"], 30)


def test_kernel_sources_hold_no_text():
    # A generated level kernel is made of the table's integers and fixed
    # names and operators; the class id lives in the kernel's namespace,
    # not in its source.
    for cid in CLASS_IDS:
        source = level_kernel.kernel_source(REGISTRY[cid].rule)
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert not [t for t in tokens if t.type == tokenize.STRING], cid
        assert all(t.string.isdigit() for t in tokens if t.type == tokenize.NUMBER), cid


def test_kernels_test_nothing_their_case_settles():
    # A case that pins a reads it into its forms, so no line under its guard
    # reads a (C10 and C11 write nothing for span(1, A) at a = 0, where it is
    # empty); a span guard K <= a under a case guard K' <= a with K <= K' is
    # left out (C10, C11), and so is C5's clamp of s0 = a + 1 at 0.
    settled = 0
    for cid in CLASS_IDS:
        guards = []  # (indent, pinned, least a) of each enclosing case guard
        for line in level_kernel.kernel_source(REGISTRY[cid].rule).splitlines():
            depth, text = len(line) - len(line.lstrip()), line.strip()
            guards = [g for g in guards if g[0] < depth]
            for _, pinned, least in guards:
                assert not (pinned and re.search(r"\ba\b", text)), (cid, line)
                bound = re.fullmatch(r"if (\d+) <= a:", text)
                assert not (bound and int(bound[1]) <= least), (cid, line)
                settled += 1
            guard = re.fullmatch(r"if a == (\d+):|if (\d+) <= a(?: <= [^:]*)?:", text)
            if guard:
                guards.append((depth, guard[1] is not None, int(guard[1] or guard[2])))
    assert settled
    assert "if s0 < 0:" not in level_kernel.kernel_source(REGISTRY["C5"].rule)


def _row_loop_writes(source):
    """The row loop's ``_fill`` and ``_shift`` writes into rows, in source order:
    (kind, row, rest of the arguments), with ``d`` read as the row it names."""
    loop = source.split(" for a, row in level.items():\n", 1)[1]
    writes, row = [], None
    for line in loop.splitlines():
        if not line.startswith("  "):
            break
        text = line.strip()
        target = re.fullmatch(r"d = nxt\[(.*)\]", text)
        if target:
            row = target[1]
        call = re.fullmatch(r"(_fill|_shift)\((d|nxt\[.*?\]), (.*)\)", text)
        if call:
            writes.append((call[1], row if call[2] == "d" else call[2][4:-1], call[3]))
    return writes


def test_a_row_range_is_filled_once_after_the_rows_cell_moves():
    # m along a range of a row goes into one sum per (row, range) and is
    # written once, after the row's cases, so it follows the cell moves into
    # that row.  Pinned cases and the leading fill of a running sum write
    # in place.
    deferred = set()
    for cid in CLASS_IDS:
        writes = _row_loop_writes(level_kernel.kernel_source(REGISTRY[cid].rule))
        fills = [(row, args.rsplit(", ", 1)[0]) for kind, row, args in writes if kind == "_fill"]
        assert len(fills) == len(set(fills)), cid
        last_shift = max((i for i, w in enumerate(writes) if w[0] == "_shift"), default=-1)
        for i, (kind, _, args) in enumerate(writes):
            if kind == "_fill" and re.search(r", fill\d+$", args):
                assert i > last_shift, cid
                deferred.add(cid)
    assert deferred == {"C4", "C6", "C8", "C10", "C11"}
    # C8's cases b = A and b >= A + 1 both fill row A + 1 over 1..A.
    assert level_kernel.kernel_source(REGISTRY["C8"].rule).count(
        "_fill(nxt[a + 1], 1, a + 1, 1, ") == 1


def test_two_unpinned_cases_and_a_pinned_one_filling_one_row_range():
    # At a = 0 all three cases fill row 1 over 1..2: the two unpinned ones
    # into one sum written after the row, the pinned one in place.
    spec = rules._spec("F", "2-1-3", ("l", "r"), (0, 1),
                       case(span(1, 2, row=A + 1), point(B + 1, row=A), b=(None, 1)),
                       case(span(1, 2, row=A + 1), span(1, B + 2, row=A), b=(2, 3)),
                       case(span(1, 2, row=A + 1), point(B + 1, row=A + 1), a=0, b=(4, None)))
    source = level_kernel.kernel_source(spec.rule)
    assert source.count("_fill(nxt[a + 1], 1, 3, 1, fill0)") == 1
    assert source.count("_fill(d, 1, 3, 1, m)") == 1
    levels = _expanded(spec, 12)
    assert any(label[0] == 0 and label[1] >= 4 for level in levels for label in level)
    assert [(rc.n, rc.poly) for rc in refined_by_rule(spec, 12)] == _as_refined(spec, levels)


@pytest.mark.parametrize("spec", [
    rules._spec("X1", "2-1-3", ("r",), (1,), case(point(B - 2))),
    rules._spec("X3", "2-1-3", ("l", "r"), (2, 1), case(point(1, row=A - 3))),
    rules._spec("X5", "2-1-3", ("l", "r"), (2, 1), case(point(B, diag=-5))),
    rules._spec("X6", "2-1-3", ("l", "r"), (2, 1), case(span(1, B, diag=-3))),
    rules._spec("X7", "2-1-3", ("l", "r"), (2, 1), case(point(1, diag=-3))),
    rules._spec("X8", "2-1-3", ("l", "r"), (2, 1), case(span(A - 3, B, row=A))),
    rules._spec("X9", "2-1-3", ("l", "r"), (2, 1), case(point(1, row=A - 3), a=2)),
    rules._spec("X10", "2-1-3", ("l", "r"), (2, 1),
                case(span(1, 2, row=A - 3), b=(None, 1)),
                case(span(1, 2, row=A - 3), a=(3, None), b=(2, None)),
                case(span(1, 2, row=A - 3), a=2, b=(2, None))),
], ids=lambda spec: spec.id)
def test_a_negative_component_is_refused(spec):
    # A point, a row, a diagonal's cells, a diagonal span, a diagonal's
    # single child and a span start, each negative from the root on, a
    # row that is negative at the a its case pins, and a row range that
    # two unpinned cases and a pinned one fill, whose write waits for the
    # end of the row.  The label-by-label reading meets the negative
    # component too, and verify_rule predicts with the same kernel, so it
    # refuses the table as well.
    assert any(min(label) < 0 for level in _expanded(spec, 6) for label in level)
    for route in (count_by_rule, verify_rule):
        with pytest.raises(ValueError,
                           match=f"^the rule of {spec.id} gives a negative component$"):
            route(spec, 6)


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_cases_are_disjoint_on_the_labels_that_occur(cid):
    spec = REGISTRY[cid]
    for label, n in _labels_met(spec):
        assert len(_matching_cases(spec, label, n)) <= 1, (label, n)


def test_table_builder_refuses_other_shapes():
    assert 2 * A - B + N + 1 == rules.Affine(c=1, a=2, b=-1, n=1)
    assert _value(A + 2 * B - 1, 3, 4, 0) == 10
    # A factor is an int, not a bool, and two forms have no affine product.
    for product in (lambda: A * True, lambda: False * B):
        with pytest.raises(ValueError, match="not an int factor"):
            product()
    with pytest.raises(TypeError):
        A * B
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
    with pytest.raises(ValueError, match="does not end on a step"):
        case(span(1, A, row=A, step=2))
    with pytest.raises(ValueError, match="not both"):
        span(1, B, row=A, diag=0)
    for diag in (1.0, True, "0"):
        with pytest.raises(ValueError, match="diagonal offset .* is not an int"):
            span(1, B, diag=diag)
    with pytest.raises(ValueError, match="is not a span"):
        case((1, B))
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


def test_a_spec_checks_a_table_built_without_the_builders():
    # The (M, r) table of Av(1-23-4) with its span(B + 1, A, diag=0) written
    # raw: the level kernel would emit it as one child per cell and count
    # 24 and 119 at n = 4 and 5, where brute force has 23 and 105.  The
    # labels are l and r, since perms has no M: the table is refused before
    # any label is read.
    raw = (case(span(1, A, row=A + 1), b=1),
           case(span(1, B, row=A + 1), rules.Span(B + 1, A, None, 0, 1), b=(2, None)))
    message = "only a one-point span's lo may read B"
    with pytest.raises(ValueError, match=message):
        rules.ClassSpec("X", parse_pattern_set("1-23-4"), ("l", "r"), (2, 1), raw)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(REGISTRY["C4"], rule=raw)
    with pytest.raises(ValueError, match="row or a diagonal"):
        dataclasses.replace(REGISTRY["C1"], rule=REGISTRY["C4"].rule)


@pytest.mark.parametrize("field, value, message", [
    ("rule", (rules.Case(("x",), None, None, None, None, None),), "tuple of cases"),
    ("rule", case(point(1)), "tuple of cases"),
    ("rule", [case(point(1))], "tuple of cases"),
    ("label_stats", ("q",), "'q' is not a label statistic"),
    ("label_stats", ("l", "r"), "one or two components"),
    ("label_stats", ("l", "r", "s"), "one or two components"),
    ("root_label", (-1,), "ints >= 0"),
    ("patterns", "2-1-3", "not a tuple of patterns"),
    ("patterns", ("2-1-3",), "not a tuple of patterns"),
], ids=["str-span", "bare-case", "list-table", "unknown-stat", "width-mismatch",
        "three-components", "negative-root", "str-patterns", "unparsed-member"])
def test_a_spec_refuses_a_malformed_field(field, value, message):
    # Each is refused before the table is read; C1's labels are (r,).
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(REGISTRY["C1"], **{field: value})


def test_a_spec_keeps_its_table_as_the_builders_return_it():
    # A raw case with int bounds, where the builders hold affine forms: the
    # spec keeps the rebuilt case, so the kernel reads C3's table.
    c3 = REGISTRY["C3"]
    first = c3.rule[0]
    raw = dataclasses.replace(c3, rule=(first._replace(b_lo=1, b_hi=1), c3.rule[1]))
    assert raw.rule == c3.rule
    assert count_by_rule(raw, 9) == count_by_rule(c3, 9)


def test_verify_rule_predicts_with_the_level_kernel(monkeypatch):
    # C3's kernel, wrapped to drop the child (3,) of the label (2,) when
    # that label is alone in the level: verify_rule runs that kernel, so it
    # reports the first node labelled (2,).  A fresh copy of C3 compiles
    # its own kernel, where the registry's spec may already hold one.
    c3 = dataclasses.replace(REGISTRY["C3"])
    compile_kernel = level_kernel.compile_kernel

    def dropping(rule, cid):
        kernel = compile_kernel(rule, cid)
        if rule != c3.rule:
            return kernel

        def step(level, n):
            rows = kernel(level, n)
            if level == {0: [0, 0, 1]}:
                rows[0] = rows[0][:3]
            return rows
        return step
    monkeypatch.setattr(level_kernel, "compile_kernel", dropping)
    report = verify_rule(c3, 6)
    assert not report.ok
    perm, predicted, actual = report.counterexample
    assert c3.labels_of([perm]) == [(2,)]
    assert (predicted, actual) == (((1,), (2,)), ((1,), (2,), (3,)))
    assert verify_rule(REGISTRY["C9"], 6).ok


def test_a_spec_compiles_its_kernel_once(monkeypatch):
    # The DP routes and verify_rule all run the one kernel a spec keeps.
    c3 = dataclasses.replace(REGISTRY["C3"])
    counts, refined = count_by_rule(REGISTRY["C3"], 12), refined_by_rule(REGISTRY["C3"], 12)
    compiled = []
    compile_kernel = level_kernel.compile_kernel

    def counting(rule, cid):
        compiled.append(cid)
        return compile_kernel(rule, cid)
    monkeypatch.setattr(level_kernel, "compile_kernel", counting)
    assert count_by_rule(c3, 12) == counts
    assert refined_by_rule(c3, 12) == refined
    assert verify_rule(c3, 6).ok
    assert compiled == ["C3"]


def test_a_kernel_is_freed_with_its_spec():
    # No cache outlives the specs: the kernels of 50 dropped tables are gone.
    rng = random.Random(35)
    refs = []
    for i in range(50):
        spec = _random_table(rng, 1 + i % 2)
        with contextlib.suppress(ValueError):
            count_by_rule(spec, 4)
        refs.append(weakref.ref(spec.kernel))
    del spec
    gc.collect()
    assert not [ref for ref in refs if ref() is not None]


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
        for label in spec.labels_of(level):
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
    # verify_rule grows the tree through kept_children, as count_tree does:
    # it tests no permutation that count_tree does not.
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
