"""Brute-force and tree counting, closure checking."""

import time
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from patavoid import enumerate as enumeration
from patavoid.enumerate import (BRUTE_GUARD, ClosureError, closure_check,
                                count_brute, count_tree, iter_tree_levels,
                                tree_forms)
from patavoid.patterns import avoids, parse_pattern_set
from patavoid.perms import reduce_to_perm
from patavoid.rules import REGISTRY


def test_brute_guard():
    pats = parse_pattern_set("2-1-3")
    with pytest.raises(ValueError):
        count_brute(pats, 0)
    with pytest.raises(ValueError):
        count_brute(pats, BRUTE_GUARD + 1)
    assert count_brute(pats, 3) == 5


def test_catalan_class():
    pats = parse_pattern_set("2-1-3")
    assert count_tree(pats, 6) == [1, 2, 5, 14, 42, 132]


def test_tree_matches_brute_all_classes():
    for spec in REGISTRY.values():
        tree = count_tree(spec.patterns, 6)
        brute = [count_brute(spec.patterns, n) for n in range(1, 7)]
        assert tree == brute, spec.id


def test_tree_levels_are_avoiders():
    pats = parse_pattern_set("1-23,3-12")
    from patavoid.enumerate import iter_avoiders_brute
    for n, level in enumerate(iter_tree_levels(pats, 5), start=1):
        assert sorted(level) == sorted(iter_avoiders_brute(pats, n))


def test_closure_check_registered_classes():
    for spec in REGISTRY.values():
        closure_check(spec.patterns, 5)


def test_closure_check_counterexample():
    with pytest.raises(ClosureError):
        closure_check(parse_pattern_set("21-[3]"), 4)


def _barred_patterns(last=False):
    # Every single barred pattern of length 2-3 with the bar first (or
    # last): letters, the adjacency of the unbarred gap, and the mode (42
    # in all).
    for k in (2, 3):
        for letters in permutations("123"[:k]):
            for glued in product(("-", ""), repeat=k - 2):
                for mode in ("", "o", "e"):
                    if last:
                        rest = letters[0] + "".join(g + x for g, x in zip(glued, letters[1:-1]))
                        yield f"{rest}-[{letters[-1]}{mode}]"
                    else:
                        rest = letters[1] + "".join(g + x for g, x in zip(glued, letters[2:]))
                        yield f"[{letters[0]}{mode}]-{rest}"


def test_bar_first_patterns_are_closed():
    texts = list(_barred_patterns())
    assert len(set(texts)) == 42
    for text in texts:
        pats = parse_pattern_set(text)
        for n in range(2, 7):
            for perm in permutations(range(1, n + 1)):
                if avoids(perm, pats):
                    assert avoids(reduce_to_perm(perm[:-1]), pats), (text, perm)


def test_closure_check_skips_sets_that_cannot_fail(monkeypatch):
    calls = []

    def counted(perm, pats):
        calls.append(perm)
        return avoids(perm, pats)
    monkeypatch.setattr(enumeration, "avoids", counted)
    for text in ["[2]-31", "2-1-3,[2o]-31", "12-3,34-21", "[1e]-32"]:
        closure_check(parse_pattern_set(text), 6)
    assert calls == []
    with pytest.raises(ClosureError):
        closure_check(parse_pattern_set("2-1-3,13-[2]"), 6)
    assert calls


# Sets with a bar-last member that pass closure_check to n = 6 and are not
# closed at n = 7, where a tree pruned by every member undercounted them.
UNCLOSED_FROM_7 = ["12-3-[4e],1-23", "1-2-3-[4e],12-3", "1-2-3-[4e],1-23",
                   "12-4-[3e],1-23", "1-2-4-[3e],1-23", "3-2-1-[4e],21-3",
                   "41-2-[3e],3-12", "4-1-2-[3e],3-12", "41-3-[2e],3-12",
                   "4-1-3-[2e],3-12"]


def test_tree_counts_sets_closed_only_to_n_6():
    for text in UNCLOSED_FROM_7:
        pats = parse_pattern_set(text)
        closure_check(pats, 6)
        with pytest.raises(ClosureError):
            closure_check(pats, 7)
        assert count_tree(pats, 7) == [count_brute(pats, n) for n in range(1, 8)], text


def test_tree_counts_every_bar_last_set():
    # Each bar-last pattern of length 2-3, alone or with a vincular one.
    texts = [f"{bar}{other}" for bar in _barred_patterns(last=True)
             for other in ("", ",2-1-3", ",12-3", ",1-23", ",3-12")]
    assert len(set(texts)) == 210
    for text in texts:
        pats = parse_pattern_set(text)
        assert count_tree(pats, 6) == [count_brute(pats, n) for n in range(1, 7)], text


def test_tree_matches_brute_on_every_pair_of_length_3_vincular_patterns():
    # The pairs mix members whose last letter is 3 (their cut-off hi is
    # bisected), 1 (lo is bisected) and 2 (tested per candidate).
    singles = [a + g + b + h + c for a, b, c in permutations("123")
               for g, h in product(("-", ""), repeat=2)]
    pairs = list(combinations(singles, 2))
    assert len(set(singles)) == 24 and len(pairs) == 276
    kinds = Counter()
    start = time.perf_counter()
    for a, b in pairs:
        pats = parse_pattern_set(f"{a},{b}")
        up, down, rest = tree_forms(pats)
        kinds[len(up), len(down), len(rest)] += 1
        assert count_tree(pats, 6) == [count_brute(pats, n) for n in range(1, 7)], (a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"276 pairs to n=6 took {elapsed:.1f}s"
    assert kinds == {(2, 0, 0): 28, (0, 2, 0): 28, (0, 0, 2): 28,
                     (1, 1, 0): 64, (1, 0, 1): 64, (0, 1, 1): 64}
