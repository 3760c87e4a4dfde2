"""Permutation values, the appending construction, and label statistics."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patavoid.perms import (STATISTICS, append_child, format_perm, parse_perm,
                            reduce_to_perm, statistic)

perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


def test_parse_format():
    assert parse_perm("24135") == (2, 4, 1, 3, 5)
    assert parse_perm("10,2,1,3,4,5,6,7,8,9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    assert format_perm((2, 4, 1, 3, 5)) == "24135"
    assert format_perm(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
    # Text that is no list of integers, in either spelling, and integers
    # that are no permutation of 1..n.
    for bad in ["", "132a", "1,x", "1,,2"]:
        with pytest.raises(ValueError, match="^bad permutation text"):
            parse_perm(bad)
    for bad in ["122", "24", "0,1"]:
        with pytest.raises(ValueError, match="is not a permutation of 1..n$"):
            parse_perm(bad)


@settings(max_examples=60, deadline=None)
@given(perms)
def test_parse_format_round_trip(perm):
    assert parse_perm(format_perm(perm)) == perm


def test_reduce_to_perm():
    assert reduce_to_perm((4, 9, 2)) == (2, 3, 1)
    assert reduce_to_perm(()) == ()


def test_append_child():
    assert append_child(parse_perm("24135"), 3) == parse_perm("251463")
    assert append_child((1,), 1) == (2, 1)
    assert append_child((1,), 2) == (1, 2)
    with pytest.raises(ValueError):
        append_child((1, 2), 4)
    with pytest.raises(ValueError):
        append_child((1, 2), 0)


@settings(max_examples=60, deadline=None)
@given(perms, st.integers(1, 9))
def test_append_child_properties(perm, v):
    if v > len(perm) + 1:
        v = len(perm) + 1
    child = append_child(perm, v)
    assert sorted(child) == list(range(1, len(perm) + 2))
    assert statistic(child, "r") == v
    assert reduce_to_perm(child[:-1]) == perm


def test_statistics_examples():
    p = parse_perm("251463")
    assert statistic(p, "r") == 3
    assert statistic(p, "l") == 4  # ascent tops 5, 4, 6; smallest is 4
    assert statistic(p, "h") == 3  # descent bottoms 1, 3; largest is 3
    assert statistic(p, "s") == 4  # ascent bottoms 2, 1, 4; largest is 4
    assert statistic(p, "m") == 3  # entries with a smaller one earlier: 5,4,6,3


def test_statistics_degenerate():
    dec = (4, 3, 2, 1)
    inc = (1, 2, 3, 4)
    assert statistic(dec, "l") == 5 and statistic(dec, "s") == 0
    assert statistic(dec, "m") == 5
    assert statistic(inc, "h") == 0
    with pytest.raises(ValueError):
        statistic(inc, "x")


def test_m_matches_its_definition():
    # m is the least entry with a smaller entry somewhere to its left, and
    # n + 1 where there is none (the decreasing permutation)
    def definition(perm):
        n = len(perm)
        later = [perm[i] for i in range(1, n) if min(perm[:i]) < perm[i]]
        return min(later) if later else n + 1

    for n in range(8):
        for perm in permutations(range(1, n + 1)):
            assert statistic(perm, "m") == definition(perm), perm


def test_l_h_s_match_their_definitions():
    # l is the least ascent top, and n + 1 where there is none (the
    # decreasing permutation); h is the greatest descent bottom, and 0 where
    # there is none (the increasing permutation); s is the greatest ascent
    # bottom, and 0 where there is none (the decreasing permutation)
    def l_definition(perm):
        n = len(perm)
        tops = [perm[i] for i in range(1, n) if perm[i - 1] < perm[i]]
        return min(tops) if tops else n + 1

    def h_definition(perm):
        n = len(perm)
        bottoms = [perm[i] for i in range(1, n) if perm[i - 1] > perm[i]]
        return max(bottoms) if bottoms else 0

    def s_definition(perm):
        n = len(perm)
        bottoms = [perm[i] for i in range(n - 1) if perm[i] < perm[i + 1]]
        return max(bottoms) if bottoms else 0

    definitions = {"l": l_definition, "h": h_definition, "s": s_definition}
    for n in range(1, 8):
        for perm in permutations(range(1, n + 1)):
            for w, definition in definitions.items():
                expected = definition(perm)
                assert STATISTICS[w](perm) == expected, (perm, w)
                assert statistic(perm, w) == expected, (perm, w)


def test_statistic_reads_the_table():
    assert sorted(STATISTICS) == sorted("rlhsm")
    perm = parse_perm("251463")
    for w, fn in STATISTICS.items():
        assert statistic(perm, w) == fn(perm)
    for bad in ["x", "", "R", "rl", " r", None, ["r"]]:
        with pytest.raises(ValueError, match="unknown statistic"):
            statistic(perm, bad)
