"""Permutation values, the rightward child construction, and label statistics.

Permutations are tuples of the integers 1..n.  The textual format is a
compact digit string for n <= 9 ("24135") and comma-separated values for
longer permutations ("10,2,1,...").

``STATISTICS`` maps the name of each label statistic to its function of a
permutation of length n:

- r, the last entry;
- l, the least ascent top, and n + 1 on the decreasing permutation;
- h, the greatest descent bottom, and 0 on the increasing permutation;
- s, the greatest ascent bottom, and 0 on the decreasing permutation;
- m, the least entry exceeding some entry to its left, and n + 1 on the
  decreasing permutation.

These degenerate values are the conventions the succession rules consume.
``statistic(perm, which)`` looks ``which`` up in the table.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

Perm = tuple[int, ...]


def is_permutation(seq: Sequence[int]) -> bool:
    return sorted(seq) == list(range(1, len(seq) + 1))


def parse_perm(text: str) -> Perm:
    text = text.strip()
    if "," in text:
        try:
            perm = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"bad permutation text {text!r}") from None
    else:
        if not text.isdigit():
            raise ValueError(f"bad permutation text {text!r}")
        perm = tuple(int(c) for c in text)
    if not is_permutation(perm):
        raise ValueError(f"{text!r} is not a permutation of 1..n")
    return perm


def format_perm(perm: Perm) -> str:
    if len(perm) <= 9:
        return "".join(str(x) for x in perm)
    return ",".join(str(x) for x in perm)


def reduce_to_perm(values: Sequence[int]) -> Perm:
    """Relabel distinct values to 1..n preserving relative order."""
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(rank[v] for v in values)


def append_child(perm: Perm, v: int) -> Perm:
    """Append v at the right, shifting every entry >= v up by one."""
    n = len(perm)
    if not 1 <= v <= n + 1:
        raise ValueError(f"appended value {v} out of range 1..{n + 1}")
    return (*[x + 1 if x >= v else x for x in perm], v)


def _least_ascent_top(perm: Perm) -> int:
    best = prev = len(perm) + 1
    for x in perm:
        if prev < x < best:
            best = x
        prev = x
    return best


def _greatest_descent_bottom(perm: Perm) -> int:
    best = prev = 0
    for x in perm:
        if best < x < prev:
            best = x
        prev = x
    return best


def _greatest_ascent_bottom(perm: Perm) -> int:
    best, prev = 0, len(perm) + 1
    for x in perm:
        if best < prev < x:
            best = prev
        prev = x
    return best


def _least_entry_above_an_earlier(perm: Perm) -> int:
    # a running minimum: x exceeds an earlier entry iff it exceeds their least
    low = best = len(perm) + 1
    for x in perm:
        if x < low:
            low = x
        elif x < best:
            best = x
    return best


STATISTICS: dict[str, Callable[[Perm], int]] = {
    "r": itemgetter(-1),
    "l": _least_ascent_top,
    "h": _greatest_descent_bottom,
    "s": _greatest_ascent_bottom,
    "m": _least_entry_above_an_earlier,
}


def statistic(perm: Perm, which: str) -> int:
    """The label statistic ``which`` of ``perm``: ``STATISTICS[which](perm)``."""
    try:
        fn = STATISTICS[which]
    except (KeyError, TypeError):
        raise ValueError(f"unknown statistic {which!r}") from None
    return fn(perm)
