"""Permutation values, the rightward child construction, and label statistics.

Permutations are tuples of the integers 1..n.  The textual format is a
compact digit string for n <= 9 ("24135") and comma-separated values for
longer permutations ("10,2,1,...").
"""

from __future__ import annotations

from typing import Sequence

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


def statistic(perm: Perm, which: str) -> int:
    """One of the five label statistics r, l, h, s, m.

    Degenerate cases follow the conventions the succession rules consume:
    l = n+1 and m = n+1 on the decreasing permutation, h = 0 on the
    increasing permutation, s = 0 on the decreasing permutation.
    """
    n = len(perm)
    if which == "r":
        return perm[-1]
    if which == "l":
        tops = [perm[i] for i in range(1, n) if perm[i - 1] < perm[i]]
        return min(tops) if tops else n + 1
    if which == "h":
        bottoms = [perm[i] for i in range(1, n) if perm[i - 1] > perm[i]]
        return max(bottoms) if bottoms else 0
    if which == "s":
        bottoms = [perm[i] for i in range(n - 1) if perm[i] < perm[i + 1]]
        return max(bottoms) if bottoms else 0
    if which == "m":
        # the least entry exceeding some entry to its left, by a running minimum
        low = best = n + 1
        for x in perm:
            if x < low:
                low = x
            elif x < best:
                best = x
        return best
    raise ValueError(f"unknown statistic {which!r}")


def right_to_left_maxima(perm: Perm) -> list[tuple[int, int]]:
    """(position, value) pairs, 1-based, of entries exceeding all to their right."""
    out = []
    best = 0
    for i in range(len(perm) - 1, -1, -1):
        if perm[i] > best:
            best = perm[i]
            out.append((i + 1, perm[i]))
    out.reverse()
    return out
