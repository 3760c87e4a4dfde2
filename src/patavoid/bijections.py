"""Lattice-path bijections for the pattern classes.

Paths are plain strings: Dyck and Motzkin paths over U, D (and H for the
level steps of Motzkin paths), subdiagonal paths over E, N.  One walk table
defines each family: its steps, in generation order, with their height
changes, and the highest height allowed at the end.  ``path_is`` walks the
table and one pruned generator enumerates it.  The four maps:

* ``phi``       -- avoiders of 2-1-3 to Dyck paths, via right-to-left maxima;
* ``callan``    -- UDU-free Dyck paths of semilength n to Motzkin paths of
                   length n - 1;
* ``udu_uuu``   -- UDU-free Dyck paths of semilength n + 1 to UUU-free Dyck
                   paths of semilength n;
* ``subdiag``   -- avoiders of {2-1-3, [2o]-31} to subdiagonal E/N paths.

``phi`` and ``subdiag`` are one run codec with different letters and step:
up runs from the positions of the right-to-left maxima, down runs from the
drops between their values.  Each map has an explicit inverse, exercised by
exhaustive round-trip tests.
"""

from __future__ import annotations

import re
from typing import Iterator

from .patterns import avoids, parse_pattern_set
from .perms import Perm, right_to_left_maxima

_P213 = parse_pattern_set("2-1-3")
_P213_ODD = parse_pattern_set("2-1-3,[2o]-31")

# family -> ({step: height change} in generation order, highest end height);
# heights never go below 0.  A subdiagonal path's height is x - 2y, so a
# path to (n, n // 2) ends at n mod 2.
_WALKS = {
    "dyck": ({"D": -1, "U": 1}, 0),
    "motzkin": ({"D": -1, "H": 0, "U": 1}, 0),
    "subdiagonal": ({"E": 1, "N": -2}, 1),
}
_FACTOR_FREE = {"udu_free": "UDU", "uuu_free": "UUU"}


def path_is(path: str, kind: str) -> bool:
    """Membership test for the path families used by the bijections."""
    if kind in _FACTOR_FREE:
        return path_is(path, "dyck") and _FACTOR_FREE[kind] not in path
    if kind not in _WALKS:
        raise ValueError(f"unknown path kind {kind!r}")
    steps, top = _WALKS[kind]
    h = 0
    for c in path:
        if c not in steps:
            return False
        h += steps[c]
        if h < 0:
            return False
    return h <= top


def _walks(kind: str, length: int) -> Iterator[str]:
    """The family's paths with ``length`` steps, in step order.  A prefix is
    cut once it is too high to come back down to the end height in time."""
    steps, top = _WALKS[kind]
    fall = -min(steps.values())

    def rec(path: str, left: int, h: int) -> Iterator[str]:
        if not left:
            if h <= top:
                yield path
            return
        ceiling = top + fall * (left - 1)
        for step, dh in steps.items():
            if 0 <= h + dh <= ceiling:
                yield from rec(path + step, left - 1, h + dh)
    return rec("", length, 0)


def dyck_paths(n: int) -> Iterator[str]:
    """All Dyck paths with n up steps, lexicographically (D < U)."""
    return _walks("dyck", 2 * n)


def motzkin_paths(n: int) -> Iterator[str]:
    """All Motzkin paths of length n."""
    return _walks("motzkin", n)


def subdiagonal_paths(n: int) -> Iterator[str]:
    """All E/N paths staying weakly below y = x/2 from (0,0) to (n, n//2)."""
    return _walks("subdiagonal", n + n // 2)


def _encode(perm: Perm, up: str, down: str, step: int) -> str:
    """Up runs from the gaps between the right-to-left maxima positions, down
    runs from the drops between their values over ``step``; the last maximum
    drops to n mod step."""
    maxima = right_to_left_maxima(perm)
    floors = [v for _, v in maxima[1:]] + [len(perm) % step]
    out = []
    prev_pos = 0
    for (pos, val), floor in zip(maxima, floors):
        drops, rest = divmod(val - floor, step)
        if rest:
            raise AssertionError(f"maxima gap not a multiple of {step} in {perm}")
        out.append(up * (pos - prev_pos) + down * drops)
        prev_pos = pos
    return "".join(out)


def _decode(path: str, up: str, down: str, step: int) -> Perm:
    """Inverse of ``_encode`` on a path of the family: place the maxima, then
    fill the other positions right to left, each with the largest unused
    value below the value of the nearest maximum to its right."""
    runs = re.findall(f"({up}+)({down}*)", path)
    n = sum(len(ups) for ups, _ in runs)
    out = [0] * n
    pos, val = n, n % step
    for ups, downs in reversed(runs):
        val += step * len(downs)
        out[pos - 1] = val
        pos -= len(ups)
    used = set(out)
    bound = 0
    for i in range(n - 1, -1, -1):
        if out[i]:
            bound = out[i]
            continue
        pick = max((v for v in range(1, bound) if v not in used), default=0)
        if pick == 0:
            raise ValueError("path is not in the image of the map")
        out[i] = pick
        used.add(pick)
    return tuple(out)


def phi(perm: Perm) -> str:
    """Dyck path of an avoider of 2-1-3, by the run codec with step 1."""
    if not avoids(perm, _P213):
        raise ValueError(f"{perm} contains 2-1-3")
    return _encode(perm, "U", "D", 1)


def phi_inverse(path: str) -> Perm:
    if not path_is(path, "dyck"):
        raise ValueError(f"{path!r} is not a Dyck path")
    return _decode(path, "U", "D", 1)


def _match_indices(tokens: list[str]) -> dict[int, int]:
    """D index -> matching U index (unmatched Ds absent)."""
    stack: list[int] = []
    match: dict[int, int] = {}
    for i, t in enumerate(tokens):
        if t == "U":
            stack.append(i)
        elif t == "D" and stack:
            match[i] = stack.pop()
    return match


def callan(path: str) -> str:
    """UDU-free Dyck path of semilength n >= 1 to a Motzkin path of length n - 1.

    Append a down step, then: every down step flanked by down steps is
    deleted and its matching up step becomes a level step; every remaining
    UDD factor loses its up step and first down step; the trailing appended
    step is dropped.  The UDD occurrences are pairwise disjoint, so one
    simultaneous pass suffices.
    """
    if not path or not path_is(path, "udu_free"):
        raise ValueError(f"{path!r} is not a nonempty UDU-free Dyck path")
    tokens = list(path) + ["D"]
    match = _match_indices(tokens)
    marked = {i for i in range(1, len(tokens) - 1)
              if tokens[i - 1] == tokens[i] == tokens[i + 1] == "D"}
    kept: list[str] = []
    for i, t in enumerate(tokens):
        if i in marked:
            continue
        if t == "U" and any(match.get(j) == i for j in marked):
            kept.append("H")
        else:
            kept.append(t)
    out: list[str] = []
    i = 0
    while i < len(kept):
        if kept[i : i + 3] == ["U", "D", "D"]:
            out.append("D")
            i += 3
        else:
            out.append(kept[i])
            i += 1
    assert out and out[-1] == "D"
    return "".join(out[:-1])


def callan_inverse(path: str) -> str:
    """Motzkin path of length n - 1 to a UDU-free Dyck path of semilength n."""
    if not path_is(path, "motzkin"):
        raise ValueError(f"{path!r} is not a Motzkin path")
    def rec(m: str) -> str:
        if not m:
            return "UD"
        if m[0] == "H":
            return "U" + rec(m[1:]) + "D"
        h = 0
        for i, c in enumerate(m):
            h += 1 if c == "U" else -1 if c == "D" else 0
            if h == 0 and c == "D":
                return "U" + rec(m[1:i]) + "D" + rec(m[i + 1:])
        raise AssertionError("unbalanced Motzkin path")
    return rec(path)


def _heights_before(tokens: list[str]) -> list[int]:
    out = []
    h = 0
    for t in tokens:
        out.append(h)
        h += 1 if t == "U" else -1
    return out


def udu_uuu(path: str) -> str:
    """UDU-free Dyck path of semilength n + 1 to UUU-free of semilength n.

    Down steps flanked by down steps, and the last step when it follows a
    down step, are pulled back next to their matching up steps; the
    rightmost UD factor is then deleted and the path is read backwards with
    the step letters exchanged.
    """
    if not path or not path_is(path, "udu_free"):
        raise ValueError(f"{path!r} is not a nonempty UDU-free Dyck path")
    tokens = list(path)
    n2 = len(tokens)
    match = _match_indices(tokens)
    marked = set()
    for i in range(n2):
        if tokens[i] != "D":
            continue
        inner = 0 < i < n2 - 1 and tokens[i - 1] == "D" and tokens[i + 1] == "D"
        last = i == n2 - 1 and i > 0 and tokens[i - 1] == "D"
        if inner or last:
            marked.add(i)
    keyed = [((match[i], 1) if i in marked else (i, 0), tokens[i])
             for i in range(n2)]
    keyed.sort(key=lambda kv: kv[0])
    moved = [t for _, t in keyed]
    cut = "".join(moved).rfind("UD")
    assert cut >= 0
    del moved[cut : cut + 2]
    return "".join("U" if t == "D" else "D" for t in reversed(moved))


def udu_uuu_inverse(path: str) -> str:
    """UUU-free Dyck path of semilength n to UDU-free of semilength n + 1.

    Reverse the path exchanging the step letters, append an up and a down
    step, then push each down step that sits in a UDU factor of that initial
    path rightwards, in left-to-right order, until it follows the first
    later down step starting at its own height (or reaches the end if no
    such step exists).
    """
    if not path_is(path, "uuu_free"):
        raise ValueError(f"{path!r} is not a UUU-free Dyck path")
    tokens = ["U" if c == "D" else "D" for c in reversed(path)] + ["U", "D"]
    marked_ids = [i for i in range(1, len(tokens) - 1)
                  if tokens[i - 1] == "U" and tokens[i] == "D"
                  and tokens[i + 1] == "U"]
    # Work on (id, step) pairs so marks survive the reshuffling.
    work = [(i, t) for i, t in enumerate(tokens)]
    for mid in marked_ids:
        i = next(k for k, (j, _) in enumerate(work) if j == mid)
        h = _heights_before([t for _, t in work])[i]
        item = work.pop(i)
        heights = _heights_before([t for _, t in work])
        dest = next((k + 1 for k in range(i, len(work))
                     if work[k][1] == "D" and heights[k] == h),
                    len(work))
        work.insert(dest, item)
    return "".join(t for _, t in work)


def subdiag(perm: Perm) -> str:
    """Avoider of {2-1-3, [2o]-31} to a subdiagonal E/N path, by the run
    codec with step 2 (the maxima drops are even on this class)."""
    if not avoids(perm, _P213_ODD):
        raise ValueError(f"{perm} is not an avoider of 2-1-3 and [2o]-31")
    return _encode(perm, "E", "N", 2)


def subdiag_inverse(path: str) -> Perm:
    if not path_is(path, "subdiagonal"):
        raise ValueError(f"{path!r} is not a subdiagonal path")
    perm = _decode(path, "E", "N", 2)
    if not avoids(perm, _P213_ODD):
        raise ValueError("path is not in the image of the map")
    return perm
