"""Lattice-path bijections for the pattern classes.

Paths are plain strings: Dyck and Motzkin paths over U, D (and H for the
level steps of Motzkin paths), subdiagonal paths over E, N.  The four maps:

* ``phi``       -- avoiders of 2-1-3 to Dyck paths, via right-to-left maxima;
* ``callan``    -- UDU-free Dyck paths of semilength n to Motzkin paths of
                   length n - 1;
* ``udu_uuu``   -- UDU-free Dyck paths of semilength n + 1 to UUU-free Dyck
                   paths of semilength n;
* ``subdiag``   -- avoiders of {2-1-3, [2o]-31} to subdiagonal E/N paths.

Each map has an explicit inverse, exercised by exhaustive round-trip tests.
"""

from __future__ import annotations

from typing import Iterator

from .patterns import avoids, parse_pattern_set
from .perms import Perm, right_to_left_maxima

_P213 = parse_pattern_set("2-1-3")
_P213_ODD = parse_pattern_set("2-1-3,[2o]-31")


def _balanced(path: str, up: str, down: str, flat: str = "") -> bool:
    h = 0
    for c in path:
        if c == up:
            h += 1
        elif c == down:
            h -= 1
        elif c not in flat:
            return False
        if h < 0:
            return False
    return h == 0


def path_is(path: str, kind: str) -> bool:
    """Membership test for the path families used by the bijections."""
    if kind == "dyck":
        return _balanced(path, "U", "D")
    if kind == "motzkin":
        return _balanced(path, "U", "D", "H")
    if kind == "udu_free":
        return _balanced(path, "U", "D") and "UDU" not in path
    if kind == "uuu_free":
        return _balanced(path, "U", "D") and "UUU" not in path
    if kind == "ddd_free":
        return _balanced(path, "U", "D") and "DDD" not in path
    if kind == "subdiagonal":
        x = y = 0
        for c in path:
            if c == "E":
                x += 1
            elif c == "N":
                y += 1
            else:
                return False
            if 2 * y > x:
                return False
        return y == x // 2
    raise ValueError(f"unknown path kind {kind!r}")


def dyck_paths(n: int) -> Iterator[str]:
    """All Dyck paths with n up steps, lexicographically (D < U)."""
    def rec(prefix: list[str], ups: int, h: int) -> Iterator[str]:
        if ups == 0 and h == 0:
            yield "".join(prefix)
            return
        if h > 0:
            prefix.append("D")
            yield from rec(prefix, ups, h - 1)
            prefix.pop()
        if ups > 0:
            prefix.append("U")
            yield from rec(prefix, ups - 1, h + 1)
            prefix.pop()
    return rec([], n, 0)


def motzkin_paths(n: int) -> Iterator[str]:
    """All Motzkin paths of length n."""
    def rec(prefix: list[str], left: int, h: int) -> Iterator[str]:
        if left == 0:
            if h == 0:
                yield "".join(prefix)
            return
        for step, dh in (("D", -1), ("H", 0), ("U", 1)):
            if 0 <= h + dh <= left - 1:
                prefix.append(step)
                yield from rec(prefix, left - 1, h + dh)
                prefix.pop()
    return rec([], n, 0)


def subdiagonal_paths(n: int) -> Iterator[str]:
    """All E/N paths staying weakly below y = x/2 from (0,0) to (n, n//2)."""
    goal = n // 2
    def rec(prefix: list[str], x: int, y: int) -> Iterator[str]:
        if x == n and y == goal:
            yield "".join(prefix)
            return
        if x < n:
            prefix.append("E")
            yield from rec(prefix, x + 1, y)
            prefix.pop()
        if y < goal and 2 * (y + 1) <= x:
            prefix.append("N")
            yield from rec(prefix, x, y + 1)
            prefix.pop()
    return rec([], 0, 0)


def _maxima_runs(perm: Perm) -> tuple[list[int], list[int]]:
    maxima = right_to_left_maxima(perm)
    return [i for i, _ in maxima], [v for _, v in maxima]


def phi(perm: Perm) -> str:
    """Dyck path of an avoider of 2-1-3: up runs from the positions of the
    right-to-left maxima, down runs from the drops between their values."""
    if not avoids(perm, _P213):
        raise ValueError(f"{perm} contains 2-1-3")
    pos, val = _maxima_runs(perm)
    out = []
    prev_pos = 0
    for j in range(len(pos)):
        out.append("U" * (pos[j] - prev_pos))
        drop = val[j] - val[j + 1] if j + 1 < len(val) else val[j]
        out.append("D" * drop)
        prev_pos = pos[j]
    return "".join(out)


def _parse_runs(path: str, first: str, second: str) -> tuple[list[int], list[int]]:
    """Split a path of alternating first/second runs; raise if malformed."""
    a_runs, b_runs = [], []
    i = 0
    while i < len(path):
        j = i
        while j < len(path) and path[j] == first:
            j += 1
        k = j
        while k < len(path) and path[k] == second:
            k += 1
        if j == i or (k == j and k < len(path)):
            raise ValueError(f"malformed path {path!r}")
        a_runs.append(j - i)
        b_runs.append(k - j)
        i = k
    return a_runs, b_runs


def _fill_gaps(n: int, pos: list[int], val: list[int]) -> Perm:
    """Place the maxima, then fill the remaining positions right to left:
    each takes the largest unused value below the next maximum's value."""
    out = [0] * n
    for i, v in zip(pos, val):
        out[i - 1] = v
    used = set(val)
    bound_at = [0] * n
    bound = 0
    for i in range(n - 1, -1, -1):
        if out[i]:
            bound = out[i]
        bound_at[i] = bound
    for i in range(n - 1, -1, -1):
        if out[i]:
            continue
        pick = max((v for v in range(1, bound_at[i]) if v not in used),
                   default=0)
        if pick == 0:
            raise ValueError("path is not in the image of the map")
        out[i] = pick
        used.add(pick)
    return tuple(out)


def phi_inverse(path: str) -> Perm:
    if not path_is(path, "dyck"):
        raise ValueError(f"{path!r} is not a Dyck path")
    a_runs, b_runs = _parse_runs(path, "U", "D")
    pos, val = [], []
    total = 0
    for a in a_runs:
        total += a
        pos.append(total)
    v = 0
    for b in reversed(b_runs):
        v += b
        val.append(v)
    val.reverse()
    return _fill_gaps(total, pos, val)


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
    """Avoider of {2-1-3, [2o]-31} to a subdiagonal E/N path: east runs from
    the right-to-left maxima positions, north runs from half the value drops
    (the drops are even on this class)."""
    if not avoids(perm, _P213_ODD):
        raise ValueError(f"{perm} is not an avoider of 2-1-3 and [2o]-31")
    pos, val = _maxima_runs(perm)
    out = []
    prev_pos = 0
    for j in range(len(pos)):
        out.append("E" * (pos[j] - prev_pos))
        drop = val[j] - val[j + 1] if j + 1 < len(val) else None
        if drop is None:
            rise = val[j] // 2
        else:
            if drop % 2:
                raise AssertionError(f"odd maxima gap in {perm}")
            rise = drop // 2
        out.append("N" * rise)
        prev_pos = pos[j]
    return "".join(out)


def subdiag_inverse(path: str) -> Perm:
    if not path_is(path, "subdiagonal"):
        raise ValueError(f"{path!r} is not a subdiagonal path")
    a_runs, b_runs = _parse_runs(path, "E", "N")
    pos = []
    total = 0
    for a in a_runs:
        total += a
        pos.append(total)
    # The first maximum is n, so the parity of every maximum equals n's.
    val = []
    v = total % 2
    for b in reversed(b_runs):
        v += 2 * b
        val.append(v)
    val.reverse()
    perm = _fill_gaps(total, pos, val)
    if not avoids(perm, _P213_ODD):
        raise ValueError("path is not in the image of the map")
    return perm
