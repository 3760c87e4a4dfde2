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
drops between their values.  Each direction is one right-to-left scan,
over the permutation to encode and over the path to decode.  ``callan``
and its inverse are each one left-to-right scan with a stack, and
``udu_uuu`` is the ``callan`` image read backwards with U and D
exchanged, then spelled H -> UD, U -> UUD, D -> D by one translate table;
its inverse parses that prefix code.  Each map has an explicit
inverse, exercised by exhaustive round-trip tests.
"""

from __future__ import annotations

import re
from typing import Iterator

from .patterns import avoids, parse_pattern_set
from .perms import Perm

_P213 = parse_pattern_set("2-1-3")
_P213_ODD = parse_pattern_set("2-1-3,[2o]-31")
_ODD = parse_pattern_set("[2o]-31")

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
    cut once it is too high to come back down to the end height in time.

    A depth-first walk on one explicit stack, so no length is too long for
    the recursion limit.  A stack entry ``(d, step, h)`` is a prefix whose
    last step, its d-th, is ``step`` and whose height is h.  Popping it
    writes ``step`` into ``path[d]``; ``path[:d]`` already holds its
    ancestors' steps, as every entry popped since its parent lies at
    depth d or deeper.  A prefix pushes its children in reverse step
    order, so they pop in step order.
    """
    steps, top = _WALKS[kind]
    fall = -min(steps.values())
    moves = tuple(reversed(steps.items()))
    path = [""] * (length + 1)  # path[0] is the empty step of the root
    stack = [(0, "", 0)]
    while stack:
        d, step, h = stack.pop()
        path[d] = step
        if d == length:
            if h <= top:
                yield "".join(path)
            continue
        ceiling = top + fall * (length - d - 1)
        for step, dh in moves:
            if 0 <= h + dh <= ceiling:
                stack.append((d + 1, step, h + dh))


def dyck_paths(n: int) -> Iterator[str]:
    """All Dyck paths with n up steps, lexicographically (D < U)."""
    if isinstance(n, bool):
        raise ValueError(f"a length is an int, not the bool {n}")
    return _walks("dyck", 2 * n)


def motzkin_paths(n: int) -> Iterator[str]:
    """All Motzkin paths of length n."""
    if isinstance(n, bool):
        raise ValueError(f"a length is an int, not the bool {n}")
    return _walks("motzkin", n)


def subdiagonal_paths(n: int) -> Iterator[str]:
    """All E/N paths staying weakly below y = x/2 from (0,0) to (n, n//2)."""
    if isinstance(n, bool):
        raise ValueError(f"a length is an int, not the bool {n}")
    return _walks("subdiagonal", n + n // 2)


def _encode(perm: Perm, up: str, down: str, step: int) -> str:
    """One scan of ``perm`` from the right.  Every entry gives an up step; a
    new right-to-left maximum x first gives (x - floor) / ``step`` down
    steps, where floor is n mod ``step`` for the first maximum and the
    previous maximum after that.  The pieces come out in reverse, so they
    are joined once, backwards."""
    pieces = []
    floor, top = len(perm) % step, 0
    for x in reversed(perm):
        if x > top:
            drops, rest = divmod(x - floor, step)
            if rest:
                raise AssertionError(f"maxima gap not a multiple of {step} in {perm}")
            pieces.append(down * drops)
            floor = top = x
        pieces.append(up)
    pieces.reverse()
    return "".join(pieces)


def _decode(path: str, up: str, down: str, step: int) -> Perm:
    """Inverse of ``_encode`` on a path of the family, by one scan of the
    path from the right.  n is the number of up steps.  A down step adds
    ``step`` to the value, which starts at n mod ``step``; the first up step
    read after a run of down steps (or as the path's last step) places a
    maximum of that value, and every other up step fills its position with
    the largest unused value below the nearest maximum to its right."""
    n = path.count(up)
    out = [0] * n
    pos, val, peak = n, n % step, True
    # Right to left the maxima rise, so the unused values below the bound
    # are a stack: a new maximum pushes the values it uncovers above the
    # last one, and the largest unused value is on top.
    free: list[int] = []
    bound = 0
    for c in reversed(path):
        if c == down:
            val += step
            peak = True
            continue
        pos -= 1
        if peak:
            free.extend(range(bound + 1, val))
            bound = out[pos] = val
            peak = False
        elif free:
            out[pos] = free.pop()
        else:
            raise ValueError("path is not in the image of the map")
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


def callan(path: str) -> str:
    """UDU-free Dyck path of semilength n >= 1 to a Motzkin path of length n - 1.

    Append a down step, then: every down step flanked by down steps is
    deleted and its matching up step becomes a level step; every remaining
    UDD factor loses its up step and first down step; the trailing appended
    step is dropped.

    One scan does this.  In a UDU-free path a down step followed by an up
    step follows a down step, so every down run but the last has length at
    least 2 and is entered from a peak, and the matching down step of a
    non-peak up step follows a down step.  Hence a peak's up step is the U
    of a UDD factor and emits nothing; a down step emits ``D`` when an up
    step follows it (the D that UDD leaves) and nothing otherwise (it
    starts a run or is flanked); any other up step emits ``U`` when its
    matching down step is followed by an up step and ``H`` when that down
    step is flanked.  Its letter is set when the scan reaches that step.
    """
    if not path or not path_is(path, "udu_free"):
        raise ValueError(f"{path!r} is not a nonempty UDU-free Dyck path")
    out: list[str] = []
    opened: list[int] = []  # per open up step, its slot in out (-1: a peak)
    for step, after in zip(path, path[1:] + "D"):
        if step == "U" and after == "D":
            opened.append(-1)
        elif step == "U":
            opened.append(len(out))
            out.append("H")
        else:
            slot = opened.pop()
            if after == "U":
                out[slot] = "U"
                out.append("D")
    return "".join(out)


def callan_inverse(path: str) -> str:
    """Motzkin path of length n - 1 to a UDU-free Dyck path of semilength n.

    Unrolls the first-return recursion  "" -> UD,  H m -> U m' D,
    U a D b -> U a' D b'  into one scan.  Each H and U writes an up step.
    Each level ends (at a D, or at the end of the path for the ground
    level) with its final peak UD, then one down step for each H opened on
    that level; a D then writes one more for its own U.
    """
    if not path_is(path, "motzkin"):
        raise ValueError(f"{path!r} is not a Motzkin path")
    out: list[str] = []
    levels = [0]  # per open U (and the ground), the H's opened since it
    for step in path:
        if step == "H":
            levels[-1] += 1
            out.append("U")
        elif step == "U":
            levels.append(0)
            out.append("U")
        else:
            out.append("UD" + "D" * (levels.pop() + 1))
    out.append("UD" + "D" * levels[0])
    return "".join(out)


_FLIP = str.maketrans("UD", "DU")
_SPELL = str.maketrans({"H": "UD", "U": "UUD", "D": "D"})
_UNSPELL = {w: chr(m) for m, w in _SPELL.items()}


def _flip(path: str) -> str:
    """The path read backwards with U and D exchanged."""
    return path[::-1].translate(_FLIP)


def udu_uuu(path: str) -> str:
    """UDU-free Dyck path of semilength n + 1 to UUU-free of semilength n.

    The paper's map pulls the down steps flanked by down steps, and the last
    step when it follows a down step, back next to their matching up steps;
    then it deletes the rightmost UD factor and reads the path backwards
    with the step letters exchanged.  That is ``callan`` respelled: after
    the move the path reads ``callan(path)`` with each H as UD (its up step
    and the pulled-back down step), each U as U and each D as UDD (the peak
    before the down step that ends a run), followed by the final peak UD,
    which is the rightmost UD factor.  So the image is ``callan(path)``
    flipped, then spelled with H -> UD, U -> UUD, D -> D.
    """
    return _flip(callan(path)).translate(_SPELL)


def udu_uuu_inverse(path: str) -> str:
    """UUU-free Dyck path of semilength n to UDU-free of semilength n + 1.

    {UD, UUD, D} is a prefix code, and a UUU-free Dyck path is a word in it
    in exactly one way: a D is a word, and an up step is followed by D or by
    UD, never by UU.  Unspelling gives a Motzkin path; flipping it back and
    applying ``callan_inverse`` inverts ``udu_uuu``.
    """
    if not path_is(path, "uuu_free"):
        raise ValueError(f"{path!r} is not a UUU-free Dyck path")
    words = re.findall("D|UD|UUD", path)
    return callan_inverse(_flip("".join(_UNSPELL[w] for w in words)))


def subdiag(perm: Perm) -> str:
    """Avoider of {2-1-3, [2o]-31} to a subdiagonal E/N path, by the run
    codec with step 2 (the maxima drops are even on this class)."""
    if not avoids(perm, _P213_ODD):
        raise ValueError(f"{perm} is not an avoider of 2-1-3 and [2o]-31")
    return _encode(perm, "E", "N", 2)


def subdiag_inverse(path: str) -> Perm:
    """Subdiagonal E/N path to the avoider of {2-1-3, [2o]-31} that
    ``subdiag`` maps to it, by the run codec with step 2.

    The decoded permutation is checked against [2o]-31 alone: ``_decode``
    builds a 2-1-3 avoider from every path.  In an occurrence b, a, c of
    2-1-3 (a < b < c), a is no right-to-left maximum, as c lies right of
    it and above it.  So a took the largest value unused at its turn
    below the nearest maximum at or right of it, which is at least c; but
    b, placed later in the right-to-left scan and below c, was unused
    then and is larger than a.
    """
    if not path_is(path, "subdiagonal"):
        raise ValueError(f"{path!r} is not a subdiagonal path")
    perm = _decode(path, "E", "N", 2)
    if not avoids(perm, _ODD):
        raise ValueError("path is not in the image of the map")
    return perm
