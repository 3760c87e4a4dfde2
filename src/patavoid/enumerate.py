"""Ground-truth counting of pattern-avoiding permutations.

Two routes: brute force over S_n and pruned rightward-tree expansion.  The
brute force is the oracle; everything faster is checked against it.  It
runs every permutation of S_n, in lexicographic order, through the full
kernel of every member (``patterns.avoiders``), never an anchored one.  The
tree prunes only by the patterns that are always closed under last-entry
deletion (``patterns.always_closed``), so it is sound for every set and
has no precondition; ``closure_check`` looks for a counterexample to that
closure by brute force.
"""

from __future__ import annotations

from itertools import permutations as _all_perms
from typing import Iterator

from .patterns import (PatternSet, SearchForm, always_closed, at_end, avoiders,
                       avoids)
from .perms import Perm, append_child, reduce_to_perm

BRUTE_GUARD = 10


class ClosureError(ValueError):
    """The class is not closed under deletion of the last entry."""


def iter_avoiders_brute(pats: PatternSet, n: int) -> Iterator[Perm]:
    """The avoiders of ``pats`` in S_n, in lexicographic order: every
    permutation filtered by every member's full kernel."""
    return avoiders(_all_perms(range(1, n + 1)), pats)


def count_brute(pats: PatternSet, n: int) -> int:
    """|S_n(pats)| by filtering all n! permutations."""
    if not 1 <= n <= BRUTE_GUARD:
        raise ValueError(f"n={n} outside the brute-force guard 1..{BRUTE_GUARD}")
    return sum(1 for _ in iter_avoiders_brute(pats, n))


def kept_children(perm: Perm, forms: tuple[SearchForm, ...]) -> list[Perm]:
    """The children of tree node ``perm`` that avoid, in order of the appended value.

    ``forms`` is ``at_end(pats)``, and ``perm`` must avoid ``pats``.  The
    child with appended value v is tested as ``perm + (v - 0.5,)``, which
    has the relative order of ``append_child(perm, v)``; a kernel only
    compares entries and takes lengths, so only the kept children are built.
    """
    return [append_child(perm, v) for v in range(1, len(perm) + 2)
            if avoids(perm + (v - 0.5,), forms)]


def iter_tree_levels(pats: PatternSet, nmax: int) -> Iterator[list[Perm]]:
    """Levels 1..nmax of the rightward generating tree, as permutation lists.

    The tree is pruned only by the always-closed members of ``pats``:
    their class contains Av(pats) and is closed under last-entry deletion,
    so every avoider of ``pats`` is grown.  A level is its parents'
    ``kept_children`` in turn: every node's parent avoids those members,
    so a child is searched only for occurrences that end at its new last
    entry (``patterns.at_end``), which decides avoidance exactly.  Each
    level is yielded filtered by the other members, those with the bar
    last, under the full check (``patterns.avoiders``), so it holds the
    avoiders of ``pats``.  The tree grows from the empty permutation, so
    there are no levels when nmax < 1.
    """
    closed = tuple(p for p in pats if always_closed(p))
    rest = tuple(p for p in pats if not always_closed(p))
    forms = at_end(closed)
    level: list[Perm] = [()]
    for _ in range(nmax):
        level = [child for perm in level for child in kept_children(perm, forms)]
        yield list(avoiders(level, rest)) if rest else level


def closure_check(pats: PatternSet, nmax: int) -> None:
    """Verify closure under last-entry deletion, exhaustively up to nmax.

    Raises ClosureError with a counterexample if some avoider's parent
    (last entry deleted, rest relabeled) fails to avoid.  A set of
    always-closed patterns (``patterns.always_closed``) passes at once.
    """
    if all(always_closed(p) for p in pats):
        return
    for n in range(2, nmax + 1):
        for perm in iter_avoiders_brute(pats, n):
            parent = reduce_to_perm(perm[:-1])
            if not avoids(parent, pats):
                raise ClosureError(
                    f"not closed under last-entry deletion: avoider {perm} "
                    f"has non-avoiding parent {parent}")


def count_tree(pats: PatternSet, nmax: int) -> list[int]:
    """|S_n(pats)| for n = 1..nmax, the level sizes of ``iter_tree_levels``."""
    return [len(level) for level in iter_tree_levels(pats, nmax)]
