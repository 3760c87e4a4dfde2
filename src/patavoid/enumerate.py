"""Ground-truth counting of pattern-avoiding permutations.

Two routes: brute force over S_n and pruned rightward-tree expansion, with
the exhaustive check that the pruning is sound.  The brute force is the
oracle; everything faster is checked against it.
"""

from __future__ import annotations

from itertools import permutations as _all_perms
from typing import Iterator

from .patterns import BarredPattern, PatternSet, SearchForm, at_end, avoids
from .perms import Perm, append_child, reduce_to_perm

BRUTE_GUARD = 10
CLOSURE_N = 6  # largest n to which closure_check looks by default


class ClosureError(ValueError):
    """The class is not closed under deletion of the last entry."""


def iter_avoiders_brute(pats: PatternSet, n: int) -> Iterator[Perm]:
    for perm in _all_perms(range(1, n + 1)):
        if avoids(perm, pats):
            yield perm


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

    A level is its parents' ``kept_children`` in turn.  Every node's parent
    avoids ``pats``, so a child is searched only for occurrences that end
    at its new last entry (``patterns.at_end``); that decides avoidance
    exactly, and a level holds the same permutations as under the full
    check.  Pruning at each level is sound only if the class is closed
    under last-entry deletion.  The library trusts its caller on that and
    does not check it; ``closure_check`` is the check.  The tree grows from
    the empty permutation, so there are no levels when nmax < 1.
    """
    forms = at_end(pats)
    level: list[Perm] = [()]
    for _ in range(nmax):
        level = [child for perm in level for child in kept_children(perm, forms)]
        yield level


def may_be_unclosed(pats: PatternSet) -> bool:
    """Whether ``pats`` has a barred pattern whose bar is last, the only kind
    that can make a set fail to be closed under last-entry deletion."""
    return any(isinstance(p, BarredPattern) and p.barred_index == p.full.k - 1
               for p in pats)


def closure_check(pats: PatternSet, nmax: int = CLOSURE_N) -> None:
    """Verify closure under last-entry deletion, exhaustively up to nmax.

    Raises ClosureError with a counterexample if some avoider's parent
    (last entry deleted, rest relabeled) fails to avoid.  Only a barred
    pattern whose bar is last can make a set fail, so a set with none
    passes at once.  An occurrence of a vincular pattern in the parent is
    one in the child.  So is a reduced occurrence of a bar-first pattern,
    and its extensions all lie left of it, so their count is the same.
    """
    if not may_be_unclosed(pats):
        return
    for n in range(2, nmax + 1):
        for perm in iter_avoiders_brute(pats, n):
            parent = reduce_to_perm(perm[:-1])
            if not avoids(parent, pats):
                raise ClosureError(
                    f"not closed under last-entry deletion: avoider {perm} "
                    f"has non-avoiding parent {parent}")


def count_tree(pats: PatternSet, nmax: int) -> list[int]:
    """Level sizes 1..nmax of the pruned rightward tree.

    Like ``iter_tree_levels``, checks each child only for occurrences that
    end at its new last entry, and trusts its caller that the class is
    closed under last-entry deletion.
    """
    return [len(level) for level in iter_tree_levels(pats, nmax)]
