"""Ground-truth counting of pattern-avoiding permutations.

Two routes: brute force over S_n and pruned rightward-tree expansion.  The
brute force is the oracle; everything faster is checked against it.  It
runs every permutation of S_n, in lexicographic order, through the full
kernel of every member (``patterns.avoiders``), never an anchored one.  The
tree prunes only by the patterns that are always closed under last-entry
deletion (``patterns.always_closed``), so it is sound for every set and
has no precondition; ``closure_check`` looks for a counterexample to that
closure by brute force.  A tree node of length n has n + 1 candidate
children, one per appended value v.  Members whose last letter is their
largest reject an up-set of the v, and members whose last letter is 1 a
down-set (``patterns.SearchForm``), so ``kept_children`` bisects their
cut-offs in about log n tests and tests one by one only the candidates
that both cut-offs keep, against the other members.
"""

from __future__ import annotations

from itertools import permutations as _all_perms
from typing import Iterator

from .patterns import (DOWN, UP, PatternSet, SearchForm, always_closed, at_end,
                       avoiders, avoids)
from .perms import Perm, reduce_to_perm

BRUTE_GUARD = 10


class ClosureError(ValueError):
    """The class is not closed under deletion of the last entry."""


def iter_avoiders_brute(pats: PatternSet, n: int) -> Iterator[Perm]:
    """The avoiders of ``pats`` in S_n, in lexicographic order: every
    permutation filtered by every member's full kernel."""
    return avoiders(_all_perms(range(1, n + 1)), pats)


def count_brute(pats: PatternSet, n: int) -> int:
    """|S_n(pats)| by filtering all n! permutations."""
    if isinstance(n, bool):
        raise ValueError(f"a length is an int, not the bool {n}")
    if not 1 <= n <= BRUTE_GUARD:
        raise ValueError(f"n={n} outside the brute-force guard 1..{BRUTE_GUARD}")
    return sum(1 for _ in iter_avoiders_brute(pats, n))


TreeForms = tuple[tuple[SearchForm, ...], tuple[SearchForm, ...],
                  tuple[SearchForm, ...]]


def tree_forms(pats: PatternSet) -> TreeForms:
    """``at_end(pats)`` split by ``SearchForm.cutoff``: the ``UP`` forms,
    the ``DOWN`` forms and the others, each in ``at_end``'s order.  A tree
    walk splits them once and hands them to every ``kept_children``."""
    forms = at_end(pats)
    return tuple(tuple(form for form in forms if form.cutoff == cutoff)
                 for cutoff in (UP, DOWN, None))


def _cut_off(test: list[int], forms: tuple[SearchForm, ...], kept: int,
             cut: int) -> int:
    """The candidate next to the cut-off of ``forms``, on the side of
    ``kept``, found by bisection with ``avoids`` on the buffer ``test``.
    ``kept`` is kept and ``cut`` rejected, or lies just past the values
    searched; every value from ``cut`` away from ``kept`` is rejected."""
    n = len(test) - 1
    while abs(cut - kept) > 1:
        v = (kept + cut) // 2
        test[n] = 2 * v - 1
        if avoids(test, forms):
            kept = v
        else:
            cut = v
    return kept


def kept_children(perm: Perm, forms: TreeForms) -> list[Perm]:
    """The children of tree node ``perm`` that avoid, in order of the appended value.

    ``forms`` is ``tree_forms(pats)``, and ``perm`` must avoid ``pats``.
    Every candidate is tested in one integer buffer, ``perm`` doubled with
    one slot after it: the child that appends v writes 2v - 1 there.
    Doubling keeps the order of ``perm``, and 2v - 1 lies strictly between
    2(v - 1) and 2v, so the buffer has the relative order of
    ``append_child(perm, v)``; a kernel only compares entries and takes
    lengths, so it reads the buffer as that child.

    The ``UP`` forms keep a prefix 1..hi of the candidates, and the
    ``DOWN`` forms a suffix lo..n+1 (``SearchForm.cutoff``): the other
    letters of an occurrence ending at the last entry are parent entries
    that lie below it (above it), and they still do when v grows (when it
    shrinks).  So hi is bisected with ``avoids`` on the ``UP`` forms, and
    v = 1 needs no probe, as no entry lies below it.  Then lo is bisected
    within 1..hi on the ``DOWN`` forms, and v = n + 1 needs no probe.
    Only the candidates lo..hi are tested, one ``avoids`` call each, on
    the other forms.  Only the kept children are built, each through one
    relabel table of the parent: ``shift[x]`` is x below v and x + 1 from
    v up, and it is lowered one entry per candidate.
    """
    up, down, rest = forms
    n = len(perm)
    test = [2 * x for x in perm] + [0]
    hi = _cut_off(test, up, 1, n + 2) if up else n + 1
    lo = _cut_off(test, down, min(hi + 1, n + 1), 0) if down else 1
    shift = [*range(lo), *range(lo + 1, n + 2)]
    relabel = shift.__getitem__
    children = []
    for v in range(lo, hi + 1):
        shift[v - 1] = v - 1
        if rest:
            test[n] = 2 * v - 1
            if not avoids(test, rest):
                continue
        children.append((*map(relabel, perm), v))
    return children


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
    if isinstance(nmax, bool):
        raise ValueError(f"a length is an int, not the bool {nmax}")
    closed = tuple(p for p in pats if always_closed(p))
    rest = tuple(p for p in pats if not always_closed(p))
    forms = tree_forms(closed)
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
