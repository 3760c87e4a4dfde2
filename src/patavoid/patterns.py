"""Parsing and matching of generalized (vincular) and barred permutation patterns.

Patterns are written in a small ASCII DSL:

    pattern  := item (sep item)*
    item     := DIGIT | '[' DIGIT parity? ']'
    parity   := 'o' | 'e'
    sep      := '-' | ''        (empty separator = adjacency)
    DIGIT    := '1'..'9'

``2-1-3`` is the classical pattern, ``12-3`` requires the entries matching
``1`` and ``2`` to sit in consecutive positions, and a bracketed letter such
as ``[2]-31`` makes the pattern barred: every occurrence of the pattern with
the bracketed letter removed must extend to the full pattern in at least one
way (plain brackets), in an odd number of ways (``[2o]``) or in an even
number of ways (``[2e]``; zero counts as even).  The bracketed letter must be
the first or last letter and must be dash-separated from the rest.

A generating tree grows a permutation by appending a last entry, so each
child's parent (the child with its last entry deleted and the rest
relabeled) already avoids the set.  ``at_end`` compiles the set for such a
child into items that search only the occurrences whose last letter sits on
the new last entry.  ``avoids(child, at_end(pats))`` equals
``avoids(child, pats)`` whenever the parent avoids ``pats``, by four cases:

* A vincular pattern: an occurrence that misses the last entry is one in
  the parent, so the child contains the pattern iff an occurrence ends at
  the last entry.
* Bar first: a reduced occurrence that misses the last entry is one in the
  parent, and its barred slot lies to its left, so its extension count is
  the parent's.  Only reduced occurrences ending at the last entry need
  their mode checked.
* Bar last, plain brackets: a reduced occurrence ending at the last entry
  has an empty slot, so 0 extensions, and fails.  An earlier one keeps its
  extensions and may gain the new entry.  The item is the reduced pattern.
* Bar last, ``o`` or ``e``: the new entry flips the parity of an earlier
  reduced occurrence exactly when it lies between that occurrence's bounds,
  that is when the full pattern, read as vincular, has an occurrence ending
  at the last entry.  So ``e`` gives one item, the full pattern, and ``o``
  gives two: the full pattern and the reduced one (0 extensions is even).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

Perm = tuple[int, ...]

EXISTS = "exists"
ODD = "odd"
EVEN = "even"


class PatternSyntaxError(ValueError):
    """Malformed pattern text; carries the 0-based character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


@dataclass(frozen=True)
class GeneralizedPattern:
    """A pattern of distinct letters 1..k with per-gap adjacency flags.

    ``adjacency[j]`` is True when the entries matching letters j and j+1 must
    occupy consecutive positions (no dash between them in the DSL).
    """

    letters: tuple[int, ...]
    adjacency: tuple[bool, ...]

    def __post_init__(self):
        k = len(self.letters)
        if k < 1 or sorted(self.letters) != list(range(1, k + 1)):
            raise ValueError("letters must be a permutation of 1..k")
        if len(self.adjacency) != k - 1:
            raise ValueError("adjacency must have length k-1")
        # Maximal runs of adjacent letters, as (start index, length) pairs.
        blocks = []
        start = 0
        for j, glued in enumerate(self.adjacency):
            if not glued:
                blocks.append((start, j + 1 - start))
                start = j + 1
        blocks.append((start, k - start))
        object.__setattr__(self, "_blocks", tuple(blocks))
        # For each pattern position j, the order constraints against all
        # earlier positions: (i, True) means value at i must be smaller.
        cmp = []
        for j in range(k):
            cmp.append(tuple((i, self.letters[i] < self.letters[j]) for i in range(j)))
        object.__setattr__(self, "_cmp", tuple(cmp))

    @property
    def k(self) -> int:
        return len(self.letters)

    def render(self) -> str:
        out = [str(self.letters[0])]
        for j in range(1, len(self.letters)):
            if not self.adjacency[j - 1]:
                out.append("-")
            out.append(str(self.letters[j]))
        return "".join(out)


@dataclass(frozen=True)
class BarredPattern:
    """A generalized pattern with one distinguished (barred) letter.

    The barred letter sits at the first or last position of ``full`` and is
    dash-separated from the remainder.  ``mode`` states how many extensions
    each occurrence of the reduced pattern must have: at least one
    (``exists``), an odd number (``odd``) or an even number (``even``, with
    zero counting as even).
    """

    full: GeneralizedPattern
    barred_index: int
    mode: str

    def __post_init__(self):
        k = self.full.k
        if self.barred_index not in (0, k - 1):
            raise ValueError("barred letter must be first or last")
        if k < 2:
            raise ValueError("barred pattern needs at least two letters")
        gap = 0 if self.barred_index == 0 else k - 2
        if self.full.adjacency[gap]:
            raise ValueError("barred letter must be dash-separated")
        if self.mode not in (EXISTS, ODD, EVEN):
            raise ValueError(f"unknown mode {self.mode!r}")
        e = self.barred_index
        bar = self.full.letters[e]
        letters = tuple(x - 1 if x > bar else x
                        for i, x in enumerate(self.full.letters) if i != e)
        if e == 0:
            adjacency = self.full.adjacency[1:]
        else:
            adjacency = self.full.adjacency[:-1]
        object.__setattr__(self, "_reduced", GeneralizedPattern(letters, adjacency))
        # Positions, within a reduced occurrence, of the entries whose values
        # bound the barred entry's from below and from above (None: unbounded).
        object.__setattr__(self, "_below", letters.index(bar - 1) if bar > 1 else None)
        object.__setattr__(self, "_above", letters.index(bar) if bar < k else None)

    def reduced(self) -> GeneralizedPattern:
        """The pattern with the barred letter removed and letters relabeled."""
        return self._reduced

    def render(self) -> str:
        suffix = {EXISTS: "", ODD: "o", EVEN: "e"}[self.mode]
        out = []
        for j, letter in enumerate(self.full.letters):
            if j:
                out.append("" if self.full.adjacency[j - 1] else "-")
            if j == self.barred_index:
                out.append(f"[{letter}{suffix}]")
            else:
                out.append(str(letter))
        return "".join(out)


PatternExpr = Union[GeneralizedPattern, BarredPattern]
PatternSet = tuple[PatternExpr, ...]


def parse_pattern(text: str) -> PatternExpr:
    """Parse the DSL above into a pattern; offsets in errors are 0-based."""
    if not text:
        raise PatternSyntaxError("empty pattern", 0)
    items: list[tuple[int, bool, str, int]] = []  # (digit, barred, mode, offset)
    adjacency: list[bool] = []
    i, n = 0, len(text)
    while True:
        c = text[i]
        if c == "[":
            start = i
            i += 1
            if i >= n or not ("1" <= text[i] <= "9"):
                raise PatternSyntaxError("expected a digit 1-9 after '['", i)
            digit = int(text[i])
            i += 1
            mode = EXISTS
            if i < n and text[i] in "oe":
                mode = ODD if text[i] == "o" else EVEN
                i += 1
            if i >= n or text[i] != "]":
                raise PatternSyntaxError("expected ']'", i)
            i += 1
            items.append((digit, True, mode, start))
        elif "1" <= c <= "9":
            items.append((int(c), False, EXISTS, i))
            i += 1
        else:
            raise PatternSyntaxError(f"unexpected character {c!r}", i)
        if i >= n:
            break
        if text[i] == "-":
            adjacency.append(False)
            i += 1
            if i >= n:
                raise PatternSyntaxError("pattern ends with a dash", i - 1)
        else:
            adjacency.append(True)

    k = len(items)
    seen = set()
    for digit, _, _, offset in items:
        if digit > k:
            raise PatternSyntaxError(f"letter {digit} exceeds pattern length {k}", offset)
        if digit in seen:
            raise PatternSyntaxError(f"repeated letter {digit}", offset)
        seen.add(digit)

    barred = [(idx, off) for idx, (_, b, _, off) in enumerate(items) if b]
    letters = tuple(d for d, _, _, _ in items)
    gp = GeneralizedPattern(letters, tuple(adjacency))
    if not barred:
        return gp
    if len(barred) > 1:
        raise PatternSyntaxError("more than one barred letter", barred[1][1])
    idx, off = barred[0]
    try:
        return BarredPattern(gp, idx, items[idx][2])
    except ValueError as exc:
        raise PatternSyntaxError(str(exc), off) from None


def parse_pattern_set(text: str) -> PatternSet:
    """Parse a comma-separated list of patterns; error offsets index ``text``."""
    pats = []
    start = 0
    for part in text.split(","):
        try:
            pats.append(parse_pattern(part.strip()))
        except PatternSyntaxError as exc:
            lead = len(part) - len(part.lstrip())
            raise PatternSyntaxError(exc.message, start + lead + exc.offset) from None
        start += len(part) + 1
    return tuple(pats)


def _iter_occurrences(perm: Perm, pat: GeneralizedPattern) -> Iterator[tuple[int, ...]]:
    """Yield 0-based index tuples of occurrences in lexicographic order."""
    n = len(perm)
    blocks = pat._blocks
    cmp = pat._cmp
    nblocks = len(blocks)
    # Minimal number of positions still needed from each block on.
    tail = [0] * (nblocks + 1)
    for b in range(nblocks - 1, -1, -1):
        tail[b] = tail[b + 1] + blocks[b][1]
    idx = [0] * pat.k

    def place(b: int, minpos: int) -> Iterator[tuple[int, ...]]:
        start, length = blocks[b]
        for p in range(minpos, n - tail[b] + 1):
            ok = True
            for off in range(length):
                j = start + off
                v = perm[p + off]
                for i, less in cmp[j]:
                    if (perm[idx[i]] < v) != less:
                        ok = False
                        break
                if not ok:
                    break
                idx[j] = p + off
            if ok:
                if b == nblocks - 1:
                    yield tuple(idx)
                else:
                    yield from place(b + 1, p + length)

    yield from place(0, 0)


def occurrences(perm: Perm, pat: GeneralizedPattern) -> list[tuple[int, ...]]:
    """All occurrences as 1-based index tuples, in lexicographic order."""
    return [tuple(i + 1 for i in occ) for occ in _iter_occurrences(perm, pat)]


def has_occurrence(perm: Perm, pat: GeneralizedPattern) -> bool:
    for _ in _iter_occurrences(perm, pat):
        return True
    return False


def _count_extensions0(perm: Perm, pat: BarredPattern, occ0: tuple[int, ...]) -> int:
    """Extension count for a 0-based occurrence of the reduced pattern: the
    entries in the barred slot whose values lie strictly between the bounds."""
    lo = perm[occ0[pat._below]] if pat._below is not None else 0
    hi = perm[occ0[pat._above]] if pat._above is not None else len(perm) + 1
    slot = perm[:occ0[0]] if pat.barred_index == 0 else perm[occ0[-1] + 1:]
    return sum(1 for x in slot if lo < x < hi)


def count_extensions(perm: Perm, pat: BarredPattern, occ: tuple[int, ...]) -> int:
    """How many positions can fill the barred slot of a reduced occurrence.

    ``occ`` is a 1-based occurrence of ``pat.reduced()`` in ``perm``.
    """
    if tuple(occ) not in occurrences(perm, pat._reduced):
        raise ValueError(f"{occ} is not an occurrence of {pat._reduced.render()}")
    return _count_extensions0(perm, pat, tuple(i - 1 for i in occ))


def _mode_ok(mode: str, count: int) -> bool:
    if mode == EXISTS:
        return count >= 1
    if mode == ODD:
        return count % 2 == 1
    return count % 2 == 0


class AnchoredPattern:
    """A vincular pattern compiled to search only occurrences ending at the
    last entry; ``at_end`` makes these.

    Letters are placed in a fixed order: the last block first, on the last
    positions, then the other blocks left to right.  Each letter is stored
    as ``(j, lo, hi)``: its index j and the indices of the letters placed
    before it that are next below and next above it in value, with k and
    k + 1 standing for the bounds 0 and n + 1.  So one chained comparison
    checks a letter against every letter placed before it.  ``bar`` is
    ``(lo, hi, mode)`` for the reduced pattern of a bar-first pattern: an
    occurrence then counts only if its extension count breaks the mode.
    """

    __slots__ = ("k", "tail", "blocks", "need", "bar")

    def __init__(self, pat: GeneralizedPattern, barred: BarredPattern | None = None):
        k, letters = pat.k, pat.letters
        *heads, (start, length) = pat._blocks
        order = list(range(start, k)) + [j for s, l in heads for j in range(s, s + l)]
        item = {}
        for m, j in enumerate(order):
            placed = order[:m]
            below = [i for i in placed if letters[i] < letters[j]]
            above = [i for i in placed if letters[i] > letters[j]]
            item[j] = (j, max(below, key=letters.__getitem__, default=k),
                       min(above, key=letters.__getitem__, default=k + 1))
        self.k = k
        self.tail = tuple(item[j] for j in range(start, k))
        self.blocks = tuple(tuple(item[j] for j in range(s, s + l)) for s, l in heads)
        # Positions taken by blocks b, b + 1, ... and the last block.
        self.need = tuple(length + sum(l for _, l in heads[b:]) for b in range(len(heads)))
        self.bar = None
        if barred is not None:
            self.bar = (k if barred._below is None else barred._below,
                        k + 1 if barred._above is None else barred._above,
                        barred.mode)


def at_end(pats: PatternSet) -> tuple[AnchoredPattern, ...]:
    """Compile ``pats`` for children of parents that avoid it.

    The four cases of the module docstring: a vincular pattern and the
    reduced pattern of a bar-first one are searched as they are; a bar-last
    pattern becomes its reduced pattern (``exists``), its full pattern
    (``even``) or both (``odd``).
    """
    items = []
    for pat in pats:
        if isinstance(pat, GeneralizedPattern):
            items.append(AnchoredPattern(pat))
        elif pat.barred_index == 0:
            items.append(AnchoredPattern(pat._reduced, pat))
        else:
            if pat.mode != EVEN:
                items.append(AnchoredPattern(pat._reduced))
            if pat.mode != EXISTS:
                items.append(AnchoredPattern(pat.full))
    return tuple(items)


def _fails_at_end(perm: Perm, item: AnchoredPattern) -> bool:
    """True iff an occurrence of ``item`` ends at the last entry of ``perm``
    (and, for a bar-first item, breaks the mode)."""
    n, k = len(perm), item.k
    if n < k:
        return False
    vals = [0] * (k + 2)
    vals[k + 1] = n + 1
    p = first = n - len(item.tail)
    for j, lo, hi in item.tail:
        v = perm[p]
        if not vals[lo] < v < vals[hi]:
            return False
        vals[j] = v
        p += 1
    return _place(perm, item, vals, 0, 0, first)


def _place(perm: Perm, item: AnchoredPattern, vals: list[int], b: int,
           minpos: int, first: int) -> bool:
    """Place blocks b, b + 1, ... of ``item`` from ``minpos`` on; ``first`` is
    the position of the occurrence's first entry once block 0 is placed."""
    blocks = item.blocks
    if b == len(blocks):
        if item.bar is None:
            return True
        lo, hi, mode = item.bar
        lo, hi = vals[lo], vals[hi]
        return not _mode_ok(mode, sum(1 for x in perm[:first] if lo < x < hi))
    letters = blocks[b]
    for p in range(minpos, len(perm) - item.need[b] + 1):
        q = p
        for j, lo, hi in letters:
            v = perm[q]
            if not vals[lo] < v < vals[hi]:
                break
            vals[j] = v
            q += 1
        else:
            if _place(perm, item, vals, b + 1, q, first if b else p):
                return True
    return False


def avoids(perm: Perm, pats: PatternSet | tuple[AnchoredPattern, ...]) -> bool:
    """True iff ``perm`` avoids every pattern in ``pats``.

    ``pats`` may instead be the items ``at_end`` compiles; the answer is
    then exact only when the parent of ``perm`` avoids the patterns.
    """
    for pat in pats:
        if isinstance(pat, GeneralizedPattern):
            if has_occurrence(perm, pat):
                return False
        elif isinstance(pat, BarredPattern):
            mode = pat.mode
            for occ0 in _iter_occurrences(perm, pat._reduced):
                if not _mode_ok(mode, _count_extensions0(perm, pat, occ0)):
                    return False
        elif _fails_at_end(perm, pat):
            return False
    return True
