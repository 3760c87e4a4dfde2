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
    """Parse a comma-separated list of patterns."""
    return tuple(parse_pattern(part.strip()) for part in text.split(","))


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


def avoids(perm: Perm, pats: PatternSet) -> bool:
    """True iff ``perm`` avoids every pattern in ``pats``."""
    for pat in pats:
        if isinstance(pat, GeneralizedPattern):
            if has_occurrence(perm, pat):
                return False
        else:
            mode = pat.mode
            for occ0 in _iter_occurrences(perm, pat._reduced):
                if not _mode_ok(mode, _count_extensions0(perm, pat, occ0)):
                    return False
    return True
