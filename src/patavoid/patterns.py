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

Every check runs one backtracking search over a ``SearchForm``: the
pattern's blocks (maximal runs of adjacent letters) in a placement order,
each letter with the already-placed letters just below and just above it
in value, and for a barred pattern a test on the extension count of each
reduced occurrence.  There are two placement orders.  The full form, which
every pattern builds at construction, places the blocks left to right;
``avoids(perm, pats)`` uses it.  The anchored form, which ``at_end``
builds, pins the last block on the last entries first and then places the
other blocks left to right.

A generating tree grows a permutation by appending a last entry, so each
child's parent (the child with its last entry deleted and the rest
relabeled) already avoids the set.  ``at_end`` compiles the set for such a
child into anchored forms that search only the occurrences whose last
letter sits on the new last entry.  ``avoids(child, at_end(pats))`` equals
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
from typing import Union

Perm = tuple[int, ...]
_INF = float("inf")

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
        object.__setattr__(self, "_form", SearchForm(self))

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
        object.__setattr__(self, "_form", SearchForm(self._reduced, barred=self))

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


class SearchForm:
    """A vincular pattern compiled for the one occurrence search.

    Each letter is stored as ``(j, lo, hi)``: its index j and the indices
    of the letters placed before it that are next below and next above it
    in value, with k and k + 1 standing for the bounds -inf and +inf.  So
    one chained comparison checks a letter against every letter placed
    before it.  ``pinned`` is the last block when the form is anchored (it
    is placed first, on the last entries) and empty otherwise; ``blocks``
    are the remaining blocks, placed left to right, and ``need[b]`` counts
    the positions that blocks b, b + 1, ... and the pinned block take.
    ``bar`` is ``(lo, hi, mode, first)`` for the reduced pattern of a
    barred one: an occurrence then counts only if its extension count
    breaks the mode.  An anchored form carries a bar only when it is first.
    """

    __slots__ = ("k", "pinned", "blocks", "need", "bar")

    def __init__(self, pat: GeneralizedPattern, anchored: bool = False,
                 barred: BarredPattern | None = None):
        k, letters = pat.k, pat.letters
        # Maximal runs of adjacent letters, as index ranges.
        blocks, start = [], 0
        for j, glued in enumerate(pat.adjacency):
            if not glued:
                blocks.append(range(start, j + 1))
                start = j + 1
        blocks.append(range(start, k))
        pinned = blocks.pop() if anchored else range(0)
        order = [*pinned, *(j for block in blocks for j in block)]
        item = {}
        for m, j in enumerate(order):
            placed = order[:m]
            below = [i for i in placed if letters[i] < letters[j]]
            above = [i for i in placed if letters[i] > letters[j]]
            item[j] = (j, max(below, key=letters.__getitem__, default=k),
                       min(above, key=letters.__getitem__, default=k + 1))
        self.k = k
        self.pinned = tuple(item[j] for j in pinned)
        self.blocks = tuple(tuple(item[j] for j in block) for block in blocks)
        self.need = tuple(len(pinned) + sum(map(len, blocks[b:]))
                          for b in range(len(blocks)))
        self.bar = None
        if barred is not None:
            # The reduced letters next below and next above the barred one.
            x = barred.full.letters[barred.barred_index]
            self.bar = (letters.index(x - 1) if x > 1 else k,
                        letters.index(x) if x <= k else k + 1,
                        barred.mode, barred.barred_index == 0)


def _counts(perm: Perm, bar: tuple, vals: list, first: int, end: int) -> bool:
    """The bar test: a reduced occurrence with letter values ``vals``,
    spanning positions first..end - 1, counts unless its extension count
    (the entries in the barred slot whose values lie strictly between the
    bounds) meets the mode.  ``end`` is exact only for a form that is not
    anchored, which is why an anchored form carries a bar only when it is
    first."""
    lo, hi, mode, bar_first = bar
    lo, hi = vals[lo], vals[hi]
    count = sum(1 for x in (perm[:first] if bar_first else perm[end:]) if lo < x < hi)
    if mode == EXISTS:
        return count == 0
    return count % 2 == (1 if mode == EVEN else 0)


def _search(perm: Perm, form: SearchForm) -> bool:
    """True iff ``perm`` has an occurrence of ``form`` that counts."""
    n, k = len(perm), form.k
    if n < k:
        return False
    vals = [0] * k + [-_INF, _INF]
    p = first = n - len(form.pinned)
    for j, lo, hi in form.pinned:
        v = perm[p]
        if not vals[lo] < v < vals[hi]:
            return False
        vals[j] = v
        p += 1
    return _place(perm, form, vals, 0, 0, first)


def _place(perm: Perm, form: SearchForm, vals: list, b: int, minpos: int,
           first: int) -> bool:
    """Place blocks b, b + 1, ... of ``form`` from ``minpos`` on; ``first``
    is the position of the occurrence's first entry once block 0 is placed."""
    blocks = form.blocks
    if b == len(blocks):
        return form.bar is None or _counts(perm, form.bar, vals, first, minpos)
    letters = blocks[b]
    for p in range(minpos, len(perm) - form.need[b] + 1):
        q = p
        for j, lo, hi in letters:
            v = perm[q]
            if not vals[lo] < v < vals[hi]:
                break
            vals[j] = v
            q += 1
        else:
            if _place(perm, form, vals, b + 1, q, first if b else p):
                return True
    return False


def at_end(pats: PatternSet) -> tuple[SearchForm, ...]:
    """Compile ``pats`` for children of parents that avoid it.

    The four cases of the module docstring: a vincular pattern and the
    reduced pattern of a bar-first one are searched as they are; a bar-last
    pattern becomes its reduced pattern (``exists``), its full pattern
    (``even``) or both (``odd``).
    """
    items = []
    for pat in pats:
        if isinstance(pat, GeneralizedPattern):
            items.append(SearchForm(pat, anchored=True))
        elif pat.barred_index == 0:
            items.append(SearchForm(pat._reduced, anchored=True, barred=pat))
        else:
            if pat.mode != EVEN:
                items.append(SearchForm(pat._reduced, anchored=True))
            if pat.mode != EXISTS:
                items.append(SearchForm(pat.full, anchored=True))
    return tuple(items)


def avoids(perm: Perm, pats: PatternSet | tuple[SearchForm, ...]) -> bool:
    """True iff ``perm`` avoids every pattern in ``pats``.

    ``pats`` may instead be the forms ``at_end`` compiles; the answer is
    then exact only when the parent of ``perm`` avoids the patterns.
    """
    for pat in pats:
        if _search(perm, pat if isinstance(pat, SearchForm) else pat._form):
            return False
    return True
