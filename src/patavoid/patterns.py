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

Every check runs the kernel of a ``SearchForm``: the pattern's blocks
(maximal runs of adjacent letters) in a placement order, each letter with
the already-placed letters just below and just above it in value, and for
a barred pattern a test on the extension count of each reduced
occurrence.  A pattern builds each of its forms on first use and keeps
it, and a form generates the Python source of one function and compiles
it when it is built: a ``for`` loop per block over the position of the
block's first letter, bounded by the blocks placed before it and the room
the others need, each letter checked by exactly the comparison it needs,
and the bar's extension count taken at the innermost level.  That source
holds only integers taken from the form (letter indices and block
lengths) and fixed operators; pattern text never reaches it.

``avoids(perm, pats)`` checks one permutation; ``avoiders(perms,
pats)`` filters a stream of them, with one C-level ``filterfalse`` per
member's kernel, shortest member first.

Each form plans its kernel by three rules (``SearchForm``).  The full
form, which a pattern builds on its first ``avoids`` or ``avoiders`` and
then keeps, places its longest block first when it has no bar (the
leftmost on a tie), then the other blocks left to right; a barred full
form goes left to right.  The anchored form, which a pattern builds on
its first ``at_end`` and then keeps, reads the last block straight from
the last entries before any loop and then places the other blocks left
to right.  A block's loop ends after its first placement when no letter
placed after it has one of its letters as a bound, and the bar neither
has one as a bound nor takes its slot from the block: later placements
only narrow what follows.  And in a form without a bar, a last block of
one letter is no index loop but one scan of a slice of values.

A generating tree grows a permutation by appending a last entry, so each
child's parent (the child with its last entry deleted and the rest
relabeled) already avoids what the tree prunes by.  ``at_end`` compiles a
set of always-closed patterns (``always_closed``) for such a child into
anchored forms that search only the occurrences whose last letter sits on
the new last entry.  ``avoids(child, at_end(pats))`` equals
``avoids(child, pats)`` whenever the parent avoids ``pats``, by two cases:

* A vincular pattern: an occurrence that misses the last entry is one in
  the parent, so the child contains the pattern iff an occurrence ends at
  the last entry.
* Bar first: a reduced occurrence that misses the last entry is one in the
  parent, and its barred slot lies to its left, so its extension count is
  the parent's.  Only reduced occurrences ending at the last entry need
  their mode checked.

Both cases also show that such a pattern's class is closed under deletion
of the last entry.  In the first case, when the last letter is the
largest (or 1), the appended values that complete an occurrence form an
up-set (a down-set): ``SearchForm.cutoff``.  A pattern with its bar last
may break that closure (``13-[2]`` is avoided by 132 but not by its
parent 12), so no tree prunes by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from typing import Iterable, Iterator, Union

Perm = tuple[int, ...]

EXISTS = "exists"
ODD = "odd"
EVEN = "even"

# The shapes of an anchored form's rejected appended values (SearchForm.cutoff).
UP = "up"
DOWN = "down"


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

    @property
    def k(self) -> int:
        return len(self.letters)

    @cached_property
    def _form(self) -> SearchForm:
        """The full form, built on the pattern's first search."""
        return SearchForm(self)

    @cached_property
    def _anchored(self) -> SearchForm:
        """The anchored form, built on the pattern's first ``at_end``."""
        return SearchForm(self, anchored=True)

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
    zero counting as even).  The reduced pattern, ``full`` with the barred
    letter removed and the others relabeled, is built on first use and
    kept as ``_reduced``.
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

    @cached_property
    def _reduced(self) -> GeneralizedPattern:
        e = self.barred_index
        bar = self.full.letters[e]
        letters = tuple(x - 1 if x > bar else x
                        for i, x in enumerate(self.full.letters) if i != e)
        if e == 0:
            adjacency = self.full.adjacency[1:]
        else:
            adjacency = self.full.adjacency[:-1]
        return GeneralizedPattern(letters, adjacency)

    @cached_property
    def _form(self) -> SearchForm:
        """The full form of the reduced pattern, built on the first search."""
        return SearchForm(self._reduced, barred=self)

    @cached_property
    def _anchored(self) -> SearchForm:
        """The anchored form of the reduced pattern, built on the first
        ``at_end``.  A bar-last pattern raises ValueError on every request,
        so that no tree prunes by one."""
        if not always_closed(self):
            raise ValueError(f"{self.render()} has its bar last: no tree "
                             f"may prune by it")
        return SearchForm(self._reduced, anchored=True, barred=self)

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
    """A vincular pattern laid out for its search kernel.

    Each letter is stored as ``(j, lo, hi)``: its index j and the indices
    of the letters placed before it that are next below and next above it
    in value, or None where there is no such letter.  So the
    letter is checked against every letter placed before it by the one
    comparison ``v[lo] < v[j] < v[hi]``, or by one side of it, or by none.
    ``pinned`` is the last block when the form is anchored (it is placed
    first, on the last entries) and empty otherwise.  ``blocks`` are the
    other blocks in placement order, each ``(letters, start, stop, once)``:
    the loop over the position of its first letter j (``i{j}``) runs from
    ``start`` up to ``stop``, each ``(base, offset)`` with base the first
    letter of another block (its position) or None (0 for a start, the
    length n for a stop), and ``once`` says the loop ends after its first
    placement.  ``bar`` is ``(lo, hi, mode, first)`` for the reduced
    pattern of a barred one: an occurrence then counts only if its
    extension count breaks the mode.

    ``cutoff`` says which appended values an anchored form rejects, over
    the children of one parent that avoids its pattern: ``UP`` when they
    form an up-set of 1..n+1, ``DOWN`` when they form a down-set, and None
    when nothing is known, so every candidate is tested.  An anchored form
    is ``UP`` when its pattern is vincular with k >= 2 and its last letter
    is k, and ``DOWN`` when that last letter is 1.  An occurrence in the
    child ends at the new last entry, and its other letters are parent
    entries, whose positions and relative order no v changes; they need
    only lie below that entry (above it, for ``DOWN``), which a larger v
    (a smaller one) keeps.  A full form, a bar-first form (its extension
    count may move either way as v grows), and a form whose last letter
    lies strictly inside (it needs parent entries on both sides of the
    last entry) have cutoff None.

    The placement order is the plan of the kernel:

    * A full form without a bar places its longest block first (the
      leftmost on a tie), from the length of the blocks to its left up to
      n less its own length and that of the blocks to its right; then the
      others left to right.  A block left of the lead stops where it
      leaves room for the blocks between it and the lead.  Anchored forms
      lead with the pinned block, and barred forms go left to right, so
      that the slot of the bar stays ``p[:i0]`` or ``p[end:]``.
    * A later position of a block only shrinks the ranges of the blocks
      placed after it, unless it is a lead with blocks to its left.  So
      when no later letter has one of its letters as a bound, and the
      bar neither has one as a bound nor takes its slot from the block
      (the first block of a bar-first form, the last of a bar-last one),
      the first placement finds an occurrence if any later one does:
      ``once``.  A lead always bounds some later letter next to it in
      value, and the innermost block of a form without a bar returns on
      its first placement anyway, so neither is ``once``.

    ``kernel`` is the search itself, ``kernel(perm) -> bool``, compiled
    from the fields above when the form is built.  It is held on the form,
    so it lives and dies with it.
    """

    __slots__ = ("k", "pinned", "blocks", "bar", "cutoff", "kernel")

    def __init__(self, pat: GeneralizedPattern, anchored: bool = False,
                 barred: BarredPattern | None = None):
        k, letters = pat.k, pat.letters
        # Maximal runs of adjacent letters, as index ranges.
        runs, start = [], 0
        for j, glued in enumerate(pat.adjacency):
            if not glued:
                runs.append(range(start, j + 1))
                start = j + 1
        runs.append(range(start, k))
        pinned = runs.pop() if anchored else range(0)
        lead = 0
        if not anchored and barred is None:
            lead = max(range(len(runs)), key=lambda b: (len(runs[b]), -b))
        order = sorted(range(len(runs)), key=lambda b: b != lead)
        item = {}
        placed = []
        for j in [*pinned, *(j for b in order for j in runs[b])]:
            below = [i for i in placed if letters[i] < letters[j]]
            above = [i for i in placed if letters[i] > letters[j]]
            item[j] = (j, max(below, key=letters.__getitem__, default=None),
                       min(above, key=letters.__getitem__, default=None))
            placed.append(j)
        self.bar = None
        # The letters whose values or positions the bar's test reads.
        read = set()
        if barred is not None:
            # The reduced letters next below and next above the barred one.
            x = barred.full.letters[barred.barred_index]
            first = barred.barred_index == 0
            self.bar = (letters.index(x - 1) if x > 1 else None,
                        letters.index(x) if x <= k else None,
                        barred.mode, first)
            read = {*self.bar[:2], 0 if first else k - 1}
        blocks = []
        for m in reversed(range(len(order))):
            b, run = order[m], runs[order[m]]
            if b in (0, lead):
                start = (None, sum(map(len, runs[:b])))
            else:
                start = (runs[b - 1][0], len(runs[b - 1]))
            if b < lead:
                stop = (runs[lead][0], 1 - sum(map(len, runs[b:lead])))
            else:
                stop = (None, 1 - len(pinned) - sum(map(len, runs[b:])))
            once = read.isdisjoint(run) and (barred is not None or m < len(order) - 1)
            blocks.append((tuple(item[j] for j in run), start, stop, once))
            read.update(i for j in run for i in item[j][1:])
        self.cutoff = None
        if anchored and barred is None and k >= 2:
            self.cutoff = {k: UP, 1: DOWN}.get(letters[-1])
        self.k = k
        self.pinned = tuple(item[j] for j in pinned)
        self.blocks = tuple(reversed(blocks))
        scope: dict = {}
        exec(_kernel_source(self), _KERNEL_GLOBALS, scope)
        self.kernel = scope["kernel"]


# Every kernel runs in this one namespace, which holds no kernel, so a
# kernel and its globals form no reference cycle.
_KERNEL_GLOBALS: dict = {"__builtins__": {"len": len, "range": range}}


def _between(lo: int | None, hi: int | None, x: str) -> str | None:
    """The test that value ``x`` lies between letters lo and hi (None
    meaning no bound), or None when neither bound exists."""
    if lo is None:
        return None if hi is None else f"{x} < v{hi}"
    return f"v{lo} < {x}" if hi is None else f"v{lo} < {x} < v{hi}"


def _plus(base: str, offset: int) -> str:
    """Source of ``base + offset``."""
    if not offset:
        return base
    return f"{base} + {offset}" if offset > 0 else f"{base} - {-offset}"


def _bounds(start: tuple, stop: tuple) -> tuple[str, str]:
    """Source of a block's ``start`` and ``stop`` (``SearchForm``)."""
    (a, da), (b, db) = start, stop
    return (str(da) if a is None else _plus(f"i{a}", da),
            _plus("n" if b is None else f"i{b}", db))


def _kernel_source(form: SearchForm) -> str:
    """Python source of ``kernel(p)``, built from the form's integers.

    The pinned letters are read straight from the last entries, and each
    block gets one loop over the position of its first letter, nested in
    placement order (the lead block first); a letter that breaks its
    comparison ends the search (pinned) or its block's current position,
    and a ``once`` block ends its loop after the first placement it tries
    to extend.  At the innermost level an occurrence is found: it counts
    at once, or, for a barred form, when the entries of its barred slot
    (left of its first entry, or right of its last) that lie between the
    bar's bounds number what breaks the mode.  In a form without a bar, an
    innermost block of one letter is no index loop but one scan of its
    slice of values for its comparison, or, with no comparison, one test
    that the slice is not empty.
    """
    k, pinned, blocks = form.k, form.pinned, form.blocks
    lines = ["def kernel(p):", " n = len(p)", f" if n < {k}:", "  return False"]

    def read(letter: tuple, at: str, pad: str, miss: str) -> None:
        j, lo, hi = letter
        lines.append(f"{pad}v{j} = p[{at}]")
        test = _between(lo, hi, f"v{j}")
        if test:
            lines.extend([f"{pad}if not {test}:", f"{pad} {miss}"])

    pad = " "
    for t, letter in enumerate(pinned):
        read(letter, f"{t - len(pinned)}", pad, "return False")
    # A last block of one letter in a form without a bar is a slice scan.
    scan = bool(blocks) and form.bar is None and len(blocks[-1][0]) == 1
    ends = []
    for block, start, stop, once in blocks[:len(blocks) - scan]:
        start, stop = _bounds(start, stop)
        i = f"i{block[0][0]}"
        lines.append(f"{pad}for {i} in range({start}, {stop}):")
        pad += " "
        for t, letter in enumerate(block):
            read(letter, _plus(i, t), pad, "continue")
        ends.append((pad, once))
    if scan:
        ((_, lo, hi),), start, stop, _ = blocks[-1]
        start, stop = _bounds(start, stop)
        test = _between(lo, hi, "x")
        if test is None:
            lines.extend([f"{pad}if {start} < {stop}:", f"{pad} return True"])
        else:
            cut = f"{'' if start == '0' else start}:{'' if stop == 'n' else stop}"
            lines.extend([f"{pad}for x in p[{cut}]:", f"{pad} if {test}:",
                          f"{pad}  return True"])
    elif form.bar is None:
        lines.append(f"{pad}return True")
    else:
        lo, hi, mode, bar_first = form.bar
        if bar_first:
            slot = f"p[:{'i0' if blocks else -len(pinned)}]"
        else:
            # Only a full form has its bar last (``BarredPattern._anchored``
            # refuses one), and it places its last block last.
            last = blocks[-1][0]
            slot = f"p[{_plus(f'i{last[0][0]}', len(last))}:]"
        # The barred letter has a bound among the k >= 1 reduced letters.
        test = _between(lo, hi, "x")
        if mode == EXISTS:
            lines.extend([f"{pad}for x in {slot}:", f"{pad} if {test}:",
                          f"{pad}  break", f"{pad}else:", f"{pad} return True"])
        else:
            lines.extend([f"{pad}c = 0", f"{pad}for x in {slot}:",
                          f"{pad} if {test}:", f"{pad}  c += 1",
                          f"{pad}if c % 2 == {1 if mode == EVEN else 0}:",
                          f"{pad} return True"])
    for pad, once in reversed(ends):
        if once:
            lines.append(f"{pad}break")
    lines.append(" return False")
    return "\n".join(lines) + "\n"


def always_closed(pat: PatternExpr) -> bool:
    """Whether the parent of every avoider of ``pat`` avoids it too: true
    of a vincular pattern and of a barred one with its bar first (the two
    cases of the module docstring)."""
    return isinstance(pat, GeneralizedPattern) or pat.barred_index == 0


def _shortest_first(pats: PatternSet) -> list[PatternExpr]:
    """``pats`` in the order that their searches run: shortest full length
    first (a barred pattern counts its bar), ties in their order in
    ``pats``.  A short pattern is the likelier to occur, and so to reject
    early; a permutation avoids a set iff it avoids each member, so the
    order cannot change an answer."""
    return sorted(pats, key=lambda pat: (
        pat.k if isinstance(pat, GeneralizedPattern) else pat.full.k))


def at_end(pats: PatternSet) -> tuple[SearchForm, ...]:
    """Compile the always-closed ``pats`` for children of parents that avoid it.

    The forms are each pattern's own (``_anchored``), so every tree walk
    over one pattern set runs the same kernels, each compiled once.  They
    are listed in ``avoiders``' member order (``_shortest_first``), so
    ``avoids`` tries the likeliest rejection first.  Each form's
    ``cutoff`` says whether the appended values it rejects form an up-set
    or a down-set; ``enumerate.tree_forms`` groups the forms by it, each
    group in this order.
    """
    return tuple(pat._anchored for pat in _shortest_first(pats))


def avoids(perm: Perm, pats: PatternSet | tuple[SearchForm, ...]) -> bool:
    """True iff ``perm`` avoids every pattern in ``pats``.

    ``pats`` may instead be the forms ``at_end`` compiles; the answer is
    then exact only when the parent of ``perm`` avoids the patterns.
    """
    for pat in pats:
        form = pat if isinstance(pat, SearchForm) else pat._form
        if form.kernel(perm):
            return False
    return True


def avoiders(perms: Iterable[Perm], pats: PatternSet) -> Iterator[Perm]:
    """The permutations of ``perms`` that avoid every pattern in ``pats``,
    in their input order.

    The stream passes one ``filterfalse`` per member's full kernel, so the
    loop over it runs in C.  The members filter in ``_shortest_first``
    order, the order in which ``at_end`` lists its forms.
    """
    out = iter(perms)
    for pat in _shortest_first(pats):
        out = filterfalse(pat._form.kernel, out)
    return out
