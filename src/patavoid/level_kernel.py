"""The level kernels of the label dynamic program in ``rules``.

A rule table generates the Python source of one function,
``kernel(level, n, cid)``, which maps one level's rows {a: [multiplicity
of (a, b) for b = 0, 1, ...]} to the next level's rows (``kernel_source``).
``kernel_for`` compiles it on the table's first use and keeps it for that
table, never for a class id, so two specs share a kernel exactly when they
share a table.  The source holds only integers from the table and fixed
operators, and the class id reaches the kernel only as an argument, for
its error message.  ``rules._dp_levels`` imports this module when it
first runs, so importing the package compiles neither this generator nor
a kernel.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from operator import add, sub
from typing import Callable, Union

from .rules import Affine, Rows, Rule, Span


def _shift(d: list[int], at: int, cells: list[int], stride: int, op) -> None:
    """d[at + stride·i] = op(d[at + stride·i], cells[i]) for every i, growing ``d``."""
    if len(d) <= at and stride == 1 and op is add:
        d += [0] * (at - len(d))
        d += cells
        return
    end = at + stride * (len(cells) - 1) + 1
    if len(d) < end:
        d += [0] * (end - len(d))
    d[at:end:stride] = map(op, d[at:end:stride], cells)


def _fill(d: list[int], lo: int, end: int, step: int, m: int) -> None:
    """d[j] += m for j = lo, lo + step, ... below end, growing ``d``."""
    if len(d) <= lo and step == 1:
        d += [0] * (lo - len(d))
        d += [m] * (end - lo)
        return
    if len(d) < end:
        d += [0] * (end - len(d))
    d[lo:end:step] = [x + m for x in d[lo:end:step]]


def _negative(cid: str) -> None:
    raise ValueError(f"the rule of {cid} gives a negative component")


# Every kernel runs in this one namespace, which holds no kernel, so a
# kernel and its globals form no reference cycle.
_KERNEL_GLOBALS: dict = {
    "__builtins__": {"any": any, "enumerate": enumerate, "len": len, "list": list,
                     "map": map, "range": range, "sorted": sorted, "sum": sum},
    "accumulate": accumulate, "add": add, "sub": sub, "defaultdict": defaultdict,
    "_fill": _fill, "_shift": _shift, "_negative": _negative,
}
# The kernel of each rule table, keyed by the table itself.
_KERNELS: dict[Rule, Callable[[Rows, int, str], Rows]] = {}


def _nonneg(x: Affine) -> bool:
    """Whether ``x`` is >= 0 at every a >= 0, b >= 0 and n >= 1."""
    return x.a >= 0 and x.b >= 0 and x.n >= 0 and x.c + x.n >= 0


def _constant(x: Affine) -> bool:
    return not (x.a or x.b or x.n)


def _src(x: Affine, b: Union[str, int] = 0) -> str:
    """``x`` as source in ``a`` and ``n``, with B read as ``b``: a name, or
    an int that is folded into the constant."""
    if isinstance(b, int):
        x, b = x._replace(c=x.c + x.b * b, b=0), ""
    text = ""
    for k, name in ((x.a, "a"), (x.n, "n"), (x.b, b)):
        k = int(k)
        if k:
            term = name if abs(k) == 1 else f"{abs(k)}*{name}"
            text += f" {'-' if k < 0 else '+'} {term}" if text else f"{'-' if k < 0 else ''}{term}"
    c = int(x.c)
    if not text:
        return str(c)
    return f"{text} {'-' if c < 0 else '+'} {abs(c)}" if c else text


def kernel_source(rule: Rule) -> str:
    """Python source of ``kernel(level, n, cid)``, built from the table's integers.

    The kernel loops once over the rows of a level.  For each row, a
    case's guard on a is one comparison, and the b range it guards is cut
    to the row; a span narrows that range further only where its own
    bounds can cut it (b >= lo - hi when only hi reads b, b <= hi - lo
    when only lo does).  The spans that read one range share one slice of
    the row and one sum of it, and a one-cell range is read as that cell.
    A span adds the cells straight into the next level where it can: a
    one-child-per-cell point on a row adds the cells shifted, and a span
    whose bounds do not read b adds the sum along its range when one row
    only reaches its target row (its row reads a, the guard pins a, or the
    class has one component) and no span that reads b keeps row
    difference lists of its step.  Every other span adds into the
    difference list of its kind, ``r<step>`` (a dict of lists by target
    row) or ``g<diag>_<step>`` (a list by j for the diagonal (j, j +
    diag)), as ``rules._dp_levels`` describes; a one-child-per-cell point
    on a diagonal adds into ``g<diag>_0``.  The lists are summed into the
    next level after the row loop.  A single child adds the sum to one cell,
    straight away, or after the row lists are summed when the table keeps
    any (``late``), so that a summed list fills a fresh row and is not
    added cell by cell.  Rows are cut at their last nonzero cell and come
    out in increasing order of a, so that most writes of the next level
    start rows.  Every test for a negative component calls
    ``_negative(cid)``; one is left out only where its affine form is >= 0
    for every a >= 0, b >= 0 and n >= 1.
    """
    body: list[str] = []
    row_steps: set[int] = set()
    diag_kinds: set[tuple[int, int]] = set()

    def emit(depth: int, *lines: str) -> None:
        body.extend(" " * depth + line for line in lines)

    def negative_if(depth: int, x: Affine, b: Union[str, int] = 0) -> None:
        if not _nonneg(x):
            emit(depth, f"if {_src(x, b)} < 0:", " _negative(cid)")

    def bump(depth: int, d: str, x: Affine, op: str) -> None:
        """d[x] op= m, growing d."""
        if _constant(x):
            j = int(x.c)
            emit(depth, f"if len({d}) <= {j}:", f" {d} += [0] * ({j + 1} - len({d}))",
                 f"{d}[{j}] {op}= m")
        else:
            emit(depth, f"j = {_src(x)}", f"if len({d}) <= j:",
                 f" {d} += [0] * (j + 1 - len({d}))", f"{d}[j] {op}= m")

    def diag_list(diag: int, step: int) -> str:
        diag, step = int(diag), int(step)
        diag_kinds.add((diag, step))
        return f"g{'m' if diag < 0 else ''}{abs(diag)}_{step}"

    def up_to_parity(depth: int, s0: Union[str, int], parity: int | None) -> Union[str, int]:
        if parity is None:
            return s0
        if isinstance(s0, int):
            return s0 + (s0 - parity) % 2
        emit(depth, f"if {s0} % 2 != {int(parity)}:", f" {s0} += 1")
        return s0

    # The steps of the row difference lists that b-reading spans need.
    listed = {s.step for c in rule for s in c.body
              if s.diag is None and s.lo != s.hi and (s.lo.b or s.hi.b)}

    def fills(s: Span, pinned: bool) -> bool:
        """Whether the span adds its cells' sum straight along its target row."""
        return (s.lo != s.hi and s.diag is None and not (s.lo.b or s.hi.b)
                and (pinned or s.row is None or s.row.a != 0) and s.step not in listed)

    def actions(depth: int, s: Span, s0: Union[str, int], stride: int, pinned: bool) -> None:
        lo_ab, hi_ab = s.lo._replace(b=0), s.hi._replace(b=0)
        if s.lo != s.hi and s.lo.b == s.hi.b and not _nonneg(hi_ab - lo_ab):
            emit(depth, f"if {_src(lo_ab)} <= {_src(hi_ab)}:")
            depth += 1
        row = s.row if s.row is not None else Affine()
        if s.diag is None:
            negative_if(depth, row)
        negative_if(depth, s.lo, s0)
        target = _src(row)
        if fills(s, pinned):
            emit(depth, f"_fill(nxt[{target}], {_src(lo_ab)}, {_src(hi_ab + 1)}, "
                        f"{int(s.step)}, m)")
        elif s.lo != s.hi:  # differences: + at lo, - one step past hi
            if s.diag is None:
                row_steps.add(s.step)
                emit(depth, f"d = r{int(s.step)}[{target}]")
                d = "d"
            else:
                d = diag_list(s.diag, s.step)
            if s.lo.b:
                emit(depth, f"_shift({d}, {_src(s.lo, s0)}, c, {stride}, add)")
            else:
                bump(depth, d, lo_ab, "+")
            end = s.hi + s.step
            if s.hi.b:
                emit(depth, f"_shift({d}, {_src(end, s0)}, c, {stride}, sub)")
            else:
                bump(depth, d, end, "-")
        elif s.lo.b:  # one child per cell: the cells, shifted
            d = f"nxt[{target}]" if s.diag is None else diag_list(s.diag, 0)
            emit(depth, f"_shift({d}, {_src(s.lo, s0)}, c, {stride}, add)")
        else:  # one child, (t, j): the cells' sum
            t, j = (row, s.lo) if s.diag is None else (s.lo, s.lo + s.diag)
            if s.diag is not None:
                negative_if(depth, j)
            if listed:
                emit(depth, f"late.append(({_src(t)}, {_src(j)}, m))")
            else:
                emit(depth, f"d = nxt[{_src(t)}]")
                bump(depth, "d", j, "+")

    for c in rule:
        depth, mark, acted = 2, len(body), False
        pinned = c.a_lo is not None and c.a_lo == c.a_hi
        if pinned:
            emit(depth, f"if a == {_src(c.a_lo)}:")
            depth += 1
        elif c.a_lo is not None or c.a_hi is not None:
            chain = ([_src(c.a_lo)] if c.a_lo is not None else []) + ["a"] \
                + ([_src(c.a_hi)] if c.a_hi is not None else [])
            emit(depth, f"if {' <= '.join(chain)}:")
            depth += 1
        # The b range the case reads, s0..s1: each an int or a name, and s1
        # None for the row's end.  s1 may pass the row's end, so each read
        # tests s0 <= top as well.
        one_cell = c.parity is None and c.b_lo is not None and c.b_lo == c.b_hi \
            and _nonneg(c.b_lo)
        if c.b_lo is None or _constant(c.b_lo):
            s0: Union[str, int] = max(0, 0 if c.b_lo is None else int(c.b_lo.c))
        else:
            s0 = "b0"
            emit(depth, f"b0 = {_src(c.b_lo)}")
            if not _nonneg(c.b_lo):
                emit(depth, "if b0 < 0:", " b0 = 0")
        s0 = up_to_parity(depth, s0, c.parity)
        stride = 1 if c.parity is None else 2
        s1: Union[str, int, None]
        if one_cell or c.b_hi is None:
            s1 = s0 if one_cell else None
        elif _constant(c.b_hi):
            s1 = int(c.b_hi.c)
        else:
            s1 = "b1"
            emit(depth, f"b1 = {_src(c.b_hi)}")
        # The spans by the range they read.
        groups: dict[tuple, list[Span]] = {}
        for s in c.body:
            floor = cap = None
            lo_ab, hi_ab = s.lo._replace(b=0), s.hi._replace(b=0)
            if s.hi.b and not s.lo.b:
                floor = lo_ab - hi_ab  # b >= lo - hi
                if _nonneg(floor * -1) or (c.b_lo is not None and _nonneg(c.b_lo - floor)):
                    floor = None
                elif isinstance(s0, int) and _constant(floor):
                    floor = up_to_parity(depth, max(s0, int(floor.c)), c.parity)
            elif s.lo.b and not s.hi.b:
                cap = hi_ab - lo_ab  # b <= hi - lo
                if c.b_hi is not None and _nonneg(cap - c.b_hi):
                    cap = None
                elif isinstance(s1, int) and _constant(cap):
                    cap = min(s1, int(cap.c))
            groups.setdefault((floor, cap), []).append(s)
        for (floor, cap), spans in groups.items():
            at = depth
            g0, g1 = s0, s1
            if isinstance(floor, int):
                g0 = floor
            elif floor is not None:
                g0 = "s0"
                emit(at, f"s0 = {_src(floor)}", f"if s0 < {s0}:", f" s0 = {s0}")
                up_to_parity(at, "s0", c.parity)
            if isinstance(cap, int):
                g1 = cap
            elif cap is not None:
                g1 = "s1"
                emit(at, f"s1 = {_src(cap)}")
                if s1 is not None:
                    emit(at, f"if s1 > {s1}:", f" s1 = {s1}")
            tests = []
            if g1 is not None and g1 != g0:
                if isinstance(g0, int) and isinstance(g1, int):
                    if g0 > g1:
                        continue
                else:
                    tests.append(f"{g0} <= {g1}")
            if g0 != 0:
                tests.append(f"{g0} <= top")
            if tests:
                emit(at, f"if {' and '.join(tests)}:")
                at += 1
            cells = any(s.lo.b or s.hi.b for s in spans)
            total = any(not (s.lo.b and s.hi.b) for s in spans)
            if g0 == g1:
                if total:
                    emit(at, f"m = row[{g0}]")
                if cells:
                    emit(at, f"c = row[{g0}:{g0} + 1]")
            else:
                end = "" if g1 is None else f"{g1} + 1"
                step = "" if stride == 1 else ":2"
                emit(at, "c = row" if g0 == 0 and end == step == "" else
                     f"c = row[{g0 or ''}:{end}{step}]")
                if total:
                    emit(at, "m = sum(c)")
            for s in spans:
                actions(at, s, g0, stride, pinned)
            acted = True
        if not acted:
            del body[mark:]

    head = ["def kernel(level, n, cid):", " nxt = defaultdict(list)"]
    head += [f" r{k} = defaultdict(list)" for k in sorted(row_steps)]
    head += [f" {diag_list(d, k)} = []" for d, k in sorted(diag_kinds)]
    if listed:
        head.append(" late = []")
    head += [" for a, row in level.items():", "  top = len(row) - 1"]
    body[:0] = head
    for k in sorted(row_steps):
        emit(1, f"for t, d in r{k}.items():")
        if k > 1:
            emit(2, f"for f in range({k}):", f" d[f::{k}] = accumulate(d[f::{k}])")
        values = "accumulate(d)" if k == 1 else "d"
        emit(2, "r = nxt.get(t)", "if r is None:", f" nxt[t] = list({values})", " continue",
             "if len(r) < len(d):", " r += [0] * (len(d) - len(r))",
             f"r[:len(d)] = map(add, r, {values})")
    if listed:
        emit(1, "for t, j, m in late:", " d = nxt[t]", " if len(d) <= j:",
             "  d += [0] * (j + 1 - len(d))", " d[j] += m")
    for d, k in sorted(diag_kinds):
        g = diag_list(d, k)
        if k == 1:
            emit(1, f"{g} = list(accumulate({g}))")
        elif k > 1:
            emit(1, f"for f in range({k}):", f" {g}[f::{k}] = accumulate({g}[f::{k}])")
        if d < 0:
            emit(1, f"if any({g}[:{-d}]):", " _negative(cid)")
        column = _src(Affine(c=d, b=1), "j")
        emit(1, f"for j, m in enumerate({g}):", " if m:", "  r = nxt[j]",
             f"  if len(r) <= {column}:", f"   r += [0] * ({column} + 1 - len(r))",
             f"  r[{column}] += m")
    emit(1, "out = {}", "for t in sorted(nxt):", " r = nxt[t]", " while r and not r[-1]:",
         "  r.pop()", " if r:", "  out[t] = r", "return out")
    return "\n".join(body) + "\n"


def kernel_for(rule: Rule) -> Callable[[Rows, int, str], Rows]:
    """The level kernel of ``rule``, compiled on its first use."""
    kernel = _KERNELS.get(rule)
    if kernel is None:
        scope: dict = {}
        exec(kernel_source(rule), _KERNEL_GLOBALS, scope)
        kernel = _KERNELS[rule] = scope["kernel"]
    return kernel
