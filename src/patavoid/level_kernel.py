"""The level kernels of the label dynamic program in ``rules``.

A rule table generates the Python source of one function,
``kernel(level, n, cid)``, which maps one level's rows {a: [multiplicity
of (a, b) for b = 0, 1, ...]} to the next level's rows (``kernel_source``).
``kernel_for`` compiles it on the table's first use and keeps it for that
table, never for a class id, so two specs share a kernel exactly when they
share a table.  Each shape of span has one way into the next level, which
``kernel_source`` describes.  The source holds only integers from the
table and fixed operators, and the class id reaches the kernel only as an
argument, for its error message.  ``rules._kernel`` imports this module
on its first call, so importing the package compiles neither this
generator nor a kernel.

This module is the one reader of a table's guards and spans.  The label
dynamic program runs the kernel level by level, and ``rules.verify_rule``
predicts a label's children by one step from the level that holds that
label alone.  Two properties make that prediction sound.  The kernel is
linear in its level: every cell it writes is a sum of its input cells
times integers, so a level's successor is the sum of its labels'
one-label steps, each times its multiplicity.  And it emits rows in
increasing a, each cut at its last nonzero cell and indexed by b, so a
step read back cell by cell lists its labels in increasing order.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import accumulate
from operator import add, sub
from typing import Callable, Union

from .rules import Affine, Case, Rows, Rule, Span


def _shift(d: list[int], at: int, cells: list[int], stride: int, op) -> None:
    """d[at + stride·i] = op(d[at + stride·i], cells[i]) for every i, growing ``d``.

    The cells that would land below index 0 are dropped: the kernel has
    checked that they are zero.
    """
    if at < 0:
        k = (stride - 1 - at) // stride
        cells, at = cells[k:], at + k * stride
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
                     "range": range, "sorted": sorted, "sum": sum},
    "accumulate": accumulate, "add": add, "sub": sub, "defaultdict": defaultdict,
    "_fill": _fill, "_shift": _shift, "_negative": _negative,
}


def _nonneg(x: Affine) -> bool:
    """Whether ``x`` is >= 0 at every a >= 0, b >= 0 and n >= 1."""
    return x.a >= 0 and x.b >= 0 and x.n >= 0 and x.c + x.n >= 0


def _constant(x: Affine) -> bool:
    return not (x.a or x.b or x.n)


def _pinned(c: Case) -> Case:
    """The case with a = a_lo, the value its guard pins, read into the forms
    of its b bounds and spans, and with the spans that are then empty
    (lo > hi, neither reading b) left out."""
    def at(x: Affine | None) -> Affine | None:
        return None if x is None else x._replace(a=0) + c.a_lo * x.a

    body = [s._replace(lo=at(s.lo), hi=at(s.hi), row=at(s.row)) for s in c.body]
    return c._replace(body=tuple(s for s in body if s.hi.b or not _nonneg(s.lo - s.hi - 1)),
                      b_lo=at(c.b_lo), b_hi=at(c.b_hi))


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
    to the row; a range whose hi reads b (hi = b + h) cuts it further to
    b >= lo - h, from where each cell has a child.  The spans that read
    one range share one slice of the row, c, and one sum of it, m, and a
    one-cell range is read as that cell; where m is 0, they write nothing.
    Each span shape has one way into the next level:

    - onto a row, straight into the next level's row: a range whose bounds
      do not read b adds m along it (``_fill``); a range whose hi reads b
      adds m from lo up to the first cell's end, and from there the cells'
      running sum from the right, ``accumulate(c[:-1], sub, initial=m)``,
      since the child at the end of cell i comes from cells i, i + 1, ...;
      a point whose child reads b adds the cells shifted (``_shift``), and
      any other point adds m to one cell;
    - onto the diagonal (j, j + diag), into that diagonal's one list of
      values by j, ``g<diag>_0``: a point as on a row, and a range through
      the diagonal's difference list of its step, ``g<diag>_<step>``: m at
      lo, and minus the cells, or m, one step past hi.  After the row loop
      each difference list is summed into its diagonal's values, and the
      values are scattered into the next level once per diagonal.

    Rows are cut at their last nonzero cell and come out in increasing
    order of a.  Every test for a negative component calls
    ``_negative(cid)``, and it fails only on a cell of nonzero
    multiplicity, so the kernel refuses a level exactly when one of its
    labels has a child with a negative component.  A test is left out
    where its affine form is >= 0 for every b >= 0, n >= 1 and a at least
    the case's least a (or 0), and one that is constant is folded.  A case
    that pins a reads that value into the forms of its b bounds and spans
    before anything is written, and a span that is then empty (lo > hi,
    neither reading b) writes nothing.
    """
    body: list[str] = []
    diags: dict[int, set[int]] = {}  # each diagonal and the steps of its lists, 0 for values
    a_lo = Affine()  # the least a the case being written reads, where that is >= 0

    def nonneg(x: Affine) -> bool:
        """Whether x >= 0 on every label the case reads, as far as a >= a_lo tells."""
        return _nonneg(x + a_lo * x.a)

    def emit(depth: int, *lines: str) -> None:
        body.extend(" " * depth + line for line in lines)

    def negative_if(depth: int, x: Affine, b: Union[str, int] = 0, cells: str = "") -> None:
        """Raise if x < 0 at b and, where ``cells`` names some, one of them is nonzero."""
        if isinstance(b, int):
            x = x._replace(c=x.c + x.b * b, b=0)
        if nonneg(x):
            return
        tests = [] if _constant(x) else [f"{_src(x, b)} < 0"]
        if cells:
            tests.append(f"any({cells})")
        if tests:
            emit(depth, f"if {' and '.join(tests)}:", " _negative(cid)")
        else:
            emit(depth, "_negative(cid)")

    def bump(depth: int, d: str, x: Affine, op: str) -> None:
        """d[x] op= m, growing d."""
        emit(depth, f"j = {_src(x)}", f"if len({d}) <= j:", f" {d} += [0] * (j + 1 - len({d}))",
             f"{d}[j] {op}= m")

    def diag_list(diag: int, step: int = 0) -> str:
        """The values of a diagonal (step 0), or its difference list of a step."""
        diag, step = int(diag), int(step)
        diags.setdefault(diag, {0}).add(step)
        return f"g{'m' if diag < 0 else ''}{abs(diag)}_{step}"

    def up_to_parity(depth: int, s0: Union[str, int], parity: int | None) -> Union[str, int]:
        if parity is None:
            return s0
        if isinstance(s0, int):
            return s0 + (s0 - parity) % 2
        emit(depth, f"if {s0} % 2 != {int(parity)}:", f" {s0} += 1")
        return s0

    def actions(depth: int, s: Span, s0: Union[str, int], form: Affine | None,
                stride: int) -> None:
        """Emit the span's writes for the cells from b = s0, whose affine form is
        ``form`` where the generator knows it."""
        if s.lo != s.hi and not s.hi.b and not nonneg(s.hi - s.lo):
            emit(depth, f"if {_src(s.lo)} <= {_src(s.hi)}:")
            depth += 1
        row = s.row if s.row is not None else Affine()
        if s.diag is None:
            negative_if(depth, row, cells="c" if s.lo.b else "")
            emit(depth, f"d = nxt[{_src(row)}]")
        # A point that reads b has j < 0 for the first -lo(s0) / stride cells,
        # which must be zero.
        below = f"c[:({_src(s.lo * -1 + stride - 1, s0)}) // {stride}]" if s.lo.b else ""
        negative_if(depth, s.lo, s0, below)
        d = "d" if s.diag is None else diag_list(s.diag, s.step if s.lo != s.hi else 0)
        if s.lo.b:  # one child per cell: the cells, shifted
            emit(depth, f"_shift({d}, {_src(s.lo, s0)}, c, {stride}, add)")
        elif s.lo == s.hi:  # one child: the cells' sum
            bump(depth, d, s.lo, "+")
        elif s.diag is not None:  # differences: + at lo, - one step past hi
            # Every row of C5 writes into the same diagonal, so one sum of a
            # difference list per level costs less than a running sum per row.
            bump(depth, d, s.lo, "+")
            end = s.hi + s.step
            if s.hi.b:
                emit(depth, f"_shift({d}, {_src(end, s0)}, c, {stride}, sub)")
            else:
                bump(depth, d, end, "-")
        elif s.hi.b:  # m up to the first cell's end, then the running sum
            first = _src(s.hi, s0)
            if form is None or s.hi._replace(b=0) + form != s.lo:
                emit(depth, f"_fill(d, {_src(s.lo)}, {first}, {int(s.step)}, m)")
            emit(depth, f"_shift(d, {first}, list(accumulate(c[:-1], sub, initial=m)), "
                        f"{stride}, add)")
        else:
            emit(depth, f"_fill(d, {_src(s.lo)}, {_src(s.hi + 1)}, {int(s.step)}, m)")

    for c in rule:
        depth, mark, acted, a_lo = 2, len(body), False, Affine()
        if c.a_lo is not None and c.a_lo == c.a_hi:
            emit(depth, f"if a == {_src(c.a_lo)}:")
            depth += 1
            c = _pinned(c)
        elif c.a_lo is not None or c.a_hi is not None:
            if c.a_lo is not None and _nonneg(c.a_lo):
                a_lo = c.a_lo
            chain = ([_src(c.a_lo)] if c.a_lo is not None else []) + ["a"] \
                + ([_src(c.a_hi)] if c.a_hi is not None else [])
            emit(depth, f"if {' <= '.join(chain)}:")
            depth += 1
        # The b range the case reads, s0..s1: each an int or a name, and s1
        # None for the row's end.  s1 may pass the row's end, so each read
        # tests s0 <= top as well.
        one_cell = c.parity is None and c.b_lo is not None and c.b_lo == c.b_hi \
            and nonneg(c.b_lo)
        if c.b_lo is None or _constant(c.b_lo):
            s0: Union[str, int] = max(0, 0 if c.b_lo is None else int(c.b_lo.c))
        else:
            s0 = "b0"
            emit(depth, f"b0 = {_src(c.b_lo)}")
            if not nonneg(c.b_lo):
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
        # The spans by the first cell they read: a range whose hi reads b
        # reads from b = lo - h on.
        groups: dict[Union[Affine, int, None], list[Span]] = {}
        for s in c.body:
            floor = None
            if s.hi.b and not s.lo.b:
                floor = s.lo - s.hi._replace(b=0)
                if nonneg(floor * -1) or (c.b_lo is not None and nonneg(c.b_lo - floor)):
                    floor = None
                elif isinstance(s0, int) and _constant(floor):
                    floor = up_to_parity(depth, max(s0, int(floor.c)), c.parity)
            groups.setdefault(floor, []).append(s)
        for floor, spans in groups.items():
            at, g0 = depth, s0
            if isinstance(floor, int):
                g0 = floor
            elif floor is not None:
                g0 = "s0"
                emit(at, f"s0 = {_src(floor)}")
                if not (isinstance(s0, int) and nonneg(floor - s0)):
                    emit(at, f"if s0 < {s0}:", f" s0 = {s0}")
                up_to_parity(at, "s0", c.parity)
            tests = []
            if s1 is not None and s1 != g0:
                if isinstance(g0, int) and isinstance(s1, int):
                    if g0 > s1:
                        continue
                else:
                    tests.append(f"{g0} <= {s1}")
            if g0 != 0:
                tests.append(f"{g0} <= top")
            if tests:
                emit(at, f"if {' and '.join(tests)}:")
                at += 1
            cells = any(s.hi.b for s in spans)
            total = any(not s.lo.b for s in spans)
            if g0 == s1:
                if total:
                    emit(at, f"m = row[{g0}]")
                if cells:
                    emit(at, f"c = row[{g0}:{g0} + 1]")
            else:
                end = "" if s1 is None else f"{s1} + 1"
                step = "" if stride == 1 else ":2"
                emit(at, "c = row" if g0 == 0 and end == step == "" else
                     f"c = row[{g0 or ''}:{end}{step}]")
                if total:
                    emit(at, "m = sum(c)")
            if total:
                emit(at, "if m:")
                at += 1
            form = Affine(g0) if isinstance(g0, int) else c.b_lo \
                if g0 == "b0" and c.parity is None and nonneg(c.b_lo) else None
            for s in spans:
                actions(at, s, g0, form, stride)
            acted = True
        if not acted:
            del body[mark:]

    head = ["def kernel(level, n, cid):", " nxt = defaultdict(list)"]
    head += [f" {diag_list(d, k)} = []" for d in sorted(diags) for k in sorted(diags[d])]
    head += [" for a, row in level.items():", "  top = len(row) - 1"]
    body[:0] = head
    for d in sorted(diags):
        g = diag_list(d)
        for k in sorted(diags[d] - {0}):
            gk = diag_list(d, k)
            if k > 1:
                emit(1, f"for f in range({k}):", f" {gk}[f::{k}] = accumulate({gk}[f::{k}])")
            emit(1, f"_shift({g}, 0, {f'list(accumulate({gk}))' if k == 1 else gk}, 1, add)")
        if d < 0:
            emit(1, f"if any({g}[:{-d}]):", " _negative(cid)")
        column = _src(Affine(c=d, b=1), "j")
        emit(1, f"for j, m in enumerate({g}):", " if m:", "  r = nxt[j]",
             f"  if len(r) <= {column}:", f"   r += [0] * ({column} + 1 - len(r))",
             f"  r[{column}] += m")
    emit(1, "out = {}", "for t in sorted(nxt):", " r = nxt[t]", " while r and not r[-1]:",
         "  r.pop()", " if r:", "  out[t] = r", "return out")
    return "\n".join(body) + "\n"


@cache
def kernel_for(rule: Rule) -> Callable[[Rows, int, str], Rows]:
    """The level kernel of ``rule``, compiled on its first use."""
    scope: dict = {}
    exec(kernel_source(rule), _KERNEL_GLOBALS, scope)
    return scope["kernel"]
