"""The registry of succession rules for the twelve studied classes.

Each class couples a pattern set with labels drawn from the statistics of
``perms.STATISTICS`` and a rule: the label of a length-n node, with n,
determines the multiset of its children's labels.  The paper's third label
for C9-C11 is the length, which the rule reads as n.

A rule is a table of cases, written with ``case``, ``span`` and ``point``
over the affine forms ``A``, ``B`` and ``N``.  A label is (a, b), or (b,)
for a one-component class, and n is the node's length.  A case's guard is
an interval of a with bounds affine in n, an interval of b with bounds
affine in a and n, and optionally the parity of b.  Its body is a list of
spans, each standing for the child labels (row, j), or (j, j + diag) on a
diagonal, or (j,) for a one-component class, for lo <= j <= hi in steps of
``step``.  The row is affine in a and n, and lo and hi are affine in a, b
and n with a b-coefficient of 0 or 1; a fixed child is a one-point span.
Only a one-point span's lo may read b, and a span whose hi reads b steps
by 1, or by 2 under a parity guard.  The builders raise ``ValueError`` on
any other shape.  ``ClassSpec`` refuses a field of the wrong type with
``ValueError``, passes its table back through the builders and keeps what
they return, so a table built otherwise is checked too.  A node's children
are the bodies of the cases it meets, and the cases of a table are
disjoint on the labels that occur.  This is the form of Banderier,
Bousquet-Mélou, Denise, Flajolet, Gardy and Gouyou-Beauchamps
("Generating functions for generating trees", 2002).

Past those checks, only ``level_kernel`` reads a table's guards and spans.
Each table generates one level kernel, ``kernel(level, n)``, which maps a
level's rows to the next level's rows and evaluates no rule label by
label; ``level_kernel`` describes it.  A spec compiles its kernel on first
use and keeps it (``ClassSpec.kernel``), so the kernel is freed with the
spec; the class id the kernel names in its error lives in the kernel's
namespace.  ``count_by_rule`` and ``refined_by_rule`` read one dynamic
program, which holds a level as rows
{a: [multiplicity of (a, b) for b = 0, 1, ...]}, the single row 0 for a
one-component class.  ``verify_rule`` predicts a label's children by one
step of the same kernel from the level that holds that label alone, read
back as labels with multiplicity; the kernel emits rows in increasing a
and each row's cells in increasing b, so they come out sorted.  It
compares them with the tree, whose nodes' children it reads from
``enumerate.kept_children``.  The kernel is linear in its level: a level's
successor is the sum of its labels' one-label steps, each times its
multiplicity.  So when the children of every node of lengths 1..N - 1 are
predicted right, the dynamic program's levels 1..N are the tree's labelled
levels, by induction on n.  A spec binds the function of each of its
statistics on first use and keeps them (``ClassSpec.label_fns``), and
``ClassSpec.labels_of`` labels a list of nodes by mapping each function
over it; ``verify_rule`` holds a level as its nodes and their labels, in
two parallel lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Union

from .enumerate import kept_children, tree_forms
from .enumerate import iter_tree_levels  # unused; bench/tracing.py checks rules.iter_tree_levels
from .patterns import GeneralizedPattern, PatternSet, parse_pattern_set
from .patterns import avoids  # unused; bench/tracing.py rebinds and checks rules.avoids
from .perms import STATISTICS, Perm
from .series import Poly

Label = tuple[int, ...]


class Affine(NamedTuple):
    """The form c + a·A + b·B + n·N in a label (a, b) or (b,) and the length n.

    ``+``, ``-`` and ``*`` are those of affine forms, not of tuples.
    """

    c: int = 0
    a: int = 0
    b: int = 0
    n: int = 0

    def __add__(self, other: Union[Affine, int]) -> Affine:
        o = _affine(other)
        return Affine(self.c + o.c, self.a + o.a, self.b + o.b, self.n + o.n)

    def __mul__(self, k: int) -> Affine:
        if isinstance(k, bool):
            raise ValueError(f"{k!r} is not an int factor")
        if not isinstance(k, int):
            return NotImplemented
        return Affine(self.c * k, self.a * k, self.b * k, self.n * k)

    __rmul__ = __mul__

    def __sub__(self, other: Union[Affine, int]) -> Affine:
        return self + _affine(other) * -1


A, B, N = Affine(a=1), Affine(b=1), Affine(n=1)


def _affine(x: Union[Affine, int], free: str = "abn") -> Affine:
    """``x`` as an Affine, which may depend only on the variables in ``free``."""
    if not isinstance(x, Affine):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{x!r} is neither an int nor an affine form")
        return Affine(x)
    bound = [v for v in "abn" if v not in free and getattr(x, v)]
    if bound:
        raise ValueError(f"{x!r} must not depend on {', '.join(bound).upper()}")
    return x


class Span(NamedTuple):
    """Children (row, j), (j, j + diag) or (j,), for lo <= j <= hi in steps of step."""

    lo: Affine
    hi: Affine
    row: Affine | None
    diag: int | None
    step: int


class Case(NamedTuple):
    """A guard a_lo <= a <= a_hi, b_lo <= b <= b_hi, b = parity mod 2, and its body."""

    body: tuple[Span, ...]
    a_lo: Affine | None
    a_hi: Affine | None
    b_lo: Affine | None
    b_hi: Affine | None
    parity: int | None


Rule = tuple[Case, ...]
Bound = Union[Affine, int, None]


def span(lo: Union[Affine, int], hi: Union[Affine, int], *, row: Union[Affine, int, None] = None,
         diag: int | None = None, step: int = 1) -> Span:
    """The span lo..hi on ``row``, on the diagonal (j, j + diag), or of a one-component class."""
    lo, hi = _affine(lo), _affine(hi)
    for x in (lo, hi):
        if x.b not in (0, 1):
            raise ValueError(f"span bound {x!r}: the coefficient of B must be 0 or 1")
    if lo.b and lo != hi:
        raise ValueError(f"span {lo!r}..{hi!r}: only a one-point span's lo may read B")
    if row is not None and diag is not None:
        raise ValueError("a span targets a row or a diagonal, not both")
    if row is not None:
        try:
            row = _affine(row, "an")
        except ValueError as exc:
            raise ValueError(f"span row: {exc}; a child (j, j + c) is a diagonal") from None
    if diag is not None and (isinstance(diag, bool) or not isinstance(diag, int)):
        raise ValueError(f"diagonal offset {diag!r} is not an int")
    if isinstance(step, bool) or not isinstance(step, int) or step < 1:
        raise ValueError(f"span step {step!r} is not a positive int")
    return Span(lo, hi, row, diag, step)


def point(x: Union[Affine, int], *, row: Union[Affine, int, None] = None,
          diag: int | None = None) -> Span:
    """One fixed child: the span x..x."""
    return span(x, x, row=row, diag=diag)


def _interval(bound: Union[Bound, tuple[Bound, Bound]], free: str) -> tuple[Affine | None, ...]:
    single = bound is None or isinstance(bound, (int, Affine))
    lo, hi = (bound, bound) if single else bound
    return tuple(None if x is None else _affine(x, free) for x in (lo, hi))


def case(*body: Span, a: Union[Bound, tuple[Bound, Bound]] = None,
         b: Union[Bound, tuple[Bound, Bound]] = None, parity: int | None = None) -> Case:
    """A case: spans for the labels with a in ``a`` and b in ``b`` (a value or a pair
    (lo, hi), None for no bound) and b of the given parity."""
    a_lo, a_hi = _interval(a, "n")
    b_lo, b_hi = _interval(b, "an")
    if isinstance(parity, bool) or parity not in (None, 0, 1):
        raise ValueError(f"parity {parity!r} is not 0 or 1")
    for s in body:
        if not isinstance(s, Span):
            raise ValueError(f"{s!r} is not a span")
        # A span whose hi reads B steps as the cells it reads do, by 1 or,
        # under a parity guard, by 2: the child at the end of each cell is
        # then one step past the last one.  Its hi - lo, and that of every
        # other span, must be a multiple of the step on every label the
        # case guards; the parity fixes b mod 2.
        d = s.hi - s.lo
        if d.b and s.step != (1 if parity is None else 2):
            raise ValueError(f"span {s.lo!r}..{s.hi!r} in steps of {s.step}: a span whose "
                             "hi reads B steps by 1, or by 2 under a parity guard")
        if d.a % s.step or d.n % s.step or (d.b * (parity or 0) + d.c) % s.step:
            raise ValueError(f"span {s.lo!r}..{s.hi!r} in steps of {s.step} "
                             "does not end on a step in every guarded label")
    return Case(tuple(body), a_lo, a_hi, b_lo, b_hi, parity)


def _check_width(width: int, rule: Rule) -> None:
    for c in rule:
        for s in c.body:
            if (width == 1) != (s.row is None and s.diag is None):
                raise ValueError("a span of a two-component class names a row or a "
                                 "diagonal, and one of a one-component class neither")
        forms = [c.b_lo, c.b_hi] + [x for s in c.body for x in (s.lo, s.hi)]
        if width == 1 and (c.a_lo is not None or c.a_hi is not None
                           or any(x is not None and x.a for x in forms)):
            raise ValueError("a one-component class has no component A")


@dataclass(frozen=True)
class ClassSpec:
    id: str
    patterns: PatternSet
    label_stats: tuple[str, ...]  # the perms.STATISTICS name of each component
    root_label: Label
    rule: Rule

    def __post_init__(self):
        # Each field is checked for its type before the table is read: the
        # patterns are a tuple of parsed patterns, a label has one or two
        # components, one statistic each, and a table is a tuple of cases,
        # each with a tuple of spans.
        if not (isinstance(self.patterns, tuple) and all(
                isinstance(p, GeneralizedPattern) for p in self.patterns)):
            raise ValueError(f"{self.id}: {self.patterns!r} is not a tuple of patterns")
        stats, root = self.label_stats, self.root_label
        if not (isinstance(stats, tuple) and isinstance(root, tuple)
                and len(stats) == len(root) in (1, 2)):
            raise ValueError(f"{self.id}: a label is one or two components, one per statistic, "
                             f"not the root {root!r} with the statistics {stats!r}")
        for w in stats:
            if not isinstance(w, str) or w not in STATISTICS:
                raise ValueError(f"{self.id}: {w!r} is not a label statistic")
        for x in root:
            if isinstance(x, bool) or not isinstance(x, int) or x < 0:
                raise ValueError(f"{self.id}: the root label {root!r} is not of ints >= 0")
        if not (isinstance(self.rule, tuple) and all(
                isinstance(c, Case) and isinstance(c.body, tuple)
                and all(isinstance(s, Span) for s in c.body) for c in self.rule)):
            raise ValueError(f"{self.id}: a rule is a tuple of cases, each with a tuple of spans")
        # The table passes the builders' checks however it was built: each
        # case and span is rebuilt through ``case`` and ``span``, and the
        # spec keeps the rebuilt table, whose bounds are all affine forms.
        rule = tuple(case(*(span(s.lo, s.hi, row=s.row, diag=s.diag, step=s.step)
                            for s in c.body),
                          a=(c.a_lo, c.a_hi), b=(c.b_lo, c.b_hi), parity=c.parity)
                     for c in self.rule)
        _check_width(len(root), rule)
        object.__setattr__(self, "rule", rule)

    @cached_property
    def label_fns(self) -> tuple[Callable[[Perm], int], ...]:
        """The function of each label statistic, bound on first use."""
        return tuple(STATISTICS[w] for w in self.label_stats)

    def labels_of(self, perms: list[Perm]) -> list[Label]:
        """The label of each of ``perms``, in order: its statistics as one tuple."""
        return list(zip(*[map(f, perms) for f in self.label_fns]))

    @cached_property
    def kernel(self) -> Callable[[Rows, int], Rows]:
        """The level kernel of the spec's table, compiled on first use.

        ``level_kernel`` is imported here, so importing the package
        compiles neither its generator nor a kernel.
        """
        from .level_kernel import compile_kernel
        return compile_kernel(self.rule, self.id)


def _spec(id: str, patterns: str, stats: tuple[str, ...], root: Label, *rule: Case) -> ClassSpec:
    return ClassSpec(id, parse_pattern_set(patterns), stats, root, rule)


# s < r with r >= 2: the children (s + 1, j), j <= s, and (s, j), s < j <= r
_S_BELOW_R = (span(1, A, row=A + 1), span(A + 1, B, row=A))

REGISTRY: dict[str, ClassSpec] = {s.id: s for s in [
    _spec("C1", "2-1-3,[2]-31", ("r",), (1,),
          case(span(1, B - 1), point(B + 1))),
    # j runs over 1..r+1 with r - j odd
    _spec("C2", "2-1-3,[2o]-31", ("r",), (1,),
          case(span(2, B + 1, step=2), parity=1),
          case(span(1, B + 1, step=2), parity=0)),
    # Derived rule: appending j <= r leaves r - j entries strictly between
    # j and the old last entry, all to its left, so the new descent has
    # exactly r - j extensions; j = r + 1 creates no descent.
    _spec("C2e", "2-1-3,[2e]-31", ("r",), (1,),
          case(span(1, B, step=2), point(B + 1), parity=1),
          case(span(2, B, step=2), point(B + 1), parity=0)),
    _spec("C3", "2-1-3,2-3-41,3-2-41", ("r",), (1,),
          case(point(1), point(2), b=1),
          case(point(B - 1), point(B), point(B + 1), b=(2, None))),
    # (l, r) with l < r has no children
    _spec("C4", "2-1-3,12-3", ("l", "r"), (2, 1),
          case(span(1, A, row=A + 1), b=A),
          case(span(1, B, row=A + 1), point(B + 1, diag=0), b=(None, A - 1))),
    _spec("C5", "2-1-3,32-1", ("h", "r"), (0, 1),
          case(span(A + 1, B, diag=0), point(B + 1, row=A))),
    _spec("C6", "2-1-3,34-21", ("s", "r"), (0, 1),
          case(span(1, A, row=A + 1), point(A + 1, row=A), point(B, diag=1), b=(A + 1, None)),
          case(point(B + 1, row=A + 1), b=(None, A - 1))),
    # m >= 2 on every node; (m, r) with r > 1 and m > r, or m = r > 2, has no children
    _spec("C7", "1-2-34,2-1-3", ("m", "r"), (2, 1),
          case(point(1, row=A + 1), point(2, row=2), b=1),
          case(point(1, row=3), point(2, row=2), point(3, row=2), a=2, b=2),
          case(span(A + 1, B, row=A), point(1, row=A + 1), point(2, row=2),
               a=(2, None), b=(A + 1, None))),
    _spec("C8", "12-34,2-1-3", ("l", "r"), (2, 1),
          case(span(1, B, row=A + 1), point(B + 1, diag=0), b=(None, A - 1)),
          case(span(1, A, row=A + 1), point(A + 1, row=A), b=A),
          case(span(1, A, row=A + 1), span(A + 1, B, row=A), b=(A + 1, None))),
    _spec("C9", "1-23,3-12", ("r",), (1,),
          case(point(1), point(N + 1), b=1),
          case(span(1, B), b=(2, None))),
    _spec("C10", "1-23,3-12,34-21", ("s", "r"), (0, 1),
          case(*_S_BELOW_R, a=(1, None), b=(A + 1, None)),
          case(*_S_BELOW_R, a=0, b=(2, None)),
          case(point(1, row=0), point(N + 1, row=1), a=0, b=1),
          case(point(N + 1, row=A), a=(2, None), b=1)),
    _spec("C11", "1-23,34-21", ("s", "r"), (0, 1),
          case(*_S_BELOW_R, a=(1, None), b=(A + 1, None)),
          case(*_S_BELOW_R, a=0, b=(2, None)),
          case(span(2, N + 1, row=1), point(1, row=0), a=0, b=1),
          case(span(2, A, row=A + 1), span(A + 1, N + 1, row=A), a=(2, None), b=1)),
]}

CLASS_IDS = tuple(REGISTRY)

Rows = dict[int, list[int]]


def _level(label: Label) -> Rows:
    """The level that holds ``label`` once."""
    a, b = label if len(label) == 2 else (0, label[0])
    return {a: [0] * b + [1]}


def _children(spec: ClassSpec, label: Label, n: int) -> list[Label]:
    """The child labels of a length-n node labelled ``label``, in increasing order.

    They are one step of the spec's kernel from the level that holds
    ``label`` alone, read back as labels with multiplicity.  The kernel
    emits rows in increasing a and each row's cells in increasing b, so
    the list comes out sorted.
    """
    one = len(label) == 1
    return [(b,) if one else (a, b) for a, row in spec.kernel(_level(label), n).items()
            for b, m in enumerate(row) for _ in range(m)]


def _dp_levels(spec: ClassSpec, nmax: int) -> Iterator[Rows]:
    """The rows of levels 1..nmax, yielded one at a time.

    Row a of a level is the list of multiplicities of the labels (a, b),
    b = 0, 1, ..., with no trailing zeros; a one-component class has the
    single row 0 for its labels (b,).  Each level comes from the one
    before by the spec's level kernel; ``level_kernel`` describes how it
    moves each row's cells.
    """
    if isinstance(nmax, bool):
        raise ValueError(f"a length is an int, not the bool {nmax}")
    if nmax < 1:
        return
    level = _level(spec.root_label)
    yield level
    for n in range(1, nmax):
        level = spec.kernel(level, n)
        yield level


def iter_rule_counts(spec: ClassSpec, nmax: int) -> Iterator[int]:
    """Level totals 1..nmax from the label dynamic program, each yielded
    as soon as its level is computed."""
    return (sum(map(sum, rows.values())) for rows in _dp_levels(spec, nmax))


def count_by_rule(spec: ClassSpec, nmax: int) -> list[int]:
    """Level totals 1..nmax from the label dynamic program."""
    return list(iter_rule_counts(spec, nmax))


@dataclass(frozen=True)
class RefinedCount:
    """Coefficient of u^a v^b = number of length-n avoiders with labels (a, b)."""

    n: int
    poly: Poly


def refined_by_rule(spec: ClassSpec, nmax: int) -> list[RefinedCount]:
    """Per-level polynomials in which a label (a,) or (a, b) is u^a v^b.

    A label is exactly its monomial's exponents, so each level's term map
    is read straight off its DP rows: cell b of row a is the term (a, b),
    or (b, 0) for a one-component label (b,), for each nonzero cell.
    """
    two = len(spec.root_label) == 2
    out = []
    for n, rows in enumerate(_dp_levels(spec, nmax), start=1):
        poly = Poly.__new__(Poly)
        poly.terms = {(a, b) if two else (b, 0): m
                      for a, row in rows.items() for b, m in enumerate(row) if m}
        out.append(RefinedCount(n, poly))
    return out


@dataclass(frozen=True)
class RuleReport:
    class_id: str
    max_n: int
    ok: bool
    labels_seen: frozenset[Label]
    counterexample: tuple[Perm, tuple[Label, ...], tuple[Label, ...]] | None

    def __str__(self) -> str:
        if self.ok:
            return (f"{self.class_id}: rule matches tree up to n={self.max_n} "
                    f"({len(self.labels_seen)} distinct labels)")
        perm, predicted, actual = self.counterexample
        return (f"{self.class_id}: MISMATCH at {perm}: "
                f"rule predicts {predicted}, tree has {actual}")


def verify_rule(spec: ClassSpec, nmax: int) -> RuleReport:
    """Compare rule-predicted child labels with the actual tree to length nmax.

    Grows the tree parent by parent from the empty permutation, reading each
    parent's children from ``kept_children``, so it tests the same children
    as ``iter_tree_levels``.  A label's children are predicted by one step
    of the level kernel that ``count_by_rule`` and ``refined_by_rule`` run
    (``_children``), once per distinct label of a level.  The kernel is
    linear in its level, so a pass to nmax shows that the dynamic
    program's levels 1..nmax are the tree's labelled levels.  A level is
    held as two parallel lists, its nodes and their labels, and each
    parent's children are labelled together by ``ClassSpec.labels_of``.
    """
    if isinstance(nmax, bool):
        raise ValueError(f"a length is an int, not the bool {nmax}")
    seen: set[Label] = set()
    root = (1,)
    [root_label] = spec.labels_of([root])
    if root_label != spec.root_label:
        return RuleReport(spec.id, nmax, False, frozenset(),
                          (root, (spec.root_label,), (root_label,)))
    forms = tree_forms(spec.patterns)
    level = kept_children((), forms) if nmax >= 1 else []
    labels = spec.labels_of(level)
    for n in range(1, nmax):
        predicted: dict[Label, list[Label]] = {}
        nxt: list[Perm] = []
        nxt_labels: list[Label] = []
        for perm, label in zip(level, labels):
            seen.add(label)
            kids = kept_children(perm, forms)
            kid_labels = spec.labels_of(kids)
            actual = sorted(kid_labels)
            if label not in predicted:
                predicted[label] = _children(spec, label, n)
            if actual != predicted[label]:
                return RuleReport(spec.id, nmax, False, frozenset(seen),
                                  (perm, tuple(predicted[label]), tuple(actual)))
            nxt += kids
            nxt_labels += kid_labels
        level, labels = nxt, nxt_labels
    seen.update(labels)
    return RuleReport(spec.id, nmax, True, frozenset(seen), None)
