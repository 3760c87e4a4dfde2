"""The registry of succession rules for the twelve studied classes.

Each class couples a pattern set with labels drawn from the statistics of
``perms.statistic`` and a rule: the label of a length-n node, with n,
determines the multiset of its children's labels.  The paper's third label
for C9-C11 is the length, which the rule takes as its argument n.
A rule returns them as ``(fixed, spans)``: a tuple of labels, and a tuple
of spans ``(template, lo, hi, step)``, each standing for the labels
``template`` with j put in place of the placeholder ``J``, for lo <= j <= hi
in steps of ``step``.  Guards such as ``l > r`` stay ordinary code.
``ClassSpec.children`` lists the labels one by one; ``count_by_rule`` runs a
dynamic program over label multiplicities that adds each span as one
difference-list update, so a parent with O(n) children costs O(1) there.
``verify_rule`` compares ``children`` with the tree ``iter_tree_levels``
grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator

from .enumerate import iter_tree_levels
from .patterns import PatternSet, parse_pattern_set
from .patterns import avoids  # unused; bench/tracing.py rebinds and checks rules.avoids
from .perms import Perm, reduce_to_perm, statistic
from .series import Poly

Label = tuple[int, ...]


class _Placeholder:
    __slots__ = ()

    def __repr__(self) -> str:
        return "J"


J = _Placeholder()  # the varying component of a span's template

Template = tuple  # a Label with J in one or more components
Span = tuple[Template, int, int, int]  # (template, lo, hi, step)
Successors = tuple[tuple[Label, ...], tuple[Span, ...]]  # (fixed, spans)


@dataclass(frozen=True)
class ClassSpec:
    id: str
    patterns: PatternSet
    label_stats: tuple[str, ...]  # the perms.statistic name of each component
    root_label: Label
    rule: Callable[[Label, int], Successors]

    def label_of(self, perm: Perm) -> Label:
        return tuple(statistic(perm, w) for w in self.label_stats)

    def children(self, label: Label, n: int) -> list[Label]:
        """The child labels of a length-n node: the spans' labels, then the fixed ones."""
        fixed, spans = self.rule(label, n)
        out = [tuple([j if x is J else x for x in template])
               for template, lo, hi, step in spans
               for j in range(lo, hi + 1, step)]
        out += fixed
        return out


def _c1(label: Label, n: int) -> Successors:
    (r,) = label
    return ((r + 1,),), (((J,), 1, r - 1, 1),)


def _c2(label: Label, n: int) -> Successors:
    # j runs over 1..r+1 with r - j odd
    (r,) = label
    return (), (((J,), 2 - (r - 1) % 2, r + 1, 2),)


def _c2e(label: Label, n: int) -> Successors:
    # Derived rule: appending j <= r leaves r - j entries strictly between
    # j and the old last entry, all to its left, so the new descent has
    # exactly r - j extensions; j = r + 1 creates no descent.
    (r,) = label
    return ((r + 1,),), (((J,), 2 - r % 2, r, 2),)


def _c3(label: Label, n: int) -> Successors:
    (r,) = label
    if r == 1:
        return ((1,), (2,)), ()
    return ((r - 1,), (r,), (r + 1,)), ()


def _c4(label: Label, n: int) -> Successors:
    l, r = label
    if l == r:
        return (), (((l + 1, J), 1, l, 1),)
    if l > r:
        return ((r + 1, r + 1),), (((l + 1, J), 1, r, 1),)
    return (), ()


def _c5(label: Label, n: int) -> Successors:
    h, r = label
    return ((h, r + 1),), (((J, J), h + 1, r, 1),)


def _c6(label: Label, n: int) -> Successors:
    s, r = label
    if s < r:
        return ((s, s + 1), (r, r + 1)), (((s + 1, J), 1, s, 1),)
    if s > r:
        return ((s + 1, r + 1),), ()
    return (), ()


def _c7(label: Label, n: int) -> Successors:
    m, r = label
    if r == 1:
        return ((m + 1, 1), (2, 2)), ()
    if m == r == 2:
        return ((3, 1), (2, 2), (2, 3)), ()
    if m < r:
        return ((m + 1, 1), (2, 2)), (((m, J), m + 1, r, 1),)
    return (), ()


def _c8(label: Label, n: int) -> Successors:
    l, r = label
    if l > r:
        return ((r + 1, r + 1),), (((l + 1, J), 1, r, 1),)
    if l == r:
        return ((l, l + 1),), (((l + 1, J), 1, l, 1),)
    return (), (((l + 1, J), 1, l, 1), ((l, J), l + 1, r, 1))


def _c9(label: Label, n: int) -> Successors:
    (r,) = label
    if r == 1:
        return ((1,), (n + 1,)), ()
    return (), (((J,), 1, r, 1),)


def _c10(label: Label, n: int) -> Successors:
    s, r = label
    if s < r != 1:
        return (), (((s + 1, J), 1, s, 1), ((s, J), s + 1, r, 1))
    if (s, r) == (0, 1):
        return ((0, 1), (1, n + 1)), ()
    if s > r == 1:
        return ((s, n + 1),), ()
    return (), ()


def _c11(label: Label, n: int) -> Successors:
    s, r = label
    if s < r != 1:
        return (), (((s + 1, J), 1, s, 1), ((s, J), s + 1, r, 1))
    if (s, r) == (0, 1):
        return ((0, 1),), (((1, J), 2, n + 1, 1),)
    if s > r == 1:
        return (), (((s + 1, J), 2, s, 1), ((s, J), s + 1, n + 1, 1))
    return (), ()


def _spec(id: str, patterns: str, stats: tuple[str, ...], root: Label,
          rule: Callable[[Label, int], Successors]) -> ClassSpec:
    return ClassSpec(id, parse_pattern_set(patterns), stats, root, rule)


REGISTRY: dict[str, ClassSpec] = {s.id: s for s in [
    _spec("C1", "2-1-3,[2]-31", ("r",), (1,), _c1),
    _spec("C2", "2-1-3,[2o]-31", ("r",), (1,), _c2),
    _spec("C2e", "2-1-3,[2e]-31", ("r",), (1,), _c2e),
    _spec("C3", "2-1-3,2-3-41,3-2-41", ("r",), (1,), _c3),
    _spec("C4", "2-1-3,12-3", ("l", "r"), (2, 1), _c4),
    _spec("C5", "2-1-3,32-1", ("h", "r"), (0, 1), _c5),
    _spec("C6", "2-1-3,34-21", ("s", "r"), (0, 1), _c6),
    _spec("C7", "1-2-34,2-1-3", ("m", "r"), (2, 1), _c7),
    _spec("C8", "12-34,2-1-3", ("l", "r"), (2, 1), _c8),
    _spec("C9", "1-23,3-12", ("r",), (1,), _c9),
    _spec("C10", "1-23,3-12,34-21", ("s", "r"), (0, 1), _c10),
    _spec("C11", "1-23,34-21", ("s", "r"), (0, 1), _c11),
]}

CLASS_IDS = tuple(REGISTRY)


def _dp_levels(spec: ClassSpec, nmax: int) -> Iterator[dict[Label, int]]:
    """Label -> multiplicity maps for levels 1..nmax, yielded one at a time.

    Fixed children are added one by one.  The spans that share a template
    and a step add into one difference list over j, prefix-summed per
    residue class mod the step, so each of their child labels is written
    once per level however many parents reach it.
    """
    if nmax < 1:
        return
    rule = spec.rule
    level = {spec.root_label: 1}
    yield level
    for n in range(1, nmax):
        nxt: dict[Label, int] = {}
        get = nxt.get
        groups: dict[tuple[Template, int], list[tuple[int, int, int]]] = {}
        for label, mult in level.items():
            fixed, spans = rule(label, n)
            for child in fixed:
                nxt[child] = get(child, 0) + mult
            for template, lo, hi, step in spans:
                if lo <= hi:
                    # end: the first j past hi in lo's residue class
                    end = hi - (hi - lo) % step + step
                    groups.setdefault((template, step), []).append((lo, end, mult))
        for (template, step), ranges in groups.items():
            base = min(lo for lo, _, _ in ranges)
            top = max(end for _, end, _ in ranges)
            diff = [0] * (top - base + 1)
            for lo, end, mult in ranges:
                diff[lo - base] += mult
                diff[end - base] -= mult
            slots = [i for i, x in enumerate(template) if x is J]
            child = list(template)
            for first in range(base, base + step):
                sums = accumulate(diff[first - base::step])
                for j, count in zip(range(first, top, step), sums):
                    if count:
                        for i in slots:
                            child[i] = j
                        key = tuple(child)
                        nxt[key] = get(key, 0) + count
        level = nxt
        yield level


def count_by_rule(spec: ClassSpec, nmax: int) -> list[int]:
    """Level totals 1..nmax from the label dynamic program."""
    return [sum(level.values()) for level in _dp_levels(spec, nmax)]


@dataclass(frozen=True)
class RefinedCount:
    """Coefficient of u^a v^b = number of length-n avoiders with labels (a, b)."""

    n: int
    poly: Poly


def refined_by_rule(spec: ClassSpec, nmax: int) -> list[RefinedCount]:
    """Per-level polynomials in which a label (a,) or (a, b) is u^a v^b.

    A label is exactly its monomial's exponents, so each DP level is the
    polynomial's term map once a 0 is appended to one-component labels.
    """
    pad = (0,) * (2 - len(spec.root_label))
    return [RefinedCount(n, Poly({label + pad: mult for label, mult in level.items()}))
            for n, level in enumerate(_dp_levels(spec, nmax), start=1)]


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
    """Compare rule-predicted child labels with the levels of the actual tree."""
    seen: set[Label] = set()
    root = (1,)
    if spec.label_of(root) != spec.root_label:
        return RuleReport(spec.id, nmax, False, frozenset(),
                          (root, (spec.root_label,), (spec.label_of(root),)))
    parents: list[tuple[Perm, Label]] = []
    for n, level in enumerate(iter_tree_levels(spec.patterns, nmax)):
        # level n + 1; a child's parent is its last entry deleted, rest relabeled
        nodes = [(perm, spec.label_of(perm)) for perm in level]
        children: dict[Perm, list[Label]] = {}
        for child, label in nodes:
            children.setdefault(reduce_to_perm(child[:-1]), []).append(label)
        for perm, label in parents:
            seen.add(label)
            actual = sorted(children.get(perm, []))
            predicted = sorted(spec.children(label, n))
            if actual != predicted:
                return RuleReport(spec.id, nmax, False, frozenset(seen),
                                  (perm, tuple(predicted), tuple(actual)))
        parents = nodes
    seen.update(label for _, label in parents)
    return RuleReport(spec.id, nmax, True, frozenset(seen), None)
