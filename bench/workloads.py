"""The benchmark's workloads: inputs made from a seed, operations, oracles.

Each workload is a list of operations.  An operation calls public
functions of patavoid and compares every result with an oracle: brute
force, a ``formula_value`` sequence, or agreement between two routes.
One compared value is one attempted check; a disagreement or an exception
is a failed one.  The seed fixes the order of the classes and, in
``routes_small_n``, the ad-hoc pattern sets; the amount of work per class
is fixed so that seeds differ in inputs but not in cost.

Why these three workloads:

* ``routes_small_n`` puts nearly all work in the pattern matcher, used two
  ways: brute force mostly rejects (a few per cent of S_7 avoid) while
  tree growth mostly keeps (a third or more of the children), so a change
  to ``avoids`` that helps one use and costs the other shows here.
* ``identities_symbolic`` does no pattern matching; it exercises the series
  kernel on bivariate polynomial coefficients and the closed-form dispatch,
  including the K1/M/F fallback to the succession rules.
* ``counts_deep`` runs the rules DP on plain counts to large n and the series
  kernel on scalar coefficients (Newton to order 200 for J and Q), so a
  scalar fast path is told apart from symbolic work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from patavoid import bijections, closed_forms, patterns, rules
from patavoid import enumerate as enumeration

WORKLOADS = ("routes_small_n", "identities_symbolic", "counts_deep")

ROUTES_BRUTE_N = 7      # brute force over S_1 .. S_7
ROUTES_N = 8            # tree, rule and u=v=1 series counts; verify_rule
BIJECTION_N = 8         # tree levels fed to the path bijections
ADHOC_SETS = 6          # seeded ad-hoc pattern sets, brute against tree
ADHOC_N = 6

IDENTITY_ORDER = 25     # refined rule series against the closed forms
IDENTITY_SUM_ORDER = 30  # P, R, T

# counts_deep: rules DP depth, also the order of the u=v=1 closed form.
# The sums stay at a modest order: T costs the same symbolic work as in
# identities_symbolic whatever u is set to.
DEEP_ORDER = {
    "C1": 150, "C2": 200, "C2e": 200, "C3": 200, "C4": 80, "C5": 80,
    "C6": 120, "C7": 200, "C8": 80, "C9": 50, "C10": 50, "C11": 25,
}
# Known counting sequences: class -> (formula, shift), count(n) = f(n + shift).
FORMULAS = {
    "C1": ("motzkin", -1), "C2": ("cat3", 0), "C2e": ("even_formula", 0),
    "C5": ("pow2", 0), "C6": ("west", 0), "C7": ("fib_odd", 0),
    "C9": ("b_rec", 0),
}


class Checker:
    """Counts checks and failures; keeps the first disagreement."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: str | None = None
        # Tree counts of ad-hoc sets that are not closed under last-entry
        # deletion: outside the tree route's precondition, kept apart.
        self.adhoc_checks = 0
        self.adhoc_mismatches = 0
        self.adhoc_first: str | None = None

    def compare(self, subject: str, at: str, values: dict[str, object]) -> bool:
        """One check: every route in ``values`` gave the same value."""
        self.attempted += 1
        first = next(iter(values.values()))
        if all(v == first for v in values.values()):
            return True
        self.fail(subject, at, values)
        return False

    def fail(self, subject: str, at: str, values: dict[str, object]) -> None:
        self.failed += 1
        if self.first is None:
            self.first = describe(subject, at, values)

    def error(self, subject: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(subject, "-", {"exception": f"{type(exc).__name__}: {exc}"})


def describe(subject: str, at: str, values: dict[str, object]) -> str:
    routes = ", ".join(f"{route}={value}" for route, value in values.items())
    return f"{subject} {at}: {routes}"


@dataclass
class Inputs:
    workload: str
    seed: int
    class_ids: list[str]
    adhoc: list[str] = field(default_factory=list)


@dataclass
class Op:
    run: Callable[[], None]
    span: str | None = None  # traced as "class.<id>" when it is one class's work


def _draw_pattern(rng: random.Random) -> str:
    k = rng.choice((3, 4))
    letters = [str(x) for x in rng.sample(range(1, k + 1), k)]
    glued = [rng.random() < 0.5 for _ in range(k - 1)]
    if rng.random() < 0.5:
        # vincular: at least one adjacency and one dash when there is room
        if not any(glued):
            glued[rng.randrange(k - 1)] = True
        elif all(glued) and k > 2:
            glued[rng.randrange(k - 1)] = False
    else:
        bar = rng.choice((0, k - 1))
        glued[0 if bar == 0 else k - 2] = False
        letters[bar] = f"[{letters[bar]}{rng.choice(('', 'o', 'e'))}]"
    out = letters[0]
    for j in range(1, k):
        out += ("" if glued[j - 1] else "-") + letters[j]
    return out


def make_inputs(workload: str, seed: int) -> Inputs:
    """The operation inputs of one workload; the same seed gives the same."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    class_ids = list(rules.CLASS_IDS)
    rng.shuffle(class_ids)
    inputs = Inputs(workload, seed, class_ids)
    if workload == "routes_small_n":
        for _ in range(ADHOC_SETS):
            text = ",".join(_draw_pattern(rng) for _ in range(rng.choice((1, 2))))
            patterns.parse_pattern_set(text)
            inputs.adhoc.append(text)
    return inputs


def _at_one(name: str) -> dict:
    variables = closed_forms.REGISTRY[name].variables
    return dict(at_u=1 if "u" in variables else None,
                at_v=1 if "v" in variables else None)


def _counts(series, nmax: int) -> list:
    return [series.coefficient(n).constant_value() for n in range(1, nmax + 1)]


def _compare_lists(check: Checker, subject: str, named: dict[str, list]) -> None:
    for i in range(min(len(v) for v in named.values())):
        check.compare(subject, f"n={i + 1}", {r: v[i] for r, v in named.items()})


def _guarded(check: Checker, subject: str, fn: Callable[[], None]) -> Callable[[], None]:
    def run():
        try:
            fn()
        except Exception as exc:  # an operation that raises is a failed check
            check.error(subject, exc)
    return run


# -- routes_small_n ----------------------------------------------------------

def _routes_class(check: Checker, cid: str) -> None:
    spec = rules.REGISTRY[cid]
    name = closed_forms.GF_FOR_CLASS[cid]
    subject = f"class {cid}"
    brute = [enumeration.count_brute(spec.patterns, n)
             for n in range(1, ROUTES_BRUTE_N + 1)]
    tree = enumeration.count_tree(spec.patterns, ROUTES_N)
    rule = rules.count_by_rule(spec, ROUTES_N)
    gf = _counts(closed_forms.closed_form(name, ROUTES_N, **_at_one(name)), ROUTES_N)
    _compare_lists(check, subject, {"brute": brute, "tree": tree})
    _compare_lists(check, subject, {"tree": tree, "rule": rule, "gf": gf})
    report = rules.verify_rule(spec, ROUTES_N)
    check.compare(subject, f"n<={ROUTES_N}", {"verify_rule": report.ok, "expected": True})


def _bijections(check: Checker) -> None:
    B = bijections
    p213 = patterns.parse_pattern_set("2-1-3")
    pbar = patterns.parse_pattern_set("2-1-3,[2]-31")
    pglued = patterns.parse_pattern_set("2-1-3,12-3")
    podd = patterns.parse_pattern_set("2-1-3,[2o]-31")
    for n, level in _levels(p213, BIJECTION_N):
        images = [B.phi(p) for p in level]
        back = [B.phi_inverse(d) for d in images]
        check.compare("phi", f"n={n}", {"round trip": back, "input": level})
        check.compare("phi", f"n={n}", {"images": sorted(images),
                                        "dyck paths": sorted(B.dyck_paths(n))})
        check.compare("phi", f"n={n}", {
            "UDU-free images": ["UDU" not in d for d in images],
            "avoids [2]-31": [patterns.avoids(p, pbar) for p in level]})
        check.compare("phi", f"n={n}", {
            "UUU-free images": ["UUU" not in d for d in images],
            "avoids 12-3": [patterns.avoids(p, pglued) for p in level]})
    for n in range(1, BIJECTION_N + 1):
        domain = [d for d in B.dyck_paths(n) if "UDU" not in d]
        motz = [B.callan(d) for d in domain]
        check.compare("callan", f"n={n}", {"round trip": [B.callan_inverse(m) for m in motz],
                                           "input": domain})
        check.compare("callan", f"n={n}", {"images": sorted(motz),
                                           "motzkin paths": sorted(B.motzkin_paths(n - 1))})
        small = [B.udu_uuu(d) for d in domain]
        check.compare("udu_uuu", f"n={n}", {"round trip": [B.udu_uuu_inverse(s) for s in small],
                                            "input": domain})
        check.compare("udu_uuu", f"n={n}", {
            "images": sorted(small),
            "UUU-free paths": sorted(d for d in B.dyck_paths(n - 1) if "UUU" not in d)})
    for n, level in _levels(podd, BIJECTION_N):
        paths = [B.subdiag(p) for p in level]
        check.compare("subdiag", f"n={n}", {"round trip": [B.subdiag_inverse(s) for s in paths],
                                            "input": level})
        check.compare("subdiag", f"n={n}", {"images": sorted(paths),
                                            "subdiagonal paths": sorted(B.subdiagonal_paths(n))})


def _levels(pats, nmax: int):
    return zip(range(1, nmax + 1), enumeration.iter_tree_levels(pats, nmax))


def _adhoc(check: Checker, text: str) -> None:
    pats = patterns.parse_pattern_set(text)
    brute = [enumeration.count_brute(pats, n) for n in range(1, ADHOC_N + 1)]
    tree = enumeration.count_tree(pats, ADHOC_N)
    check.adhoc_checks += ADHOC_N
    if brute == tree:
        check.attempted += ADHOC_N
        return
    values = {"brute": brute, "tree": tree}
    try:
        enumeration.closure_check(pats, ADHOC_N)
    except enumeration.ClosureError as exc:
        # The tree route is only sound on classes closed under last-entry
        # deletion; a set that is not is a known tree undercount, counted
        # and reported on its own.
        check.adhoc_mismatches += sum(b != t for b, t in zip(brute, tree))
        if check.adhoc_first is None:
            check.adhoc_first = describe(f"set {text}", f"n<={ADHOC_N}", values) \
                + f" (not closed: {exc})"
        return
    _compare_lists(check, f"set {text}", values)


# -- identities_symbolic -------------------------------------------------------

def _identity(check: Checker, cid: str) -> None:
    name = closed_forms.GF_FOR_CLASS[cid]
    spec = closed_forms.REGISTRY[name]
    order = IDENTITY_SUM_ORDER if spec.kind == "sum" else IDENTITY_ORDER
    subject = f"class {cid} ({name})"
    cand = closed_forms.series_from_refined(rules.refined_by_rule(rules.REGISTRY[cid], order),
                                            order)
    cand = cand.subs_one(u="u" not in spec.variables, v="v" not in spec.variables)
    _, residual = closed_forms.verify_identity(name, cand, order)
    check.compare(subject, f"order {order}",
                  {"verify_identity residual": residual, "expected": None})
    if spec.kind == "sum":
        # verify_identity already compares a sum kind with its expansion.
        return
    expanded = closed_forms.closed_form(name, order)
    for n in range(order + 1):
        check.compare(subject, f"t^{n}", {"rule": cand.coefficient(n),
                                           "closed_form": expanded.coefficient(n)})


# -- counts_deep -----------------------------------------------------------------

def _deep(check: Checker, cid: str) -> None:
    spec = rules.REGISTRY[cid]
    name = closed_forms.GF_FOR_CLASS[cid]
    order = DEEP_ORDER[cid]
    subject = f"class {cid} ({name})"
    rule = rules.count_by_rule(spec, order)
    gf = _counts(closed_forms.closed_form(name, order, **_at_one(name)), order)
    named = {"rule": rule, "gf": gf}
    if cid in FORMULAS:
        formula, shift = FORMULAS[cid]
        named[formula] = [closed_forms.formula_value(formula, n + shift)
                          for n in range(1, order + 1)]
    _compare_lists(check, subject, named)


def build_ops(inputs: Inputs, check: Checker) -> list[Op]:
    """The operations of one pass, in seeded order."""
    if inputs.workload == "routes_small_n":
        body = _routes_class
    elif inputs.workload == "identities_symbolic":
        body = _identity
    else:
        body = _deep
    ops = [Op(_guarded(check, f"class {cid}", lambda cid=cid: body(check, cid)),
              span=f"class.{cid}")
           for cid in inputs.class_ids]
    if inputs.workload == "routes_small_n":
        ops.append(Op(_guarded(check, "bijections", lambda: _bijections(check))))
        ops += [Op(_guarded(check, f"set {text}", lambda text=text: _adhoc(check, text)))
                for text in inputs.adhoc]
    return ops
