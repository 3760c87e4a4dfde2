"""Command-line front end.

Subcommands: count (one class or ad-hoc pattern set, four methods), verify
(succession rules and generating-function identities), expand (print a
truncated series), biject (apply one of the lattice-path maps), report
(cross-method comparison table).  Exit status 0 means every requested check
agreed, 1 means a mismatch, 2 means a usage error or an input the requested
route refuses, 141 (128 + SIGPIPE) that the reader closed stdout.

``ROUTES`` is the one description of the four counting routes that the
commands read.  Brute force and the tree count any pattern set, the rule DP
and the closed form (gf) a registered class only.  Brute force reaches
n = ``BRUTE_GUARD``, the others any n: ``count`` refuses a route out of its
scope or past its reach, and ``report`` prints ``-`` past it.  ``verify``
runs each class's route checks in table order (the rule against the tree,
then the closed form against the rule's series) and stops that class at its
first failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple

from . import bijections
from .closed_forms import GF_FOR_CLASS, REGISTRY as GF_REGISTRY, closed_form, \
    gf_counts, rule_series, verify_identity
from .enumerate import BRUTE_GUARD, count_brute, iter_tree_levels
from .patterns import parse_pattern_set
from .perms import format_perm, parse_perm
from .rules import CLASS_IDS, REGISTRY, iter_rule_counts, verify_rule


class Route(NamedTuple):
    """One counting route: what it counts, how far, and what it checks.

    ``counts(cid, pats, max_n)`` yields the counts for n = 1..max_n, each as
    soon as the route has it (gf expands all orders at once); ``cid`` is
    None for an ad-hoc set.  ``any_set`` is False for a route that answers
    registered classes only.  ``reach`` is None, or the largest n the route
    answers and the name of that bound.  ``check(cid, args)``, if any, is the
    route's ``verify`` of one class: it prints one line and returns whether
    the check holds.
    """

    counts: Callable[..., Iterable[int]]
    any_set: bool
    reach: tuple[int, str] | None
    check: Callable[..., bool] | None


def _check_rule(cid, args) -> bool:
    report = verify_rule(REGISTRY[cid], args.max_n)
    print(report)
    return report.ok


def _check_gf(cid, args) -> bool:
    name = GF_FOR_CLASS[cid]
    ok, residual = verify_identity(name, rule_series(cid, args.order), args.order)
    print(f"{cid}: {name} identity holds to order {args.order}" if ok else
          f"{cid}: {name} identity FAILS, residual ({residual[1]})t^{residual[0]}")
    return ok


# The routes in report column order.  An entry looks up the module's names
# when it is called, so that a test may replace them.
ROUTES = {
    "brute": Route(lambda cid, pats, max_n: (count_brute(pats, n) for n in range(1, max_n + 1)),
                   True, (BRUTE_GUARD, "brute-force guard"), None),
    "tree": Route(lambda cid, pats, max_n: map(len, iter_tree_levels(pats, max_n)),
                  True, None, None),
    "rule": Route(lambda cid, pats, max_n: iter_rule_counts(REGISTRY[cid], max_n),
                  False, None, _check_rule),
    "gf": Route(lambda cid, pats, max_n: gf_counts(cid, max_n), False, None, _check_gf),
}


def _reached(route: Route, cid, pats, max_n: int) -> list[int | None]:
    """The counts for n = 1..max_n by ``route``, None past its reach."""
    reach = min(max_n, route.reach[0]) if route.reach else max_n
    return [*route.counts(cid, pats, reach), *[None] * (max_n - reach)]


# The lattice-path maps as (forward, inverse), each from text to text.
MAPS = {
    "phi": (lambda s: bijections.phi(parse_perm(s)),
            lambda s: format_perm(bijections.phi_inverse(s))),
    "callan": (bijections.callan, bijections.callan_inverse),
    "udu_uuu": (bijections.udu_uuu, bijections.udu_uuu_inverse),
    "subdiag": (lambda s: bijections.subdiag(parse_perm(s)),
                lambda s: format_perm(bijections.subdiag_inverse(s))),
}


def _cmd_count(args) -> int:
    route = ROUTES[args.method]
    if not (route.any_set or args.klass):
        raise ValueError(f"--method {args.method} requires --class")
    if route.reach and args.max_n > route.reach[0]:
        raise ValueError(f"--max-n {args.max_n} is above the {route.reach[1]} {route.reach[0]}")
    pats = REGISTRY[args.klass].patterns if args.klass else parse_pattern_set(args.avoid)
    for n, c in enumerate(route.counts(args.klass, pats, args.max_n), start=1):
        print(f"{n} {c}", flush=True)
    return 0


def _cmd_verify(args) -> int:
    # all() stops a class at its first failed check
    ok = [all(route.check(cid, args) for route in ROUTES.values() if route.check)
          for cid in ([args.klass] if args.klass else CLASS_IDS)]
    return 0 if all(ok) else 1


def _cmd_expand(args) -> int:
    series = closed_form(args.gf, args.order, at_u=args.at_u, at_v=args.at_v)
    print(series)
    return 0


def _cmd_biject(args) -> int:
    print(MAPS[args.map][args.inverse](args.input))
    return 0


def _cmd_report(args) -> int:
    routes = [r for r in ROUTES if not (args.no_brute and r == "brute")]
    rows = []
    for cid in CLASS_IDS:
        pats = REGISTRY[cid].patterns
        counts = {r: _reached(ROUTES[r], cid, pats, args.max_n) for r in routes}
        for n in range(1, args.max_n + 1):
            row = {r: counts[r][n - 1] if r in counts else None for r in ROUTES}
            agree = len({v for v in row.values() if v is not None}) == 1
            rows.append((cid, n, row, agree))
    if args.format == "json":
        print(json.dumps([
            {"class": cid, "n": n,
             "counts": {r: None if v is None else str(v) for r, v in row.items()},
             "agree": agree}
            for cid, n, row, agree in rows], indent=2))
    elif args.format == "csv":
        print(",".join(["class", "n", *ROUTES, "agree"]))
        for cid, n, row, agree in rows:
            cells = ("" if v is None else str(v) for v in row.values())
            print(",".join([cid, str(n), *cells, str(agree).lower()]))
    else:
        for cid, n, row, agree in rows:
            cells = (f"{r}={'-' if v is None else v}" for r, v in row.items())
            print(" ".join([cid, f"n={n}", *cells, "ok" if agree else "MISMATCH"]))
    return 0 if all(agree for *_, agree in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patavoid",
        description="Count and map permutations avoiding generalized patterns.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counts by length for one class")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="klass", choices=CLASS_IDS)
    group.add_argument("--avoid", help="comma-separated pattern set")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--method", choices=tuple(ROUTES), default="tree")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="succession rules and series identities")
    p.add_argument("--class", dest="klass", choices=CLASS_IDS)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="print a generating-function expansion")
    p.add_argument("--gf", required=True, choices=sorted(GF_REGISTRY))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--at-u", type=int, choices=(1,), default=None)
    p.add_argument("--at-v", type=int, choices=(1,), default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("biject", help="apply one of the lattice-path maps")
    p.add_argument("--map", required=True, choices=tuple(MAPS))
    p.add_argument("--input", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("report", help="cross-method comparison for all classes")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--no-brute", action="store_true")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, low in (("max_n", 1), ("order", 0)):
        if getattr(args, dest, low) < low:
            parser.error(f"--{dest.replace('_', '-')} must be at least {low}")
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; a null stdout keeps the flush at exit from failing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
