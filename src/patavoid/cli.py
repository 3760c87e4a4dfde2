"""Command-line front end.

Subcommands: count (one class or ad-hoc pattern set, four methods), verify
(succession rules and generating-function identities), expand (print a
truncated series), biject (apply one of the lattice-path maps), report
(cross-method comparison table).  Exit status 0 means every requested check
agreed, 1 means a mismatch, 2 means a usage error or an input the requested
route refuses, 141 (128 + SIGPIPE) that the reader closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bijections
from .closed_forms import GF_FOR_CLASS, REGISTRY as GF_REGISTRY, closed_form, \
    gf_counts, rule_series, verify_identity
from .enumerate import BRUTE_GUARD, count_brute, iter_tree_levels
from .patterns import parse_pattern_set
from .perms import format_perm, parse_perm
from .rules import CLASS_IDS, REGISTRY, iter_rule_counts, verify_rule


# The counting routes in report column order: (class id or None, pattern
# set, max_n) -> counts for n = 1..max_n, None past the brute-force guard,
# each yielded as soon as its route has it (gf expands all orders at once).
ROUTES = {
    "brute": lambda cid, pats, max_n: (
        count_brute(pats, n) if n <= BRUTE_GUARD else None
        for n in range(1, max_n + 1)),
    "tree": lambda cid, pats, max_n: map(len, iter_tree_levels(pats, max_n)),
    "rule": lambda cid, pats, max_n: iter_rule_counts(REGISTRY[cid], max_n),
    "gf": lambda cid, pats, max_n: gf_counts(cid, max_n),
}

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
    if args.method in ("rule", "gf") and not args.klass:
        raise ValueError(f"--method {args.method} requires --class")
    if args.method == "brute" and args.max_n > BRUTE_GUARD:
        raise ValueError(f"--max-n {args.max_n} is above the brute-force "
                         f"guard {BRUTE_GUARD}")
    pats = (REGISTRY[args.klass].patterns if args.klass
            else parse_pattern_set(args.avoid))
    counts = ROUTES[args.method](args.klass, pats, args.max_n)
    for n, c in enumerate(counts, start=1):
        print(f"{n} {c}", flush=True)
    return 0


def _cmd_verify(args) -> int:
    ids = [args.klass] if args.klass else list(CLASS_IDS)
    failed = False
    for cid in ids:
        report = verify_rule(REGISTRY[cid], args.max_n)
        print(report)
        if not report.ok:
            failed = True
            continue
        name = GF_FOR_CLASS[cid]
        ok, residual = verify_identity(name, rule_series(cid, args.order), args.order)
        if ok:
            print(f"{cid}: {name} identity holds to order {args.order}")
        else:
            failed = True
            n, poly = residual
            print(f"{cid}: {name} identity FAILS, residual ({poly})t^{n}")
    return 1 if failed else 0


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
    all_agree = True
    for cid in CLASS_IDS:
        pats = REGISTRY[cid].patterns
        counts = {r: list(ROUTES[r](cid, pats, args.max_n)) for r in routes}
        for n in range(1, args.max_n + 1):
            row = {r: counts[r][n - 1] if r in counts else None for r in ROUTES}
            agree = len({v for v in row.values() if v is not None}) == 1
            all_agree = all_agree and agree
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
    return 0 if all_agree else 1


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
