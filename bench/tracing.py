"""Per-layer tracing for the benchmark, done from outside the package.

``Tracer.install`` wraps public functions and methods of the patavoid
modules and rebinds every module attribute that refers to them, so calls
made inside the package (``patavoid.rules.avoids``, the lazy
``from .rules import refined_by_rule`` in ``closed_forms``) reach the
wrappers too.  ``Tracer.uninstall`` puts every original back.  Hot calls
are aggregated into counts and times, never stored one by one.

A span's busy time counts only its outermost activation per name, so a
function that calls itself is not counted twice.  Its self time is its
duration minus the time of the traced spans it called, so the self times
of all spans add up to the time covered by at least one span.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from patavoid import (bijections, closed_forms, enumerate as enumeration,
                      patterns, perms, rules, series)

LAYERS = ("patterns", "perms", "enumerate", "rules", "series", "closed_forms",
          "bijections")

# Fields of a stat record.
CALLS, BUSY, SELF, DEPTH, TRUE = range(5)

# Plain functions, named "<module>.<function>".
FUNCTIONS = [
    (patterns, "avoids"),
    (perms, "append_child"),
    (perms, "statistic"),
    (enumeration, "count_brute"),
    (enumeration, "count_tree"),
    (enumeration, "closure_check"),
    (rules, "count_by_rule"),
    (rules, "refined_by_rule"),
    (rules, "verify_rule"),
    (series, "algebraic_root"),
    (series, "divide_cancel"),
    (closed_forms, "verify_identity"),
    (closed_forms, "formula_value"),
    (closed_forms, "series_from_refined"),
    (bijections, "phi"),
    (bijections, "phi_inverse"),
    (bijections, "callan"),
    (bijections, "callan_inverse"),
    (bijections, "udu_uuu"),
    (bijections, "udu_uuu_inverse"),
    (bijections, "subdiag"),
    (bijections, "subdiag_inverse"),
]
# Generator functions: only the time spent inside each resumption is busy.
GENERATORS = [
    (enumeration, "iter_tree_levels", "enumerate.tree"),
    (bijections, "dyck_paths", "bijections.dyck_paths"),
    (bijections, "motzkin_paths", "bijections.motzkin_paths"),
    (bijections, "subdiagonal_paths", "bijections.subdiagonal_paths"),
]
# Methods, looked up on the class.
METHODS = [
    (series.TruncatedSeries, "__mul__", "series.TruncatedSeries.mul"),
    (series.TruncatedSeries, "inverse", "series.TruncatedSeries.inverse"),
    (series.TruncatedSeries, "sqrt", "series.TruncatedSeries.sqrt"),
]
# Counted, not timed: far too hot to time one by one.
COUNTED = [(series.Poly, "__mul__", "series.Poly.mul")]

CLOSED_FORM = "closed_forms.closed_form"
CLOSED_FORM_KINDS = ("rational", "radical", "algebraic", "sum")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "patavoid" or name.startswith("patavoid."))]


def bindings() -> dict[tuple[object, str], object]:
    """Every name the tracer may rebind, mapped to its current object."""
    out = {}
    for module in _package_modules():
        for key, value in vars(module).items():
            out[(module, key)] = value
    for cls, attr, _ in METHODS + COUNTED:
        out[(cls, attr)] = cls.__dict__[attr]
    return out


def assert_unwrapped(reference: dict[tuple[object, str], object]) -> None:
    """Raise unless every name in ``reference`` is bound to its object there."""
    current = bindings()
    for key, value in reference.items():
        if current.get(key) is not value:
            owner, attr = key
            raise RuntimeError(f"{owner.__name__}.{attr} is not the original")


class Tracer:
    """Counts and times calls into the package while installed."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # frames: [child time, name, flag]
        self._saved: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return st

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def _enter(self, name: str, st: list) -> list:
        frame = [0.0, name, False]
        self._stack.append(frame)
        st[DEPTH] += 1
        return frame

    def _leave(self, st: list, frame: list, dur: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        st[DEPTH] -= 1
        st[SELF] += dur - frame[0]
        if not st[DEPTH]:
            st[BUSY] += dur

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one class's work."""
        st = self.stat(name)
        frame = self._enter(name, st)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(st, frame, time.perf_counter() - t0)
            st[CALLS] += 1

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, name: str, stat_name=None, before=None, after=None):
        fixed = self.stat(name)
        clock = time.perf_counter
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            st = fixed if stat_name is None else self.stat(stat_name(args, kwargs))
            if before is not None:
                before()
            frame = enter(name, st)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(st, frame, clock() - t0)
                st[CALLS] += 1
            if result is True:
                st[TRUE] += 1
            if after is not None:
                after(frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, fn, name: str, after=None):
        st = self.stat(name)
        clock = time.perf_counter
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            state: dict = {}
            try:
                while True:
                    frame = enter(name, st)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(st, frame, clock() - t0)
                    if after is not None:
                        after(state, item)
                    yield item
            finally:
                st[CALLS] += 1
                gen.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, fn, name: str):
        st = self.stat(name)

        def wrapper(*args):
            st[CALLS] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for derived counters ------------------------------------

    def _tree_level(self, state: dict, level: list) -> None:
        # Level n >= 2 is grown by trying n children of every level n-1 node.
        n = state["n"] = state.get("n", 0) + 1
        self.count("tree.nodes", len(level))
        if n > 1:
            self.count("tree.children_tried", state["prev"] * n)
            self.count("tree.children_kept", len(level))
        state["prev"] = len(level)

    def _brute_done(self, frame, args, result) -> None:
        self.count("brute.perms", math.factorial(args[1]))

    def _mark_fallback(self) -> None:
        for frame in reversed(self._stack):
            if frame[1] == CLOSED_FORM:
                frame[2] = True
                return

    def _refined_done(self, frame, args, result) -> None:
        self.count("rules.refined_terms", sum(len(rc.poly.terms) for rc in result))

    def _closed_form_done(self, frame, args, result) -> None:
        if frame[2]:
            self.count("closed_forms.rule_fallbacks")
        self.count("series.fraction_coeffs", sum(
            isinstance(c, Fraction) for p in result.coeffs for c in p.terms.values()))

    def _inverse_begin(self) -> None:
        if self.stat("series.algebraic_root")[DEPTH]:
            self.count("series.newton_steps")

    @staticmethod
    def _closed_form_kind(args, kwargs) -> str:
        name = args[0] if args else kwargs["name"]
        return f"{CLOSED_FORM}.{closed_forms.REGISTRY[name].kind}"

    # -- install / uninstall -------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "enumerate.count_brute": dict(after=self._brute_done),
            "rules.refined_by_rule": dict(before=self._mark_fallback,
                                          after=self._refined_done),
        }
        for module, attr in FUNCTIONS:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            fn = getattr(module, attr)
            self._rebind(fn, self._wrap(fn, name, **hooks.get(name, {})))
        for module, attr, name in GENERATORS:
            fn = getattr(module, attr)
            after = self._tree_level if name == "enumerate.tree" else None
            self._rebind(fn, self._wrap_gen(fn, name, after=after))
        fn = closed_forms.closed_form
        self._rebind(fn, self._wrap(fn, CLOSED_FORM, stat_name=self._closed_form_kind,
                                    after=self._closed_form_done))
        for cls, attr, name in METHODS:
            fn = cls.__dict__[attr]
            before = self._inverse_begin if attr == "inverse" else None
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, before=before))
        for cls, attr, name in COUNTED:
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._count_only(fn, name))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- per-layer metrics of one traced pass --------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``wall`` seconds."""
        def get(name, field):
            st = self.stats.get(name)
            return st[field] if st else 0

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counters.get
        out: dict[str, float] = {}
        calls = get("patterns.avoids", CALLS)
        busy = get("patterns.avoids", BUSY)
        out["patterns.avoids.calls"] = calls
        out["patterns.avoids.busy_s"] = busy
        out["patterns.avoids.ns_per_call"] = ratio(busy * 1e9, calls)
        out["patterns.avoids.accept_ratio"] = ratio(get("patterns.avoids", TRUE), calls)
        for name in ("perms.append_child", "perms.statistic"):
            out[f"{name}.calls"] = get(name, CALLS)
            out[f"{name}.busy_s"] = get(name, BUSY)
        brute = get("enumerate.count_brute", BUSY)
        out["enumerate.count_brute.busy_s"] = brute
        out["enumerate.brute.perms_per_s"] = ratio(c("brute.perms", 0), brute)
        out["enumerate.tree.busy_s"] = get("enumerate.tree", BUSY)
        out["enumerate.tree.self_s"] = get("enumerate.tree", SELF)
        out["enumerate.tree.nodes"] = c("tree.nodes", 0)
        out["enumerate.tree.children_tried"] = c("tree.children_tried", 0)
        out["enumerate.tree.keep_ratio"] = ratio(c("tree.children_kept", 0),
                                                 c("tree.children_tried", 0))
        out["rules.verify_rule.busy_s"] = get("rules.verify_rule", BUSY)
        out["rules.verify_rule.self_s"] = get("rules.verify_rule", SELF)
        out["rules.count_by_rule.busy_s"] = get("rules.count_by_rule", BUSY)
        out["rules.refined_by_rule.busy_s"] = get("rules.refined_by_rule", BUSY)
        out["rules.refined_by_rule.terms"] = c("rules.refined_terms", 0)
        out["series.Poly.mul.calls"] = get("series.Poly.mul", CALLS)
        for op in ("mul", "inverse", "sqrt"):
            out[f"series.TruncatedSeries.{op}.calls"] = get(f"series.TruncatedSeries.{op}", CALLS)
            out[f"series.TruncatedSeries.{op}.busy_s"] = get(f"series.TruncatedSeries.{op}", BUSY)
        out["series.algebraic_root.busy_s"] = get("series.algebraic_root", BUSY)
        out["series.newton_steps"] = c("series.newton_steps", 0)
        out["series.fraction_coeffs"] = c("series.fraction_coeffs", 0)
        cf_self = 0.0
        for kind in CLOSED_FORM_KINDS:
            out[f"{CLOSED_FORM}.{kind}.busy_s"] = get(f"{CLOSED_FORM}.{kind}", BUSY)
            cf_self += get(f"{CLOSED_FORM}.{kind}", SELF)
        out[f"{CLOSED_FORM}.self_s"] = cf_self
        out["closed_forms.verify_identity.busy_s"] = get("closed_forms.verify_identity", BUSY)
        out["closed_forms.rule_fallbacks"] = c("closed_forms.rule_fallbacks", 0)
        bij = [st for name, st in self.stats.items() if name.startswith("bijections.")]
        out["bijections.calls"] = sum(st[CALLS] for st in bij)
        out["bijections.busy_s"] = sum(st[BUSY] for st in bij)
        for cid in rules.CLASS_IDS:
            out[f"class.{cid}.busy_s"] = get(f"class.{cid}", BUSY)
        covered = 0.0
        for layer in LAYERS:
            own = sum(st[SELF] for name, st in self.stats.items()
                      if name.split(".", 1)[0] == layer)
            out[f"layer.{layer}.self_share"] = ratio(own, wall)
            covered += own
        out["trace.uncovered_share"] = ratio(wall - covered, wall)
        return out
