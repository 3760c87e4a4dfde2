"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest -s`` to see the lines as they print; without ``-s`` they
appear in the captured output of failing tests.
"""

import time

from patavoid import bijections as B
from patavoid.closed_forms import (GF_FOR_CLASS, closed_form, formula_value,
                                   gf_counts, rule_series, verify_identity)
from patavoid.enumerate import count_brute, count_tree, iter_tree_levels
from patavoid.patterns import avoids, parse_pattern_set
from patavoid.rules import CLASS_IDS, REGISTRY, count_by_rule, verify_rule


def _criterion(k, label, fn):
    start = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {k} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {k} ({label}): PASS [{elapsed:.1f}s]")


def test_acceptance_1_four_way_agreement():
    def check():
        start = time.monotonic()
        for cid in CLASS_IDS:
            spec = REGISTRY[cid]
            gf = gf_counts(cid, 8)
            tree = count_tree(spec.patterns, 8)
            rule = count_by_rule(spec, 8)
            brute = [count_brute(spec.patterns, n) for n in range(1, 9)]
            assert brute == tree == rule == gf, cid
        assert time.monotonic() - start < 60
    _criterion(1, "four-way count agreement, 12 classes, n<=8", check)


def test_acceptance_2_known_sequences():
    def check():
        assert count_by_rule(REGISTRY["C10"], 7) == [1, 2, 4, 8, 19, 47, 125]
        assert count_by_rule(REGISTRY["C11"], 7) == [1, 2, 5, 14, 42, 138, 492]
        for n in range(1, 15):
            assert count_by_rule(REGISTRY["C5"], n)[-1] == 2 ** (n - 1)
            assert count_by_rule(REGISTRY["C6"], n)[-1] \
                == formula_value("west", n)
            assert count_by_rule(REGISTRY["C7"], n)[-1] \
                == formula_value("fib_odd", n)
            assert count_by_rule(REGISTRY["C1"], n)[-1] \
                == formula_value("motzkin", n - 1)
    _criterion(2, "closed-form counting sequences to n=14", check)


def test_acceptance_3_cubic_coefficients():
    def check():
        start = time.monotonic()
        j = closed_form("J", 200)
        q = closed_form("Q", 200)
        for n in range(1, 201):
            assert j.coefficient(n).constant_value() == formula_value("cat3", n)
            assert q.coefficient(n).constant_value() \
                == formula_value("even_formula", n)
        assert time.monotonic() - start < 5
    _criterion(3, "cubic-equation coefficients to n=200 in under 5s", check)


def test_acceptance_4_series_identities():
    def check():
        start = time.monotonic()
        for cids, order in ((("C4", "C5", "C6", "C7", "C8"), 25),
                            (("C9", "C10", "C11"), 40)):
            for cid in cids:
                name = GF_FOR_CLASS[cid]
                ok, residual = verify_identity(name, rule_series(cid, order),
                                               order)
                assert ok, (name, residual)
        assert time.monotonic() - start < 120
    _criterion(4, "symbolic series identities, order 25 and 40", check)


def test_acceptance_5_rules_replay_tree():
    def check():
        for cid in CLASS_IDS:
            report = verify_rule(REGISTRY[cid], 8)
            assert report.ok, str(report)
    _criterion(5, "succession rules match the tree to n=8", check)


def test_acceptance_6_bijections():
    def check():
        p213 = parse_pattern_set("2-1-3")
        pbar = parse_pattern_set("2-1-3,[2]-31")
        pglued = parse_pattern_set("2-1-3,12-3")
        podd = parse_pattern_set("2-1-3,[2o]-31")
        for n, level in enumerate(iter_tree_levels(p213, 9), start=1):
            dyck = set(B.dyck_paths(n))
            images = set()
            for p in level:
                d = B.phi(p)
                assert B.phi_inverse(d) == p
                assert ("UDU" not in d) == avoids(p, pbar)
                assert ("UUU" not in d) == avoids(p, pglued)
                images.add(d)
            assert images == dyck
        for n in range(1, 10):
            domain = [d for d in B.dyck_paths(n) if "UDU" not in d]
            assert sorted(B.callan(d) for d in domain) \
                == sorted(B.motzkin_paths(n - 1))
            for d in domain:
                assert B.callan_inverse(B.callan(d)) == d
                assert B.udu_uuu_inverse(B.udu_uuu(d)) == d
            assert sorted(B.udu_uuu(d) for d in domain) \
                == sorted(d for d in B.dyck_paths(n - 1) if "UUU" not in d)
        for n, level in enumerate(iter_tree_levels(pbar, 9), start=1):
            assert sorted(B.callan(B.phi(p)) for p in level) \
                == sorted(B.motzkin_paths(n - 1))
        for n, level in enumerate(iter_tree_levels(podd, 9), start=1):
            images = set()
            for p in level:
                path = B.subdiag(p)
                assert B.subdiag_inverse(path) == p
                images.add(path)
            assert images == set(B.subdiagonal_paths(n))
    _criterion(6, "bijections: round trips and images to n=9", check)


def test_acceptance_7_binomial_recurrence():
    def check():
        counts = count_by_rule(REGISTRY["C9"], 40)
        assert counts == [formula_value("b_rec", n) for n in range(1, 41)]
    _criterion(7, "binomial-sum recurrence to n=40", check)


def test_acceptance_8_identity_soundness():
    def check():
        from patavoid.series import TruncatedSeries
        order = 9
        for cid in CLASS_IDS:
            name = GF_FOR_CLASS[cid]
            cand = rule_series(cid, order)
            # stay below the truncation order so a residual cannot be
            # pushed past it by a t-factor in the denominator
            for j in (1, 4, 7):
                bump = TruncatedSeries.from_terms(order, {(j, 0, 0): 1})
                ok, residual = verify_identity(name, cand + bump, order)
                assert not ok and residual is not None, (name, j)
    _criterion(8, "identity checker detects perturbed series", check)
