"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patavoid
from patavoid import cli, closed_forms, enumerate as enumeration, rules
from patavoid.cli import main
from patavoid.closed_forms import REGISTRY as GFS, gf_counts
from patavoid.patterns import avoids, parse_pattern_set
from patavoid.rules import CLASS_IDS
from patavoid.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_rule(capsys):
    code, out, _ = run(capsys, "count", "--class", "C10", "--max-n", "7",
                       "--method", "rule")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 2", "3 4", "4 8", "5 19", "6 47",
                                "7 125"]


def test_count_methods_agree(capsys):
    results = {}
    for method in ("brute", "tree", "rule", "gf"):
        code, out, _ = run(capsys, "count", "--class", "C7", "--max-n", "6",
                           "--method", method)
        assert code == 0
        results[method] = out
    assert len(set(results.values())) == 1


def test_count_adhoc_patterns(capsys):
    code, out, _ = run(capsys, "count", "--avoid", "2-1-3", "--max-n", "5")
    assert code == 0
    assert out.splitlines()[-1] == "5 42"


@pytest.mark.parametrize("method,owner,name", [
    ("brute", cli, "count_brute"),
    ("tree", cli, "iter_tree_levels"),
    ("rule", rules, "_dp_levels")])
def test_count_prints_each_level_as_it_is_computed(monkeypatch, method, owner, name):
    # A reader that stops after the first line (`| head -n 1`) must not
    # wait for the last level to be computed.
    computed = []
    inner = getattr(owner, name)
    if method == "brute":
        def spy(pats, n):
            computed.append(n)
            return inner(pats, n)
    else:
        def spy(*args):
            for level in inner(*args):
                computed.append(level)
                yield level
    monkeypatch.setattr(owner, name, spy)
    lines = []

    class Recorder(io.StringIO):
        def write(self, text):
            if text != "\n":
                lines.append((text, len(computed)))
            return len(text)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["count", "--class", "C1", "--method", method, "--max-n", "6"]) == 0
    assert lines == [(f"{n} {c}", n) for n, c in
                     enumerate([1, 1, 2, 4, 9, 21], start=1)]


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--avoid", "2-1-3", "--method", "gf")
    assert code == 2 and "requires --class" in err
    # the scope is checked before the pattern text is parsed
    assert run(capsys, "count", "--avoid", "1-2-", "--method", "rule") == (
        2, "", "error: --method rule requires --class\n")
    # refused before any length is enumerated, not after S_1..S_10
    code, out, err = run(capsys, "count", "--class", "C1", "--max-n", "11",
                         "--method", "brute")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "brute-force guard 10" in err
    with pytest.raises(SystemExit) as exc:
        main(["count", "--class", "C99"])
    assert exc.value.code == 2
    for argv, message in [
            (["count", "--class", "C1", "--max-n", "0"], "--max-n must be at least 1"),
            (["count", "--class", "C1", "--max-n", "-3", "--method", "gf"],
             "--max-n must be at least 1"),
            (["verify", "--class", "C1", "--max-n", "0"], "--max-n must be at least 1"),
            (["verify", "--class", "C1", "--order", "-1"], "--order must be at least 0"),
            (["report", "--max-n", "0"], "--max-n must be at least 1"),
            (["report", "--max-n", "-1"], "--max-n must be at least 1")]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and message in err, argv


@pytest.mark.parametrize("text, message", [
    ("1-[2]-3", "barred letter must be first or last (offset 2)"),
    ("[1]", "barred pattern needs at least two letters (offset 0)"),
    ("[2]31", "barred letter must be dash-separated (offset 0)"),
])
def test_a_malformed_bar_is_refused_when_parsed(capsys, text, message):
    # The pattern's own field checks, reported with the bar's offset.
    assert run(capsys, "count", "--avoid", text) == (2, "", f"error: {message}\n")


def test_gf_refuses_a_non_integral_coefficient(capsys, monkeypatch):
    # A wrong closed form must not print a truncated count with status 0.
    monkeypatch.setattr(closed_forms, "closed_form", lambda name, order, **_:
                        TruncatedSeries([0, 1, 1, Fraction(1, 2)], order))
    with pytest.raises(ValueError, match="non-integral coefficient 1/2 at n = 3"):
        gf_counts("C1", 4)
    code, out, err = run(capsys, "count", "--class", "C1", "--method", "gf")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "D has the non-integral" in err


def test_count_tree_counts_sets_not_closed(capsys):
    # 13-[2] is not closed under last-entry deletion (132 avoids it, its
    # parent 12 does not), so a tree pruned by it would print 1, 1, 1, 1, 1.
    # 12-3-[4e],1-23 passes closure_check to n = 6 and is not closed at
    # n = 7, where such a tree printed 860.  No route notes anything.
    for text, max_n, counts in (("13-[2]", 5, [1, 1, 2, 6, 24]),
                                ("12-[3]", 7, [1] * 7),
                                ("12-3-[4e],1-23", 7, [1, 2, 5, 15, 52, 202, 861])):
        for method in ("tree", "brute"):
            code, out, err = run(capsys, "count", "--avoid", text, "--max-n",
                                 str(max_n), "--method", method)
            assert (code, err) == (0, ""), (text, method)
            assert out.splitlines() == [f"{n} {c}" for n, c in enumerate(counts, 1)]


def test_count_makes_only_its_routes_avoids_calls(capsys, monkeypatch):
    # The count command checks nothing beyond its route: the tree's own
    # avoids calls are the only ones.
    calls = []

    def counted(perm, pats):
        calls.append(perm)
        return avoids(perm, pats)
    monkeypatch.setattr(enumeration, "avoids", counted)
    enumeration.count_tree(parse_pattern_set("[2]-31"), 6)
    tree_calls = len(calls)
    calls.clear()
    code, out, _ = run(capsys, "count", "--avoid", "[2]-31", "--max-n", "6")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 1", "3 2", "4 6", "5 24", "6 120"]
    assert len(calls) == tree_calls


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--class", "C4", "--max-n", "6",
                       "--order", "10")
    assert code == 0
    assert "C4: rule matches tree up to n=6" in out
    assert "M identity holds to order 10" in out


@pytest.mark.parametrize("cid,labels", [("C9", 8), ("C10", 26), ("C11", 32)])
def test_verify_counts_labels_without_the_length(capsys, cid, labels):
    # the length is the rule's argument, not a label component, so a label
    # met at several lengths counts once
    code, out, _ = run(capsys, "verify", "--class", cid, "--max-n", "8")
    assert code == 0
    assert f"{cid}: rule matches tree up to n=8 ({labels} distinct labels)" in out


def test_verify_all_classes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--order", "8")
    assert code == 0
    assert out.count("identity holds") == 12


def test_verify_reports_a_rule_mismatch(capsys, monkeypatch):
    # C1 with C2's table: the rule line names the node, C1 gets no identity
    # line, and every other class is still checked.
    c1_with_c2 = dataclasses.replace(rules.REGISTRY["C1"], rule=rules.REGISTRY["C2"].rule)
    monkeypatch.setitem(rules.REGISTRY, "C1", c1_with_c2)
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--order", "8")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == ("C1: MISMATCH at (1, 2, 3): rule predicts ((2,), (4,)), "
                        "tree has ((1,), (2,), (4,))")
    assert not [line for line in lines if line.startswith("C1: D identity")]
    assert out.count("identity holds") == 11


def test_verify_refuses_a_table_with_a_negative_component(capsys, monkeypatch):
    # The table sends the root's one child to (-1,): verify predicts with
    # the level kernel, which refuses it, where a mismatch was reported.
    x1 = rules._spec("X1", "2-1-3", ("r",), (1,), rules.case(rules.point(rules.B - 2)))
    monkeypatch.setitem(rules.REGISTRY, "C1", x1)
    code, out, err = run(capsys, "verify", "--max-n", "6")
    assert (code, out, err) == (2, "", "error: the rule of X1 gives a negative component\n")


def test_verify_reports_a_failed_identity(capsys, monkeypatch):
    # One coefficient of the rule series off by one at t^5: the residual is
    # there, times the constant term of M's denominator.
    rule_series = cli.rule_series
    monkeypatch.setattr(cli, "rule_series", lambda cid, order: rule_series(cid, order)
                        + TruncatedSeries.from_terms(order, {(5, 0, 0): 1}))
    code, out, _ = run(capsys, "verify", "--class", "C4", "--max-n", "5", "--order", "8")
    assert code == 1
    assert out.splitlines() == ["C4: rule matches tree up to n=5 (11 distinct labels)",
                                "C4: M identity FAILS, residual (2 - 2u - 2uv + 2u^2v)t^5"]


def test_report_and_verify_fail_on_a_disagreement(capsys, monkeypatch):
    # A gf route whose count for C1 at n = 3 is one too many: that row, and
    # only that one, disagrees in every format, and the status is 1.
    gf = cli.ROUTES["gf"]

    def off_by_one(cid, pats, max_n):
        return [c + (cid == "C1" and n == 3)
                for n, c in enumerate(gf.counts(cid, pats, max_n), start=1)]
    monkeypatch.setitem(cli.ROUTES, "gf", gf._replace(counts=off_by_one))
    code, out, _ = run(capsys, "report", "--max-n", "3")
    assert code == 1
    assert [line for line in out.splitlines() if not line.endswith(" ok")] == [
        "C1 n=3 brute=2 tree=2 rule=2 gf=3 MISMATCH"]
    code, out, _ = run(capsys, "report", "--max-n", "3", "--format", "csv", "--no-brute")
    assert code == 1
    assert [line for line in out.splitlines() if line.endswith(",false")] == ["C1,3,,2,2,3,false"]
    code, out, _ = run(capsys, "report", "--max-n", "3", "--format", "json")
    assert code == 1
    assert [(row["class"], row["n"], row["counts"]["gf"]) for row in json.loads(out)
            if row["agree"] is False] == [("C1", 3, "3")]
    # A check entry ahead of the others that fails for C1 alone: verify
    # prints no later check of C1, and checks every other class in full.

    def extra(cid, args):
        print(f"{cid}: extra check {'FAILS' if cid == 'C1' else 'holds'}")
        return cid != "C1"
    monkeypatch.setattr(cli, "ROUTES", {"extra": cli.Route(None, True, None, extra),
                                        **cli.ROUTES})
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--order", "6")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("C1:")] == ["C1: extra check FAILS"]
    assert lines[1:4] == ["C2: extra check holds",
                          "C2: rule matches tree up to n=4 (4 distinct labels)",
                          "C2: J identity holds to order 6"]
    assert len(lines) == 1 + 3 * 11


def test_a_routes_scope_and_reach_are_read_from_the_table(capsys, monkeypatch):
    # Brute force with its reach lowered to 3: report prints - past it and
    # never asks it for more, and count refuses before it prints a line.
    asked = []
    count_brute = cli.count_brute

    def spy(pats, n):
        asked.append(n)
        return count_brute(pats, n)
    monkeypatch.setattr(cli, "count_brute", spy)
    monkeypatch.setitem(cli.ROUTES, "brute",
                        cli.ROUTES["brute"]._replace(reach=(3, "brute-force guard")))
    code, out, _ = run(capsys, "report", "--max-n", "5")
    assert code == 0 and max(asked) == 3
    lines = out.splitlines()
    assert "C1 n=3 brute=2 tree=2 rule=2 gf=2 ok" in lines
    assert "C1 n=4 brute=- tree=4 rule=4 gf=4 ok" in lines
    assert "C1 n=5 brute=- tree=9 rule=9 gf=9 ok" in lines
    assert [line.split()[1] for line in lines if "brute=-" in line] == ["n=4", "n=5"] * 12
    code, out, err = run(capsys, "count", "--class", "C1", "--method", "brute", "--max-n", "4")
    assert (code, out, err) == (2, "", "error: --max-n 4 is above the brute-force guard 3\n")
    assert run(capsys, "count", "--class", "C1", "--method", "brute", "--max-n", "3") == (
        0, "1 1\n2 1\n3 2\n", "")
    # The tree limited to registered classes: an ad-hoc set is refused.
    monkeypatch.setitem(cli.ROUTES, "tree", cli.ROUTES["tree"]._replace(any_set=False))
    assert run(capsys, "count", "--avoid", "2-1-3", "--method", "tree") == (
        2, "", "error: --method tree requires --class\n")


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--gf", "R", "--order", "5",
                       "--at-u", "1")
    assert code == 0
    assert out.strip() == "t + 2t^2 + 4t^3 + 8t^4 + 19t^5"
    code, _, err = run(capsys, "expand", "--gf", "P", "--order", "4",
                       "--at-u", "1")
    assert code == 2 and "error" in err
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--gf", "J", "--order", "-1"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2 and "--order must be at least 0" in err


# (argv, stdout) pairs of ``patavoid expand`` at order 8 for every generating
# function, symbolic and with its registered variables set to 1.
_GOLDEN_LINES = (Path(__file__).parent / "data" / "expand_order8.txt") \
    .read_text().splitlines(keepends=True)
_EXPAND_GOLDEN = [(cmd.split()[2:], out)
                  for cmd, out in zip(_GOLDEN_LINES[::2], _GOLDEN_LINES[1::2])]


@pytest.mark.parametrize("argv,expected", _EXPAND_GOLDEN,
                         ids=[" ".join(argv[2:]) for argv, _ in _EXPAND_GOLDEN])
def test_expand_golden(capsys, argv, expected):
    # Integer-valued coefficients print the same whether they are held as
    # int or as Fraction; the text must not change with the series kernel.
    assert run(capsys, *argv) == (0, expected, "")


# Whole outputs of ``patavoid report`` and ``patavoid verify``, which CI also
# compares with the installed command's output.
@pytest.mark.parametrize("argv,name", [
    (["report", "--max-n", "8"], "report_max8.txt"),
    (["report", "--max-n", "8", "--format", "csv"], "report_max8.csv"),
    (["verify", "--max-n", "8", "--order", "12"], "verify_max8.txt"),
], ids=["report", "report-csv", "verify"])
def test_report_and_verify_golden(capsys, argv, name):
    expected = (Path(__file__).parent / "data" / name).read_text()
    assert run(capsys, *argv) == (0, expected, "")


def test_biject(capsys):
    code, out, _ = run(capsys, "biject", "--map", "phi", "--input", "4675123")
    assert (code, out.strip()) == (0, "UUUDDUDDUUUDDD")
    code, out, _ = run(capsys, "biject", "--map", "phi", "--inverse",
                       "--input", "UUUDDUDDUUUDDD")
    assert (code, out.strip()) == (0, "4675123")
    code, out, _ = run(capsys, "biject", "--map", "callan", "--input", "UUDDUD")
    assert (code, out.strip()) == (0, "UD")
    code, out, _ = run(capsys, "biject", "--map", "udu_uuu", "--input", "UUDD")
    assert (code, out.strip()) == (0, "UD")
    code, out, _ = run(capsys, "biject", "--map", "subdiag", "--input", "231")
    assert (code, out.strip()) == (0, "EENE")
    code, _, err = run(capsys, "biject", "--map", "phi", "--input", "213")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "biject", "--map", "udu_uuu", "--input", "")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "biject", "--map", "callan", "--input", "")
    assert code == 2 and "error" in err and len(err.splitlines()) == 1
    code, out, _ = run(capsys, "biject", "--map", "subdiag", "--inverse",
                       "--input", "")
    assert (code, out) == (0, "\n")


def test_biject_long_path(capsys):
    # a long level run once exhausted the recursion of callan_inverse
    code, out, err = run(capsys, "biject", "--map", "callan", "--inverse",
                         "--input", "H" * 5000)
    assert (code, err) == (0, "")
    assert out.strip() == "U" * 5001 + "D" * 5001


def test_report_csv(capsys):
    code, out, _ = run(capsys, "report", "--max-n", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,n,brute,tree,rule,gf,agree"
    assert "C10,5,19,19,19,19,true" in lines
    assert len(lines) == 1 + 12 * 5


def test_report_json_no_brute(capsys):
    code, out, _ = run(capsys, "report", "--max-n", "4", "--format", "json",
                       "--no-brute")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 48
    row = next(r for r in rows if r["class"] == "C11" and r["n"] == 4)
    assert row["counts"] == {"brute": None, "tree": "14", "rule": "14",
                             "gf": "14"}
    assert row["agree"] is True


def test_report_text(capsys):
    code, out, _ = run(capsys, "report", "--max-n", "3")
    assert code == 0
    assert "C1 n=3 brute=2 tree=2 rule=2 gf=2 ok" in out.splitlines()


def test_closed_stdout_exits_141_without_a_traceback():
    # A subprocess, since the fix points the process's own stdout at the
    # null device.  The counts fill far more than a pipe buffer, so the
    # writer is still printing when the reader goes.
    src = str(Path(patavoid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "patavoid.cli", "count", "--class", "C1",
             "--method", "rule", "--max-n", "1000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"1 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_runtime_imports_only_the_standard_library():
    # A fresh isolated interpreter, compared with the modules it held before
    # the import: site hooks may preload third-party modules of their own.
    # The level kernel generator is loaded with the first kernel, not with
    # the package, and a pattern builds its search forms on first use, so
    # parsing the registered class sets builds none.
    src = str(Path(patavoid.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
            "import patavoid, patavoid.cli\n"
            "assert 'patavoid.level_kernel' not in sys.modules\n"
            "import gc\n"
            "assert not any(isinstance(obj, patavoid.patterns.SearchForm)\n"
            "               for obj in gc.get_objects())\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(added - set(sys.stdlib_module_names)))")
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the tree under test
    # free of bytecode.
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['patavoid']\n"


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match and patavoid.__version__ == match.group(1)


def _option(draw, flag, values):
    return draw(st.one_of(st.just([]), values.map(lambda v: [flag, str(v)])))


@st.composite
def cli_argv(draw):
    """Argument vectors over the five subcommands, out-of-range values included.

    Sizes that drive brute force, the tree or the rule replay stay small so
    that one example costs little; the series routes get the full range.
    """
    small = st.integers(-3, 5)
    wide = st.integers(-3, 12)
    command = draw(st.sampled_from(["count", "verify", "expand", "biject",
                                    "report"]))
    if command == "count":
        method = draw(st.sampled_from(["brute", "tree", "rule", "gf"]))
        target = draw(st.one_of(
            st.sampled_from(CLASS_IDS).map(lambda c: ["--class", c]),
            st.sampled_from(["2-1-3", "13-[2]", "21-[3]", "[2o]-31", "12-3,34-21",
                             "1-23,13-[2o]", "1-2-", "[4]", ""]).map(
                                 lambda a: ["--avoid", a])))
        sizes = wide if method in ("rule", "gf") else small
        return [command, *target, "--method", method,
                "--max-n", str(draw(sizes))]
    if command == "verify":
        return [command, "--class", draw(st.sampled_from(CLASS_IDS)),
                "--max-n", str(draw(small)), *_option(draw, "--order", wide)]
    if command == "expand":
        return [command, "--gf", draw(st.sampled_from(sorted(GFS))),
                "--order", str(draw(wide)),
                *_option(draw, "--at-u", st.integers(0, 2)),
                *_option(draw, "--at-v", st.integers(0, 2))]
    if command == "biject":
        inverse = ["--inverse"] if draw(st.booleans()) else []
        return [command, "--map",
                draw(st.sampled_from(["phi", "callan", "udu_uuu", "subdiag"])),
                "--input", draw(st.text("UDHEN0123,", max_size=8)), *inverse]
    return [command, "--max-n", str(draw(small)),
            *_option(draw, "--format", st.sampled_from(["text", "csv", "json"])),
            *(["--no-brute"] if draw(st.booleans()) else [])]


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv
    if code == 0 and argv[1] == "--avoid" and argv[4] == "tree":
        pats = parse_pattern_set(argv[2])
        assert out.getvalue().splitlines() == [
            f"{n} {enumeration.count_brute(pats, n)}"
            for n in range(1, int(argv[6]) + 1)], argv
